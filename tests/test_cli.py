import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eltomo import cli, metrics, projector, simulate, solvers
from eltomo.cli import resolve_config, run
from eltomo.fileio import load_image
from eltomo.metrics import (alpha_scale_heuristic, mu_scale_heuristic, rmse,
                            run_method)
from eltomo.projector import build_projector
from eltomo.simulate import load_dataset
from eltomo.solvers import NumericalError, SolverConfig, history_csv


def _run(*args):
    return run([str(a) for a in args])


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def ct_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "ct"
    code = _run("simulate", "--experiment", "ct", "--fine-n", 64,
                "--recon-n", 32, "--n-angles", 30, "--seed", 11,
                "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def et_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "et"
    code = _run("simulate", "--experiment", "et", "--et-n", 32,
                "--n-angles", 16, "--counts", 2e5, "--n-realizations", 1,
                "--seed", 4, "--out", out)
    assert code == 0
    return out


def test_regularized_method_rejects_zero_alpha(ct_dataset, tmp_path):
    code = _run("reconstruct", "--dataset", ct_dataset, "--method", "el",
                "--alpha", 0.0, "--out", tmp_path / "r")
    assert code == 2


def test_mlem_on_ct_data_is_rejected(ct_dataset, tmp_path, capsys):
    code = _run("reconstruct", "--dataset", ct_dataset, "--method", "mlem",
                "--out", tmp_path / "r")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: method 'mlem' is not supported with ct data"]
    assert captured.out == "" and not (tmp_path / "r").exists()


def test_unknown_method_is_rejected_before_loading(tmp_path, capsys):
    assert _run("reconstruct", "--dataset", tmp_path / "nope",
                "--method", "bogus", "--out", tmp_path / "r") == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown method 'bogus'"]


def test_et_reconstruct_runs_poisson_ml_em(et_dataset, tmp_path):
    out = tmp_path / "r"
    assert _run("reconstruct", "--dataset", et_dataset, "--method", "el",
                "--alpha", 1e-3, "--outer-iters", 4, "--out", out) == 0
    ds = load_dataset(et_dataset)
    cfg = SolverConfig(outer_iters=4, inner_iters=5, rho=1e-4, alpha=1e-3)
    res = run_method(build_projector(ds.recon_projector), ds, "el", cfg)
    assert (out / "convergence_el.csv").read_bytes() \
        == history_csv(res).encode()


def test_emission_grid_too_small_for_its_hot_spots(tmp_path):
    # at 16^2 no hot spot fits inside its 4-sigma margin; a subprocess
    # with a timeout, so that an endless rejection loop fails the test
    # instead of stalling the suite
    src = str(Path(metrics.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-m", "eltomo.cli", "simulate", "--experiment", "et",
         "--et-n", "16", "--out", str(tmp_path / "et")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "16x16" in lines[0]


def test_missing_dataset_is_io_error(tmp_path):
    code = _run("reconstruct", "--dataset", tmp_path / "nope",
                "--method", "cgls", "--out", tmp_path / "r")
    assert code == 3


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key=1\n")
    code = _run("simulate", "--config", cfg, "--out", tmp_path / "o")
    assert code == 2


def test_config_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed=1\n\xff\n")
    assert _run("simulate", "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config")
    assert not (tmp_path / "o").exists()


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=1\nfine_n=64\nrecon_n=32\nn_angles=30\n")
    resolved = resolve_config(["simulate", "--config", str(cfg),
                               "--seed", "2"])
    assert resolved["seed"] == 2          # flag wins
    assert resolved["fine_n"] == 64       # file overrides default
    assert resolved["i0"] == 3e5          # untouched default


def test_reconstruct_writes_outputs(ct_dataset, tmp_path):
    out = tmp_path / "recon"
    code = _run("reconstruct", "--dataset", ct_dataset, "--method", "el",
                "--alpha", 1e-7, "--outer-iters", 5, "--out", out)
    assert code == 0
    assert (out / "recon_el").exists()
    assert (out / "convergence_el.csv").exists()
    assert (out / "provenance.txt").exists()
    prov = dict(line.split("=", 1)
                for line in (out / "provenance.txt").read_text().splitlines())
    assert prov["method"] == "el"
    assert float(prov["alpha"]) == 1e-7


def test_phantom_command(tmp_path):
    out = tmp_path / "ph"
    assert _run("phantom", "--experiment", "et", "--nx", 64,
                "--seed", 2, "--out", out) == 0
    assert (out / "phantom").exists()
    assert (out / "mask_GR").exists() and (out / "mask_BR").exists()


def test_sweep_command(ct_dataset, tmp_path):
    out = tmp_path / "sw"
    code = _run("sweep", "--dataset", ct_dataset, "--method", "tv",
                "--param", "alpha", "--values", "1e-7,1e-6,1e-5",
                "--outer-iters", 4, "--out", out)
    assert code == 0
    lines = (out / "sweep_tv.csv").read_text().splitlines()
    assert lines[0] == "alpha,mean_rmse,gr_mean,br_mean"
    assert len(lines) == 4
    assert all(row.endswith(",,") for row in lines[1:])  # no region masks


def test_sweep_prints_failed_points(ct_dataset, tmp_path, monkeypatch,
                                   capsys):
    original = metrics.run_method

    def failing(A, dataset, method, cfg, **kwargs):
        if cfg.alpha == 1e-6:
            raise NumericalError("non-finite iterate in test")
        return original(A, dataset, method, cfg, **kwargs)

    monkeypatch.setattr(metrics, "run_method", failing)
    out = tmp_path / "sw"
    code = _run("sweep", "--dataset", ct_dataset, "--method", "tv",
                "--param", "alpha", "--values", "1e-7,1e-6",
                "--outer-iters", 2, "--out", out)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0] == ("failed alpha=9.9999999999999995e-07 realization 0: "
                        "non-finite iterate in test")
    assert lines[1].startswith("best alpha=9.9999999999999995e-08 ")
    rows = (out / "sweep_tv.csv").read_text().splitlines()
    assert rows[2] == "9.9999999999999995e-07,nan,,"


def test_sweep_point_equals_reconstruct_at_its_alpha(ct_dataset, tmp_path):
    common = ("--dataset", ct_dataset, "--method", "el", "--outer-iters", 3)
    assert _run("sweep", *common, "--values", "1e-7,1e-6",
                "--out", tmp_path / "sw") == 0
    rows = (tmp_path / "sw" / "sweep_el.csv").read_text().splitlines()[1:]
    truth = load_image(ct_dataset / "ground_truth")
    for row in rows:
        alpha, mean_rmse, _, _ = row.split(",")
        out = tmp_path / f"r{alpha}"
        assert _run("reconstruct", *common, "--alpha", alpha,
                    "--out", out) == 0
        image = load_image(out / "recon_el")
        assert float(mean_rmse) == rmse(image, truth)


@pytest.mark.parametrize("flags,message", [
    (("--method", "tv", "--param", "mu", "--alpha", 1e-3),
     "sweeping mu needs method 'tvl2'"),
    (("--method", "tv", "--param", "beta", "--alpha", 1e-3),
     "sweeping beta needs method 'el'"),
    (("--method", "tvl2", "--param", "mu", "--mu", 1e-7),
     "sweeping mu requires a fixed alpha > 0"),
    (("--method", "el", "--param", "beta"),
     "sweeping beta requires a fixed alpha > 0"),
    (("--method", "tvl2", "--param", "alpha"), "method 'tvl2' needs mu > 0"),
], ids=["mu-not-tvl2", "beta-not-el", "mu-no-alpha", "beta-no-alpha",
        "tvl2-no-mu"])
def test_sweep_parameter_mismatch_is_one_error_line(flags, message,
                                                    ct_dataset, tmp_path,
                                                    capsys):
    assert _run("sweep", "--dataset", ct_dataset, *flags, "--outer-iters", 2,
                "--sweep-points", 2, "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == "" and not (tmp_path / "o").exists()


def test_sweep_default_grids_are_centred_where_report_sweeps(ct_dataset,
                                                             tmp_path):
    ds = load_dataset(ct_dataset)
    A = build_projector(ds.recon_projector)
    cases = [
        (("--method", "tvl2", "--param", "alpha", "--mu", 1e-6),
         alpha_scale_heuristic(A, ds, "tvl2", mu=1e-6)),
        (("--method", "tvl2", "--param", "mu", "--alpha", 1e-3),
         mu_scale_heuristic(A, ds)),
        (("--method", "el", "--param", "beta", "--alpha", 1e-6,
          "--beta", 0.05), 0.05),
    ]
    for i, (flags, center) in enumerate(cases):
        out = tmp_path / str(i)
        assert _run("sweep", "--dataset", ct_dataset, *flags,
                    "--outer-iters", 2, "--sweep-points", 3,
                    "--sweep-decades", 2, "--out", out) == 0
        rows = next(out.glob("sweep_*.csv")).read_text().splitlines()[1:]
        # a 3-point grid's middle value is its centre
        assert float(rows[1].split(",")[0]) == center


def test_full_ct_pipeline_table_has_four_methods(tmp_path):
    data = tmp_path / "data"
    assert _run("simulate", "--experiment", "ct", "--fine-n", 64,
                "--recon-n", 32, "--n-angles", 30, "--seed", 5,
                "--out", data) == 0
    report = tmp_path / "report"
    assert _run("report", "--dataset", data, "--outer-iters", 6,
                "--inner-iters", 3, "--sweep-points", 3,
                "--out", report) == 0
    rows = (report / "table.csv").read_text().splitlines()
    assert rows[0] == "method,best_parameter,rmse"
    assert [r.split(",")[0] for r in rows[1:]] == ["cgls", "tv", "tvl2", "el"]


def test_full_et_pipeline_emits_region_table(tmp_path):
    data = tmp_path / "data"
    assert _run("simulate", "--experiment", "et", "--et-n", 64,
                "--n-angles", 20, "--counts", 2e5, "--n-realizations", 2,
                "--seed", 3, "--out", data) == 0
    report = tmp_path / "report"
    assert _run("report", "--dataset", data, "--outer-iters", 6,
                "--inner-iters", 3, "--sweep-points", 3,
                "--realizations", 2, "--out", report) == 0
    rows = (report / "table.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["mlem", "tv", "tvl2", "el"]
    region = (report / "region_rmse.csv").read_text().splitlines()
    assert region[0] == "method,gr_mean,br_mean"
    assert len(region) == 5


def test_pipeline_rerun_is_byte_identical(tmp_path):
    # identical config means identical paths: rerun into the same tree
    import shutil

    trees = []
    root = tmp_path / "run"
    for _ in range(2):
        if root.exists():
            shutil.rmtree(root)
        data = root / "data"
        assert _run("simulate", "--experiment", "ct", "--fine-n", 64,
                    "--recon-n", 32, "--n-angles", 30, "--seed", 9,
                    "--out", data) == 0
        recon = root / "recon"
        assert _run("reconstruct", "--dataset", data, "--method", "tv",
                    "--alpha", 1e-6, "--outer-iters", 5, "--out", recon) == 0
        trees.append(_tree_bytes(root))
    assert trees[0] == trees[1]


def test_thread_count_leaves_output_bytes_alone(tmp_path, monkeypatch):
    # provenance records the paths, so both runs write the same tree
    import shutil

    from eltomo import projector

    # split products and streaming at toy size
    monkeypatch.setattr(projector, "SPLIT_NNZ", 1000)
    monkeypatch.setattr(projector, "STREAM_SPLIT_PIXELS", 1000)
    trees = []
    root = tmp_path / "run"
    for threads in (1, 2):
        monkeypatch.setattr(projector, "THREADS", threads)
        if root.exists():
            shutil.rmtree(root)
        data = root / "data"
        assert _run("simulate", "--experiment", "ct", "--fine-n", 64,
                    "--recon-n", 32, "--n-angles", 30, "--seed", 9,
                    "--out", data) == 0
        assert _run("reconstruct", "--dataset", data, "--method", "el",
                    "--alpha", 1e-7, "--outer-iters", 5,
                    "--out", root / "recon") == 0
        trees.append(_tree_bytes(root))
    assert trees[0] == trees[1]


@pytest.mark.parametrize("simulate,report", [
    (("--experiment", "ct", "--fine-n", 64, "--recon-n", 32, "--n-angles", 30),
     ()),
    (("--experiment", "et", "--et-n", 32, "--n-angles", 16, "--counts", 2e5,
      "--n-realizations", 2), ("--realizations", 2)),
], ids=["ct", "et"])
def test_report_bytes_do_not_depend_on_thread_count(simulate, report,
                                                    tmp_path, monkeypatch,
                                                    bounded):
    # the sweep runs go to both threads with two, and provenance records
    # the paths, so both runs write the same tree
    import shutil

    from eltomo import projector

    trees = []
    root = tmp_path / "run"
    for threads in (1, 2):
        monkeypatch.setattr(projector, "THREADS", threads)
        if root.exists():
            shutil.rmtree(root)
        data = root / "data"
        assert _run("simulate", *simulate, "--seed", 4, "--out", data) == 0
        assert bounded(lambda: _run(
            "report", "--dataset", data, "--outer-iters", 4,
            "--inner-iters", 2, "--sweep-points", 3, *report,
            "--out", root / "report")) == 0
        trees.append(_tree_bytes(root))
    assert len(trees[0]) > 10 and trees[0] == trees[1]


@pytest.mark.parametrize("flag", ["--tau", "--sigma", "--eps-rel",
                                  "--gamma-rel", "--precondition",
                                  "--fidelity", "--break-adjoint", "--bogus"])
def test_removed_or_unknown_flag_is_one_error_line(flag, ct_dataset,
                                                   tmp_path, capsys):
    assert _run("reconstruct", "--dataset", ct_dataset, "--method", "el",
                "--alpha", 1e-7, flag, 1, "--out", tmp_path / "r") == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert flag in err[0] and captured.out == ""


@pytest.mark.parametrize("flags", [
    ("--method", "el", "--alpha", "nan"),
    ("--method", "el", "--alpha", "inf"),
    ("--method", "tvl2", "--alpha", 1e-7, "--mu", "nan"),
    ("--method", "tvl2", "--alpha", 1e-7, "--mu", "inf"),
    ("--method", "el", "--alpha", 1e-7, "--beta", "inf"),
    ("--method", "el", "--alpha", 1e-7, "--rho", "nan"),
], ids=["alpha-nan", "alpha-inf", "mu-nan", "mu-inf", "beta-inf", "rho-nan"])
def test_non_finite_parameter_is_one_error_line(flags, ct_dataset, tmp_path,
                                                capsys):
    assert _run("reconstruct", "--dataset", ct_dataset, *flags,
                "--outer-iters", 3, "--out", tmp_path / "r") == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("command", ["report", "sweep"])
def test_realizations_below_one_is_one_error_line(command, count, ct_dataset,
                                                  tmp_path, capsys):
    assert _run(command, "--dataset", ct_dataset, "--method", "tv",
                "--realizations", count, "--outer-iters", 2,
                "--sweep-points", 2, "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "realizations" in err[0] and captured.out == ""


@pytest.mark.parametrize("command", ["report", "sweep"])
def test_realizations_above_the_dataset_is_one_error_line(command, ct_dataset,
                                                          tmp_path, capsys):
    assert _run(command, "--dataset", ct_dataset, "--method", "tv",
                "--realizations", 2, "--outer-iters", 2,
                "--sweep-points", 2, "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err == ["error: realizations=2 exceeds the dataset's 1"]
    assert captured.out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,line,message", [
    ("nbins", None, "missing key 'nbins'"),
    ("bin_pitch", "bin_pitch=abc", "bad value for bin_pitch: 'abc'"),
], ids=["missing-nbins", "bad-bin-pitch"])
def test_bad_provenance_is_one_io_error_line(key, line, message, ct_dataset,
                                             tmp_path, capsys):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(ct_dataset, data)
    prov = data / "provenance.txt"
    lines = [entry for entry in prov.read_text().splitlines()
             if not entry.startswith(key + "=")]
    if line is not None:
        lines.append(line)
    prov.write_text("\n".join(lines) + "\n")
    assert _run("reconstruct", "--dataset", data, "--method", "cgls",
                "--outer-iters", 2, "--out", tmp_path / "r") == 3
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(prov) in err[0] and message in err[0]
    assert captured.out == ""


def test_preconditioned_reconstruct_does_not_depend_on_seed(ct_dataset,
                                                            tmp_path):
    trees = []
    for seed in (1, 2):
        out = tmp_path / f"seed{seed}"
        assert _run("reconstruct", "--dataset", ct_dataset, "--method", "el",
                    "--alpha", 1e-7, "--outer-iters", 3, "--seed", seed,
                    "--out", out) == 0
        tree = _tree_bytes(out)
        del tree["provenance.txt"]  # records the seed itself
        trees.append(tree)
    assert len(trees[0]) == 4 and trees[0] == trees[1]


def test_verify_passes_and_fault_injection_fails(capsys, monkeypatch):
    assert _run("verify", "--trials", 20, "--n", 8) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    apply_adjoint = projector.SparseOperator.apply_adjoint
    monkeypatch.setattr(projector.SparseOperator, "apply_adjoint",
                        lambda self, v: np.roll(apply_adjoint(self, v), 1))
    assert _run("verify", "--trials", 5, "--n", 8) == 1
    out = capsys.readouterr().out
    assert "FAIL adjoint" in out


def test_verify_checks_the_ml_em_solver_update(capsys, monkeypatch):
    em_update = solvers.em_update

    def wrong(A, b):
        update, floor, q1 = em_update(A, b)
        return (lambda u, q: 1.01 * update(u, q)), floor, q1

    monkeypatch.setattr(solvers, "em_update", wrong)
    assert _run("verify", "--trials", 5, "--n", 8) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [
        ["PASS", "adjoint"], ["PASS", "gradient"],
        ["FAIL", "mlem_fixed_point"], ["PASS", "error_bound"]]


@pytest.mark.parametrize("key", ["fidelity", "break_adjoint"])
def test_removed_config_key_is_unknown(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}=ls\n")
    assert _run("verify", "--config", cfg) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: unknown config key {key!r}"]


def test_no_command_is_config_error(capsys):
    assert run(["--bogus"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", ["reconstruct", "sweep", "report"])
def test_operator_over_the_memory_budget_is_one_error_line(
        command, ct_dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(projector, "_available_memory", lambda: 2**14)
    assert _run(command, "--dataset", ct_dataset, "--method", "tv",
                "--alpha", 1e-7, "--outer-iters", 2, "--sweep-points", 2,
                "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "0.0 MiB of memory is available" in err[0]
    assert "--n-angles" in err[0] and captured.out == ""
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment,flag", [("ct", "--fine-n"),
                                             ("et", "--et-n")])
def test_simulation_over_the_memory_budget_is_one_error_line(
        experiment, flag, tmp_path, capsys, monkeypatch):
    # refused before the phantom is drawn
    def no_phantom(*args):
        raise AssertionError("the phantom was drawn")

    monkeypatch.setattr(simulate, "generate_ct_phantom", no_phantom)
    monkeypatch.setattr(simulate, "generate_et_phantom", no_phantom)
    monkeypatch.setattr(projector, "_available_memory", lambda: 2**17)
    assert _run("simulate", "--experiment", experiment, "--fine-n", 64,
                "--recon-n", 32, "--et-n", 64, "--n-angles", 30,
                "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "64x64 grid" in err[0] and "0.1 MiB of memory is available" in err[0]
    assert flag in err[0] and captured.out == ""
    assert not (tmp_path / "o").exists()


def test_simulation_within_the_memory_budget_runs(tmp_path, monkeypatch):
    # a 64^2 CT simulation with 30 angles fits in 8 MiB by its own count
    monkeypatch.setattr(projector, "_available_memory", lambda: 2**23)
    assert _run("simulate", "--experiment", "ct", "--fine-n", 64,
                "--recon-n", 32, "--n-angles", 30,
                "--out", tmp_path / "o") == 0


def test_negative_detector_size_is_one_error_line(tmp_path, capsys):
    assert _run("simulate", "--experiment", "ct", "--fine-n", 40,
                "--recon-n", 20, "--n-angles", 6, "--nbins", -3,
                "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "nbins" in err[0] and "-3" in err[0] and captured.out == ""
    assert not (tmp_path / "o").exists()
    # 0 keeps selecting the default detector: 29 bins on a 20^2 grid
    assert _run("simulate", "--experiment", "ct", "--fine-n", 40,
                "--recon-n", 20, "--n-angles", 6, "--nbins", 0,
                "--out", tmp_path / "d") == 0
    assert "nbins=29\n" in (tmp_path / "d" / "provenance.txt").read_text()


@pytest.fixture
def heavy_calls(monkeypatch):
    """The names of the projector builds, grid-centre heuristics and power
    iterations a run calls; each such call also raises."""
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} was called")
        return call

    for module in (cli, metrics, projector):
        monkeypatch.setattr(module, "build_projector",
                            refuse("build_projector"))
    for name in ("alpha_scale_heuristic", "mu_scale_heuristic"):
        monkeypatch.setattr(metrics, name, refuse(name))
    monkeypatch.setattr(solvers, "power_iteration", refuse("power_iteration"))
    return calls


# every exit-2 case that the parameters and the dataset decide: the
# command, the dataset ("ct", "et" or a missing directory) and the flags
@pytest.mark.parametrize("command,data,flags", [
    ("reconstruct", "ct", ("--method", "el", "--alpha", 0.0)),
    ("reconstruct", "ct", ("--method", "mlem")),
    ("reconstruct", "et", ("--method", "cgls")),
    ("reconstruct", "missing", ("--method", "bogus")),
    *[("reconstruct", "ct", ("--method", "el", "--alpha", 1e-7, flag, 1))
      for flag in ("--tau", "--sigma", "--eps-rel", "--gamma-rel",
                   "--precondition", "--fidelity", "--break-adjoint",
                   "--bogus")],
    *[("reconstruct", "ct", flags) for flags in (
        ("--method", "el", "--alpha", "nan"),
        ("--method", "el", "--alpha", "inf"),
        ("--method", "tvl2", "--alpha", 1e-7, "--mu", "nan"),
        ("--method", "tvl2", "--alpha", 1e-7, "--mu", "inf"),
        ("--method", "el", "--alpha", 1e-7, "--beta", "inf"),
        ("--method", "el", "--alpha", 1e-7, "--rho", "nan"),
        ("--method", "cgls", "--realization", 1),
        ("--method", "cgls", "--outer-iters", -1))],
    *[("sweep", "ct", flags) for flags in (
        ("--method", "tv", "--param", "mu", "--alpha", 1e-3),
        ("--method", "tv", "--param", "beta", "--alpha", 1e-3),
        ("--method", "tvl2", "--param", "mu", "--mu", 1e-7),
        ("--method", "el", "--param", "beta"),
        ("--method", "tvl2", "--param", "alpha"),
        ("--method", "cgls",),
        ("--values", "1,x"),
        ("--values", 1),
        ("--values", "1,-2"),
        ("--values", "1,inf"),
        ("--rho", 0),
        ("--inner-iters", -1),
        ("--sweep-points", 1),
        ("--sweep-points", -1),
        ("--sweep-decades", "nan"),
        ("--beta", "nan"),
        ("--method", "tvl2", "--mu", "inf"),
        ("--outer-iters", -1))],
    *[("report", "ct", flags) for flags in (
        ("--rho", 0),
        ("--inner-iters", 0),
        ("--sweep-points", 0),
        ("--sweep-points", -2),
        ("--sweep-decades", "nan"),
        ("--beta", 0),
        ("--outer-iters", -3))],
    *[(command, "ct", ("--method", "tv", "--realizations", count))
      for command in ("sweep", "report") for count in (0, -1, 2)],
    ("simulate", "missing", ("--nbins", -3)),
], ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
def test_bad_parameters_end_before_the_heavy_work(command, data, flags,
                                                  request, tmp_path, capsys,
                                                  heavy_calls):
    dataset = (tmp_path / "nope" if data == "missing"
               else request.getfixturevalue(f"{data}_dataset"))
    assert _run(command, "--dataset", dataset, *flags,
                "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == "" and heavy_calls == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["reconstruct", "sweep", "report"])
def test_negative_outer_iters_is_rejected_before_loading(command, tmp_path,
                                                         capsys):
    assert _run(command, "--dataset", tmp_path / "nope", "--method", "cgls",
                "--outer-iters", -3, "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: outer_iters must be >= 0 (0 selects the default), got -3"]
    assert captured.out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("data,method,default", [("ct", "cgls", 80),
                                                 ("et", "mlem", 130)])
def test_zero_outer_iters_selects_the_data_kinds_default(data, method,
                                                         default, request,
                                                         tmp_path):
    dataset = request.getfixturevalue(f"{data}_dataset")
    trees = []
    for count in (0, default):
        out = tmp_path / str(count)
        assert _run("reconstruct", "--dataset", dataset, "--method", method,
                    "--outer-iters", count, "--out", out) == 0
        tree = _tree_bytes(out)
        del tree["provenance.txt"]  # records the count as given
        trees.append(tree)
    assert len(trees[0]) == 4 and trees[0] == trees[1]


@pytest.mark.parametrize("points", [1, 0, -1, -2])
@pytest.mark.parametrize("command", ["sweep", "report"])
def test_sweep_points_below_two_name_the_rule(command, points, ct_dataset,
                                              tmp_path, capsys, heavy_calls):
    assert _run(command, "--dataset", ct_dataset, "--method", "tv",
                "--sweep-points", points, "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: sweep needs at least 2 grid points"]
    assert captured.out == "" and heavy_calls == []


@pytest.mark.parametrize("decades", ["nan", "inf", 0, -1])
@pytest.mark.parametrize("command", ["sweep", "report"])
def test_sweep_decades_must_be_finite_and_positive(command, decades,
                                                   ct_dataset, tmp_path,
                                                   capsys, heavy_calls):
    assert _run(command, "--dataset", ct_dataset, "--method", "tv",
                "--sweep-decades", decades, "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: sweep decades must be finite and > 0: {float(decades)}"]
    assert captured.out == "" and heavy_calls == []
    assert not (tmp_path / "o").exists()
