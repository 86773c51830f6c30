from pathlib import Path

import pytest

from eltomo.cli import resolve_config, run


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


def test_regularized_method_rejects_zero_alpha(ct_dataset, tmp_path):
    code = _run("reconstruct", "--dataset", ct_dataset, "--method", "el",
                "--fidelity", "ls", "--alpha", 0.0, "--out", tmp_path / "r")
    assert code == 2


def test_cgls_poisson_pair_rejected(ct_dataset, tmp_path):
    code = _run("reconstruct", "--dataset", ct_dataset, "--method", "cgls",
                "--fidelity", "poisson", "--out", tmp_path / "r")
    assert code == 2


def test_missing_dataset_is_io_error(tmp_path):
    code = _run("reconstruct", "--dataset", tmp_path / "nope",
                "--method", "cgls", "--fidelity", "ls",
                "--out", tmp_path / "r")
    assert code == 3


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key=1\n")
    code = _run("simulate", "--config", cfg, "--out", tmp_path / "o")
    assert code == 2


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
                "--fidelity", "ls", "--alpha", 1e-7, "--outer-iters", 5,
                "--out", out)
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
    assert lines[0] == "alpha,mean_rmse"
    assert len(lines) == 4


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
                    "--fidelity", "ls", "--alpha", 1e-6,
                    "--outer-iters", 5, "--out", recon) == 0
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
                    "--fidelity", "ls", "--alpha", 1e-7,
                    "--outer-iters", 5, "--out", root / "recon") == 0
        trees.append(_tree_bytes(root))
    assert trees[0] == trees[1]


def test_sigma_zero_means_auto_and_negative_is_rejected(ct_dataset,
                                                        tmp_path, capsys):
    args = ("reconstruct", "--dataset", ct_dataset, "--method", "el",
            "--alpha", 1e-7, "--outer-iters", 2, "--precondition", "true")
    assert _run(*args, "--sigma", 0, "--out", tmp_path / "auto") == 0
    capsys.readouterr()
    assert _run(*args, "--sigma", -1, "--out", tmp_path / "neg") == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_verify_passes_and_fault_injection_fails(capsys):
    assert _run("verify", "--trials", 20, "--n", 8) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert _run("verify", "--trials", 5, "--n", 8, "--break-adjoint",
                "true") == 1
    out = capsys.readouterr().out
    assert "FAIL adjoint" in out


def test_no_command_is_config_error(capsys):
    with pytest.raises(SystemExit):
        run(["--bogus"])
