import math
import re
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from eltomo import (EtSimSpec, GridSpec, Image, RegionMask, SolverConfig,
                    SweepSpec, emit_report, make_et_dataset, metrics,
                    projector, rmse, run_comparison, run_method, run_sweep)
from eltomo.metrics import MethodReport, MethodRun
from eltomo.projector import build_projector
from eltomo.solvers import (NumericalError, fixed_point_reconstruct,
                            history_csv, mlem_split_reconstruct)
from eltomo import el, tikhonov


@pytest.fixture(scope="module")
def small_et():
    """Two-realization emission dataset with region masks."""
    ds = make_et_dataset(EtSimSpec(grid=GridSpec(32, 32), n_angles=16,
                                   total_counts=2e5, n_realizations=2,
                                   seed=3))
    return ds, build_projector(ds.recon_projector)


def test_rmse_identities(rng):
    grid = GridSpec(8, 8)
    truth = Image(grid, rng.random(64) + 0.5)
    assert rmse(truth, truth) == 0.0
    doubled = Image(grid, truth.values * 2.0)
    assert_allclose(rmse(doubled, truth), 1.0, rtol=1e-14)


def test_rmse_scale_covariant(rng):
    grid = GridSpec(8, 8)
    truth = Image(grid, rng.random(64) + 0.5)
    recon = Image(grid, rng.random(64))
    base = rmse(recon, truth)
    for c in (0.3, 7.0):
        scaled = rmse(Image(grid, recon.values * c),
                      Image(grid, truth.values * c))
        assert abs(scaled - base) <= 1e-12


def test_rmse_full_mask_equals_unmasked(rng):
    grid = GridSpec(8, 8)
    truth = Image(grid, rng.random(64) + 0.5)
    recon = Image(grid, rng.random(64))
    mask = RegionMask(grid, np.ones(64, dtype=bool), "ALL")
    assert rmse(recon, truth, mask) == rmse(recon, truth)


def test_rmse_rejects_zero_truth_on_mask(rng):
    grid = GridSpec(8, 8)
    vals = np.zeros(64)
    vals[:8] = 1.0
    truth = Image(grid, vals)
    recon = Image(grid, rng.random(64))
    zero_region = np.zeros(64, dtype=bool)
    zero_region[-8:] = True
    with pytest.raises(ValueError):
        rmse(recon, truth, RegionMask(grid, zero_region, "Z"))


def test_rmse_rejects_grid_mismatch(rng):
    a = Image(GridSpec(8, 8), rng.random(64))
    b = Image(GridSpec(4, 4), rng.random(16) + 1.0)
    with pytest.raises(ValueError):
        rmse(a, b)


def test_sweep_mean_equals_single_run(small_ct):
    ds, A = small_ct
    spec = SweepSpec(method="tikhonov", param="alpha", values=(1e-6, 1e-5),
                     realizations=(0,), outer_iters=4, inner_iters=3)
    result = run_sweep(spec, ds, A=A)
    for i, value in enumerate(spec.values):
        cfg = SolverConfig(outer_iters=4, inner_iters=3, rho=1e-4, alpha=value)
        res = run_method(A, ds, "tikhonov", cfg)
        assert result.mean_rmse[i] == rmse(res.image, ds.ground_truth)


def test_sweep_argmin_and_tie_break(small_ct):
    ds, A = small_ct
    spec = SweepSpec(method="tikhonov", param="alpha",
                     values=(1e-12, 2e-12, 1e-2), outer_iters=2,
                     inner_iters=2)
    result = run_sweep(spec, ds, A=A)
    means = np.array(result.mean_rmse)
    assert result.mean_rmse[result.best_index] == means.min()
    # equal means tie toward the smaller parameter value
    tied = [i for i, m in enumerate(result.mean_rmse) if m == means.min()]
    assert result.best_index == tied[0]


def test_sweep_reproducible(small_ct):
    ds, A = small_ct
    spec = SweepSpec(method="tv", param="alpha", values=(1e-7, 1e-6),
                     outer_iters=3, inner_iters=3)
    a = run_sweep(spec, ds, A=A)
    b = run_sweep(spec, ds, A=A)
    assert a.mean_rmse == b.mean_rmse
    assert a.best_value == b.best_value


def test_alpha_to_zero_approaches_unregularized(small_ct):
    ds, A = small_ct
    sigma2 = 1.0  # order-one operator scale for this geometry
    cfg0 = SolverConfig(outer_iters=6, inner_iters=4, rho=1e-30, alpha=0.0)
    base = fixed_point_reconstruct(A, ds.noisy[0], tikhonov(), cfg0,
                                   ground_truth=ds.ground_truth)
    cfg = SolverConfig(outer_iters=6, inner_iters=4, rho=1e-30,
                       alpha=1e-10 * sigma2)
    tiny = fixed_point_reconstruct(A, ds.noisy[0], tikhonov(), cfg,
                                   ground_truth=ds.ground_truth)
    r0 = base.history[-1].rmse
    r1 = tiny.history[-1].rmse
    assert abs(r1 - r0) <= 0.02 * r0


# the ids name the baseline and the fidelity of the data it is run on
@pytest.mark.parametrize("method,data", [
    ("cgls", "small_et"), ("mlem", "small_ct")],
    ids=["cgls-poisson-small_et", "mlem-ls-small_ct"])
def test_baseline_of_the_other_fidelity_is_rejected(method, data, request):
    ds, A = request.getfixturevalue(data)
    with pytest.raises(ValueError,
                       match=f"^method {method!r} is not supported with "
                             f"{ds.kind} data$"):
        run_method(A, ds, method, SolverConfig(outer_iters=2))


@pytest.mark.parametrize("method", ["el", "mlem"])
def test_et_data_run_poisson_ml_em(method, small_et):
    ds, A = small_et
    cfg = SolverConfig(outer_iters=4, inner_iters=3, alpha=1e-8)
    got = run_method(A, ds, method, cfg)
    kind = None if method == "mlem" else el()
    want = mlem_split_reconstruct(A, ds.noisy[0], kind, cfg,
                                  ground_truth=ds.ground_truth)
    assert got.image.values.tobytes() == want.image.values.tobytes()
    assert history_csv(got) == history_csv(want)


def test_run_methods_returns_each_runs_own_run_method_result(small_ct,
                                                             small_et):
    ct, ct_A = small_ct
    ct_cfg = SolverConfig(outer_iters=4, inner_iters=3, alpha=1e-7)
    et, et_A = small_et
    et_cfg = SolverConfig(outer_iters=4, inner_iters=3, alpha=1e-8)
    # realization 2 is NaN data, which a Sinogram would refuse; it fails
    et = replace(et, noisy=et.noisy + (np.full(et_A.nrows, np.nan),))
    for ds, A, runs in (
            (ct, ct_A, [MethodRun(m, ct_cfg) for m in ("cgls", "tv", "el")]),
            (et, et_A, [MethodRun(m, et_cfg, r) for m in ("mlem", "tv", "el")
                        for r in (0, 1)] + [MethodRun("el", et_cfg, 2)])):
        outcomes = metrics.run_methods(A, ds, runs)
        assert len(outcomes) == len(runs)
        for run, got in zip(runs, outcomes):
            if run.realization == 2:
                assert isinstance(got, NumericalError)
                with pytest.raises(NumericalError,
                                   match=f"^{re.escape(str(got))}$"):
                    run_method(A, ds, *run)
                continue
            want = run_method(A, ds, *run)
            assert got.image.values.tobytes() == want.image.values.tobytes()
            assert got.history == want.history
            assert got.terminated_early == want.terminated_early


def test_sweep_validation():
    with pytest.raises(ValueError):
        SweepSpec(method="tv", param="alpha", values=(1e-3,))
    with pytest.raises(ValueError):
        SweepSpec(method="tv", param="alpha", values=(0.0, 1.0))
    with pytest.raises(ValueError):
        SweepSpec(method="tv", param="nope", values=(1.0, 2.0))
    with pytest.raises(ValueError, match="realization"):
        SweepSpec(method="tv", param="alpha", values=(1.0, 2.0),
                  realizations=())


@pytest.mark.parametrize("fields,message", [
    ({"method": "tv", "param": "mu", "alpha": 1e-3},
     "sweeping mu needs method 'tvl2'"),
    ({"method": "tv", "param": "beta", "alpha": 1e-3},
     "sweeping beta needs method 'el'"),
    ({"method": "tvl2", "param": "mu", "mu": 1e-7},
     "sweeping mu requires a fixed alpha > 0"),
    ({"method": "el", "param": "beta", "alpha": 0.0},
     "sweeping beta requires a fixed alpha > 0"),
    ({"method": "tvl2", "param": "alpha"}, "method 'tvl2' needs mu > 0"),
    ({"method": "cgls", "param": "alpha"},
     "cannot sweep an unregularized method"),
    ({"method": "mlem", "param": "alpha"},
     "cannot sweep an unregularized method"),
], ids=["mu-not-tvl2", "beta-not-el", "mu-no-alpha", "beta-no-alpha",
        "tvl2-no-mu", "cgls", "mlem"])
def test_sweep_spec_keeps_the_command_line_rules(fields, message):
    # the messages are those of test_sweep_parameter_mismatch_is_one_error_line
    with pytest.raises(ValueError, match=f"^{message}$"):
        SweepSpec(values=(1.0, 2.0), **fields)


@pytest.mark.parametrize("fields,message", [
    ({"rho": 0.0}, "rho must be positive"),
    ({"inner_iters": 0}, "iteration counts must be >= 1"),
    ({"outer_iters": 0}, "iteration counts must be >= 1"),
    ({"values": (1.0, math.inf)}, "alpha must be finite and nonnegative"),
    ({"beta": math.nan}, "beta must be finite and positive"),
    ({"method": "tvl2", "mu": math.inf}, "mu must be finite and nonnegative"),
    ({"method": "tvl2", "param": "mu", "alpha": 1.0,
      "values": (1.0, math.inf)}, "mu must be finite and nonnegative"),
    ({"param": "beta", "alpha": 1.0, "values": (1.0, math.inf)},
     "beta must be finite and positive"),
    ({"method": "bogus"}, "unknown method 'bogus'"),
], ids=["rho", "inner", "outer", "alpha-inf", "beta-nan", "mu-inf",
        "mu-value-inf", "beta-value-inf", "unknown-method"])
def test_sweep_spec_rejects_what_its_runs_reject(fields, message):
    # a run's settings are checked when the spec is built, before any
    # projector exists, not as each run starts
    spec = {"method": "el", "param": "alpha", "values": (1.0, 2.0), **fields}
    with pytest.raises(ValueError, match=f"^{message}$"):
        SweepSpec(**spec)


def test_comparison_rejects_empty_realizations(small_ct):
    ds, A = small_ct
    with pytest.raises(ValueError, match="realization"):
        run_comparison(ds, outer_iters=2, inner_iters=2, realizations=(),
                       A=A)


def test_comparison_solves_each_sweep_point_once(small_ct, monkeypatch,
                                                 hook_runs):
    ds, A = small_ct
    calls = []
    hook_runs(lambda run: calls.append(run.method))
    monkeypatch.setattr(projector, "THREADS", 1)
    run_comparison(ds, outer_iters=3, inner_iters=2, sweep_points=2, A=A)
    # each of the three sweeps' two points once and the baseline once, in
    # queue order: tvl2 goes to the head as the last tv run finishes
    assert calls == ["tv"] * 2 + ["tvl2"] * 2 + ["el"] * 2 + ["cgls"]


def test_comparison_reports_equal_a_rerun_at_the_best_point(small_et):
    ds, A = small_et
    realizations = (0, 1)
    reports = run_comparison(ds, outer_iters=4, inner_iters=3,
                             realizations=realizations, sweep_points=2, A=A)
    assert [rep.method for rep in reports] == ["mlem", "tv", "tvl2", "el"]
    tv_alpha = reports[1].best_param
    params = {"tv": (tv_alpha, 0.0), "tvl2": (tv_alpha, reports[2].best_param),
              "el": (reports[3].best_param, 0.0)}
    for rep in reports[1:]:
        # oracle: solve the best point again on every realization
        alpha, mu = params[rep.method]
        cfg = SolverConfig(outer_iters=4, inner_iters=3, alpha=alpha)
        results = [run_method(A, ds, rep.method, cfg, realization=r, mu=mu)
                   for r in realizations]

        def mean_rmse(mask=None):
            return float(np.mean([rmse(res.image, ds.ground_truth, mask)
                                  for res in results]))

        assert rep.image.values.tobytes() == results[0].image.values.tobytes()
        assert rep.history_result.history == results[0].history
        assert rep.rmse == mean_rmse()
        assert rep.gr_rmse == mean_rmse(ds.gr)
        assert rep.br_rmse == mean_rmse(ds.br)


def test_comparison_raises_on_failed_realization_at_best_point(
        small_et, hook_runs):
    ds, A = small_et

    def failing(run):
        if run.method == "el" and run.realization == 1:
            raise NumericalError("boom")

    hook_runs(failing)
    with pytest.raises(NumericalError, match="^boom$"):
        run_comparison(ds, outer_iters=3, inner_iters=2, realizations=(0, 1),
                       sweep_points=2, A=A)


# --- concurrent sweeps -------------------------------------------------

def _on_worker() -> bool:
    return threading.current_thread().name.startswith("eltomo-projector")


def test_concurrent_sweep_failures_match_serial(small_et, monkeypatch,
                                                hook_runs, bounded):
    ds, A = small_et
    spec = SweepSpec(method="el", param="alpha",
                     values=(1e-9, 1e-8, 1e-7), realizations=(0, 1),
                     outer_iters=3, inner_iters=2)
    where = set()

    def failing(run):
        where.add(_on_worker())
        time.sleep(0.01)  # leaves the worker time to take batches
        if run.cfg.alpha == 1e-8 and run.realization == 1:
            raise NumericalError(f"boom at {run.cfg.alpha:g}/"
                                 f"{run.realization}")

    hook_runs(failing)
    monkeypatch.setattr(metrics, "ET_BATCH", 2)  # three batches of two
    results = []
    for threads in (1, 2):
        monkeypatch.setattr(projector, "THREADS", threads)
        results.append(bounded(lambda: run_sweep(spec, ds, A=A)))
    assert where == {False, True}  # the second sweep used both threads
    serial, concurrent = results
    assert [(r.value, r.realization) for r in concurrent.runs] == [
        (v, k) for v in spec.values for k in spec.realizations]
    assert concurrent.runs == serial.runs
    assert [r.error for r in concurrent.runs if r.error] == ["boom at 1e-08/1"]
    for name in ("mean_rmse", "gr_mean", "br_mean"):
        assert_array_equal(getattr(concurrent, name), getattr(serial, name))
    assert concurrent.best_index == serial.best_index
    assert (concurrent.best_result.image.values.tobytes()
            == serial.best_result.image.values.tobytes())


def test_value_error_in_a_worker_run_leaves_the_sweep(small_ct, monkeypatch,
                                                      hook_runs, bounded):
    ds, A = small_ct
    monkeypatch.setattr(projector, "THREADS", 2)

    def worker_fails(run):
        if _on_worker():
            raise ValueError("bad input on the worker")
        time.sleep(0.05)  # leaves the worker time to take a run

    hook_runs(worker_fails)
    spec = SweepSpec(method="tv", param="alpha", values=(1e-7, 1e-6, 1e-5),
                     outer_iters=2, inner_iters=2)
    with pytest.raises(ValueError, match="bad input on the worker"):
        bounded(lambda: run_sweep(spec, ds, A=A))


def test_sweep_on_a_split_operator_completes(small_ct, monkeypatch, bounded):
    # runs on both threads whose products each want both threads too
    ds, whole = small_ct
    monkeypatch.setattr(projector, "SPLIT_NNZ", 1000)
    monkeypatch.setattr(projector, "THREADS", 2)
    A = projector.build_projector(ds.recon_projector)
    assert len(A.blocks) == 2
    spec = SweepSpec(method="el", param="alpha", values=(1e-8, 1e-7, 1e-6),
                     outer_iters=3, inner_iters=3)
    split = bounded(lambda: run_sweep(spec, ds, A=A))
    # the split adjoint rounds differently from the whole one
    assert_allclose(split.mean_rmse, run_sweep(spec, ds, A=whole).mean_rmse,
                    rtol=1e-9)


# --- one queue per comparison --------------------------------------------

@pytest.fixture()
def two_threads(monkeypatch):
    monkeypatch.setattr(projector, "THREADS", 2)


def _comparison(ds, A, bounded):
    return bounded(lambda: run_comparison(
        ds, outer_iters=4, inner_iters=3, realizations=(0, 1),
        sweep_points=2, A=A))


def test_concurrent_comparison_matches_serial(small_et, two_threads,
                                              monkeypatch, hook_runs,
                                              bounded):
    ds, A = small_et
    where = set()
    hook_runs(lambda run: where.add(_on_worker()))
    concurrent = _comparison(ds, A, bounded)
    assert where == {False, True}
    monkeypatch.setattr(projector, "THREADS", 1)
    where.clear()
    serial = _comparison(ds, A, bounded)
    assert where == {False}
    _assert_same_reports(concurrent, serial)


def _assert_same_reports(reports, expected):
    for got, want in zip(reports, expected, strict=True):
        assert got.method == want.method
        assert got.best_param == want.best_param
        assert got.image.values.tobytes() == want.image.values.tobytes()
        assert got.history_result.history == want.history_result.history
        assert (got.history_result.terminated_early
                == want.history_result.terminated_early)
        assert (got.rmse, got.gr_rmse, got.br_rmse) == (
            want.rmse, want.gr_rmse, want.br_rmse)
        if want.sweep is None:
            assert got.sweep is None
            continue
        assert got.sweep.runs == want.sweep.runs
        for name in ("mean_rmse", "gr_mean", "br_mean"):
            assert_array_equal(getattr(got.sweep, name),
                               getattr(want.sweep, name))


def test_et_comparison_depends_on_neither_threads_nor_batches(
        small_et, monkeypatch, bounded):
    ds, A = small_et
    default = metrics.ET_BATCH
    results = []
    for threads in (1, 2):
        for cap in (1, 2, default):
            monkeypatch.setattr(projector, "THREADS", threads)
            monkeypatch.setattr(metrics, "ET_BATCH", cap)
            results.append(_comparison(ds, A, bounded))
    for reports in results[1:]:
        _assert_same_reports(reports, results[0])


def test_et_sweeps_queue_near_equal_batches(small_et, small_ct, monkeypatch):
    jobs = list(range(7))
    monkeypatch.setattr(metrics, "ET_BATCH", 3)
    assert metrics._batches(small_et[0], jobs) == [[0, 1], [2, 3], [4, 5, 6]]
    monkeypatch.setattr(metrics, "ET_BATCH", 7)
    assert metrics._batches(small_et[0], jobs) == [jobs]
    assert metrics._batches(small_et[0], jobs, least=2) == [jobs[:3],
                                                            jobs[3:]]
    assert metrics._batches(small_et[0], jobs[:1], least=2) == [jobs[:1]]
    assert metrics._batches(small_ct[0], jobs) == [[job] for job in jobs]


def test_tvl2_runs_go_ahead_of_queued_el_runs(small_et, two_threads,
                                              monkeypatch, hook_runs,
                                              bounded):
    # the first tv run waits until an el run has started, and the
    # second-to-last el run until a tvl2 run has: both can only happen
    # if tvl2 joins the queue ahead of el runs that are already in it
    ds, A = small_et
    lock = threading.Lock()
    started: list[str] = []
    el_started, tvl2_started = threading.Event(), threading.Event()
    waited: list[bool] = []

    def ordered(run):
        method = run.method
        with lock:
            started.append(method)
            count = started.count(method)
        if method == "el":
            el_started.set()
        if method == "tvl2":
            tvl2_started.set()
        if method == "tv" and count == 1:
            waited.append(el_started.wait(timeout=20))
        if method == "el" and count == 3:  # of 4: 2 points x 2 realizations
            waited.append(tvl2_started.wait(timeout=20))

    hook_runs(ordered)
    monkeypatch.setattr(metrics, "ET_BATCH", 1)  # one run per item
    _comparison(ds, A, bounded)
    assert waited == [True, True]
    last_el = len(started) - 1 - started[::-1].index("el")
    assert started.index("el") < started.index("tvl2") < last_el
    assert sorted(started) == sorted(
        ["mlem"] * 2 + ["tv"] * 4 + ["tvl2"] * 4 + ["el"] * 4)


def test_value_error_in_a_worker_tv_run_ends_the_comparison(
        small_et, two_threads, monkeypatch, hook_runs, bounded):
    ds, A = small_et
    started: list[str] = []
    worker_failed = threading.Event()

    def worker_fails(run):
        started.append(run.method)
        if run.method == "tv" and _on_worker():
            worker_failed.set()
            raise ValueError("bad input on the worker")
        if run.method == "tv":
            assert worker_failed.wait(timeout=20)

    hook_runs(worker_fails)
    monkeypatch.setattr(metrics, "ET_BATCH", 1)  # a tv item on each thread
    with pytest.raises(ValueError, match="bad input on the worker"):
        _comparison(ds, A, bounded)
    assert worker_failed.is_set()
    assert "tvl2" not in started


@pytest.mark.parametrize("failing,message", [
    (lambda realization: True, "^every sweep grid point failed$"),
    (lambda realization: realization == 1, "^tv fails on realization 1$"),
])
def test_failed_tv_sweep_raises_before_any_tvl2_run(
        failing, message, small_et, two_threads, hook_runs, bounded):
    ds, A = small_et
    started: list[str] = []

    def tv_fails(run):
        started.append(run.method)
        if run.method == "tv" and failing(run.realization):
            raise NumericalError(f"tv fails on realization "
                                 f"{run.realization}")

    hook_runs(tv_fails)
    with pytest.raises(NumericalError, match=message):
        _comparison(ds, A, bounded)
    assert started.count("tv") == 4
    assert "tvl2" not in started


def test_emit_report_single_method(tmp_path, small_ct):
    ds, A = small_ct
    cfg = SolverConfig(outer_iters=4, inner_iters=3, alpha=1e-7)
    res = run_method(A, ds, "tv", cfg)
    rep = MethodReport(method="tv", best_param=1e-7,
                       rmse=rmse(res.image, ds.ground_truth),
                       image=res.image, history_result=res)
    emit_report([rep], tmp_path)
    table = (tmp_path / "table.csv").read_text().splitlines()
    assert table[0] == "method,best_parameter,rmse"
    assert len(table) == 2
    method, best, value = table[1].split(",")
    assert method == "tv"
    # full-precision round trip through the printed representation
    assert float(best) == 1e-7
    assert float(value) == rep.rmse
    conv = (tmp_path / "convergence_tv.csv").read_text().splitlines()
    assert conv[0] == "iter,objective,fidelity,penalty,step_norm2,rmse"
    row = conv[1].split(",")
    assert float(row[1]) == res.history[0].objective
    assert (tmp_path / "tv.pgm").exists()
    assert (tmp_path / "tv.pgm.txt").exists()


def test_emit_report_requires_results(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path)
