import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose
from scipy.ndimage import gaussian_filter

from eltomo import (CtSimSpec, EtSimSpec, GridSpec, Image, Sinogram,
                    SolverConfig, cgls, el, fixed_point_reconstruct,
                    make_ct_dataset, make_et_dataset, mlem_split_reconstruct,
                    rmse, tikhonov, tv, tv_l2, uniform_angles,
                    verify_error_bound)
from eltomo.projector import (ProjectorSpec, SparseOperator, build_projector,
                              default_detector, forward)
from eltomo import metrics, projector, solvers
from eltomo.metrics import SweepSpec, run_sweep
from eltomo.regularizers import Penalty, build_gradient_matrix, penalty_value
from eltomo.solvers import (MlemRun, NumericalError,
                            _factorized_preconditioner, estimate_sigma,
                            history_csv, mlem_batch, penalty_eigenvalue)


def _operator(n=16, n_angles=20, kernel="linear", fwhm=None):
    grid = GridSpec(n, n)
    nbins, pitch = default_detector(grid)
    spec = ProjectorSpec(grid, uniform_angles(n_angles), nbins, pitch,
                         kernel, psf_fwhm_bins=fwhm)
    return build_projector(spec)


def _blob_truth(grid, strictly_positive=False):
    x, y = grid.pixel_centers()
    vals = (np.exp(-((x - 0.45) ** 2 + (y - 0.55) ** 2) / 0.02)
            + 0.6 * np.exp(-((x - 0.7) ** 2 + (y - 0.3) ** 2) / 0.01))
    if strictly_positive:
        vals = vals + 0.2
    return Image(grid, vals)


def _synthetic_operator(matrix):
    n = matrix.shape[1]
    side = int(np.sqrt(n))
    grid = GridSpec(side, side)
    nbins = matrix.shape[0]
    spec = ProjectorSpec(grid, np.array([0.0]), nbins, 1.0, "linear")
    return SparseOperator(sp.csr_matrix(matrix), spec)


def test_cgls_identity_converges_in_one_iteration(rng):
    A = _synthetic_operator(sp.identity(16, format="csr"))
    b = Sinogram(A.spec.angles, 16, rng.standard_normal(16))
    res = cgls(A, b, 1)
    assert_allclose(res.image.ravel(), b.ravel(), rtol=1e-12)


def test_cgls_breakdown_ends_the_run_early(rng):
    # on the identity the first step is exact, so the next search
    # direction is zero: a breakdown, not a stop by the iteration budget
    A = _synthetic_operator(sp.identity(16, format="csr"))
    b = Sinogram(A.spec.angles, 16, rng.standard_normal(16))
    res = cgls(A, b, 3)
    assert len(res.history) == 1
    assert res.terminated_early
    assert not cgls(A, b, 1).terminated_early


def test_cgls_matches_dense_solve(rng):
    m = rng.standard_normal((16, 16)) + 4.0 * np.eye(16)
    A = _synthetic_operator(sp.csr_matrix(m))
    x_true = rng.standard_normal(16)
    b = Sinogram(A.spec.angles, 16, m @ x_true)
    res = cgls(A, b, 16 * 4)
    assert np.linalg.norm(res.image.ravel() - x_true) <= 1e-8 * np.linalg.norm(x_true)


def test_cgls_residual_nonincreasing(small_ct):
    ds, A = small_ct
    res = cgls(A, ds.noisy[0], 30)
    fid = [h.fidelity for h in res.history]
    assert all(fid[i + 1] <= fid[i] * (1 + 1e-12) for i in range(len(fid) - 1))


def test_tiny_tikhonov_recovers_noiseless_truth():
    A = _operator(16, 60)
    truth = _blob_truth(A.spec.grid)
    b = forward(A, truth)
    sigma = estimate_sigma(A)
    cfg = SolverConfig(outer_iters=3, inner_iters=600, rho=1e-26)
    res = fixed_point_reconstruct(A, b, tikhonov(1e-12 * sigma ** 2), cfg,
                                  ground_truth=truth)
    assert res.history[-1].rmse <= 1e-4


@pytest.mark.parametrize("kind", [
    tikhonov(1e-3), tv(1e-4), tv_l2(1e-4, mu=1e-4), el(1e-8)],
    ids=lambda k: f"{k.kind}-{k.alpha}")
def test_first_outer_step_matches_dense_solve(kind):
    A = _operator(16, 20)
    truth = _blob_truth(A.spec.grid)
    b = forward(A, truth)
    dense = A.matrix.toarray()
    u0 = Image(A.spec.grid, np.zeros(A.ncols))
    R = build_gradient_matrix(kind, u0)
    h = dense.T @ dense + R.matrix.toarray()
    s_dense = np.linalg.solve(h, dense.T @ b.ravel())
    cfg = SolverConfig(outer_iters=1, inner_iters=800, rho=1e-28)
    res = fixed_point_reconstruct(A, b, kind, cfg)
    rel = np.linalg.norm(res.image.ravel() - s_dense) / np.linalg.norm(s_dense)
    assert rel <= 1e-6


def test_frozen_objective_nonincreasing_across_inner_cg(small_ct,
                                                        monkeypatch):
    ds, A = small_ct
    kind = tv(1e-7)
    calls = []
    original = solvers._cg

    def recorded(op, r_mat, rhs, max_iters, apply_m):
        out = original(op, r_mat, rhs, max_iters, apply_m)
        calls.append((op, r_mat, rhs, max_iters, apply_m, out[0]))
        return out

    monkeypatch.setattr(solvers, "_cg", recorded)
    cfg = SolverConfig(outer_iters=3, inner_iters=5, rho=1e-20)
    fixed_point_reconstruct(A, ds.noisy[0], kind, cfg)
    assert len(calls) == 3
    bv = ds.noisy[0].ravel()
    u_start = np.zeros(A.ncols)
    for op, r_mat, rhs, max_iters, apply_m, step in calls:
        # objective with the penalty matrix frozen at the outer iterate
        R = build_gradient_matrix(kind, Image(A.spec.grid, u_start)).matrix

        def frozen_objective(s):
            r = A.apply(u_start + s) - bv
            v = u_start + s
            return 0.5 * float(r @ r) + 0.5 * float(v @ (R @ v))

        # CG stopped after k steps gives the k-th inner iterate
        steps = [original(op, r_mat, rhs, k, apply_m)[0]
                 for k in range(1, max_iters + 1)]
        assert steps[-1].tobytes() == step.tobytes()
        prev = None
        for s in steps:
            q = frozen_objective(s)
            if prev is not None:
                assert q <= prev * (1 + 1e-10)
            prev = q
        u_start = u_start + step


def test_preconditioned_cg_matches_and_saves_iterations(small_ct):
    ds, A = small_ct
    # the step equation of an el solve's first outer iteration
    R = build_gradient_matrix(el(1e-6),
                              Image(A.spec.grid, np.zeros(A.ncols)))
    rhs = A.apply_adjoint(ds.noisy[0].ravel())
    apply_m = _factorized_preconditioner(R, estimate_sigma(A), A.spec.grid)
    plain = solvers._cg(A, R.matrix, rhs, 400, lambda r: r)[0]
    precond = solvers._cg(A, R.matrix, rhs, 400, apply_m)[0]
    assert np.linalg.norm(plain - precond) <= 1e-8 * np.linalg.norm(plain)

    # with a modest step budget the preconditioned step gets much closer
    # to the converged one: the stiff penalty term is what CG chokes on
    err_plain = np.linalg.norm(
        solvers._cg(A, R.matrix, rhs, 12, lambda r: r)[0] - precond)
    err_pre = np.linalg.norm(
        solvers._cg(A, R.matrix, rhs, 12, apply_m)[0] - precond)
    assert err_pre < err_plain


@pytest.mark.parametrize("max_iters", [1, 5])
def test_cg_returns_the_products_of_its_step(small_ct, max_iters):
    ds, A = small_ct
    R = build_gradient_matrix(el(1e-6), ds.ground_truth)
    rhs = A.apply_adjoint(ds.noisy[0].ravel())
    apply_m = _factorized_preconditioner(R, estimate_sigma(A), A.spec.grid)
    s, iters, a_s, ata_s = solvers._cg(A, R.matrix, rhs, max_iters, apply_m)
    assert iters == max_iters
    a_ref = A.apply(s)
    ata_ref = A.apply_adjoint(a_ref)
    assert np.linalg.norm(a_s - a_ref) <= 1e-12 * np.linalg.norm(a_ref)
    assert np.linalg.norm(ata_s - ata_ref) <= 1e-12 * np.linalg.norm(ata_ref)

    s, iters, a_s, ata_s = solvers._cg(A, R.matrix, np.zeros(A.ncols),
                                       max_iters, apply_m)
    assert iters == 0
    assert a_s.shape == (A.nrows,) and ata_s.shape == (A.ncols,)
    assert not (s.any() or a_s.any() or ata_s.any())


@pytest.mark.parametrize("kind", [el(1e-7), tv(1e-7), tv_l2(1e-7, mu=0.5)],
                         ids=lambda k: k.kind)
def test_carried_fidelity_does_not_drift(small_ct, kind):
    # Au - b is carried through 40 outer iterations by adding inner CG's
    # A s; the last fidelity must still match a fresh projection
    ds, A = small_ct
    b = ds.noisy[0]
    cfg = SolverConfig(outer_iters=40, inner_iters=5, rho=1e-30)
    res = fixed_point_reconstruct(A, b, kind, cfg)
    assert len(res.history) == cfg.outer_iters
    r = A.apply(res.image.ravel()) - b.ravel()
    fresh = 0.5 * float(r @ r)
    assert abs(res.history[-1].fidelity - fresh) <= 1e-12 * fresh


@pytest.fixture(scope="module")
def half_ct():
    """Criterion 6's data at half size: 100^2 strip to 50^2 linear, 45
    angles, 25 bins, seed 0, with its projector and sigma."""
    ds = make_ct_dataset(CtSimSpec(fine_grid=GridSpec(100, 100),
                                   recon_grid=GridSpec(50, 50), n_angles=45,
                                   i0=3e5, nbins=25, seed=0))
    A = build_projector(ds.recon_projector)
    return ds, A, estimate_sigma(A)


@pytest.mark.parametrize("alpha", [1e-5, 2e-5])
def test_tv_solve_does_not_amplify_rounding(half_ct, alpha, monkeypatch):
    # near tv's best weight on this data, with the step test switched off
    # so that the run length cannot change: moving the preconditioner's
    # sigma by 1e-12 relative may move the RMSE by at most 1e-6 relative.
    # At a TV smoothing eps of 1e-5 umax it moves by 2e-5 to 2e-4.
    ds, A, sigma = half_ct
    cfg = SolverConfig(outer_iters=40, inner_iters=5, rho=1e-30)
    errors = []
    for scale in (1.0, 1.0 + 1e-12):
        monkeypatch.setattr(solvers, "_operator_sigma",
                            lambda _A, scale=scale: sigma * scale)
        res = fixed_point_reconstruct(A, ds.noisy[0], tv(alpha), cfg)
        errors.append(rmse(res.image, ds.ground_truth))
    assert abs(errors[1] - errors[0]) <= 1e-6 * errors[0]


def test_solvers_deterministic(small_ct):
    ds, A = small_ct
    cfg = SolverConfig(outer_iters=5, inner_iters=5)
    a = fixed_point_reconstruct(A, ds.noisy[0], el(1e-7), cfg)
    b = fixed_point_reconstruct(A, ds.noisy[0], el(1e-7), cfg)
    assert np.array_equal(a.image.values, b.image.values)
    assert a.history == b.history


def test_early_stop_on_small_steps(small_ct):
    ds, A = small_ct
    cfg = SolverConfig(outer_iters=60, inner_iters=5, rho=1e2)
    res = fixed_point_reconstruct(A, ds.noisy[0], tv(1e-7), cfg)
    assert res.terminated_early
    assert len(res.history) < 60
    assert res.history[-1].step_norm2 <= 1e2


def test_step_test_on_the_last_iteration_ends_the_run_early(small_ct):
    ds, A = small_ct
    cfg = SolverConfig(outer_iters=4, inner_iters=5, rho=1e-30)
    steps = [h.step_norm2
             for h in fixed_point_reconstruct(A, ds.noisy[0], el(1e-7),
                                              cfg).history]
    assert len(steps) == 4 and min(steps[:3]) > steps[3]
    # the test first passes on the last allowed iteration
    for rho, early in ((steps[3], True), (0.5 * steps[3], False)):
        cfg = SolverConfig(outer_iters=4, inner_iters=5, rho=rho)
        res = fixed_point_reconstruct(A, ds.noisy[0], el(1e-7), cfg)
        assert [h.step_norm2 for h in res.history] == steps
        assert res.terminated_early == early


def test_mlem_noiseless_truth_is_fixed_point():
    A = _operator(32, 40)
    truth = _blob_truth(A.spec.grid, strictly_positive=True)
    b = forward(A, truth)
    cfg = SolverConfig(outer_iters=1, inner_iters=1)
    res = mlem_split_reconstruct(A, b, None, cfg)
    # one update from ones will not be at truth; instead verify the
    # update map leaves the true image unmoved (rays that miss the grid
    # are empty rows: floor their zero denominators)
    flat = truth.ravel()
    sens = A.apply_adjoint(np.ones(A.nrows))
    floor = 1e-12 * float(np.max(A.apply(np.ones(A.ncols))))
    q = np.maximum(A.apply(flat), floor)
    moved = flat / sens * A.apply_adjoint(b.ravel() / q)
    assert np.linalg.norm(moved - flat) <= 1e-10 * np.linalg.norm(flat)
    assert res.image.values.min() >= 0.0


def test_mlem_nonnegative_iterates_and_count_conservation(rng):
    A = _operator(16, 24)
    truth = _blob_truth(A.spec.grid, strictly_positive=True)
    lam = forward(A, truth).values
    counts = rng.poisson(lam * 50.0).astype(float).ravel()
    b = Sinogram(A.spec.angles, A.spec.nbins, counts)
    cfg = SolverConfig(outer_iters=50, inner_iters=3, rho=1e-30)
    res = mlem_split_reconstruct(A, b, el(3e-9), cfg, ground_truth=truth)
    assert res.image.values.min() >= 0.0
    assert all(h.penalty >= 0.0 for h in res.history)

    # expected-count conservation right after the multiplicative step
    u = np.ones(A.ncols)
    sens = A.apply_adjoint(np.ones(A.nrows))
    floor = 1e-12 * float(np.max(A.apply(u)))
    for _ in range(4):
        u = u / sens * A.apply_adjoint(counts / np.maximum(A.apply(u), floor))
        assert_allclose(A.apply(u).sum(), counts.sum(), rtol=1e-8)


@pytest.mark.parametrize("rho", [1e-30, 10.0], ids=["all", "early-stop"])
@pytest.mark.parametrize("kind", [None, el(3e-9)], ids=["mlem", "el"])
def test_mlem_projects_each_iterate_once(kind, rho, monkeypatch):
    A = _operator(16, 24)
    truth = _blob_truth(A.spec.grid, strictly_positive=True)
    b = Sinogram(A.spec.angles, A.spec.nbins, forward(A, truth).values * 50.0)
    calls = {"apply": 0, "apply_adjoint": 0}
    for name in calls:
        original = getattr(SparseOperator, name)

        def counted(self, v, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, v)

        monkeypatch.setattr(SparseOperator, name, counted)
    cfg = SolverConfig(outer_iters=30, inner_iters=3, rho=rho)
    res = mlem_split_reconstruct(A, b, kind, cfg)
    assert res.terminated_early == (rho > 1.0)
    assert 1 < len(res.history) <= cfg.outer_iters
    # the unit-image projection (floor and first update) and the
    # sensitivity image, then one of each per outer iteration
    assert calls == {"apply": len(res.history) + 1,
                     "apply_adjoint": len(res.history) + 1}


@pytest.mark.parametrize("rho", [1e-30, 1e30], ids=["all", "early-stop"])
def test_fixed_point_projector_calls(rho, monkeypatch):
    A = _operator(16, 24)  # a fresh operator, whose sigma is not known yet
    truth = _blob_truth(A.spec.grid)
    b = forward(A, truth)
    calls = {"apply": 0, "apply_adjoint": 0}
    for name in calls:
        original = getattr(SparseOperator, name)

        def counted(self, v, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, v)

        monkeypatch.setattr(SparseOperator, name, counted)
    cfg = SolverConfig(outer_iters=4, inner_iters=3, rho=rho)
    res = fixed_point_reconstruct(A, b, el(3e-9), cfg)
    assert len(res.history) == (1 if rho > 1.0 else cfg.outer_iters)
    # sigma's 10 power steps on A'A, A'b once, then per outer iteration
    # only inner CG's inner_iters products with A'A: A s and A'A s come
    # out of CG and carry Au - b and the gradient A'(Au - b)
    per_run = 10 + cfg.inner_iters * len(res.history)
    assert calls == {"apply": per_run, "apply_adjoint": per_run + 1}


def _count_penalty_calls(monkeypatch):
    """Count the calls made through solvers' bindings of the penalty
    builders."""
    calls = {"build_gradient_matrix": 0, "penalty_value": 0}
    for name in calls:
        original = getattr(solvers, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(solvers, name, counted)
    return calls


@pytest.mark.parametrize("rho", [1e-30, 1e30], ids=["all", "early-stop"])
@pytest.mark.parametrize("kind", [el(3e-9), tv(3e-9), tv_l2(3e-9, mu=0.5),
                                  tikhonov(3e-9)],
                         ids=lambda k: k.kind)
def test_fixed_point_freezes_each_iterate_once(kind, rho, monkeypatch):
    # R is built at u = 0 and once after each step; the history's penalty
    # is the value R carries, so penalty_value is never called
    A = _operator(16, 24)
    b = forward(A, _blob_truth(A.spec.grid))
    calls = _count_penalty_calls(monkeypatch)
    cfg = SolverConfig(outer_iters=4, inner_iters=3, rho=rho)
    res = fixed_point_reconstruct(A, b, kind, cfg)
    assert len(res.history) == (1 if rho > 1.0 else cfg.outer_iters)
    assert calls == {"build_gradient_matrix": len(res.history) + 1,
                     "penalty_value": 0}
    assert res.history[-1].penalty == penalty_value(kind, res.image)


@pytest.mark.parametrize("rho", [1e-30, 10.0], ids=["all", "early-stop"])
def test_mlem_evaluates_one_penalty_per_iteration(rho, monkeypatch):
    # R is frozen at the post-EM iterate; the history reads the penalty
    # at the denoised one
    A = _operator(16, 24)
    truth = _blob_truth(A.spec.grid, strictly_positive=True)
    b = Sinogram(A.spec.angles, A.spec.nbins, forward(A, truth).values * 50.0)
    calls = _count_penalty_calls(monkeypatch)
    cfg = SolverConfig(outer_iters=30, inner_iters=3, rho=rho)
    res = mlem_split_reconstruct(A, b, el(3e-9), cfg)
    assert 1 < len(res.history) <= cfg.outer_iters
    assert calls == {"build_gradient_matrix": len(res.history),
                     "penalty_value": len(res.history)}


def test_batch_runs_equal_their_runs_alone(monkeypatch):
    # tv, el, tvl2 and plain ML-EM on two realizations (PSF on), one run
    # that stops early on rho and one on NaN data that fails at once
    ds = make_et_dataset(EtSimSpec(grid=GridSpec(32, 32), n_angles=16,
                                   total_counts=2e5, n_realizations=2,
                                   seed=3))
    A = build_projector(ds.recon_projector)
    truth = ds.ground_truth
    b0, b1 = ds.noisy
    nan = np.full(A.nrows, np.nan)  # a Sinogram would refuse it
    mu = metrics.mu_scale_heuristic(A, ds)
    alpha = {m: metrics.alpha_scale_heuristic(A, ds, m, mu=mu)
             for m in ("tv", "el", "tvl2")}

    def cfg(rho=1e-30):
        return SolverConfig(outer_iters=8, inner_iters=3, rho=rho)

    steps = [h.step_norm2 for h in
             mlem_split_reconstruct(A, b1, None, cfg()).history]
    runs = [MlemRun(b0, tv(alpha["tv"]), cfg(), truth),
            MlemRun(b1, el(alpha["el"]), cfg(), truth),
            MlemRun(nan, el(alpha["el"]), cfg(), truth),
            MlemRun(b0, tv_l2(alpha["tvl2"], mu), cfg(), truth),
            MlemRun(b1, None, cfg(rho=steps[2]), None),
            MlemRun(b1, tv(10.0 * alpha["tv"]), cfg(), truth)]
    calls = {"apply": 0, "apply_adjoint": 0}
    for name in calls:
        original = getattr(SparseOperator, name)

        def counted(self, v, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, v)

        monkeypatch.setattr(SparseOperator, name, counted)
    batch = mlem_batch(A, runs)
    # one block product per half-step for the whole batch, and A'1, A1
    assert calls == {"apply": 9, "apply_adjoint": 9}
    monkeypatch.undo()

    assert isinstance(batch[2], NumericalError)
    with pytest.raises(NumericalError, match=f"^{batch[2]}$"):
        mlem_split_reconstruct(A, nan, el(alpha["el"]), cfg(), truth)
    lengths = []
    for run, got in zip(runs, batch):
        if run.b is nan:
            continue
        want = mlem_split_reconstruct(A, run.b, run.kind, run.cfg,
                                      run.ground_truth)
        assert got.image.values.tobytes() == want.image.values.tobytes()
        assert history_csv(got) == history_csv(want)
        assert got.terminated_early == want.terminated_early
        lengths.append((len(got.history), got.terminated_early))
    assert lengths == [(8, False)] * 3 + [(3, True), (8, False)]


def test_mlem_denoises_whenever_it_has_a_penalty():
    # at alpha = 0 every penalty but tvl2 with mu > 0 has R = 0: tau is 1
    # and each denoising step returns its start, so the run is plain
    # ML-EM bit for bit, image and history. tvl2's curvature term, which
    # mu_scale_heuristic probes, still smooths at alpha = 0.
    ds = make_et_dataset(EtSimSpec(grid=GridSpec(32, 32), n_angles=16,
                                   total_counts=2e5, n_realizations=1,
                                   seed=3))
    A = build_projector(ds.recon_projector)
    b, truth = ds.noisy[0], ds.ground_truth
    cfg = SolverConfig(outer_iters=15, inner_iters=3, rho=1e-30)
    plain = mlem_split_reconstruct(A, b, None, cfg, truth)
    for kind in (tikhonov(0.0), tv(0.0), tv_l2(0.0, mu=0.0), el(0.0)):
        res = mlem_split_reconstruct(A, b, kind, cfg, truth)
        assert res.image.values.tobytes() == plain.image.values.tobytes()
        assert history_csv(res) == history_csv(plain)
    curved = mlem_split_reconstruct(
        A, b, tv_l2(0.0, mu=metrics.mu_scale_heuristic(A, ds)), cfg, truth)
    assert len(curved.history) == len(plain.history) == cfg.outer_iters
    assert np.max(np.abs(curved.image.values - plain.image.values)) > 0.0
    assert all(h.penalty > 0.0 for h in curved.history)


def test_batch_of_no_runs_is_empty():
    assert mlem_batch(_operator(8, 6), []) == []


@pytest.mark.parametrize("c", [2.0 ** -7, 2.0 ** 7])
@pytest.mark.parametrize("method", ["cgls", "el"])
def test_data_scale_scales_the_reconstruction_exactly(small_ct, method, c):
    # metamorphic: scaling the data by a power of two scales every float
    # of a cgls or el run exactly, so reconstruct(c b) / c is
    # reconstruct(b) bit for bit and each history term moves by c^2.
    # el's alpha stays put, since its weights are scale-free. tv misses
    # by about 1.5e-3 relative: its first eps comes from the unit
    # amplitude substituted at the zero start, whatever the data scale.
    ds, A = small_ct
    b = ds.noisy[0]
    cfg = SolverConfig(outer_iters=20, inner_iters=5, rho=1e-300)

    def reconstruct(sino):
        if method == "cgls":
            return cgls(A, sino, cfg.outer_iters)
        return fixed_point_reconstruct(A, sino, el(1e-7), cfg)

    base = reconstruct(b)
    scaled = reconstruct(Sinogram(b.angles, b.nbins, c * b.values))
    assert len(scaled.history) == len(base.history) == cfg.outer_iters
    assert np.array_equal(scaled.image.values / c, base.image.values)
    for h, hc in zip(base.history, scaled.history):
        assert (hc.fidelity, hc.penalty, hc.step_norm2) == (
            c * c * h.fidelity, c * c * h.penalty, c * c * h.step_norm2)


def test_mlem_rejects_negative_data():
    A = _operator(8, 6)
    values = -np.ones(A.nrows)
    b = Sinogram(A.spec.angles, A.spec.nbins, values)
    with pytest.raises(ValueError):
        mlem_split_reconstruct(A, b, None, SolverConfig())


def test_denoising_step_strictly_decreases_objective(rng):
    # oracle: explicit evaluation of 0.5|f-f0|^2 + 0.5 <Rf, f>, with
    # alpha inside R
    grid = GridSpec(32, 32)
    noisy = Image(grid, gaussian_filter(rng.standard_normal((32, 32)), 1.0)
                  + 0.3 * rng.standard_normal((32, 32)) + 1.0)
    R = build_gradient_matrix(el(1e-8), noisy).matrix
    tau = 1.0 / (1.0 + penalty_eigenvalue(R))
    f0 = noisy.ravel().copy()
    f = f0.copy()

    def objective(v):
        return 0.5 * float((v - f0) @ (v - f0)) + 0.5 * float(v @ (R @ v))

    prev = objective(f)
    for _ in range(10):
        f = f - tau * ((f - f0) + R @ f)
        cur = objective(f)
        assert cur < prev
        prev = cur


def test_error_bound_zero_violations():
    report = verify_error_bound(100, 16, seed=0)
    assert report.passed and report.violations == 0


def test_error_bound_alpha_zero_is_tight():
    report = verify_error_bound(5, 8, seed=1, alphas=(0.0,))
    assert report.passed
    assert report.max_lhs <= 1e-10


def test_error_bound_holds_under_alpha_doubling():
    for alphas in ((1e-3, 1e-1, 1.0), (2e-3, 2e-1, 2.0)):
        assert verify_error_bound(50, 16, seed=2, alphas=alphas).passed


def test_error_bound_rejects_large_n():
    with pytest.raises(ValueError):
        verify_error_bound(1, 128, seed=0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_data_aborts():
    A = _operator(8, 6)
    huge = np.full(A.nrows, 1e300)
    b = Sinogram(A.spec.angles, A.spec.nbins, huge)
    cfg = SolverConfig(outer_iters=5, inner_iters=5)
    with pytest.raises((NumericalError, ValueError)):
        fixed_point_reconstruct(A, b, tikhonov(0.0), cfg)


def _top_eigenvalue(m):
    return float(spla.eigsh(m, k=1, which="LA", return_eigenvectors=False)[0])


def _noisy_penalty(kind, rng):
    """R of a smooth-plus-noise 32^2 image."""
    grid = GridSpec(32, 32)
    img = Image(grid, gaussian_filter(rng.standard_normal((32, 32)), 1.0)
                + 0.3 * rng.standard_normal((32, 32)) + 1.0)
    return build_gradient_matrix(kind, img).matrix


@pytest.mark.parametrize("kind", [el(1.0), tv(1.0), tv_l2(1.0, mu=0.5)],
                         ids=lambda k: k.kind)
def test_penalty_eigenvalue_matches_largest_eigenvalue(kind, rng):
    R = _noisy_penalty(kind, rng)
    lam = _top_eigenvalue(R)
    # |R| is R under a checkerboard sign flip, so the spectra agree
    assert_allclose(_top_eigenvalue(abs(R)), lam, rtol=1e-9)
    # an upper bound, and a close one after its 4 steps
    assert lam * (1 - 1e-9) <= penalty_eigenvalue(R) <= 1.10 * lam


_BOUND_KINDS = [el(1.0), tv(1.0), tv_l2(1.0, mu=0.5), tikhonov(1.0)]


@pytest.mark.parametrize("kind", _BOUND_KINDS, ids=lambda k: k.kind)
def test_penalty_eigenvalue_one_step_is_gershgorin(kind, rng, monkeypatch):
    R = _noisy_penalty(kind, rng)
    if kind.kind == "tikhonov":
        assert penalty_eigenvalue(R) == 1.0
    # each row's absolute sum, added in column order as a CSR or DIA
    # product adds it; the start vector's entries are 1/32, a power of
    # two, so scaling by them rounds nothing and the two agree exactly
    csr = R.tocsr()
    sums = []
    for i in range(R.shape[0]):
        total = 0.0
        for x in csr.data[csr.indptr[i]:csr.indptr[i + 1]]:
            total += abs(float(x))
        sums.append(total)
    monkeypatch.setattr(solvers, "_BOUND_STEPS", 1)
    assert penalty_eigenvalue(R) == max(sums)


@pytest.mark.parametrize("kind", _BOUND_KINDS, ids=lambda k: k.kind)
def test_penalty_eigenvalue_tightens_and_stays_above(kind, rng,
                                                    monkeypatch):
    R = _noisy_penalty(kind, rng)
    lam = _top_eigenvalue(R)
    bounds = []
    for steps in (1, 2, 4, 8):
        monkeypatch.setattr(solvers, "_BOUND_STEPS", steps)
        bounds.append(penalty_eigenvalue(R))
    for looser, tighter in zip(bounds, bounds[1:]):
        assert tighter <= looser * (1 + 1e-12)  # up to rounding
    assert min(bounds) >= lam * (1 - 1e-9)


@pytest.mark.parametrize("method", ["el", "tv", "tvl2"])
def test_mlem_denoising_step_stays_within_one_over_lipschitz(method,
                                                             monkeypatch):
    # the step f -> f - tau ((f - f0) + R f) has the linear part
    # I - tau (I + R), whose eigenvalues lie in [0, 1) exactly when
    # tau (1 + lambda_max(R)) <= 1; R is checked at the ML-EM iterates
    # of an emission run at the protocol's sweep center
    ds = make_et_dataset(EtSimSpec(grid=GridSpec(32, 32), n_angles=16,
                                   total_counts=2e5, n_realizations=1,
                                   seed=3))
    A = build_projector(ds.recon_projector)
    mu = metrics.mu_scale_heuristic(A, ds) if method == "tvl2" else 0.0
    alpha = metrics.alpha_scale_heuristic(A, ds, method, mu=mu)
    seen = []

    def recorded(m):
        bound = penalty_eigenvalue(m)
        seen.append((m, bound))
        return bound

    monkeypatch.setattr(solvers, "penalty_eigenvalue", recorded)
    cfg = SolverConfig(outer_iters=6, inner_iters=5, rho=1e-30)
    kind = metrics.make_penalty(method, alpha=alpha, mu=mu)
    mlem_split_reconstruct(A, ds.noisy[0], kind, cfg)
    assert len(seen) == cfg.outer_iters
    for R, bound in seen:
        tau = 1.0 / (1.0 + bound)
        assert tau * (1.0 + _top_eigenvalue(R)) <= 1.0


@pytest.mark.parametrize("fwhm", [None, 3.0])
def test_estimate_sigma_matches_largest_singular_value(fwhm):
    A = _operator(16, 20, fwhm=fwhm)
    dense = np.column_stack([A.apply(e) for e in np.eye(A.ncols)])
    top = np.linalg.svd(dense, compute_uv=False)[0]
    assert_allclose(estimate_sigma(A), top, rtol=1e-6)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
def test_config_rejects_bad_alpha(alpha):
    # the weight is the penalty's, checked when the penalty is built
    with pytest.raises(ValueError, match="alpha"):
        Penalty("el", alpha=alpha)


_KINDS = [tikhonov(1e-3), tv(1e-3), tv_l2(1e-3, mu=0.5), el(1e-3)]
_GRIDS = [GridSpec(32, 32), GridSpec(12, 7, dx=1.0, dy=1.5)]  # hx != hy


def _preconditioner(kind, grid, values):
    """(M^-1, H) for H = sigma^2 I + R(values), R carrying alpha, with
    the penalty term 1e3 times stiffer than the identity part, as in the
    solves the preconditioner is there for."""
    R = build_gradient_matrix(kind, Image(grid, values))
    sigma = np.sqrt(penalty_eigenvalue(R.matrix) / 1e3)
    h = sigma ** 2 * sp.identity(grid.npixels) + R.matrix
    return _factorized_preconditioner(R, sigma, grid), h


@pytest.mark.parametrize("grid", _GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.kind)
def test_preconditioner_is_exact_for_constant_diagonals(kind, grid, rng):
    # at the zero iterate every diagonal is constant
    solve, h = _preconditioner(kind, grid, np.zeros((grid.ny, grid.nx)))
    v = rng.standard_normal(grid.npixels)
    assert np.linalg.norm(solve(h @ v) - v) <= 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize("kind", _KINDS, ids=lambda k: k.kind)
def test_preconditioner_is_symmetric_positive_definite(kind, rng):
    grid = _GRIDS[1]
    solve, _ = _preconditioner(kind, grid, rng.random((grid.ny, grid.nx)))
    m = np.column_stack([solve(e) for e in np.eye(grid.npixels)])
    assert_allclose(m, m.T, rtol=0, atol=1e-12 * np.abs(m).max())
    assert np.linalg.eigvalsh(m).min() > 0.0


def test_cg_takes_max_iters_steps(rng):
    b = rng.standard_normal((40, 40))
    h = b @ b.T + np.eye(40)
    rhs = rng.standard_normal(40)
    # h = A'A + R with A = b' and R = I
    A, R = _synthetic_operator(b.T), sp.identity(40, format="dia")
    for apply_m in (lambda r: r, lambda r: r / np.diag(h)):
        for k in (1, 7, 25):
            s, iters, _, _ = solvers._cg(A, R, rhs, k, apply_m)
            assert iters == k
            assert np.all(np.isfinite(s))


def test_cg_zero_rhs_gives_zero_step():
    # h = diag(1, ..., 10) = A'A + R with A = I and R = diag(0, ..., 9)
    A = _synthetic_operator(sp.identity(10, format="csr"))
    R = sp.diags(np.arange(10.0), format="dia")
    s, iters, _, _ = solvers._cg(A, R, np.zeros(10), 5, lambda r: r)
    assert iters == 0
    assert not s.any()


def test_preconditioned_sweep_estimates_sigma_once(small_ct, monkeypatch,
                                                  hook_runs, bounded):
    ds, _ = small_ct
    A = build_projector(ds.recon_projector)  # an operator not seen before
    monkeypatch.setattr(projector, "THREADS", 2)  # points run concurrently
    calls, threads = [], set()
    original = solvers.power_iteration

    def counted(*args, **kwargs):
        calls.append(args[1])
        time.sleep(0.1)  # both threads' first points reach sigma meanwhile
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "power_iteration", counted)
    hook_runs(lambda run: threads.add(threading.current_thread().name))
    spec = SweepSpec(method="el", param="alpha", values=(1e-8, 1e-7, 1e-6),
                     outer_iters=3, inner_iters=3)
    bounded(lambda: run_sweep(spec, ds, A=A))
    assert len(threads) == 2
    assert calls == [A.ncols]
    assert solvers._operator_sigma(A) == estimate_sigma(A)


# Three solvers on a 112^2 image, printing digests of their images and
# histories. OpenBLAS threads a dot product only above 10,000 elements.
_SOLVER_DIGESTS = """
import hashlib
from eltomo import (EtSimSpec, GridSpec, SolverConfig, cgls, el,
                    fixed_point_reconstruct, make_et_dataset,
                    mlem_split_reconstruct)
from eltomo.projector import build_projector
from eltomo.solvers import history_csv
ds = make_et_dataset(EtSimSpec(grid=GridSpec(112, 112), n_angles=30,
                               n_realizations=1, seed=5))
A = build_projector(ds.recon_projector)
b, truth = ds.noisy[0], ds.ground_truth
mlem = SolverConfig(outer_iters=5)
fixed = SolverConfig(outer_iters=3)
for res in (cgls(A, b, 10, ground_truth=truth),
            mlem_split_reconstruct(A, b, el(1e-3), mlem, ground_truth=truth),
            fixed_point_reconstruct(A, b, el(1e-3), fixed,
                                    ground_truth=truth)):
    print(hashlib.sha256(res.image.values.tobytes()).hexdigest(),
          hashlib.sha256(history_csv(res).encode()).hexdigest())
"""


def test_solver_bytes_do_not_depend_on_blas_threads():
    src = str(Path(solvers.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", _SOLVER_DIGESTS],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.splitlines())
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]
