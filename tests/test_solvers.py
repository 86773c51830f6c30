import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.ndimage import gaussian_filter

from eltomo import (GridSpec, Image, Sinogram, SolverConfig, cgls, el,
                    fixed_point_reconstruct, mlem_split_reconstruct,
                    tikhonov, tv, tv_l2, uniform_angles,
                    verify_error_bound)
from eltomo.projector import (ProjectorSpec, SparseOperator, build_projector,
                              default_detector, forward)
from eltomo.regularizers import build_gradient_matrix
from eltomo.solvers import NumericalError, estimate_sigma, power_iteration


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
    sigma = estimate_sigma(A, seed=0)
    cfg = SolverConfig(outer_iters=3, inner_iters=600, rho=1e-26,
                       alpha=1e-12 * sigma ** 2)
    res = fixed_point_reconstruct(A, b, tikhonov(), cfg, ground_truth=truth)
    assert res.history[-1].rmse <= 1e-4


@pytest.mark.parametrize("kind,alpha", [
    (tikhonov(), 1e-3), (tv(), 1e-4), (tv_l2(mu=1e-4), 1e-4), (el(), 1e-8)],
    ids=lambda v: getattr(v, "kind", v))
def test_first_outer_step_matches_dense_solve(kind, alpha):
    A = _operator(16, 20)
    truth = _blob_truth(A.spec.grid)
    b = forward(A, truth)
    dense = A.matrix.toarray()
    u0 = Image(A.spec.grid, np.zeros(A.ncols))
    R = build_gradient_matrix(kind, u0, alpha=alpha)
    a_eff = 1.0 if kind.kind == "tvl2" else alpha
    h = dense.T @ dense + a_eff * R.matrix.toarray()
    s_dense = np.linalg.solve(h, dense.T @ b.ravel())
    cfg = SolverConfig(outer_iters=1, inner_iters=800, rho=1e-28, alpha=alpha)
    res = fixed_point_reconstruct(A, b, kind, cfg)
    rel = np.linalg.norm(res.image.ravel() - s_dense) / np.linalg.norm(s_dense)
    assert rel <= 1e-6


def test_frozen_objective_nonincreasing_across_inner_cg(small_ct):
    ds, A = small_ct
    alpha = 1e-7
    inner = []
    cfg = SolverConfig(outer_iters=3, inner_iters=5, rho=1e-20, alpha=alpha)
    fixed_point_reconstruct(A, ds.noisy[0], tv(), cfg, inner_history=inner)
    bv = ds.noisy[0].ravel()
    for u_start, _grad, steps in inner:
        # objective with the penalty matrix frozen at the outer iterate
        R = build_gradient_matrix(tv(), Image(A.spec.grid, u_start),
                                  alpha=alpha).matrix

        def frozen_objective(s):
            r = A.apply(u_start + s) - bv
            v = u_start + s
            return 0.5 * float(r @ r) + 0.5 * alpha * float(v @ (R @ v))

        prev = None
        for s in steps:
            q = frozen_objective(s)
            if prev is not None:
                assert q <= prev * (1 + 1e-10)
            prev = q


def test_preconditioned_cg_matches_and_saves_iterations(small_ct):
    ds, A = small_ct
    alpha = 1e-6
    base = SolverConfig(outer_iters=1, inner_iters=400, rho=1e-26, alpha=alpha)
    plain = fixed_point_reconstruct(A, ds.noisy[0], el(), base)
    pre = SolverConfig(outer_iters=1, inner_iters=400, rho=1e-26, alpha=alpha,
                       precondition=True)
    precond = fixed_point_reconstruct(A, ds.noisy[0], el(), pre)
    rel = (np.linalg.norm(plain.image.ravel() - precond.image.ravel())
           / np.linalg.norm(plain.image.ravel()))
    assert rel <= 1e-8

    # with a modest step budget the preconditioned step gets much closer
    # to the converged one: the stiff penalty term is what CG chokes on
    target = precond.image.ravel()
    short = SolverConfig(outer_iters=1, inner_iters=12, rho=1e-26, alpha=alpha)
    short_pre = SolverConfig(outer_iters=1, inner_iters=12, rho=1e-26,
                             alpha=alpha, precondition=True)
    err_plain = np.linalg.norm(
        fixed_point_reconstruct(A, ds.noisy[0], el(), short).image.ravel() - target)
    err_pre = np.linalg.norm(
        fixed_point_reconstruct(A, ds.noisy[0], el(), short_pre).image.ravel() - target)
    assert err_pre < err_plain


def test_solvers_deterministic(small_ct):
    ds, A = small_ct
    cfg = SolverConfig(outer_iters=5, inner_iters=5, alpha=1e-7, seed=3)
    a = fixed_point_reconstruct(A, ds.noisy[0], el(), cfg)
    b = fixed_point_reconstruct(A, ds.noisy[0], el(), cfg)
    assert np.array_equal(a.image.values, b.image.values)
    assert a.history == b.history


def test_early_stop_on_small_steps(small_ct):
    ds, A = small_ct
    cfg = SolverConfig(outer_iters=60, inner_iters=5, rho=1e2, alpha=1e-7)
    res = fixed_point_reconstruct(A, ds.noisy[0], tv(), cfg)
    assert res.terminated_early
    assert len(res.history) < 60
    assert res.history[-1].step_norm2 <= 1e2


def test_mlem_noiseless_truth_is_fixed_point():
    A = _operator(32, 40)
    truth = _blob_truth(A.spec.grid, strictly_positive=True)
    b = forward(A, truth)
    cfg = SolverConfig(outer_iters=1, inner_iters=1, alpha=0.0)
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
    cfg = SolverConfig(outer_iters=50, inner_iters=3, rho=1e-30, alpha=3e-9)
    res = mlem_split_reconstruct(A, b, el(), cfg, ground_truth=truth)
    assert res.image.values.min() >= 0.0
    assert all(h.penalty >= 0.0 for h in res.history)

    # expected-count conservation right after the multiplicative step
    u = np.ones(A.ncols)
    sens = A.apply_adjoint(np.ones(A.nrows))
    floor = 1e-12 * float(np.max(A.apply(u)))
    for _ in range(4):
        u = u / sens * A.apply_adjoint(counts / np.maximum(A.apply(u), floor))
        assert_allclose(A.apply(u).sum(), counts.sum(), rtol=1e-8)


def test_mlem_rejects_negative_data():
    A = _operator(8, 6)
    values = -np.ones(A.nrows)
    b = Sinogram(A.spec.angles, A.spec.nbins, values)
    with pytest.raises(ValueError):
        mlem_split_reconstruct(A, b, None, SolverConfig(alpha=0.0))


def test_denoising_step_strictly_decreases_objective(rng):
    # oracle: explicit evaluation of 0.5|f-f0|^2 + (alpha/2) <Rf, f>
    grid = GridSpec(32, 32)
    noisy = Image(grid, gaussian_filter(rng.standard_normal((32, 32)), 1.0)
                  + 0.3 * rng.standard_normal((32, 32)) + 1.0)
    alpha = 1e-8
    R = build_gradient_matrix(el(), noisy).matrix
    lam = power_iteration(lambda v: R @ v, grid.npixels, 50, seed=0)
    tau = 1.0 / (1.0 + alpha * lam)
    f0 = noisy.ravel().copy()
    f = f0.copy()

    def objective(v):
        return 0.5 * float((v - f0) @ (v - f0)) + 0.5 * alpha * float(v @ (R @ v))

    prev = objective(f)
    for _ in range(10):
        f = f - tau * ((f - f0) + alpha * (R @ f))
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
    cfg = SolverConfig(outer_iters=5, inner_iters=5, alpha=0.0)
    with pytest.raises((NumericalError, ValueError)):
        fixed_point_reconstruct(A, b, None, cfg)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
def test_config_rejects_nonpositive_sigma(sigma):
    # sigma^2 I + alpha R is singular at sigma = 0 for tv and el
    with pytest.raises(ValueError, match="sigma"):
        SolverConfig(precondition=True, sigma=sigma)
