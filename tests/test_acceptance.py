"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The comparison protocols run once per session (module fixtures) and the
criteria assert on their recorded results. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from eltomo import (CtSimSpec, EtSimSpec, GridSpec, SolverConfig, cgls,
                    make_ct_dataset, make_et_dataset, poisson_sample, rmse,
                    verify_error_bound)
from eltomo.cli import adjoint_suite, gradient_suite, run
from eltomo.metrics import make_penalty, run_comparison, run_method
from eltomo.projector import (ProjectorSpec, build_projector, default_detector,
                              forward, map_ordered)
from eltomo.regularizers import build_gradient_matrix, el, tikhonov, tv, tv_l2
from eltomo.solvers import fixed_point_reconstruct
from eltomo.grids import Image, uniform_angles

CT_SEEDS = (0, 1, 2, 3, 4)
CT_METHODS = ("cgls", "tv", "tvl2", "el")
CT_NBINS = 50  # detector kept under-sampled, as in the full-size protocol


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPT {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _ct_spec(seed: int) -> CtSimSpec:
    return CtSimSpec(fine_grid=GridSpec(200, 200),
                     recon_grid=GridSpec(100, 100),
                     n_angles=90, i0=3e5, nbins=CT_NBINS, seed=seed)


@pytest.fixture(scope="module")
def ct_protocol():
    """Sweep on the first seed, evaluate the best parameters on all
    seeds: 40 outer / 5 inner iterations, preconditioned inner CG."""
    t0 = time.time()
    ds0 = make_ct_dataset(_ct_spec(CT_SEEDS[0]))
    reports = run_comparison(ds0, outer_iters=40, inner_iters=5,
                             sweep_points=13, sweep_decades=6.0, beta=0.03)
    best = {rep.method: rep.best_param for rep in reports}

    datasets = map_ordered(make_ct_dataset, [_ct_spec(s) for s in CT_SEEDS])
    operators = [build_projector(ds.recon_projector) for ds in datasets]

    def evaluate(item):
        k, method = item
        ds, A = datasets[k], operators[k]
        if method == "cgls":
            return cgls(A, ds.noisy[0], 40, ground_truth=ds.ground_truth)
        alpha = best["tv"] if method in ("tv", "tvl2") else best["el"]
        mu = best["tvl2"] if method == "tvl2" else 0.0
        cfg = SolverConfig(outer_iters=40, inner_iters=5, rho=1e-4)
        return run_method(A, ds, make_penalty(method, alpha=alpha, mu=mu),
                          cfg)

    items = [(k, m) for k in range(len(CT_SEEDS)) for m in CT_METHODS]
    runs = dict(zip(items, map_ordered(evaluate, items)))
    per_seed = []
    for k, ds in enumerate(datasets):
        results = {m: runs[k, m] for m in CT_METHODS}
        vals = {m: rmse(res.image, ds.ground_truth)
                for m, res in results.items()}
        per_seed.append((vals, results))
    return {"reports": reports, "best": best, "per_seed": per_seed,
            "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def et_protocol():
    """128x128, 60 angles, 1e6 counts, PSF fwhm 3, 60 outer / 5 inner,
    5 realizations; alpha swept per method on the mean image RMSE."""
    t0 = time.time()
    spec = EtSimSpec(grid=GridSpec(128, 128), n_angles=60,
                     total_counts=1e6, psf_fwhm_bins=3.0,
                     n_realizations=5, seed=0)
    ds = make_et_dataset(spec)
    reports = run_comparison(ds, outer_iters=60, inner_iters=5,
                             realizations=(0, 1, 2, 3, 4),
                             sweep_points=9, sweep_decades=4.0, beta=0.03)
    return {"reports": {rep.method: rep for rep in reports},
            "elapsed": time.time() - t0}


def test_criterion_1_adjoint_suite():
    t0 = time.time()
    ok, worst = adjoint_suite(n=64, n_angles=30, pairs=100, seed=0,
                              tol=1e-10)
    elapsed = time.time() - t0
    _report("1 adjoint",
            ok and elapsed < 10.0,
            f"worst rel mismatch {worst:.2e} (tol 1e-10), {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    ok, worst = gradient_suite(n=32, probes=20, seed=0, tol=1e-5)
    _report("2 gradient", ok,
            f"worst rel FD error {worst:.2e} (tol 1e-5)")


def test_criterion_3_dense_oracle_first_step():
    grid = GridSpec(16, 16)
    nbins, pitch = default_detector(grid)
    spec = ProjectorSpec(grid, uniform_angles(20), nbins, pitch, "linear")
    A = build_projector(spec)
    x, y = grid.pixel_centers()
    truth = Image(grid, np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.03))
    b = forward(A, truth)
    dense = A.matrix.toarray()
    u0 = Image(grid, np.zeros(grid.npixels))
    worst = 0.0
    for kind in (tikhonov(1e-3), tv(1e-4), tv_l2(1e-4, mu=1e-4), el(1e-8)):
        R = build_gradient_matrix(kind, u0)
        h = dense.T @ dense + R.matrix.toarray()
        s_dense = np.linalg.solve(h, dense.T @ b.ravel())
        cfg = SolverConfig(outer_iters=1, inner_iters=800, rho=1e-28)
        res = fixed_point_reconstruct(A, b, kind, cfg)
        rel = (np.linalg.norm(res.image.ravel() - s_dense)
               / np.linalg.norm(s_dense))
        worst = max(worst, rel)
    _report("3 dense-oracle", worst <= 1e-6,
            f"worst first-step deviation {worst:.2e} (tol 1e-6)")


def test_criterion_4_error_bound():
    t0 = time.time()
    report = verify_error_bound(100, 16, seed=0, alphas=(1e-3, 1e-1, 1.0))
    elapsed = time.time() - t0
    _report("4 error-bound",
            report.violations == 0 and elapsed < 5.0,
            f"{report.trials} trials x {len(report.alphas)} alphas, "
            f"{report.violations} violations, min slack "
            f"{report.min_slack:.2e}, {elapsed:.1f}s")


def test_criterion_5_mlem_properties(rng):
    grid = GridSpec(32, 32)
    nbins, pitch = default_detector(grid)
    spec = ProjectorSpec(grid, uniform_angles(40), nbins, pitch, "linear")
    A = build_projector(spec)
    x, y = grid.pixel_centers()
    truth = Image(grid, 0.2 + np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.02))
    b = forward(A, truth)

    # consistent data: the true image is a fixed point of the update
    # (rays missing the grid are empty rows; floor their denominators)
    flat = truth.ravel()
    sens = A.apply_adjoint(np.ones(A.nrows))
    floor = 1e-12 * float(np.max(A.apply(np.ones(A.ncols))))
    q = np.maximum(A.apply(flat), floor)
    moved = flat / sens * A.apply_adjoint(b.ravel() / q)
    move = float(np.linalg.norm(moved - flat) / np.linalg.norm(flat))

    # count conservation on strictly positive noisy data
    counts = rng.poisson(b.values * 40.0).astype(float).ravel()
    u = np.ones(A.ncols)
    conserve = 0.0
    for _ in range(5):
        u = u / sens * A.apply_adjoint(counts / np.maximum(A.apply(u), floor))
        conserve = max(conserve,
                       abs(A.apply(u).sum() - counts.sum()) / counts.sum())

    # nonnegativity along a 50-iteration regularized noisy run
    from eltomo.grids import Sinogram
    from eltomo.solvers import mlem_split_reconstruct
    noisy = Sinogram(A.spec.angles, A.spec.nbins, counts)
    cfg = SolverConfig(outer_iters=50, inner_iters=5, rho=1e-30)
    res = mlem_split_reconstruct(A, noisy, el(1e-9), cfg, ground_truth=truth)
    nonneg = res.image.values.min() >= 0.0 and len(res.history) == 50

    ok = move <= 1e-10 and conserve <= 1e-8 and nonneg
    _report("5 mlem", ok,
            f"fixed-point move {move:.2e} (tol 1e-10), count drift "
            f"{conserve:.2e} (tol 1e-8), nonneg over 50 iters: {nonneg}")


@pytest.mark.slow
def test_criterion_6_ct_ordering(ct_protocol):
    per_seed = ct_protocol["per_seed"]
    ordered = 0
    for vals, _results in per_seed:
        if (vals["el"] < vals["tvl2"] <= vals["tv"] < vals["cgls"]):
            ordered += 1
    means = {m: float(np.mean([vals[m] for vals, _ in per_seed]))
             for m in ("cgls", "tv", "tvl2", "el")}
    bands = (0.05 <= means["el"] <= 0.15 and 0.05 <= means["tvl2"] <= 0.15
             and 0.05 <= means["tv"] <= 0.15
             and 0.10 <= means["cgls"] <= 0.30)
    elapsed = ct_protocol["elapsed"]
    ok = ordered >= 4 and bands and elapsed <= 600.0
    detail = (f"ordering {ordered}/5 seeds; mean rmse "
              + " ".join(f"{m}={v:.4f}" for m, v in means.items())
              + f"; {elapsed:.0f}s")
    _report("6 ct-ordering", ok, detail)


@pytest.mark.slow
def test_criterion_7_et_region_ordering(et_protocol):
    reps = et_protocol["reports"]
    el_rep, tv_rep = reps["el"], reps["tv"]
    ok_gr = el_rep.gr_rmse < tv_rep.gr_rmse
    ok_br = el_rep.br_rmse < tv_rep.br_rmse
    elapsed = et_protocol["elapsed"]
    ok = ok_gr and ok_br and elapsed <= 900.0
    _report("7 et-regions", ok,
            f"GR el={el_rep.gr_rmse:.4f} tv={tv_rep.gr_rmse:.4f}; "
            f"BR el={el_rep.br_rmse:.4f} tv={tv_rep.br_rmse:.4f}; "
            f"{elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_8_convergence_shape(ct_protocol):
    # full-length runs (early stop disabled) so the tail is observable
    best = ct_protocol["best"]
    ds = make_ct_dataset(_ct_spec(CT_SEEDS[0]))
    A = build_projector(ds.recon_projector)
    flat_ok = True
    spreads = []
    for method in ("tv", "tvl2", "el"):
        alpha = best["tv"] if method in ("tv", "tvl2") else best["el"]
        mu = best["tvl2"] if method == "tvl2" else 0.0
        cfg = SolverConfig(outer_iters=40, inner_iters=5, rho=1e-30)
        res = run_method(A, ds, make_penalty(method, alpha=alpha, mu=mu), cfg)
        curve = [h.rmse for h in res.history]
        tail = curve[-10:]
        spread = (max(tail) - min(tail)) / curve[-1]
        spreads.append(f"{method}={spread:.4f}")
        flat_ok &= spread < 0.02
    _vals, results = ct_protocol["per_seed"][0]
    cgls_curve = [h.rmse for h in results["cgls"].history]
    kmin = int(np.argmin(cgls_curve))
    semi = kmin < len(cgls_curve) - 1 and cgls_curve[-1] > cgls_curve[kmin] * 1.02
    _report("8 convergence-shape", flat_ok and semi,
            f"last-10 spreads {' '.join(spreads)} (tol 0.02); cgls min at "
            f"iter {kmin + 1} then rises to {cgls_curve[-1]:.4f}")


def test_criterion_9_pipeline_determinism(tmp_path):
    import shutil

    trees = []
    root = tmp_path / "run"
    for _ in range(2):
        if root.exists():
            shutil.rmtree(root)
        data = root / "data"
        assert run(["simulate", "--experiment", "ct", "--fine-n", "128",
                    "--recon-n", "64", "--n-angles", "30", "--seed", "21",
                    "--out", str(data)]) == 0
        report = root / "report"
        assert run(["report", "--dataset", str(data), "--outer-iters", "8",
                    "--inner-iters", "3", "--sweep-points", "3",
                    "--out", str(report)]) == 0
        tree = {}
        for p in sorted(root.rglob("*")):
            if p.is_file():
                tree[p.relative_to(root).as_posix()] = p.read_bytes()
        trees.append(tree)
    same = trees[0] == trees[1]
    _report("9 determinism",
            same and len(trees[0]) > 10,
            f"{len(trees[0])} files byte-identical across reruns: {same}")


def test_criterion_10_poisson_dispersion():
    details = []
    ok = True
    for lam in (4.0, 1e2, 1e5):
        draws = poisson_sample(np.full(100_000, lam), seed=33)
        ratio = float(draws.var() / draws.mean())
        ok &= 0.97 <= ratio <= 1.03
        details.append(f"lam={lam:g}: {ratio:.4f}")
    _report("10 poisson-dispersion", ok, "; ".join(details))
