"""Error metrics, parameter sweeps and report emission.

RMSE here is the relative l2 error |recon - truth| / |truth|, optionally
restricted to a region mask. Sweeps run one solver over a grid of
penalty-parameter values (averaged over noise realizations) and pick the
argmin, with ties broken toward the smaller value. A comparison reports
a swept method at its best sweep point; it does not solve it again.

A sweep's runs, one per (grid value, realization) pair, are independent
and run on both of the projector's threads (``projector.map_ordered``).
A comparison puts all of its runs in one such queue: the tv, el and
baseline runs from the start, and the tvl2 runs, which need tv's best
weight, at its head as soon as the last tv run finishes. So no thread
waits at the end of one sweep for the other's last run. Results are
gathered in grid order, and every norm is summed in a fixed order
(``solvers.dot``), so nothing here depends on this package's or BLAS's
thread count, or on the order in which runs finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .grids import Image, RegionMask
from .projector import SparseOperator, build_projector, map_ordered
from .regularizers import (Penalty, build_gradient_matrix, el, tikhonov, tv,
                           tv_l2)
from .simulate import Dataset
from .solvers import (NumericalError, ReconResult, SolverConfig, cgls,
                      fixed_point_reconstruct, history_csv,
                      mlem_split_reconstruct, norm)


def rmse(recon: Image, truth: Image, mask: RegionMask | None = None) -> float:
    if recon.grid != truth.grid:
        raise ValueError("reconstruction and truth grids differ")
    r = recon.ravel()
    t = truth.ravel()
    if mask is not None:
        if mask.grid != truth.grid:
            raise ValueError("mask grid does not match image grid")
        r = r[mask.membership.ravel()]
        t = t[mask.membership.ravel()]
    denom = norm(t)
    if denom == 0.0:
        raise ValueError("truth is zero on the evaluated region")
    return norm(r - t) / denom


# each fidelity's unregularized baseline; every penalty kind runs with both
BASELINES = {"ls": "cgls", "poisson": "mlem"}


def make_penalty(method: str, mu: float = 0.0,
                 beta: float = 0.03) -> Penalty | None:
    if method in BASELINES.values():
        return None
    if method == "tikhonov":
        return tikhonov()
    if method == "tv":
        return tv()
    if method == "tvl2":
        return tv_l2(mu)
    if method == "el":
        return el(beta=beta)
    raise ValueError(f"unknown method {method!r}")


def run_method(A: SparseOperator, dataset: Dataset, method: str,
               fidelity: str, cfg: SolverConfig, realization: int = 0,
               mu: float = 0.0, beta: float = 0.03) -> ReconResult:
    """One solver run against one noise realization of a dataset: the
    fidelity's baseline (BASELINES) or a penalty kind."""
    if fidelity not in BASELINES:
        raise ValueError(f"unknown fidelity {fidelity!r}")
    kind = make_penalty(method, mu=mu, beta=beta)
    if kind is None and method != BASELINES[fidelity]:
        raise ValueError(f"method {method!r} is not supported with "
                         f"fidelity {fidelity!r}")
    b, truth = dataset.noisy[realization], dataset.ground_truth
    if fidelity == "poisson":
        return mlem_split_reconstruct(A, b, kind, cfg, ground_truth=truth)
    if kind is None:
        return cgls(A, b, cfg.outer_iters, ground_truth=truth)
    return fixed_point_reconstruct(A, b, kind, cfg, ground_truth=truth)


def _probe_scale(A: SparseOperator, dataset: Dataset, kind: Penalty,
                 alpha: float, what: str) -> float:
    """|A'b| / |R(A'b) A'b| in the max norm: the ratio of the data-term
    and penalty-term gradient scales probed at the backprojected data."""
    atb = A.apply_adjoint(dataset.noisy[0].ravel())
    probe = Image(dataset.ground_truth.grid, atb)
    denom = float(np.max(np.abs(
        build_gradient_matrix(kind, probe, alpha).matrix @ atb)))
    if denom == 0.0:
        raise NumericalError(f"{what} gradient vanished at the probe image")
    return float(np.max(np.abs(atb))) / denom


def alpha_scale_heuristic(A: SparseOperator, dataset: Dataset,
                          method: str, mu: float = 0.0,
                          beta: float = 0.03) -> float:
    """Center of the default sweep grid: the probe scale of the
    method's penalty matrix at alpha = 1."""
    kind = make_penalty(method, mu=mu if mu > 0 else 1.0, beta=beta)
    if kind is None:
        raise ValueError("unregularized methods have no alpha scale")
    return _probe_scale(A, dataset, kind, 1.0, "penalty")


def mu_scale_heuristic(A: SparseOperator, dataset: Dataset) -> float:
    """Scale of the second combined-penalty constant, probed the same
    way as alpha but against the curvature part of the matrix: the
    combined penalty's matrix with alpha = 0 and mu = 1."""
    return _probe_scale(A, dataset, tv_l2(mu=1.0), 0.0, "curvature")


def log_grid(center: float, decades: float = 4.0, npoints: int = 15
             ) -> tuple[float, ...]:
    half = decades / 2.0
    return tuple(center * 10.0 ** e
                 for e in np.linspace(-half, half, npoints))


@dataclass(frozen=True)
class SweepSpec:
    method: str
    param: str  # "alpha" | "mu" | "beta"
    values: tuple[float, ...]
    fidelity: str = "ls"
    alpha: float = 0.0
    mu: float = 0.0
    beta: float = 0.03
    realizations: tuple[int, ...] = (0,)
    outer_iters: int = 40
    inner_iters: int = 5
    rho: float = 1e-4

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("sweep needs at least 2 grid points")
        if not self.realizations:
            raise ValueError("sweep needs at least one realization")
        if any(not v > 0 for v in self.values):
            raise ValueError("sweep values must be positive")
        if self.param not in ("alpha", "mu", "beta"):
            raise ValueError(f"unknown sweep parameter {self.param!r}")


@dataclass
class SweepRun:
    value: float
    realization: int
    rmse: float | None
    error: str | None = None  # why the run failed (rmse is None)


@dataclass
class SweepResult:
    spec: SweepSpec
    mean_rmse: tuple[float, ...]
    gr_mean: tuple[float, ...] | None
    br_mean: tuple[float, ...] | None
    runs: list[SweepRun]
    best_value: float
    best_index: int
    # the run of the first realization at the best point; None if it failed
    best_result: ReconResult | None


def _sweep_jobs(spec: SweepSpec) -> list[tuple[float, int, int]]:
    """A sweep's (grid value, realization index, realization) runs, in
    grid order."""
    return [(value, k, r) for value in spec.values
            for k, r in enumerate(spec.realizations)]


def _sweep_run(spec: SweepSpec, dataset: Dataset, A: SparseOperator, job):
    """(SweepRun, the result if it is a first realization's, region
    errors) of one (grid value, realization) run."""
    value, k, r = job
    alpha, mu, beta = spec.alpha, spec.mu, spec.beta
    if spec.param == "alpha":
        alpha = value
    elif spec.param == "mu":
        mu = value
    else:
        beta = value
    cfg = SolverConfig(outer_iters=spec.outer_iters,
                       inner_iters=spec.inner_iters, rho=spec.rho,
                       alpha=alpha)
    try:
        res = run_method(A, dataset, spec.method, spec.fidelity, cfg,
                         realization=r, mu=mu, beta=beta)
    except NumericalError as exc:
        return SweepRun(value, r, None, error=str(exc)), None, ()
    truth = dataset.ground_truth
    regions = ((rmse(res.image, truth, dataset.gr),
                rmse(res.image, truth, dataset.br))
               if dataset.gr is not None and dataset.br is not None else ())
    return (SweepRun(value, r, rmse(res.image, truth)),
            res if k == 0 else None, regions)


def gather_sweep(spec: SweepSpec, dataset: Dataset,
                 outcomes: list) -> SweepResult:
    """A sweep's result from its runs' outcomes, given in the order of
    ``_sweep_jobs``: per-point means and the argmin, ties broken toward
    the smaller value."""
    has_regions = dataset.gr is not None and dataset.br is not None
    outcomes = iter(outcomes)
    runs: list[SweepRun] = []
    means: list[float] = []
    gr_means: list[float] = []
    br_means: list[float] = []
    best_index = -1
    best = (math.inf, math.inf)
    best_result = None
    for i, value in enumerate(spec.values):
        errs, gr_errs, br_errs = [], [], []
        first = None
        for _ in spec.realizations:
            run, res, regions = next(outcomes)
            runs.append(run)
            if run.rmse is None:
                continue
            if res is not None:
                first = res
            if regions:
                gr_errs.append(regions[0])
                br_errs.append(regions[1])
            errs.append(run.rmse)
        means.append(float(np.mean(errs)) if errs else math.nan)
        gr_means.append(float(np.mean(gr_errs)) if gr_errs else math.nan)
        br_means.append(float(np.mean(br_errs)) if br_errs else math.nan)
        if errs and (means[i], value) < best:
            best = (means[i], value)
            best_index = i
            best_result = first

    if best_index < 0:
        raise NumericalError("every sweep grid point failed")
    return SweepResult(spec, tuple(means),
                       tuple(gr_means) if has_regions else None,
                       tuple(br_means) if has_regions else None,
                       runs, spec.values[best_index], best_index, best_result)


def run_sweep(spec: SweepSpec, dataset: Dataset,
              A: SparseOperator | None = None) -> SweepResult:
    if A is None:
        A = build_projector(dataset.recon_projector)
    return gather_sweep(spec, dataset, map_ordered(
        lambda job: _sweep_run(spec, dataset, A, job), _sweep_jobs(spec)))


@dataclass
class MethodReport:
    method: str
    best_param: float | None
    rmse: float
    image: Image
    history_result: ReconResult
    sweep: SweepResult | None = None
    gr_rmse: float | None = None
    br_rmse: float | None = None


def run_comparison(dataset: Dataset, outer_iters: int, inner_iters: int,
                   realizations: tuple[int, ...] = (0,), beta: float = 0.03,
                   sweep_points: int = 9, sweep_decades: float = 4.0,
                   rho: float = 1e-4,
                   precondition: bool = False,
                   A: SparseOperator | None = None) -> list[MethodReport]:
    """Sweep-then-evaluate comparison of the four methods on a dataset.

    The tv weight is swept, the second tvl2 constant mu is swept with
    tv's best weight frozen, and the el weight is swept (its edge
    constant beta stays fixed). The unregularized baseline (cgls for
    least-squares data, plain ML-EM for Poisson data) runs as-is.

    Every solver run comes from one queue (``map_ordered``): the tv runs,
    then the el runs, then the baseline realizations. When the last tv
    run finishes, tv's sweep is gathered and the tvl2 runs go to the head
    of the queue. All three grid centers are computed before the queue
    starts. Each sweep is gathered as ``run_sweep`` gathers it, so
    nothing depends on the order in which the runs finish.

    A swept method's report is its best sweep point, not a re-run: the
    sweep's mean errors there and the first realization's run. A failed
    realization at that point, or a sweep whose every point failed,
    raises its NumericalError; for tv this happens as tv's sweep is
    gathered, and no tvl2 run starts.

    When runs raise, the queue starts no further run, and once both
    threads are idle the exception of the earliest raising run in queue
    order wins (tv, el, baseline, tvl2); tv's NumericalError counts as
    its last run's. A solver's NumericalError inside a sweep is a failed
    point, not an exception. After the queue, tvl2's NumericalError is
    raised before el's.

    ``precondition`` is ignored: every regularized least-squares run is
    preconditioned. It stays only while the benchmark's workloads pass
    it, until the next benchmark change (ROADMAP item 1).
    """
    if not realizations:
        raise ValueError("comparison needs at least one realization")
    if A is None:
        A = build_projector(dataset.recon_projector)
    fidelity = "poisson" if dataset.kind == "et" else "ls"
    baseline = BASELINES[fidelity]
    has_regions = dataset.gr is not None and dataset.br is not None

    def sweep_spec(method, param, center, alpha=0.0):
        return SweepSpec(method=method, param=param,
                         values=log_grid(center, sweep_decades, sweep_points),
                         fidelity=fidelity, alpha=alpha, beta=beta,
                         realizations=realizations, outer_iters=outer_iters,
                         inner_iters=inner_iters, rho=rho)

    def report(spec, outcomes):
        result = gather_sweep(spec, dataset, outcomes)
        for run in result.runs:
            if run.value == result.best_value and run.error is not None:
                raise NumericalError(run.error)
        i = result.best_index
        return MethodReport(
            method=spec.method, best_param=result.best_value,
            rmse=result.mean_rmse[i], image=result.best_result.image,
            history_result=result.best_result, sweep=result,
            gr_rmse=result.gr_mean[i] if has_regions else None,
            br_rmse=result.br_mean[i] if has_regions else None)

    tv_spec = sweep_spec("tv", "alpha", alpha_scale_heuristic(A, dataset, "tv"))
    mu_center = mu_scale_heuristic(A, dataset)
    el_spec = sweep_spec("el", "alpha",
                         alpha_scale_heuristic(A, dataset, "el", beta=beta))
    cfg = SolverConfig(outer_iters=outer_iters, inner_iters=inner_iters,
                       rho=rho)

    def solve(item):
        spec, job = item
        if spec is None:
            return run_method(A, dataset, baseline, fidelity, cfg,
                              realization=job)
        return _sweep_run(spec, dataset, A, job)

    tv_jobs = [(tv_spec, job) for job in _sweep_jobs(tv_spec)]
    el_jobs = [(el_spec, job) for job in _sweep_jobs(el_spec)]
    base_jobs = [(None, r) for r in realizations]
    tv_outcomes: dict[int, tuple] = {}
    tv = tvl2_spec = None

    def then(i, outcome):
        """The tvl2 runs, once every tv run has finished."""
        nonlocal tv, tvl2_spec
        if i >= len(tv_jobs):
            return ()
        tv_outcomes[i] = outcome
        if len(tv_outcomes) < len(tv_jobs):
            return ()
        tv = report(tv_spec, [tv_outcomes[j] for j in range(len(tv_jobs))])
        tvl2_spec = sweep_spec("tvl2", "mu", mu_center, alpha=tv.best_param)
        return [(tvl2_spec, job) for job in _sweep_jobs(tvl2_spec)]

    outcomes = map_ordered(solve, tv_jobs + el_jobs + base_jobs, then=then)
    el_end = len(tv_jobs) + len(el_jobs)
    base_end = el_end + len(base_jobs)
    tvl2 = report(tvl2_spec, outcomes[base_end:])
    el_report = report(el_spec, outcomes[len(tv_jobs):el_end])
    results = outcomes[el_end:base_end]

    def mean_rmse(mask=None):
        return float(np.mean([rmse(res.image, dataset.ground_truth, mask)
                              for res in results]))

    base = MethodReport(
        method=baseline, best_param=None, rmse=mean_rmse(),
        image=results[0].image, history_result=results[0],
        gr_rmse=mean_rmse(dataset.gr) if has_regions else None,
        br_rmse=mean_rmse(dataset.br) if has_regions else None)
    return [base, tv, tvl2, el_report]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def sweep_csv(result: SweepResult) -> str:
    """One row per grid value: mean RMSE over the realizations and, for
    datasets with region masks, the GR and BR means (empty otherwise)."""
    lines = [f"{result.spec.param},mean_rmse,gr_mean,br_mean"]
    for i, v in enumerate(result.spec.values):
        gr = "" if result.gr_mean is None else _fmt(result.gr_mean[i])
        br = "" if result.br_mean is None else _fmt(result.br_mean[i])
        lines.append(f"{_fmt(v)},{_fmt(result.mean_rmse[i])},{gr},{br}")
    return "\n".join(lines) + "\n"


def emit_report(reports: list[MethodReport], out_dir: str | Path) -> list[Path]:
    """Write table.csv, per-method convergence and sweep CSVs, region
    RMSE table and PGM previews of the final images."""
    if not reports:
        raise ValueError("nothing to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(name: str, text: str) -> None:
        written.append(out / name)
        written[-1].write_text(text, encoding="utf-8")

    table = ["method,best_parameter,rmse"]
    for rep in reports:
        best = "" if rep.best_param is None else _fmt(rep.best_param)
        table.append(f"{rep.method},{best},{_fmt(rep.rmse)}")
    write("table.csv", "\n".join(table) + "\n")

    for rep in reports:
        write(f"convergence_{rep.method}.csv", history_csv(rep.history_result))
        if rep.sweep is not None:
            write(f"sweep_{rep.method}.csv", sweep_csv(rep.sweep))
        written.extend(fileio.save_pgm(out / f"{rep.method}.pgm", rep.image))

    regions = ["method,gr_mean,br_mean"] + [
        f"{rep.method},{_fmt(rep.gr_rmse)},{_fmt(rep.br_rmse)}"
        for rep in reports if rep.gr_rmse is not None]
    if len(regions) > 1:
        write("region_rmse.csv", "\n".join(regions) + "\n")
    return written
