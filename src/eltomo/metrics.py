"""Error metrics, parameter sweeps and report emission.

RMSE here is the relative l2 error |recon - truth| / |truth|, optionally
restricted to a region mask. Sweeps run one solver over a grid of
penalty-parameter values (averaged over noise realizations) and pick the
argmin, with ties broken toward the smaller value. A comparison reports
a swept method at its best sweep point; it does not solve it again.

A run's fidelity follows its dataset: least squares for CT data,
Poisson ML-EM for ET data (BASELINES, ``check_method``). ``SweepSpec``
holds a sweep's rules and rejects any setting its runs would reject; a
default grid is built on the unit grid, checked, then moved to
``sweep_center`` once the projector exists.

Every solver run goes through ``run_methods``: ET runs advance in
lockstep, one block product per EM half-step for all of them
(``solvers.mlem_batch``), CT runs go one after another, and
``run_method`` is the list of one. A sweep's runs, one per (grid value,
realization) pair, run on both of the projector's threads
(``projector.map_ordered``), taking queue items in order, each one
``run_methods`` call: one run on CT data, on ET data a batch of up to
ET_BATCH runs (a larger sweep is split into near-equal batches). Each
run's result is bit-identical to its own ``run_method`` result. A
comparison puts all of its items in one such queue: the tv, el and
baseline items from the start, and the tvl2 items, which need tv's best
weight, at its head as soon as the last tv item finishes (on ET data
one batch per thread). So no thread waits at the end of one sweep for
the other's last item. Results are gathered in grid order, and every
norm is summed in a fixed order (``solvers.dot``), so nothing here
depends on this package's or BLAS's thread count, on the batch size or
on the order in which items finish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fileio, projector
from .grids import Image, RegionMask
from .projector import SparseOperator, build_projector, map_ordered
from .regularizers import (Penalty, build_gradient_matrix, el, tikhonov,
                           tv, tv_l2)
from .simulate import Dataset
from .solvers import (MlemRun, NumericalError, ReconResult, SolverConfig,
                      cgls, fixed_point_reconstruct, history_csv, mlem_batch,
                      norm)


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


# each data kind's unregularized baseline; its fidelity, least squares
# for CT and Poisson ML-EM for ET, is that of every penalty kind too
BASELINES = {"ct": "cgls", "et": "mlem"}


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


def check_method(method: str, data_kind: str) -> None:
    """Raise ValueError if method is the other data kind's baseline."""
    if method in BASELINES.values() and method != BASELINES[data_kind]:
        raise ValueError(f"method {method!r} is not supported with "
                         f"{data_kind} data")


class MethodRun(NamedTuple):
    """A ``run_methods`` run: ``run_method``'s arguments after the dataset."""
    method: str
    cfg: SolverConfig
    realization: int = 0
    mu: float = 0.0
    beta: float = 0.03


def run_methods(A: SparseOperator, dataset: Dataset, runs: list[MethodRun]
                ) -> list[ReconResult | NumericalError]:
    """Each run's result, or the NumericalError it raised, against a
    noise realization of the dataset with the dataset's fidelity: its
    kind's baseline (BASELINES) or a penalty kind. Every run is checked
    before any is solved. ET runs advance in lockstep (``mlem_batch``)."""
    kinds = []
    for run in runs:
        check_method(run.method, dataset.kind)
        kinds.append(make_penalty(run.method, mu=run.mu, beta=run.beta))
    truth = dataset.ground_truth
    if dataset.kind == "et":
        return mlem_batch(A, [MlemRun(dataset.noisy[run.realization], kind,
                                      run.cfg, truth)
                              for run, kind in zip(runs, kinds)])
    outcomes: list[ReconResult | NumericalError] = []
    for run, kind in zip(runs, kinds):
        b = dataset.noisy[run.realization]
        try:
            outcomes.append(
                cgls(A, b, run.cfg.outer_iters, ground_truth=truth)
                if kind is None else
                fixed_point_reconstruct(A, b, kind, run.cfg,
                                        ground_truth=truth))
        except NumericalError as exc:
            outcomes.append(exc)
    return outcomes


def run_method(A: SparseOperator, dataset: Dataset, method: str,
               cfg: SolverConfig, realization: int = 0,
               mu: float = 0.0, beta: float = 0.03) -> ReconResult:
    """One solver run (``run_methods``); raises its NumericalError."""
    (outcome,) = run_methods(A, dataset, [MethodRun(method, cfg, realization,
                                                    mu, beta)])
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


# An ET queue item is a batch of at most this many runs, advanced in
# lockstep: one block product per EM half-step serves the batch. A and
# A' on one block cost, per vector, 2.80, 3.78, 3.08, 2.03, 1.91, 1.53,
# 1.72 and 1.75 ms at k = 1, 2, 3, 5, 8, 12, 16 and 24 columns on the
# 128^2 emission operator of the ET comparison (60 angles, PSF; one core,
# 2-core VM). A CT item is one run: the least-squares runs do not
# advance in lockstep, and on the 100^2 CT operator a block of 3, a
# 3-point sweep, cost 0.87 ms per vector against 0.86 alone.
ET_BATCH = 12


def _batches(dataset: Dataset, jobs: list, least: int = 1) -> list[list]:
    """The jobs as queue items, in order: on ET data near-equal batches
    of at most ET_BATCH, and at least ``least`` of them while there are
    jobs enough; on CT data one job each."""
    if dataset.kind != "et":
        return [[job] for job in jobs]
    count = min(len(jobs), max(least, -(-len(jobs) // ET_BATCH)))
    return [jobs[i * len(jobs) // count:(i + 1) * len(jobs) // count]
            for i in range(count)]


def _flat(batches: list[list]) -> list:
    return [outcome for batch in batches for outcome in batch]


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
    """The probe scale of the method's penalty matrix at alpha = 1,
    where an alpha sweep's default grid is centred."""
    kind = make_penalty(method, mu=mu if mu > 0 else 1.0, beta=beta)
    if kind is None:
        raise ValueError("unregularized methods have no alpha scale")
    return _probe_scale(A, dataset, kind, 1.0, "penalty")


def mu_scale_heuristic(A: SparseOperator, dataset: Dataset) -> float:
    """Scale of the second combined-penalty constant, probed the same
    way as alpha but against the curvature part of the matrix: the
    combined penalty's matrix with alpha = 0 and mu = 1."""
    return _probe_scale(A, dataset, tv_l2(mu=1.0), 0.0, "curvature")


def sweep_center(A: SparseOperator, dataset: Dataset, method: str,
                 param: str, mu: float = 0.0, beta: float = 0.03) -> float:
    """Center of a sweep's default grid: alpha at the method's probe
    scale, mu at its own scale and beta at the fixed beta."""
    if param == "mu":
        return mu_scale_heuristic(A, dataset)
    if param == "beta":
        return beta
    return alpha_scale_heuristic(A, dataset, method, mu=mu, beta=beta)


def log_grid(center: float, decades: float = 4.0, npoints: int = 15
             ) -> tuple[float, ...]:
    if npoints < 2:
        raise ValueError("sweep needs at least 2 grid points")
    if not 0 < decades < math.inf:
        raise ValueError(f"sweep decades must be finite and > 0: {decades}")
    half = decades / 2.0
    return tuple(center * 10.0 ** e
                 for e in np.linspace(-half, half, npoints))


@dataclass(frozen=True)
class SweepSpec:
    """A sweep of param over values for a penalty method. Construction
    fails on a setting that a rule below or one of its runs rejects."""

    method: str
    param: str  # "alpha" | "mu" | "beta"
    values: tuple[float, ...]
    alpha: float = 0.0
    mu: float = 0.0
    beta: float = 0.03
    realizations: tuple[int, ...] = (0,)
    outer_iters: int = 40
    inner_iters: int = 5
    rho: float = 1e-4

    def __post_init__(self):
        if self.method in BASELINES.values():
            raise ValueError("cannot sweep an unregularized method")
        if self.param not in ("alpha", "mu", "beta"):
            raise ValueError(f"unknown sweep parameter {self.param!r}")
        for swept, owner in (("mu", "tvl2"), ("beta", "el")):
            if self.param == swept and self.method != owner:
                raise ValueError(f"sweeping {swept} needs method {owner!r}")
        if self.param != "alpha" and not self.alpha > 0:
            raise ValueError(f"sweeping {self.param} requires a fixed "
                             f"alpha > 0")
        if (self.param == "alpha" and self.method == "tvl2"
                and not self.mu > 0):
            raise ValueError("method 'tvl2' needs mu > 0")
        if len(self.values) < 2:
            raise ValueError("sweep needs at least 2 grid points")
        if not self.realizations:
            raise ValueError("realizations must be >= 1")
        if any(not v > 0 for v in self.values):
            raise ValueError("sweep values must be positive")
        for value in self.values:
            self.run_settings(value)

    def run_settings(self, value: float) -> tuple[SolverConfig, float, float]:
        """(solver config, mu, beta) of the runs at one grid value."""
        at = {"alpha": self.alpha, "mu": self.mu, "beta": self.beta}
        at[self.param] = value
        make_penalty(self.method, mu=at["mu"], beta=at["beta"])
        return (SolverConfig(outer_iters=self.outer_iters,
                             inner_iters=self.inner_iters, rho=self.rho,
                             alpha=at["alpha"]), at["mu"], at["beta"])

    def at_center(self, center: float) -> SweepSpec:
        """This spec with its values multiplied by center."""
        return replace(self, values=tuple(center * v for v in self.values))


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


def _sweep_runs(spec: SweepSpec, dataset: Dataset, A: SparseOperator,
                jobs: list) -> list:
    """(SweepRun, the result if it is a first realization's, region
    errors) of each (grid value, realization) run of a queue item."""
    runs = []
    for value, _, r in jobs:
        cfg, mu, beta = spec.run_settings(value)
        runs.append(MethodRun(spec.method, cfg, r, mu, beta))
    truth = dataset.ground_truth
    has_regions = dataset.gr is not None and dataset.br is not None
    outcomes = []
    for (value, k, r), res in zip(jobs, run_methods(A, dataset, runs)):
        if isinstance(res, NumericalError):
            outcomes.append((SweepRun(value, r, None, error=str(res)), None,
                             ()))
            continue
        regions = ((rmse(res.image, truth, dataset.gr),
                    rmse(res.image, truth, dataset.br))
                   if has_regions else ())
        outcomes.append((SweepRun(value, r, rmse(res.image, truth)),
                         res if k == 0 else None, regions))
    return outcomes


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
    return gather_sweep(spec, dataset, _flat(map_ordered(
        lambda jobs: _sweep_runs(spec, dataset, A, jobs),
        _batches(dataset, _sweep_jobs(spec)))))


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

    Every solver run comes from one queue (``map_ordered``) of items, as
    ``run_sweep`` makes them (one run on CT data, a lockstep batch on ET
    data): the tv items, then the el items, then the baseline
    realizations. When the last tv item finishes, tv's sweep is gathered
    and the tvl2 items, on ET data at least one batch per thread, go to
    the head of the queue. All three grid centers are computed before the
    queue starts. Each sweep is gathered as ``run_sweep`` gathers it, so
    nothing depends on the order in which the items finish.

    A swept method's report is its best sweep point, not a re-run: the
    sweep's mean errors there and the first realization's run. A failed
    realization at that point, or a sweep whose every point failed,
    raises its NumericalError; for tv this happens as tv's sweep is
    gathered, and no tvl2 run starts.

    When items raise, the queue starts no further item, and once both
    threads are idle the exception of the earliest raising item in queue
    order wins (tv, el, baseline, tvl2); tv's NumericalError counts as
    its last item's, and a baseline item raises its first failed
    realization's. A solver's NumericalError inside a sweep is a failed
    point, not an exception. After the queue, tvl2's NumericalError is
    raised before el's.

    ``precondition`` is ignored: every regularized least-squares run is
    preconditioned. It stays only while the benchmark's workloads pass
    it, until the next benchmark change (ROADMAP item 1).
    """
    baseline = BASELINES[dataset.kind]
    has_regions = dataset.gr is not None and dataset.br is not None
    unit = log_grid(1.0, sweep_decades, sweep_points)

    def sweep_spec(method, param, alpha=0.0):
        return SweepSpec(method=method, param=param, values=unit,
                         alpha=alpha, beta=beta,
                         realizations=realizations, outer_iters=outer_iters,
                         inner_iters=inner_iters, rho=rho)

    # every setting is checked before the projector is built
    tv_spec = sweep_spec("tv", "alpha")
    el_spec = sweep_spec("el", "alpha")
    cfg = SolverConfig(outer_iters=outer_iters, inner_iters=inner_iters,
                       rho=rho)
    if A is None:
        A = build_projector(dataset.recon_projector)
    tv_spec = tv_spec.at_center(sweep_center(A, dataset, "tv", "alpha"))
    mu_center = sweep_center(A, dataset, "tvl2", "mu")
    el_spec = el_spec.at_center(
        sweep_center(A, dataset, "el", "alpha", beta=beta))

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

    def solve(item):
        spec, jobs = item
        if spec is not None:
            return _sweep_runs(spec, dataset, A, jobs)
        results = run_methods(A, dataset, [MethodRun(baseline, cfg, r)
                                           for r in jobs])
        for res in results:
            if isinstance(res, NumericalError):
                raise res
        return results

    def items(spec, least=1):
        return [(spec, jobs)
                for jobs in _batches(dataset, _sweep_jobs(spec), least)]

    tv_items, el_items = items(tv_spec), items(el_spec)
    base_items = [(None, jobs) for jobs in _batches(dataset, realizations)]
    tv_outcomes: dict[int, list] = {}
    tv = tvl2_spec = None

    def then(i, outcome):
        """The tvl2 runs, once every tv run has finished."""
        nonlocal tv, tvl2_spec
        if i >= len(tv_items):
            return ()
        tv_outcomes[i] = outcome
        if len(tv_outcomes) < len(tv_items):
            return ()
        tv = report(tv_spec, _flat([tv_outcomes[j]
                                    for j in range(len(tv_items))]))
        tvl2_spec = sweep_spec("tvl2", "mu",
                               alpha=tv.best_param).at_center(mu_center)
        # tvl2 joins the queue while the other thread is most likely
        # still in el: as one batch it would run alone on this thread and
        # leave the other idle at the end, so on ET data it gets one
        # batch per thread (ET comparison at 128^2, one realization, 5
        # points: median 4.26 s against 4.52 s, 8 interleaved runs on a
        # 2-core VM)
        return items(tvl2_spec, least=projector.THREADS)

    outcomes = map_ordered(solve, tv_items + el_items + base_items, then=then)
    el_end = len(tv_items) + len(el_items)
    base_end = el_end + len(base_items)
    tvl2 = report(tvl2_spec, _flat(outcomes[base_end:]))
    el_report = report(el_spec, _flat(outcomes[len(tv_items):el_end]))
    results = _flat(outcomes[el_end:base_end])

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
