"""Per-layer spans recorded from outside the package.

The tracer replaces package functions with timing wrappers for the
duration of a ``with`` block and puts the originals back on exit. A
function is replaced under every name that refers to it in any loaded
``eltomo`` module, so call sites that imported it by name (``from
.solvers import cgls``) are timed as well as the defining module's own
calls. Methods are replaced on their class.

Each wrapper opens a span. A span's self time is its duration minus the
time covered by the spans it encloses; time inside the root spans that no
wrapped call covers is the unattributed remainder. The time a wrapper
spends outside the call it wraps (its own bookkeeping and counters) is
summed as the tracing overhead.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.overhead = 0.0
        self._last = 0.0
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` and return its result."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self._last = time.perf_counter() - t0
            child = self._stack.pop()
            self.total[name] += dt
            self.self_time[name] += dt - child
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += dt

    def wrapper(self, name: str, fn, on_call=None):
        """Timing wrapper for ``fn``; ``on_call(tracer, args, kwargs,
        result)`` records counters after each call."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            enter = time.perf_counter()
            result = self.span(name, fn, *args, **kwargs)
            inner = self._last
            if on_call is not None:
                on_call(self, args, kwargs, result)
            self.overhead += time.perf_counter() - enter - inner
            return result
        return timed

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, on_call=None,
                       result_name: str | None = None) -> None:
        """Wrap ``module.attr`` everywhere it is bound in the package.

        With ``result_name`` the function returns a callable, and each
        call of that callable is a span of its own. A name that no longer
        exists is recorded in ``missing`` and its metrics read zero, so
        removing a private helper does not break the benchmark.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        fn = original
        if result_name is not None:
            @functools.wraps(original)
            def fn(*args, **kwargs):
                return self.wrapper(result_name, original(*args, **kwargs))
        timed = self.wrapper(name, fn, on_call)
        for mod in _package_modules(module.__name__.split(".")[0]):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, timed)

    def patch_method(self, cls, attr: str, name: str, on_call=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        self._set(cls, attr, self.wrapper(name, original, on_call))

    def _set(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _package_modules(package: str):
    prefix = package + "."
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(prefix))]


# -- counters recorded after calls ------------------------------------------

def _matvec_bytes(tracer, args, kwargs, result):
    # computed, not measured: each stored entry reads its value and its
    # index (8 + 4 bytes with int32 indices), and the input and output
    # vectors are read and written once (8 bytes per element)
    m = args[0].matrix
    tracer.counts["projector.matvec_bytes"] += (
        (m.data.itemsize + m.indices.itemsize) * m.nnz
        + 8 * (m.shape[0] + m.shape[1]))


def _projector_built(tracer, args, kwargs, result):
    tracer.counts["projector.nnz"] = max(tracer.counts["projector.nnz"],
                                         result.matrix.nnz)


def _poisson_drawn(tracer, args, kwargs, result):
    tracer.counts["simulate.poisson_draws"] += int(result.size)


def _cg_finished(tracer, args, kwargs, result):
    tracer.counts["solvers.inner_cg_iters"] += int(result[1])


def _solver_finished(tracer, args, kwargs, result):
    tracer.counts["solvers.outer_iters"] += len(result.history)
    tracer.counts["solvers.early_stops"] += int(result.terminated_early)


def _sweep_finished(tracer, args, kwargs, result):
    tracer.counts["metrics.sweep_points"] += len(result.runs)
    tracer.counts["metrics.sweep_points_failed"] += sum(
        run.rmse is None for run in result.runs)


def _file_written(tracer, args, kwargs, result):
    if isinstance(result, tuple):  # write_pgm returns (bytes, sidecar)
        tracer.counts["fileio.bytes_written"] += len(result[0])
    else:
        tracer.counts["fileio.bytes_written"] += os.path.getsize(args[0])


def _file_read(tracer, args, kwargs, result):
    tracer.counts["fileio.bytes_read"] += os.path.getsize(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import eltomo.cli  # noqa: F401  (loaded so its bindings are wrapped)
    from eltomo import (fileio, metrics, phantoms, projector, regularizers,
                        simulate, solvers)

    pm = tracer.patch_method
    pm(projector.SparseOperator, "apply", "projector.apply", _matvec_bytes)
    pm(projector.SparseOperator, "apply_adjoint", "projector.adjoint",
       _matvec_bytes)

    pf = tracer.patch_function
    pf(projector, "build_projector", "projector.build", _projector_built)
    pf(projector, "project_streaming", "projector.stream")
    pf(phantoms, "generate_ct_phantom", "phantoms.generate")
    pf(phantoms, "generate_et_phantom", "phantoms.generate")
    pf(simulate, "make_ct_dataset", "simulate.dataset")
    pf(simulate, "make_et_dataset", "simulate.dataset")
    pf(simulate, "poisson_sample", "simulate.poisson", _poisson_drawn)
    pf(regularizers, "build_gradient_matrix", "regularizers.assemble")
    pf(regularizers, "penalty_value", "regularizers.penalty_value")
    pf(solvers, "power_iteration", "solvers.power_iter")
    pf(solvers, "_cg", "solvers.inner_cg", _cg_finished)
    pf(solvers, "cgls", "solvers.cgls", _solver_finished)
    pf(solvers, "fixed_point_reconstruct", "solvers.fixed_point",
       _solver_finished)
    pf(solvers, "mlem_split_reconstruct", "solvers.mlem", _solver_finished)
    pf(metrics, "alpha_scale_heuristic", "metrics.heuristic")
    pf(metrics, "mu_scale_heuristic", "metrics.heuristic")
    pf(metrics, "run_sweep", "metrics.sweep", _sweep_finished)
    for attr in ("save_image", "save_sinogram", "save_mask", "write_pgm"):
        pf(fileio, attr, "fileio.write", _file_written)
    for attr in ("load_image", "load_sinogram", "load_mask"):
        pf(fileio, attr, "fileio.read", _file_read)
    pf(solvers, "_factorized_preconditioner", "solvers.precond_setup",
       result_name="solvers.precond_solve")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values (zero for layers that did not run)."""
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    matvec_s = t["projector.apply"] + t["projector.adjoint"]
    points = c["metrics.sweep_points"]
    return {
        "projector.apply_s": t["projector.apply"],
        "projector.apply_calls": n["projector.apply"],
        "projector.adjoint_s": t["projector.adjoint"],
        "projector.adjoint_calls": n["projector.adjoint"],
        "projector.matvec_gbs": (c["projector.matvec_bytes"] / matvec_s / 1e9
                                 if matvec_s > 0 else 0.0),
        "projector.build_s": t["projector.build"],
        "projector.build_calls": n["projector.build"],
        "projector.nnz": c["projector.nnz"],
        "projector.stream_s": t["projector.stream"],
        "phantoms.generate_s": t["phantoms.generate"],
        "simulate.dataset_s": t["simulate.dataset"],
        "simulate.poisson_s": t["simulate.poisson"],
        "simulate.poisson_draws": c["simulate.poisson_draws"],
        "regularizers.assemble_s": t["regularizers.assemble"],
        "regularizers.assemble_calls": n["regularizers.assemble"],
        "regularizers.penalty_value_s": t["regularizers.penalty_value"],
        "regularizers.penalty_value_calls": n["regularizers.penalty_value"],
        "solvers.precond_setup_s": t["solvers.precond_setup"],
        "solvers.precond_setup_calls": n["solvers.precond_setup"],
        "solvers.precond_solve_s": t["solvers.precond_solve"],
        "solvers.precond_solve_calls": n["solvers.precond_solve"],
        "solvers.power_iter_s": t["solvers.power_iter"],
        "solvers.power_iter_calls": n["solvers.power_iter"],
        "solvers.inner_cg_s": s["solvers.inner_cg"],
        "solvers.inner_cg_calls": n["solvers.inner_cg"],
        "solvers.inner_cg_iters": c["solvers.inner_cg_iters"],
        "solvers.mlem_self_s": s["solvers.mlem"],
        "solvers.fixed_point_self_s": s["solvers.fixed_point"],
        "solvers.cgls_self_s": s["solvers.cgls"],
        "solvers.outer_iters": c["solvers.outer_iters"],
        "solvers.early_stops": c["solvers.early_stops"],
        "metrics.heuristic_s": t["metrics.heuristic"],
        "metrics.sweep_s": t["metrics.sweep"],
        "metrics.sweep_points": points,
        "metrics.sweep_points_failed": c["metrics.sweep_points_failed"],
        "metrics.sweep_ok_ratio": ((points - c["metrics.sweep_points_failed"])
                                   / points if points else 0.0),
        "fileio.write_s": t["fileio.write"],
        "fileio.read_s": t["fileio.read"],
        "fileio.bytes_written": c["fileio.bytes_written"],
        "fileio.bytes_read": c["fileio.bytes_read"],
        "cli.simulate_s": t["cli.simulate"],
        "cli.reconstruct_s": t["cli.reconstruct"],
    }
