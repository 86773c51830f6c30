"""eltomo benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload ct_compare --seed 0 --seconds 30 \\
        --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy. With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics. The line before
it is a JSON record of the run: parameters, samples, quality outputs,
checks and the environment. Metric names and units come from
BENCHMARK.json; workload parameters, what each end-to-end metric measures
and which one each per-layer metric should move are in spec.json.

Each invocation measures one workload, so ``peak_rss_mb`` (the lifetime
maximum resident set) belongs to that workload alone.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Run BLAS/OpenMP single-threaded unless a count between 1 and
    nproc is set; must run before numpy is imported.

    The package's hot loops are scipy sparse products and SuperLU, which
    use one thread; BLAS only serves vector dot products here, and idle
    OpenBLAS threads busy-wait, so a second thread burns a whole core and
    made the ET comparison about 6% slower on a 2-core VM.
    """
    n = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= n:
            os.environ[var] = "1"


def import_package():
    """Import eltomo from this checkout's src/, or exit with status 1."""
    if not (SRC / "eltomo" / "__init__.py").is_file():
        sys.exit(f"error: no eltomo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eltomo
    if Path(eltomo.__file__).resolve().parent != SRC / "eltomo":
        sys.exit(f"error: eltomo imported from {eltomo.__file__}, "
                 f"not from {SRC}")
    return eltomo


def load_spec() -> dict:
    return json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def metric_units(trace: bool) -> dict[str, str]:
    """Name to unit of the metrics BENCHMARK.json declares for a mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ.get(var, "unset")
                        for var in THREAD_VARS},
        "roofline": "not given: a valid bandwidth probe needs arrays four "
                    "times the last-level cache (300 MiB L3 reported on the "
                    "reference VM, so over 1 GB); matvec_gbs is computed "
                    "bytes over time, not measured traffic",
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failed(run, ops: int, what: str, exc: Exception) -> None:
    run.attempted += ops
    run.fail(f"{what} raised {type(exc).__name__}: {exc}", ops=ops)
    traceback.print_exc(file=sys.stderr)


def setup_once(wl, seed: int, run, span=None):
    """One timed set-up; returns its duration and state. If it raised,
    the state is None and its operations, and those of the solve it would
    have fed, count as failed."""
    t0 = time.perf_counter()
    try:
        state = wl.setup(seed, span)
        run.attempted += wl.setup_ops
    except Exception as exc:  # a failed set-up is a measured outcome
        _failed(run, wl.setup_ops + wl.solve_ops(), "setup", exc)
        state = None
    return time.perf_counter() - t0, state


def solve_once(wl, state, run, span=None):
    """One timed solve; returns its duration and output (None if it
    raised, which counts all its operations as failed)."""
    t0 = time.perf_counter()
    try:
        raw = wl.solve(state, span)
    except Exception as exc:  # a failed solve is a measured outcome
        _failed(run, wl.solve_ops(), "solve", exc)
        raw = None
    return time.perf_counter() - t0, raw


def check(wl, state, raw, run) -> None:
    if raw is None:
        return
    try:
        run.add(wl.evaluate(state, raw))
    except Exception as exc:  # outputs that cannot be read are failures
        _failed(run, wl.solve_ops(), "evaluate", exc)


def measure(wl, seed: int, seconds: float, run) -> dict:
    """Untraced run: median set-up over SETUP_REPEATS, then solves while
    the next one is expected to end within ``seconds``."""
    start = time.perf_counter()
    setups, solves = [], []
    for _ in range(SETUP_REPEATS):
        dt, state = setup_once(wl, seed, run)
        setups.append(dt)
        if state is None:
            break
    while state is not None:
        dt, raw = solve_once(wl, state, run)
        solves.append(dt)
        check(wl, state, raw, run)
        if time.perf_counter() - start + dt > seconds:
            break
    base = run.quality.get("rmse.base", math.nan)
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(solves) if solves else math.nan,
            "peak_rss_mb": peak_rss_mb(),
            "rmse.base": base,
            # el relative to the baseline of the same data: the phantom
            # and noise a seed draws move both errors together
            "rmse.el_over_base": run.quality.get("rmse.el", math.nan) / base,
        },
        "samples": {"setup_s": setups, "solve_s": solves},
    }


def measure_traced(wl, seed: int, run) -> dict:
    """Traced run: one set-up and one solve with every layer wrapped."""
    import tracer

    solve_s, raw = math.nan, None
    with tracer.Tracer() as t:
        tracer.install(t)
        _, state = t.span("bench.setup", setup_once, wl, seed, run, t.span)
        if state is not None:
            solve_s, raw = t.span("bench.solve", solve_once, wl, state,
                                  run, t.span)
    check(wl, state, raw, run)
    traced_s = t.total["bench.setup"] + t.total["bench.solve"]
    layers = tracer.layer_metrics(t)
    layers.update({
        "trace.setup_s": t.total["bench.setup"],
        "trace.solve_s": solve_s,
        "trace.unattributed_s": (t.self_time["bench.setup"]
                                 + t.self_time["bench.solve"]),
        "trace.overhead_pct": 100.0 * t.overhead / traced_s,
        "trace.missing_names": len(t.missing),
    })
    return {"metrics": layers, "samples": {}, "missing": t.missing}


def _number(value):
    """JSON has no NaN or infinity; a missing value is written as null."""
    return value if math.isfinite(value) else None


def run_workload(name: str, params: dict, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the run record and the result."""
    import workloads

    wl = workloads.make(name, params, WORK)
    run = workloads.Outcome()  # every operation of this run
    try:
        if trace:
            result = measure_traced(wl, seed, run)
        else:
            result = measure(wl, seed, seconds, run)
    finally:
        wl.close()
        with contextlib.suppress(OSError):
            WORK.rmdir()

    units = metric_units(trace)
    values = result["metrics"]
    if set(values) != set(units):
        raise RuntimeError("emitted metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    metrics = {key: {"value": _number(float(values[key])), "unit": unit}
               for key, unit in units.items()}
    correct = (run.failed == 0 and not run.problems
               and all(m["value"] is not None for m in metrics.values()))
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "params": params, "samples": result["samples"],
              "quality": {k: _number(v) for k, v in run.quality.items()},
              "problems": run.problems, "missing": result.get("missing", []),
              "environment": environment()}
    return record, {"correct": correct, "attempted": max(run.attempted, 1),
                    "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cap_threads()
    import_package()
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 + ", ".join(spec["workloads"]))
    record, result = run_workload(
        args.workload, spec["workloads"][args.workload]["params"],
        args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
