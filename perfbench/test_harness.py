"""Smoke test of the benchmark harness at toy sizes (a few seconds).

Checks that every metric BENCHMARK.json names is emitted on every
workload in both modes, that the tracer puts every wrapped function back,
that failures are counted once per operation, and that the benchmark
refuses to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import eltomo  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402  (also loads every module the tracer wraps)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = run.load_spec()

TOY = {
    "ct_compare": dict(SPEC["workloads"]["ct_compare"]["params"],
                       fine_n=64, recon_n=32, n_angles=20, nbins=None,
                       outer_iters=4, sweep_points=2),
    "et_compare": dict(SPEC["workloads"]["et_compare"]["params"],
                       et_n=32, n_angles=16, outer_iters=4, sweep_points=2),
    "ct_full": {
        "simulate": ["simulate", "--experiment", "ct", "--fine-n", "64",
                     "--recon-n", "32", "--n-angles", "16"],
        "reconstruct": [
            ["reconstruct", "--method", "cgls", "--outer-iters", "4"],
            ["reconstruct", "--method", "el", "--alpha", "1e-8",
             "--outer-iters", "4"]],
    },
}


# a layer each workload must reach, so a wrapper that stops firing shows
REACHES = {"ct_compare": "solvers.precond_solve_calls",
           "et_compare": "solvers.power_iter_calls",
           "ct_full": "fileio.bytes_read"}


def _bindings():
    """Every attribute of every loaded eltomo module and class."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("eltomo"):
            continue
        for key, value in vars(mod).items():
            seen[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
    return seen


@pytest.mark.parametrize("workload", list(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted(workload, trace):
    before = _bindings()
    record, result = run.run_workload(workload, TOY[workload], 3, 0.0,
                                      trace)
    assert _bindings() == before, "tracer left a wrapper in place"
    names = [m["name"] for m in BENCH["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert math.isfinite(metric["value"]), name
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["attempted"] >= 1
    # at toy size only the protocol checks may fail, never a solver run
    assert all(p.startswith("protocol:") for p in record["problems"])
    if trace:
        assert record["missing"] == []
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["projector.apply_calls"] >= 1
        assert values[REACHES[workload]] > 0


def test_pipeline_checks_pass_at_toy_size():
    _, result = run.run_workload("ct_full", TOY["ct_full"], 3, 0.0, False)
    assert result["correct"] and result["failed"] == 0
    # three simulate calls plus two reconstruct calls per solve
    assert result["attempted"] >= 5


@pytest.mark.parametrize("trace", [False, True])
def test_failed_setup_is_reported(trace):
    params = dict(TOY["ct_full"],
                  simulate=TOY["ct_full"]["simulate"] + ["--n-angles", "0"])
    record, result = run.run_workload("ct_full", params, 3, 0.0, trace)
    assert not result["correct"]
    # the simulate call and the two reconstruct calls it would have fed
    assert result["attempted"] == result["failed"] == 3
    assert record["problems"][0].startswith("setup raised RuntimeError")


def _report(method, rmse, **regions):
    return SimpleNamespace(method=method, sweep=None, rmse=rmse,
                           image=SimpleNamespace(values=[rmse]), **regions)


def test_failed_final_counts_once():
    wl = workloads.make("ct_compare", SPEC["workloads"]["ct_compare"]["params"],
                        run.WORK)
    reports = [_report("cgls", 0.2), _report("tv", 0.1),
               _report("tvl2", 0.1), _report("el", math.nan)]
    out = wl.evaluate(None, reports)
    assert (out.attempted, out.failed) == (4, 1)
    assert out.problems == ["el final is not finite"]


def test_self_time_excludes_children():
    t = tracer.Tracer()

    def child():
        time.sleep(0.01)

    def parent():
        t.span("child", child)
        t.span("child", child)

    t.span("parent", parent)
    assert t.calls["child"] == 2 and t.calls["parent"] == 1
    assert t.self_time["parent"] == pytest.approx(
        t.total["parent"] - t.total["child"], abs=1e-9)
    assert t.self_time["parent"] < t.total["child"]


def test_missing_entry_point_reads_zero():
    with tracer.Tracer() as t:
        t.patch_function(eltomo.solvers, "_no_such_helper", "solvers.gone")
        t.patch_function(eltomo.solvers, "cgls", "solvers.cgls")
        assert hasattr(eltomo.solvers.cgls, "__wrapped__")
        assert eltomo.metrics.cgls is eltomo.solvers.cgls
    assert t.missing == ["eltomo.solvers._no_such_helper"]
    assert eltomo.cgls is eltomo.solvers.cgls
    assert not hasattr(eltomo.solvers.cgls, "__wrapped__")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload",
         BENCH["workloads"][0]["name"], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
