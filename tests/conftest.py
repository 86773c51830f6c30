import sys
import threading

import numpy as np
import pytest

from eltomo import CtSimSpec, GridSpec, make_ct_dataset, metrics
from eltomo.projector import build_projector
from eltomo.solvers import NumericalError


@pytest.fixture(scope="session")
def small_ct():
    """Small dual-grid CT dataset plus its reconstruction projector."""
    spec = CtSimSpec(fine_grid=GridSpec(64, 64), recon_grid=GridSpec(32, 32),
                     n_angles=30, seed=7)
    ds = make_ct_dataset(spec)
    return ds, build_projector(ds.recon_projector)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def bounded():
    """Call ``fn()`` on a daemon thread and fail the test unless it returns
    within ``timeout`` seconds. The suite has no per-test timeout, so
    without this a deadlock between the calling thread and the projector's
    pool worker would stall the run instead of failing it."""
    def call(fn, timeout=60.0):
        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:  # re-raised on the test's thread
                box["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout)
        if thread.is_alive():
            pytest.fail(f"no return within {timeout:.0f} s: deadlocked?")
        if "error" in box:
            raise box["error"]
        return box["value"]

    return call


@pytest.fixture()
def hook_runs(monkeypatch):
    """``hook_runs(hook)`` calls ``hook(run)`` for each run that a sweep or
    a comparison hands to ``metrics.run_methods``, CT and ET alike, as
    its item starts and on the item's thread: a NumericalError it raises
    is that run's outcome, and any other exception leaves the item. A
    test's own ``run_method`` calls, its oracles, are not hooked."""
    def install(hook):
        original = metrics.run_methods
        oracle = metrics.run_method.__code__

        def hooked(A, dataset, runs):
            if sys._getframe(1).f_code is oracle:
                return original(A, dataset, runs)
            failed = {}
            for i, run in enumerate(runs):
                try:
                    hook(run)
                except NumericalError as exc:
                    failed[i] = exc
            solved = iter(original(A, dataset, [
                run for i, run in enumerate(runs) if i not in failed]))
            return [failed[i] if i in failed else next(solved)
                    for i in range(len(runs))]

        monkeypatch.setattr(metrics, "run_methods", hooked)

    return install
