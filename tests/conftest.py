import threading

import numpy as np
import pytest

from eltomo import CtSimSpec, GridSpec, make_ct_dataset
from eltomo.projector import build_projector


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
