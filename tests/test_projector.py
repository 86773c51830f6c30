import collections
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from eltomo import GridSpec, Image, Sinogram, projector, uniform_angles
from eltomo.projector import (ProjectorSpec, apply_psf, adjoint,
                              build_projector, default_detector, forward,
                              gaussian_kernel, project_streaming)


def _spec(grid, n_angles, kernel, nbins=None, pitch=None, fwhm=None):
    if nbins is None:
        nbins, pitch = default_detector(grid)
    return ProjectorSpec(grid, uniform_angles(n_angles), nbins, pitch,
                         kernel, psf_fwhm_bins=fwhm)


def test_strip_full_overlap_weight_equals_pixel_area():
    # one unit-pitch bin covering the whole 2x2 grid at angle 0: every
    # pixel contributes its full area
    grid = GridSpec(2, 2)
    spec = ProjectorSpec(grid, np.array([0.0]), 1, 1.0, "strip")
    A = build_projector(spec)
    row = A.matrix.toarray()[0]
    assert_allclose(row, 0.25, rtol=1e-12)


def test_strip_row_sums_match_monte_carlo_area(rng):
    # oracle: Monte-Carlo estimate of the strip/grid intersection area
    grid = GridSpec(32, 32)
    spec = _spec(grid, 12, "strip")
    A = build_projector(spec)
    rowsums = np.asarray(A.matrix.sum(axis=1)).ravel()
    pts = rng.uniform(0.0, 1.0, size=(100_000, 2))
    for ia, ib in ((0, spec.nbins // 2), (3, spec.nbins // 3), (7, 10)):
        a = spec.angles[ia]
        t = (pts[:, 0] - 0.5) * np.cos(a) + (pts[:, 1] - 0.5) * np.sin(a)
        center = (ib - (spec.nbins - 1) / 2) * spec.bin_pitch
        mc_area = np.mean(np.abs(t - center) <= spec.bin_pitch / 2)
        assert_allclose(rowsums[ia * spec.nbins + ib] * spec.bin_pitch,
                        mc_area, atol=3.5 * np.sqrt(mc_area / 100_000))


def test_disk_projection_matches_analytic_profile():
    # oracle: the line integrals of a uniform disk are 2*sqrt(R^2-s^2)
    grid = GridSpec(256, 256)
    x, y = grid.pixel_centers()
    radius = 0.4
    disk = Image(grid, ((x - 0.5) ** 2 + (y - 0.5) ** 2 <= radius ** 2))
    for kernel in ("strip", "linear"):
        spec = _spec(grid, 8, kernel)
        s = spec.bin_centers()
        ref = 2.0 * np.sqrt(np.maximum(0.0, radius ** 2 - s ** 2))
        sino = forward(build_projector(spec), disk)
        for ia in range(spec.n_angles):
            err = np.linalg.norm(sino.values[ia] - ref) / np.linalg.norm(ref)
            assert err <= 0.02, (kernel, ia, err)


def test_forward_linearity(rng):
    grid = GridSpec(16, 16)
    A = build_projector(_spec(grid, 10, "linear"))
    zero = forward(A, Image(grid, np.zeros(grid.npixels)))
    assert np.all(zero.values == 0.0)
    u1 = rng.standard_normal(grid.npixels)
    u2 = rng.standard_normal(grid.npixels)
    lhs = A.apply(u1 + u2)
    rhs = A.apply(u1) + A.apply(u2)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("kernel", ["strip", "linear"])
def test_matches_dense_multiply(kernel, rng):
    grid = GridSpec(8, 8)
    A = build_projector(_spec(grid, 4, kernel))
    dense = A.matrix.toarray()
    u = rng.standard_normal(grid.npixels)
    assert_allclose(A.apply(u), dense @ u, rtol=1e-13, atol=1e-13)
    s = rng.standard_normal(A.nrows)
    assert_allclose(A.apply_adjoint(s), dense.T @ s, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("kernel", ["strip", "linear"])
@pytest.mark.parametrize("fwhm", [None, 3.0])
def test_adjoint_identity(kernel, fwhm, rng):
    grid = GridSpec(32, 32)
    A = build_projector(_spec(grid, 15, kernel, fwhm=fwhm))
    for _ in range(20):
        u = rng.standard_normal(A.ncols)
        v = rng.standard_normal(A.nrows)
        au = A.apply(u)
        rel = abs(au @ v - u @ A.apply_adjoint(v))
        rel /= np.linalg.norm(au) * np.linalg.norm(v)
        assert rel <= 1e-10


def test_adjoint_of_zero_sinogram_is_zero():
    grid = GridSpec(8, 8)
    A = build_projector(_spec(grid, 5, "strip"))
    sino = Sinogram(A.spec.angles, A.spec.nbins, np.zeros(A.nrows))
    assert np.all(adjoint(A, sino).values == 0.0)


def test_nonnegativity_preserved(rng):
    grid = GridSpec(16, 16)
    for kernel in ("strip", "linear"):
        A = build_projector(_spec(grid, 9, kernel, fwhm=2.0))
        u = rng.random(A.ncols)
        assert np.all(A.apply(u) >= 0.0)
        s = rng.random(A.nrows)
        assert np.all(A.apply_adjoint(s) >= 0.0)


def test_rotation_consistency_of_radial_phantom():
    grid = GridSpec(256, 256)
    x, y = grid.pixel_centers()
    r2 = (x - 0.5) ** 2 + (y - 0.5) ** 2
    blob = Image(grid, np.exp(-r2 / 0.02))
    spec = _spec(grid, 16, "strip")
    sino = forward(build_projector(spec), blob)
    mean = sino.values.mean(axis=0)
    for ia in range(spec.n_angles):
        err = np.linalg.norm(sino.values[ia] - mean) / np.linalg.norm(mean)
        assert err <= 0.01


def test_streaming_matches_matrix_forward(rng):
    grid = GridSpec(32, 32)
    u = Image(grid, rng.random(grid.npixels))
    for kernel in ("strip", "linear"):
        for fwhm in (None, 3.0):
            spec = _spec(grid, 11, kernel, fwhm=fwhm)
            assert_allclose(project_streaming(spec, u).values,
                            forward(build_projector(spec), u).values,
                            rtol=1e-12, atol=1e-14)


def test_psf_constant_unchanged_and_sum_preserved(rng):
    angles = uniform_angles(6)
    const = Sinogram(angles, 40, np.full(240, 2.5))
    out = apply_psf(const, 3.0)
    assert_allclose(out.values, 2.5, rtol=1e-12)
    noisy = Sinogram(angles, 40, rng.standard_normal(240))
    blurred = apply_psf(noisy, 3.0)
    assert_allclose(blurred.values.sum(), noisy.values.sum(), rtol=1e-12)


def test_psf_impulse_reproduces_kernel():
    angles = uniform_angles(1)
    nbins = 41
    values = np.zeros(nbins)
    values[nbins // 2] = 1.0
    out = apply_psf(Sinogram(angles, nbins, values), 3.0)
    k = gaussian_kernel(3.0)
    radius = k.size // 2
    assert_allclose(out.values[0, nbins // 2 - radius:nbins // 2 + radius + 1],
                    k, rtol=1e-12)


def test_empty_rows_for_rays_missing_grid():
    # a detector much wider than the grid leaves outer bins empty
    grid = GridSpec(8, 8)
    spec = ProjectorSpec(grid, np.array([0.3]), 64, 0.1, "linear")
    A = build_projector(spec)
    rowsum = np.asarray(A.matrix.sum(axis=1)).ravel()
    assert rowsum[0] == 0.0 and rowsum[-1] == 0.0 and rowsum.max() > 0.0


def test_angle_validation():
    grid = GridSpec(8, 8)
    with pytest.raises(ValueError):
        ProjectorSpec(grid, np.array([0.0, np.pi]), 8, 0.2, "strip")
    with pytest.raises(ValueError):
        ProjectorSpec(grid, np.array([-0.1]), 8, 0.2, "strip")
    with pytest.raises(ValueError):
        ProjectorSpec(grid, np.array([0.5, 0.2]), 8, 0.2, "strip")


# --- two-thread split ---------------------------------------------------

@pytest.fixture()
def split_low(monkeypatch):
    """Split every operator with at least 1000 entries and every streaming
    projection of at least 1000 pixel views, on two threads."""
    monkeypatch.setattr(projector, "SPLIT_NNZ", 1000)
    monkeypatch.setattr(projector, "STREAM_SPLIT_PIXELS", 1000)
    monkeypatch.setattr(projector, "THREADS", 2)


@pytest.mark.parametrize("fwhm,n_angles", [
    (None, 30), (3.0, 30), (None, 31), (3.0, 31)],
    ids=["None", "3.0", "None-31", "3.0-31"])
def test_split_apply_is_bitwise_whole_matrix(fwhm, n_angles, split_low, rng):
    spec = _spec(GridSpec(64, 64), n_angles, "linear", fwhm=fwhm)
    A = build_projector(spec)
    assert len(A.blocks) == 2
    top, bottom = A.blocks
    # an odd view count leaves the halves unequal, where scipy's
    # constructor would copy the smaller one
    assert (top.nnz == bottom.nnz) == (n_angles % 2 == 0)
    for block in A.blocks + A._adjoints:
        assert np.shares_memory(block.data, A.matrix.data)
        assert np.shares_memory(block.indices, A.matrix.indices)
    u = rng.random(A.ncols)
    whole = A.matrix @ u
    if fwhm is not None:
        whole = A._convolve(whole)
    assert A.apply(u).tobytes() == whole.tobytes()


@pytest.mark.parametrize("fwhm", [None, 3.0])
def test_split_adjoint_matches_transpose(fwhm, split_low, rng):
    spec = _spec(GridSpec(64, 64), 30, "linear", fwhm=fwhm)
    A = build_projector(spec)
    y = rng.random(A.nrows)  # positive: no cancellation in the sums
    rays = A._convolve(y) if fwhm is not None else y
    assert_allclose(A.apply_adjoint(y), A.matrix.T @ rays, rtol=1e-13,
                    atol=0)
    u = rng.standard_normal(A.ncols)
    v = rng.standard_normal(A.nrows)
    au = A.apply(u)
    lhs, rhs = float(au @ v), float(u @ A.apply_adjoint(v))
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(au) * np.linalg.norm(v)


@pytest.mark.parametrize("fwhm", [None, 3.0])
def test_output_bytes_independent_of_thread_count(fwhm, split_low,
                                                  monkeypatch, rng):
    spec = _spec(GridSpec(64, 64), 30, "strip", fwhm=fwhm)
    A = build_projector(spec)
    u = rng.random(A.ncols)
    y = rng.random(A.nrows)
    img = Image(spec.grid, u)
    outputs = []
    for threads in (1, 2):
        monkeypatch.setattr(projector, "THREADS", threads)
        outputs.append((A.apply(u).tobytes(), A.apply_adjoint(y).tobytes(),
                        project_streaming(spec, img).values.tobytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("fwhm", [None, 3.0])
def test_block_products_are_bytewise_column_products(fwhm, split, threads,
                                                     monkeypatch, rng):
    monkeypatch.setattr(projector, "THREADS", threads)
    if split:
        monkeypatch.setattr(projector, "SPLIT_NNZ", 1000)
    A = build_projector(_spec(GridSpec(32, 32), 20, "strip", fwhm=fwhm))
    assert len(A.blocks) == (2 if split else 1)
    column = np.ascontiguousarray
    for k in (1, 2, 5):
        u = rng.standard_normal((A.ncols, k))
        y = rng.standard_normal((A.nrows, k))
        au, aty = A.apply(u), A.apply_adjoint(y)
        assert au.shape == (A.nrows, k) and aty.shape == (A.ncols, k)
        for j in range(k):
            assert (A.apply(column(u[:, j])).tobytes()
                    == column(au[:, j]).tobytes())
            assert (A.apply_adjoint(column(y[:, j])).tobytes()
                    == column(aty[:, j]).tobytes())


def test_block_products_check_their_rows():
    A = build_projector(_spec(GridSpec(8, 8), 5, "linear"))
    with pytest.raises(ValueError, match=f"expected {A.ncols} pixels"):
        A.apply(np.ones((A.ncols + 1, 2)))
    with pytest.raises(ValueError, match=f"expected {A.nrows} rays"):
        A.apply_adjoint(np.ones((A.nrows - 1, 2)))


def test_below_floor_stays_on_the_calling_thread(monkeypatch):
    def no_pair(first, second):
        raise AssertionError("work handed to the pool below the floor")

    monkeypatch.setattr(projector, "_run_pair", no_pair)
    spec = _spec(GridSpec(64, 64), 30, "linear")
    A = build_projector(spec)
    assert A.matrix.nnz < projector.SPLIT_NNZ
    assert len(A.blocks) == 1 and A.blocks[0] is A.matrix
    u = np.ones(A.ncols)
    A.apply_adjoint(A.apply(u))
    assert 30 * spec.grid.npixels < projector.STREAM_SPLIT_PIXELS
    project_streaming(spec, Image(spec.grid, u))


def test_concurrent_callers_share_the_pool(split_low, rng):
    # more calling threads than cores, all handing halves to one worker
    A = build_projector(_spec(GridSpec(32, 32), 20, "linear"))
    u = rng.random(A.ncols)
    y = rng.random(A.nrows)
    want = (A.apply(u).tobytes(), A.apply_adjoint(y).tobytes())
    got = []

    def call():
        for _ in range(50):
            got.append((A.apply(u).tobytes(), A.apply_adjoint(y).tobytes()))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 200 and all(g == want for g in got)


def _on_worker() -> bool:
    return threading.current_thread().name.startswith("eltomo-projector")


def test_map_ordered_keeps_item_order_across_threads(monkeypatch, bounded):
    monkeypatch.setattr(projector, "THREADS", 2)
    where = {}

    def job(i):
        time.sleep(0.01)  # long enough for the worker to take items too
        where[i] = _on_worker()
        return i * i

    got = bounded(lambda: projector.map_ordered(job, range(8)))
    assert got == [i * i for i in range(8)]
    assert sorted(where) == list(range(8))
    assert set(where.values()) == {False, True}


@pytest.mark.parametrize("slow_first_fails", [True, False])
def test_map_ordered_raises_the_earliest_failure_last(slow_first_fails,
                                                      monkeypatch, bounded):
    monkeypatch.setattr(projector, "THREADS", 2)
    started, finished = [], []
    second_done = threading.Event()

    def job(i):
        started.append(i)
        if i == 0:
            # item 1 runs and fails meanwhile, on the other thread; the
            # short sleep lets that thread record its failure
            assert second_done.wait(30)
            time.sleep(0.05)
        finished.append(i)
        if i == 1:
            second_done.set()
        if i > 0 or slow_first_fails:
            raise ValueError(f"item {i}")

    earliest = "item 0" if slow_first_fails else "item 1"
    with pytest.raises(ValueError, match=earliest):
        bounded(lambda: projector.map_ordered(job, range(6)))
    # no item starts after a failure, and both threads are done
    assert sorted(started) == [0, 1] and sorted(finished) == [0, 1]


@pytest.mark.parametrize("threads", [1, 2])
def test_follow_up_items_go_to_the_head_of_the_queue(threads, monkeypatch,
                                                     bounded):
    monkeypatch.setattr(projector, "THREADS", threads)
    started = []

    def job(x):
        started.append(x)
        return x

    def then(i, result):
        return {0: ["a", "b"], "a": ["c"]}.get(result, ())

    got = bounded(lambda: projector.map_ordered(job, [0, 1, 2, 3],
                                                then=then))
    # follow-ups come after the items before them, in the order added
    assert got == [0, 1, 2, 3, "a", "b", "c"]
    if threads == 1:
        assert started == [0, "a", "c", "b", 1, 2, 3]


def test_follow_ups_keep_both_threads(monkeypatch, bounded):
    # the worker has nothing left to take while the caller's item runs,
    # but waits instead of leaving, and takes a follow-up it adds
    monkeypatch.setattr(projector, "THREADS", 2)
    release, b_started = threading.Event(), threading.Event()
    where = {}

    def job(x):
        where[x] = _on_worker()
        if x == "first":
            assert release.wait(timeout=20)
        if x == "second":
            release.set()
        if x == "a":  # only another thread can start b meanwhile
            assert b_started.wait(timeout=20)
        if x == "b":
            b_started.set()
        return x

    def then(i, result):
        return ["a", "b"] if result == "first" else ()

    got = bounded(lambda: projector.map_ordered(job, ["first", "second"],
                                                then=then))
    assert got == ["first", "second", "a", "b"]
    assert {where["a"], where["b"]} == {False, True}


def test_follow_ups_under_contention(monkeypatch):
    # more calling threads than cores, each map growing its own queue
    monkeypatch.setattr(projector, "THREADS", 2)
    ran = collections.Counter()
    lock = threading.Lock()

    def job(x):
        with lock:
            ran[x] += 1
        return x

    def then(i, x):
        return [x * 2 + 1, x * 2 + 2] if x < 100 else ()

    def want(caller):
        items, head = [caller * 1000 + k for k in range(4)], 0
        # every item below 100 adds two more until the values pass it
        while head < len(items):
            items += then(None, items[head])
            head += 1
        return items

    got = {}

    def call(caller):
        for _ in range(20):
            got[caller] = projector.map_ordered(
                job, [caller * 1000 + k for k in range(4)], then=then)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(c,))
                   for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for caller in range(4):
        assert sorted(got[caller]) == sorted(want(caller))
    expected = collections.Counter()
    for caller in range(4):
        expected.update(want(caller) * 20)
    assert ran == expected


@pytest.mark.parametrize("threads", [1, 2])
def test_a_raising_follow_up_hook_stops_the_queue(threads, monkeypatch,
                                                  bounded):
    monkeypatch.setattr(projector, "THREADS", threads)
    started = []

    def then(i, result):
        if i == 0:
            raise ValueError("no follow-ups")
        return [99]

    def job(x):
        started.append(x)
        return x

    with pytest.raises(ValueError, match="no follow-ups"):
        bounded(lambda: projector.map_ordered(job, [0], then=then))
    assert started == [0]


def test_map_ordered_on_the_pool_worker_runs_there(monkeypatch, bounded):
    monkeypatch.setattr(projector, "THREADS", 2)
    pool = projector._POOL
    monkeypatch.setattr(projector, "_POOL", None)  # no submit from here on

    def on_worker():
        return projector.map_ordered(lambda i: (i, _on_worker()), range(4))

    got = bounded(lambda: pool.submit(on_worker).result())
    assert got == [(i, True) for i in range(4)]


def test_nested_map_does_not_wait_for_the_busy_worker(monkeypatch, bounded):
    # an outer job on the worker blocks until the caller's job has run a
    # map of its own, as a run would on a lock the caller holds
    monkeypatch.setattr(projector, "THREADS", 2)
    release = threading.Event()

    def job(i):
        if _on_worker():
            return release.wait(timeout=30)
        inner = projector.map_ordered(lambda k: k * k, range(3))
        release.set()
        return inner

    got = bounded(lambda: projector.map_ordered(job, range(2)), timeout=10)
    assert [0, 1, 4] in got


def test_map_ordered_jobs_with_split_products(split_low, bounded, rng):
    # each job's products offer a half to the worker, which runs jobs too
    A = build_projector(_spec(GridSpec(32, 32), 20, "linear"))
    assert len(A.blocks) == 2
    starts = [rng.random(A.ncols) for _ in range(6)]

    def job(v):
        for _ in range(20):
            v = A.apply_adjoint(A.apply(v))
            v /= np.linalg.norm(v)
        return v.tobytes()

    want = [job(v) for v in starts]
    assert bounded(lambda: projector.map_ordered(job, starts)) == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_runs_serially(split_low, rng):
    A = build_projector(_spec(GridSpec(32, 32), 20, "linear"))
    u = rng.random(A.ncols)
    want = A.apply(u)  # starts the pool worker, which a child lacks

    def child():
        os._exit(0 if A.apply(u).tobytes() == want.tobytes() else 1)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(timeout=30)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("the forked child hung in a projector product")
    assert proc.exitcode == 0


# --- in-place assembly ----------------------------------------------------

def _linear_entries_oracle(spec, angle):
    """The linear kernel's (bin, pixel, weight) triplets of one view, as
    computed before the kernel reused buffers across views."""
    g = spec.grid
    c, s = math.cos(angle), math.sin(angle)
    hx, hy = g.hx, g.hy
    sv = spec.bin_centers()
    if abs(c) >= abs(s):
        y = (np.arange(g.ny) + 0.5) * hy - 0.5 * g.dy
        tau = (y[None, :] - sv[:, None] * s) / c
        xpos = sv[:, None] * c - tau * s + 0.5 * g.dx
        frac = xpos / hx - 0.5
        i0 = np.floor(frac).astype(np.int64)
        wr = frac - i0
        step = hy / abs(c)
        base = (np.arange(g.ny, dtype=np.int64) * g.nx)[None, :]
        idx_lo, idx_hi = base + i0, base + i0 + 1
        ok_lo = (i0 >= 0) & (i0 < g.nx)
        ok_hi = (i0 + 1 >= 0) & (i0 + 1 < g.nx)
    else:
        x = (np.arange(g.nx) + 0.5) * hx - 0.5 * g.dx
        tau = (sv[:, None] * c - x[None, :]) / s
        ypos = sv[:, None] * s + tau * c + 0.5 * g.dy
        frac = ypos / hy - 0.5
        i0 = np.floor(frac).astype(np.int64)
        wr = frac - i0
        step = hx / abs(s)
        col = np.arange(g.nx, dtype=np.int64)[None, :]
        idx_lo, idx_hi = i0 * g.nx + col, (i0 + 1) * g.nx + col
        ok_lo = (i0 >= 0) & (i0 < g.ny)
        ok_hi = (i0 + 1 >= 0) & (i0 + 1 < g.ny)
    ray = np.broadcast_to(np.arange(spec.nbins, dtype=np.int64)[:, None],
                          i0.shape)
    w_lo, w_hi = (1.0 - wr) * step, wr * step
    keep_lo, keep_hi = ok_lo & (w_lo > 0.0), ok_hi & (w_hi > 0.0)
    return (np.concatenate([ray[keep_lo], ray[keep_hi]]),
            np.concatenate([idx_lo[keep_lo], idx_hi[keep_hi]]),
            np.concatenate([w_lo[keep_lo], w_hi[keep_hi]]))


def _strip_entries_oracle(spec, angle):
    """The strip kernel's (bin, pixel, weight) triplets of one view, as
    computed before the kernel skipped saturated footprints: both
    cumulatives of every bin offset evaluated in full, then compacted."""
    g = spec.grid
    c, s = math.cos(angle), math.sin(angle)
    w = 0.5 * (g.hx * abs(c) + g.hy * abs(s))
    f = 0.5 * abs(g.hx * abs(c) - g.hy * abs(s))
    area = g.hx * g.hy
    rise = w - f
    lmax = area / (w + f)

    def cumulative(t):
        t = np.clip(t, -w, w)
        if rise <= 1e-12 * w:
            return area * (t + w) / (2.0 * w)
        return np.where(
            t < -f, 0.5 * lmax * (t + w) ** 2 / rise,
            np.where(t > f, area - 0.5 * lmax * (w - t) ** 2 / rise,
                     0.5 * lmax * rise + lmax * (t + f)))

    x = (np.arange(g.nx) + 0.5) * g.hx - 0.5 * g.dx
    y = (np.arange(g.ny) + 0.5) * g.hy - 0.5 * g.dy
    t = (c * x[None, :] + s * y[:, None]).ravel()
    pitch = spec.bin_pitch
    edge0 = -0.5 * spec.nbins * pitch
    klo = np.floor((t - w - edge0) / pitch).astype(np.int64)
    pix = np.arange(t.size, dtype=np.int64)
    bins, pixels, weights = [], [], []
    for off in range(int(math.ceil(2.0 * w / pitch)) + 2):
        k = klo + off
        lo = edge0 + k * pitch
        wgt = (cumulative(lo + pitch - t) - cumulative(lo - t)) / pitch
        keep = (k >= 0) & (k < spec.nbins) & (wgt > 0.0)
        bins.append(k[keep])
        pixels.append(pix[keep])
        weights.append(wgt[keep])
    return (np.concatenate(bins), np.concatenate(pixels),
            np.concatenate(weights))


def _vstack_oracle(spec):
    """The system matrix as one CSR block per view, stacked."""
    entries = (_strip_entries_oracle if spec.kernel == "strip"
               else _linear_entries_oracle)
    blocks = []
    for angle in spec.angles:
        bins, pixels, weights = entries(spec, angle)
        blocks.append(sp.csr_matrix((weights, (bins, pixels)),
                                    shape=(spec.nbins, spec.grid.npixels)))
    return sp.vstack(blocks, format="csr")


def _same_arrays(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.data, b.data), (a.indices, b.indices),
                            (a.indptr, b.indptr)))


EDGE_ANGLES = np.array([0.0, np.pi / 4, 1.0, np.pi / 2, 3 * np.pi / 4,
                        3.0])


def _detector(grid, width):
    nbins, pitch = default_detector(grid)
    if width == "wide":
        # a detector far wider than the grid leaves its outer rows empty
        return 3 * nbins, pitch / 2
    if width == "coarse":
        # bins four pixels wide, each holding whole pixel footprints
        return nbins // 4, pitch * 4
    return nbins, pitch


@pytest.mark.parametrize("kernel", ["strip", "linear"])
@pytest.mark.parametrize("fwhm", [None, 3.0])
@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(12, 7),
                                  GridSpec(5, 9)],
                         ids=["16x16", "12x7", "5x9"])
@pytest.mark.parametrize("views", ["edges", "one", "uniform", "wide",
                                   "coarse"])
def test_assembly_is_bytewise_the_stacked_views(kernel, fwhm, grid, views):
    nbins, pitch = _detector(grid, views)
    angles = {"one": np.array([np.pi / 4]),
              "uniform": uniform_angles(9)}.get(views, EDGE_ANGLES)
    spec = ProjectorSpec(grid, angles, nbins, pitch, kernel,
                         psf_fwhm_bins=fwhm)
    got, want = build_projector(spec).matrix, _vstack_oracle(spec)
    assert got.shape == want.shape and _same_arrays(got, want)
    if views == "wide":
        assert np.any(np.diff(got.indptr) == 0)


@pytest.mark.parametrize("fwhm", [None, 3.0])
@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(12, 7),
                                  GridSpec(5, 9)],
                         ids=["16x16", "12x7", "5x9"])
@pytest.mark.parametrize("width", ["default", "wide", "coarse"])
def test_strip_streaming_is_bytewise_the_oracle_rows(fwhm, grid, width, rng):
    # each row is the oracle's entries summed per bin in their order; on
    # the 5x9 grid at angle 0, area * (2w) / (2w) does not round to area
    nbins, pitch = _detector(grid, width)
    spec = ProjectorSpec(grid, EDGE_ANGLES, nbins, pitch, "strip",
                         psf_fwhm_bins=fwhm)
    u = Image(grid, rng.standard_normal(grid.npixels))
    rows = []
    for angle in spec.angles:
        bins, pixels, weights = _strip_entries_oracle(spec, angle)
        rows.append(np.bincount(bins, weights * u.ravel()[pixels],
                                minlength=nbins))
    want = np.array(rows)
    if fwhm is not None:
        want = apply_psf(Sinogram(spec.angles, nbins, want), fwhm).values
    got = project_streaming(spec, u).values
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_strip_is_the_oracle(spec, rng):
    """Streaming rows and the assembled matrix, byte for byte."""
    u = Image(spec.grid, rng.standard_normal(spec.grid.npixels))
    rows = []
    for angle in spec.angles:
        bins, pixels, weights = _strip_entries_oracle(spec, angle)
        rows.append(np.bincount(bins, weights * u.ravel()[pixels],
                                minlength=spec.nbins))
    want = np.array(rows)
    got = project_streaming(spec, u).values
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert _same_arrays(build_projector(spec).matrix, _vstack_oracle(spec))


@pytest.mark.parametrize("chunk", [7, 64])
@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(12, 7),
                                  GridSpec(5, 9)],
                         ids=["16x16", "12x7", "5x9"])
@pytest.mark.parametrize("width", ["default", "wide", "coarse"])
def test_strip_chunks_are_bytewise_the_oracle(monkeypatch, chunk, grid,
                                              width, rng):
    # chunks that end mid-row, a partial last chunk and chunks whose
    # footprints all lie beyond one edge of a bin
    monkeypatch.setattr(projector, "_STRIP_CHUNK", chunk)
    nbins, pitch = _detector(grid, width)
    _assert_strip_is_the_oracle(
        ProjectorSpec(grid, EDGE_ANGLES, nbins, pitch, "strip"), rng)


def test_strip_chunks_on_a_grid_larger_than_one_chunk(rng):
    grid = GridSpec(300, 260)
    assert grid.npixels > projector._STRIP_CHUNK
    nbins, pitch = default_detector(grid)
    _assert_strip_is_the_oracle(
        ProjectorSpec(grid, np.array([0.0, np.pi / 4, 1.0]), nbins, pitch,
                      "strip"), rng)


@pytest.mark.parametrize("grid", [GridSpec(16, 16), GridSpec(300, 260)],
                         ids=["one-chunk", "two-chunks"])
def test_strip_scratch_holds_every_strip_buffer(grid):
    # project_streaming allocates the buffers up front, on the calling
    # thread; none may be allocated again by the thread that uses them
    nbins, pitch = default_detector(grid)
    spec = ProjectorSpec(grid, EDGE_ANGLES, nbins, pitch, "strip")
    scratch = projector._strip_scratch(grid.npixels)
    before = dict(scratch)
    for angle in spec.angles:
        for _ in projector._strip_chunks(spec, angle, scratch):
            pass
    assert scratch.keys() == before.keys()
    assert all(scratch[name] is before[name] for name in before)


def test_strip_streaming_peak_is_a_few_images(rng):
    # the strip kernel reuses chunk-sized buffers across offsets and
    # views instead of allocating pixel-length temporaries for each
    grid = GridSpec(500, 500)
    spec = _spec(grid, 6, "strip")
    u = Image(grid, rng.random(grid.npixels))
    small = GridSpec(8, 8)
    project_streaming(_spec(small, 2, "strip"), Image(small, np.ones(64)))
    tracemalloc.start()
    try:
        project_streaming(spec, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * grid.npixels, peak / (8 * grid.npixels)


@pytest.mark.parametrize("angles", [EDGE_ANGLES, uniform_angles(30)],
                         ids=["edges", "uniform"])
def test_streaming_entries_keep_their_order(angles):
    # project_streaming sums each bin's entries in this order
    for grid in (GridSpec(16, 16), GridSpec(12, 7)):
        nbins, pitch = default_detector(grid)
        spec = ProjectorSpec(grid, angles, nbins, pitch, "linear")
        scratch = {}  # reused across views, as project_streaming does
        for angle in spec.angles:
            got = projector._linear_angle_entries(spec, angle, scratch)
            want = _linear_entries_oracle(spec, angle)
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("kernel", ["strip", "linear"])
def test_assembly_peak_is_near_the_operator(kernel):
    spec = _spec(GridSpec(96, 96), 60, kernel)
    build_projector(_spec(GridSpec(8, 8), 2, kernel))  # warm imports
    tracemalloc.start()
    try:
        A = build_projector(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m = A.matrix
    size = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    assert m.nnz > 500_000 and peak <= 1.3 * size, (peak, size)


@pytest.mark.parametrize("nnz,ncols,dtype", [
    (10, 10, np.int32),
    (2**31 - 1, 2**31 - 1, np.int32),
    (2**31, 5, np.int64),
    (5, 2**31, np.int64),
    (2**40, 400**2, np.int64),
])
def test_index_dtype_follows_stacking(nnz, ncols, dtype):
    assert projector._index_dtype(nnz, ncols) is dtype
    assert sp.get_index_dtype(maxval=max(nnz, ncols)) is dtype


def test_available_memory_reads_meminfo_or_falls_back(tmp_path):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:  8000000 kB\nMemFree:  100 kB\n"
                       "MemAvailable:  2000000 kB\n")
    assert projector._available_memory(str(meminfo)) == 2000000 * 1024
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert projector._available_memory(str(tmp_path / "none")) == physical
    meminfo.write_text("MemTotal:  8000000 kB\n")
    assert projector._available_memory(str(meminfo)) == physical


def test_operator_over_the_memory_budget_is_refused(monkeypatch):
    spec = _spec(GridSpec(32, 32), 20, "linear")
    m = build_projector(spec).matrix
    size = m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
    monkeypatch.setattr(projector, "_available_memory", lambda: size - 1)
    filled, fill = [], projector._fill_rows
    monkeypatch.setattr(projector, "_fill_rows",
                        lambda *args: filled.append(fill(*args)))
    figure = f"{size / 2**20:.1f} MiB"
    with pytest.raises(ValueError, match=rf"needs {figure} but only "
                                         rf"{figure}.*--n-angles"):
        build_projector(spec)
    assert filled == []
    monkeypatch.setattr(projector, "_available_memory", lambda: size)
    assert _same_arrays(build_projector(spec).matrix, m)
    assert len(filled) == spec.n_angles
