import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
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


@pytest.mark.parametrize("fwhm", [None, 3.0])
def test_split_apply_is_bitwise_whole_matrix(fwhm, split_low, rng):
    spec = _spec(GridSpec(64, 64), 30, "linear", fwhm=fwhm)
    A = build_projector(spec)
    assert len(A.blocks) == 2
    top, bottom = A.blocks
    assert np.shares_memory(top.data, A.matrix.data)
    assert np.shares_memory(bottom.indices, A.matrix.indices)
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
