"""Parallel-beam system matrix with strip and linear ray kernels.

Both kernels produce line-integral-scale data: the linear kernel sums
interpolated samples times step length along each ray, and the strip
kernel computes the exact pixel/strip overlap area divided by the bin
pitch (the mean line integral across the strip). Keeping both kernels in
the same units is what allows data simulated with one kernel to be
reconstructed with the other.

The strip kernel evaluates one view at a time, bin offset by bin
offset, and each offset in chunks of pixels on buffers reused across
chunks, offsets and views: offset j holds each pixel's weight in the
j-th bin its footprint reaches, the difference of the footprint's
cumulative profile at that bin's two edges. Each piece of the trapezoid
is evaluated on a chunk only if some edge position falls in it; a chunk
at or beyond one end of the footprint takes the profile's value there,
computed once per view, and a chunk whose weights are nowhere positive
is skipped. A streaming projection adds each chunk's products into its
row in place; an assembled matrix stores each chunk's positive entries.

The matrix is precomputed and stored in CSR form; the adjoint is the
exact transpose. It is assembled in place: a first pass counts each
ray's entries, the CSR arrays are allocated once at their exact size and
a second pass fills them view by view, so a build needs little more
memory than the matrix itself. A matrix larger than the memory available
is refused before it is allocated.

An optional detector point-spread function (gaussian, unit-sum,
symmetric boundary) is applied on the sinogram side of both the forward
and the adjoint map, so the operator pair stays adjoint.

``SparseOperator.apply`` and ``apply_adjoint`` take one vector or an
(n, k) block of k columns, such as the iterates of runs that advance in
lockstep. scipy's multi-vector kernels (``csr_matvecs``, ``csc_matvecs``)
add each column's terms in the order the single-vector ones do, and the
PSF convolves each detector line alone, so every column of a block
product is bit-identical to the product of that column alone. A block
costs less per column: the matrix is read once for all k. A block of
one column takes the single-vector kernels, which keep each sum in a
register where the multi-vector ones add every entry through memory.

Projector calls use up to two threads: large operators split their rows
into two blocks, and large streaming projections split their views. scipy's
sparse products and numpy's large-array kernels release the interpreter
lock, so the second thread runs on a second core. How the work is split
depends only on the matrix, never on the thread count, so neither do
the output bytes. ``map_ordered`` lends the same two threads to callers
with independent jobs of their own, such as the runs of a sweep.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import convolve1d

from .grids import GridSpec, Image, Sinogram, frozen_angles

# Operators with at least this many stored entries split into two row
# blocks. Below it the hand-off to the worker thread on every product
# costs more than the second core saves: inside the solver a 0.57M-entry
# operator ran 7% slower split and a 1.78M-entry one broke even.
SPLIT_NNZ = 2_000_000

# Streaming projection splits its views between the two threads when
# views x pixels reaches this. The worker thread keeps its own allocator
# arena, which raised peak memory by 2.6-3.3 MiB on the comparison sizes
# (60 views of 128^2, 90 views of 200^2) for a saving of 20-30 ms; the
# full-size data (90 views of 500^2) saves about 0.3 s, 0.6-0.75 s split
# against 0.9-1.1 s on one thread (2-core VM).
STREAM_SPLIT_PIXELS = 10_000_000

# Strip views are evaluated this many pixels at a time. Smaller chunks
# make many more short numpy calls, each a hand-off of the interpreter
# lock between the two threads: 90 views of 500^2 took 2.1-3.0 s at 4096
# pixels, 0.93-1.21 s at 16384, 0.50-0.74 s at 65536 and 0.64-0.73 s at
# 262144 (two threads, 2-core VM).
_STRIP_CHUNK = 65536

# Two threads when the process may run on two or more cores, else one.
THREADS = min(2, len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# The calling thread does one share of the work and this pool's single
# worker the other. No thread starts before the first task. A forked
# child inherits the pool but not its thread, so tasks submitted there
# would never run; the child runs serially instead.
_ON_WORKER = threading.local()


def _mark_worker():
    _ON_WORKER.active = True


_POOL = ThreadPoolExecutor(max_workers=1,
                           thread_name_prefix="eltomo-projector",
                           initializer=_mark_worker)
_POOL_PID = os.getpid()


def map_ordered(fn, items, then=None) -> list:
    """``[fn(x) for x in items]``, with two threads when there are two.

    The calling thread and the pool worker take items in order from one
    shared queue, and the results come back in item order. If ``then``
    is given, ``then(i, result)`` runs as item ``i`` finishes, one call
    at a time, and the items it returns go to the head of the queue in
    their order; their results follow those of the items before them.
    With ``then``, a thread that finds the queue empty waits while an
    item is still running, since that item may add more; without it,
    the thread is done.

    It runs on the calling thread alone when there is one thread, in a
    forked child and on the pool worker itself, which must never wait
    for its own queue; alone, it takes the items in the same queue
    order. If a call to ``fn`` or ``then`` raises, no further items are
    started; once both threads are idle the exception of the earliest
    failed item is raised, which is the one a serial loop would have
    raised.
    """
    items = list(items)
    results = [None] * len(items)
    failures: list[tuple[int, BaseException]] = []
    queue = deque(range(len(items)))
    running = 0
    changed = threading.Condition()

    def drain():
        nonlocal running
        while True:
            with changed:
                while (not queue and running and then is not None
                       and not failures):
                    changed.wait()
                if failures or not queue:
                    return
                i = queue.popleft()
                running += 1
            try:
                result = fn(items[i])
                with changed:
                    results[i] = result
                    more = list(then(i, result)) if then is not None else []
                    queue.extendleft(reversed(range(
                        len(items), len(items) + len(more))))
                    items.extend(more)
                    results.extend([None] * len(more))
            except BaseException as exc:
                with changed:
                    failures.append((i, exc))
            finally:
                with changed:
                    running -= 1
                    changed.notify_all()

    if (THREADS < 2 or (len(items) < 2 and then is None)
            or os.getpid() != _POOL_PID
            or getattr(_ON_WORKER, "active", False)):
        drain()
        if failures:
            raise failures[0][1]
        return results
    future = _POOL.submit(drain)
    try:
        drain()
    finally:
        # a worker still busy with an earlier task (an outer map whose
        # item this call runs in) has not started this drain, and the
        # caller has done every item: drop it instead of waiting
        if not future.cancel():
            future.result()
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _run_pair(first, second):
    """Both results of two callables, one per thread."""
    return tuple(map_ordered(lambda f: f(), (first, second)))


def _sharing(cls, shape, data, indices, indptr):
    """A ``cls`` matrix on exactly these arrays. scipy's constructor would
    copy a slice shorter than half of the array it views (``prune``)."""
    m = cls(shape, dtype=data.dtype)
    m.data, m.indices, m.indptr = data, indices, indptr
    return m


def _row_halves(m: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Two row blocks of about equal nnz sharing ``m``'s data and indices."""
    r = int(np.searchsorted(m.indptr, m.nnz // 2))
    k = int(m.indptr[r])
    top = _sharing(sp.csr_matrix, (r, m.shape[1]), m.data[:k],
                   m.indices[:k], m.indptr[:r + 1])
    bottom = _sharing(sp.csr_matrix, (m.shape[0] - r, m.shape[1]),
                      m.data[k:], m.indices[k:], m.indptr[r:] - k)
    return top, bottom


@dataclass(frozen=True, eq=False)
class ProjectorSpec:
    grid: GridSpec
    angles: np.ndarray
    nbins: int
    bin_pitch: float
    kernel: str  # "strip" | "linear"
    psf_fwhm_bins: float | None = None

    def __eq__(self, other):
        if not isinstance(other, ProjectorSpec):
            return NotImplemented
        return (self.grid == other.grid
                and np.array_equal(self.angles, other.angles)
                and self.nbins == other.nbins
                and self.bin_pitch == other.bin_pitch
                and self.kernel == other.kernel
                and self.psf_fwhm_bins == other.psf_fwhm_bins)

    def __post_init__(self):
        object.__setattr__(self, "angles", frozen_angles(self.angles))
        if self.nbins < 1:
            raise ValueError("nbins must be >= 1")
        if not self.bin_pitch > 0:
            raise ValueError("bin_pitch must be positive")
        if self.kernel not in ("strip", "linear"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.psf_fwhm_bins is not None and not self.psf_fwhm_bins > 0:
            raise ValueError("psf_fwhm_bins must be positive")

    @property
    def n_angles(self) -> int:
        return self.angles.size

    def bin_centers(self) -> np.ndarray:
        """Signed detector offsets from the rotation center."""
        return (np.arange(self.nbins) - (self.nbins - 1) / 2.0) * self.bin_pitch


def default_detector(grid: GridSpec) -> tuple[int, float]:
    """Detector spanning the grid diagonal, centered on the rotation
    center, with roughly pixel-pitch bins (no view truncation)."""
    nbins = math.ceil(math.hypot(grid.nx, grid.ny))
    span = math.hypot(grid.dx, grid.dy)
    return nbins, span / nbins


def gaussian_kernel(fwhm_bins: float) -> np.ndarray:
    """Unit-sum gaussian taps truncated at +-4 sigma."""
    sigma = fwhm_bins / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    radius = max(1, math.ceil(4.0 * sigma))
    k = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
    return k / k.sum()


def _psf(views: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Each detector line convolved with a unit-sum kernel along axis 1
    of (views, bins) or (views, bins, k) values; the symmetric boundary
    keeps the map self-adjoint."""
    return convolve1d(views, kernel, axis=1, mode="reflect")


def _buffer(scratch: dict, name: str, shape: tuple, dtype) -> np.ndarray:
    """An uninitialized array of ``shape``: a view of ``scratch[name]``,
    which is allocated again only when it is too small."""
    size = math.prod(shape)
    buf = scratch.get(name)
    if buf is None or buf.size < size:
        buf = scratch[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _strip_cumulative(arg: np.ndarray, w: float, f: float, area: float,
                      scratch: dict, name: str) -> np.ndarray:
    """Integral from -w to ``arg`` of the chord-length profile of one
    pixel, in the buffer ``scratch[name]``; ``arg`` is clipped to
    [-w, w] in place.

    The profile of an axis-aligned pixel projected onto the detector
    axis is a trapezoid with support [-w, w], flat top [-f, f] and total
    integral equal to the pixel area. Each of its three pieces is
    evaluated on the whole array only if some entry falls in it: the
    first into the result, the others into a spare buffer whose entries
    in the piece are then put into the result with ``np.putmask``.
    """
    out = _buffer(scratch, name, arg.shape, np.float64)
    np.clip(arg, -w, w, out=arg)
    rise = w - f
    if rise <= 1e-12 * w:
        # area * (t + w) / (2w)
        np.add(arg, w, out=out)
        out *= area
        out /= 2.0 * w
        return out
    lmax = area / (w + f)
    left = np.less(arg, -f, out=_buffer(scratch, "left", arg.shape, np.bool_))
    right = np.greater(arg, f,
                       out=_buffer(scratch, "right", arg.shape, np.bool_))
    n_left, n_right = np.count_nonzero(left), np.count_nonzero(right)
    spare = _buffer(scratch, "piece", arg.shape, np.float64)
    dest = out
    if n_left + n_right < arg.size:
        # the flat top: 0.5 lmax rise + lmax (t + f)
        np.add(arg, f, out=dest)
        dest *= lmax
        dest += 0.5 * lmax * rise
        dest = spare
    if n_left:
        # 0.5 lmax (t + w)^2 / rise
        np.add(arg, w, out=dest)
        np.square(dest, out=dest)
        dest *= 0.5 * lmax
        dest /= rise
        if dest is spare:
            np.putmask(out, left, spare)
        dest = spare
    if n_right:
        # area - 0.5 lmax (w - t)^2 / rise
        np.subtract(w, arg, out=dest)
        np.square(dest, out=dest)
        dest *= 0.5 * lmax
        dest /= rise
        np.subtract(area, dest, out=dest)
        if dest is spare:
            np.putmask(out, right, spare)
    return out


def _strip_scratch(npixels: int) -> dict:
    """Every buffer _strip_chunks uses on a grid of ``npixels``.

    project_streaming allocates both threads' buffers on the calling
    thread: glibc returns a freed block to the arena of the thread that
    allocated it, and the worker thread's arena kept about 4 MiB of them
    resident after a full-size projection (90 views of 500^2), which
    every later peak of the process then carried.
    """
    chunk = min(npixels, _STRIP_CHUNK)
    scratch = {"t": np.empty(npixels), "klo": np.empty(npixels, np.int64),
               "bins": np.empty(chunk, np.int64)}
    for name in ("lo", "upper", "cum_hi", "cum_lo", "piece", "weights"):
        scratch[name] = np.empty(chunk)
    for name in ("left", "right", "drop", "off_detector"):
        scratch[name] = np.empty(chunk, np.bool_)
    return scratch


def _strip_chunks(spec: ProjectorSpec, angle: float, scratch: dict):
    """Every pixel's bin index and weight in one view, by bin offset and
    pixel chunk: ``(first pixel, bins, weights)`` for each offset in
    increasing order and, within it, each chunk of _STRIP_CHUNK pixels
    in ascending order.

    Offset j holds each pixel's weight in the j-th bin its footprint
    reaches, the difference of the footprint's cumulative profile at
    that bin's two edges. An entry that is not stored, because its bin
    is off the detector or its weight is not positive, has bin index
    ``nbins``, and a chunk with no stored entry is skipped. ``bins`` and
    ``weights`` are views of the ``scratch`` buffers, which the next item
    overwrites.
    """
    g = spec.grid
    c, s = math.cos(angle), math.sin(angle)
    hx, hy = g.hx, g.hy
    w = 0.5 * (hx * abs(c) + hy * abs(s))
    f = 0.5 * abs(hx * abs(c) - hy * abs(s))
    area = hx * hy
    pitch = spec.bin_pitch
    nbins = spec.nbins
    # the profile's value at each end: computed, not assumed, since in
    # the axis-aligned branch area * (2w) / (2w) need not round to area
    low, high = _strip_cumulative(np.array([-w, w]), w, f, area, {}, "ends")

    x = (np.arange(g.nx) + 0.5) * hx - 0.5 * g.dx
    y = (np.arange(g.ny) + 0.5) * hy - 0.5 * g.dy
    t = _buffer(scratch, "t", (g.ny, g.nx), np.float64)
    np.add(c * x[None, :], s * y[:, None], out=t)
    t = t.ravel()
    n = t.size
    chunks = [(p0, min(p0 + _STRIP_CHUNK, n))
              for p0 in range(0, n, _STRIP_CHUNK)]
    edge0 = -0.5 * nbins * pitch
    klo = _buffer(scratch, "klo", (n,), np.int64)
    for p0, p1 in chunks:
        scaled = np.subtract(t[p0:p1], w,
                             out=_buffer(scratch, "lo", (p1 - p0,), np.float64))
        scaled -= edge0
        scaled /= pitch
        klo[p0:p1] = np.floor(scaled, out=scaled)
    span = int(math.ceil(2.0 * w / pitch)) + 2

    for off in range(span):
        for p0, p1 in chunks:
            m = p1 - p0
            tc = t[p0:p1]
            k = np.add(klo[p0:p1], off,
                       out=_buffer(scratch, "bins", (m,), np.int64))
            lo = np.multiply(k, pitch,
                             out=_buffer(scratch, "lo", (m,), np.float64))
            lo += edge0
            upper = np.add(lo, pitch,
                           out=_buffer(scratch, "upper", (m,), np.float64))
            upper -= tc
            # the lower edge is never above the upper one, so a chunk
            # whose upper edges all lie below the footprints, or whose
            # lower edges all lie above them, has no positive weight
            if upper.max() <= -w:
                continue
            lower = np.subtract(lo, tc, out=lo)
            if lower.min() >= w:
                continue
            cum_hi = (high if upper.min() >= w else
                      _strip_cumulative(upper, w, f, area, scratch, "cum_hi"))
            cum_lo = (low if lower.max() <= -w else
                      _strip_cumulative(lower, w, f, area, scratch, "cum_lo"))
            wgt = np.subtract(cum_hi, cum_lo,
                              out=_buffer(scratch, "weights", (m,), np.float64))
            wgt /= pitch
            drop = np.less_equal(wgt, 0.0,
                                 out=_buffer(scratch, "drop", (m,), np.bool_))
            # as unsigned, a negative bin is larger than any on the detector
            drop |= np.greater_equal(
                k.view(np.uint64), nbins,
                out=_buffer(scratch, "off_detector", (m,), np.bool_))
            if drop.all():
                continue
            np.putmask(k, drop, nbins)
            yield p0, k, wgt


def _strip_angle_entries(spec: ProjectorSpec, angle: float, scratch: dict
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bin index, pixel index, weight) triplets for one view: the stored
    entries of each bin offset and pixel chunk in turn."""
    bins, pixels, weights = [], [], []
    for p0, k, wgt in _strip_chunks(spec, angle, scratch):
        stored = k < spec.nbins
        bins.append(k[stored])
        pixels.append(p0 + np.flatnonzero(stored))
        weights.append(wgt[stored])
    return (np.concatenate(bins), np.concatenate(pixels),
            np.concatenate(weights))


def _linear_view(spec: ProjectorSpec, angle: float, scratch: dict
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interpolating ray tracing of one view: step each ray at
    one-pixel-pitch increments along its dominant axis and split each
    sample between the two adjacent pixels.

    Returns (pixel index, weight, stored) arrays of shape (2, nbins,
    steps): [0] holds each sample's lower pixel and [1] its upper one.
    They are views of the ``scratch`` buffers, which the next call
    overwrites, so a loop over views reuses one view's memory.
    """
    g = spec.grid
    c, s = math.cos(angle), math.sin(angle)
    hx, hy = g.hx, g.hy
    sv = spec.bin_centers()[:, None]
    along_y = abs(c) >= abs(s)
    steps = g.ny if along_y else g.nx
    shape = (spec.nbins, steps)
    frac = _buffer(scratch, "frac", shape, np.float64)
    i0 = _buffer(scratch, "i0", shape, np.float64)
    ok = _buffer(scratch, "ok", shape, np.bool_)
    pixels = _buffer(scratch, "pixels", (2,) + shape, np.int64)
    weights = _buffer(scratch, "weights", (2,) + shape, np.float64)
    stored = _buffer(scratch, "stored", (2,) + shape, np.bool_)

    if along_y:
        # rays are closer to the y axis: step over rows, interpolate x
        y = (np.arange(g.ny) + 0.5) * hy - 0.5 * g.dy
        np.subtract(y[None, :], sv * s, out=frac)
        frac /= c                                   # tau
        frac *= s
        np.subtract(sv * c, frac, out=frac)
        frac += 0.5 * g.dx                          # x position
        frac /= hx
        frac -= 0.5
        step, limit = hy / abs(c), g.nx
        np.floor(frac, out=i0)
        pixels[0] = i0
        pixels[0] += (np.arange(g.ny, dtype=np.int64) * g.nx)[None, :]
        np.add(pixels[0], 1, out=pixels[1])
    else:
        # rays are closer to the x axis: step over columns, interpolate y
        x = (np.arange(g.nx) + 0.5) * hx - 0.5 * g.dx
        np.subtract(sv * c, x[None, :], out=frac)
        frac /= s                                   # tau
        frac *= c
        np.add(sv * s, frac, out=frac)
        frac += 0.5 * g.dy                          # y position
        frac /= hy
        frac -= 0.5
        step, limit = hx / abs(s), g.ny
        np.floor(frac, out=i0)
        pixels[0] = i0
        pixels[0] *= g.nx
        pixels[0] += np.arange(g.nx, dtype=np.int64)[None, :]
        np.add(pixels[0], g.nx, out=pixels[1])

    wr = np.subtract(frac, i0, out=frac)
    np.subtract(1.0, wr, out=weights[0])
    weights[0] *= step
    np.multiply(wr, step, out=weights[1])
    # a pixel is stored when it lies on the grid and its weight is positive
    for side, (low, high) in enumerate(((0, limit), (-1, limit - 1))):
        keep = stored[side]
        np.greater_equal(i0, low, out=keep)
        keep &= np.less(i0, high, out=ok)
        keep &= np.greater(weights[side], 0.0, out=ok)
    return pixels, weights, stored


def _linear_angle_entries(spec: ProjectorSpec, angle: float, scratch: dict
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bin index, pixel index, weight) triplets for one view: every
    lower pixel of a sample, then every upper one."""
    pixels, weights, stored = _linear_view(spec, angle, scratch)
    rays = np.tile(np.arange(spec.nbins, dtype=np.int64), 2)
    return (np.repeat(rays, stored.sum(axis=2).ravel()), pixels[stored],
            weights[stored])


def _row_counts(spec: ProjectorSpec, angle: float, scratch: dict
                ) -> np.ndarray:
    """Stored entries of each ray of one view."""
    if spec.kernel == "strip":
        return np.bincount(_strip_angle_entries(spec, angle, scratch)[0],
                           minlength=spec.nbins)
    return _linear_view(spec, angle, scratch)[2].sum(axis=(0, 2))


def _fill_rows(spec: ProjectorSpec, angle: float, scratch: dict,
               data: np.ndarray, indices: np.ndarray) -> None:
    """Write one view's entries into ``data`` and ``indices``, grouped
    by ray in ray order; within a ray the order is left open."""
    if spec.kernel == "strip":
        bins, pixels, weights = _strip_angle_entries(spec, angle, scratch)
        order = np.argsort(bins, kind="stable")
        data[:] = weights[order]
        indices[:] = pixels[order]
    else:
        # rays first: each ray's lower pixels, then its upper ones
        pixels, weights, stored = (a.transpose(1, 0, 2) for a in
                                   _linear_view(spec, angle, scratch))
        data[:] = weights[stored]
        indices[:] = pixels[stored]


class SparseOperator:
    """Precomputed CSR projection matrix with optional detector PSF.

    Products take one vector or an (n, k) block of columns, each column
    bit-identical to its own product. A matrix with at least SPLIT_NNZ
    entries is applied as two row blocks, one per thread. The forward
    product is bitwise equal to ``matrix @ u``; the adjoint adds the two
    blocks' transposed products in a fixed order, so it rounds
    differently from ``matrix.T @ y`` but never depends on the thread
    count.
    """

    def __init__(self, matrix: sp.csr_matrix, spec: ProjectorSpec):
        self.matrix = matrix
        self.spec = spec
        self.psf_kernel = (gaussian_kernel(spec.psf_fwhm_bins)
                           if spec.psf_fwhm_bins is not None else None)
        self.blocks = (_row_halves(matrix) if matrix.nnz >= SPLIT_NNZ
                       else (matrix,))
        # CSC views of the transposes: exact adjoint without copying data
        self._adjoints = tuple(
            _sharing(sp.csc_matrix, b.shape[::-1], b.data, b.indices,
                     b.indptr) for b in self.blocks)

    @property
    def nrows(self) -> int:
        return self.matrix.shape[0]

    @property
    def ncols(self) -> int:
        return self.matrix.shape[1]

    def _convolve(self, rays: np.ndarray) -> np.ndarray:
        """The PSF on the rays of a vector or of each column of a block."""
        lines = rays.reshape((self.spec.n_angles, self.spec.nbins)
                             + rays.shape[1:])
        return _psf(lines, self.psf_kernel).reshape(rays.shape)

    @staticmethod
    def _operand(x, size: int, what: str) -> np.ndarray:
        """x as float64: an (size, k) block stays 2-D, anything else is
        raveled to one vector of ``size`` entries."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            x = x.ravel()
        if x.shape[0] != size:
            raise ValueError(f"expected {size} {what}, got {x.shape[0]}")
        return x

    def apply(self, u: np.ndarray) -> np.ndarray:
        """A u of a vector, or of each column of an (ncols, k) block."""
        u = self._operand(u, self.ncols, "pixels")
        if u.shape[1:] == (1,):
            return self._forward(u[:, 0])[:, None]
        return self._forward(u)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """A' y of a vector, or of each column of an (nrows, k) block."""
        y = self._operand(y, self.nrows, "rays")
        if y.shape[1:] == (1,):
            return self._backward(y[:, 0])[:, None]
        return self._backward(y)

    def _forward(self, u: np.ndarray) -> np.ndarray:
        if len(self.blocks) == 1:
            y = self.matrix @ u
        else:
            top, bottom = self.blocks
            y = np.concatenate(_run_pair(lambda: top @ u,
                                         lambda: bottom @ u))
        return self._convolve(y) if self.psf_kernel is not None else y

    def _backward(self, y: np.ndarray) -> np.ndarray:
        if self.psf_kernel is not None:
            y = self._convolve(y)
        if len(self._adjoints) == 1:
            return self._adjoints[0] @ y
        top, bottom = self._adjoints
        r = top.shape[1]
        x, rest = _run_pair(lambda: top @ y[:r], lambda: bottom @ y[r:])
        x += rest
        return x


def _index_dtype(nnz: int, ncols: int) -> type:
    """int32 while the entry count and the column count fit in it, else
    int64: the choice ``scipy.sparse.vstack`` makes for CSR blocks."""
    return np.int32 if max(nnz, ncols) <= np.iinfo(np.int32).max else np.int64


def _available_memory(meminfo: str = "/proc/meminfo") -> int:
    """Bytes the process can still be given: ``MemAvailable`` from
    ``meminfo`` where it can be read, else the physical memory."""
    try:
        with open(meminfo, encoding="ascii") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def build_projector(spec: ProjectorSpec) -> SparseOperator:
    """Assemble the sparse system matrix in place, one block of rows per
    view.

    A first pass counts each ray's entries. From the counts the CSR
    arrays are allocated once at their exact size, and a second pass
    fills them view by view, reusing one view's scratch buffers. Sorting
    each row's columns then gives the arrays that stacking per-view CSR
    blocks would give, byte for byte, without holding the blocks and
    their copy at once. An operator larger than the memory available
    raises ValueError before anything large is allocated.
    """
    n = spec.grid.npixels
    scratch: dict = {}
    counts = np.concatenate([_row_counts(spec, angle, scratch)
                             for angle in spec.angles])
    nnz = int(counts.sum())
    idx_dtype = _index_dtype(nnz, n)
    itemsize = np.dtype(idx_dtype).itemsize
    need = nnz * (8 + itemsize) + (counts.size + 1) * itemsize
    available = _available_memory()
    if need > available:
        raise ValueError(
            f"the {spec.grid.nx}x{spec.grid.ny} projector with "
            f"{spec.n_angles} angles needs {need / 2**20:.1f} MiB but only "
            f"{available / 2**20:.1f} MiB of memory is available; use a "
            f"smaller --et-n, --recon-n or --n-angles")
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=idx_dtype)
    indptr = np.zeros(counts.size + 1, dtype=idx_dtype)
    np.cumsum(counts, out=indptr[1:])
    for ia, angle in enumerate(spec.angles):
        rows = slice(indptr[ia * spec.nbins], indptr[(ia + 1) * spec.nbins])
        _fill_rows(spec, angle, scratch, data[rows], indices[rows])
    matrix = sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n))
    matrix.sort_indices()
    return SparseOperator(matrix, spec)


def project_streaming(spec: ProjectorSpec, u: Image) -> Sinogram:
    """Forward projection without materializing the full matrix.

    Used for data generation on fine grids where the assembled matrix
    would be needlessly large; views are assembled one at a time. From
    STREAM_SPLIT_PIXELS on, even views run on the calling thread and odd
    views on the pool worker. Each view fills its own row, so the result
    does not depend on the thread count.
    """
    if u.grid != spec.grid:
        raise ValueError("image grid does not match projector grid")
    flat = u.ravel()
    out = np.zeros((spec.n_angles, spec.nbins))

    split = spec.n_angles * spec.grid.npixels >= STREAM_SPLIT_PIXELS
    # one scratch per thread, all allocated here (see _strip_scratch)
    scratches = [_strip_scratch(spec.grid.npixels) if spec.kernel == "strip"
                 else {} for _ in range(1 + split)]

    def views(first):
        scratch = scratches[first % len(scratches)]
        for ia in range(first, spec.n_angles, 2):
            angle = spec.angles[ia]
            if spec.kernel == "strip":
                # the last slot takes the entries that are not stored
                row = np.zeros(spec.nbins + 1)
                for p0, bins, weights in _strip_chunks(spec, angle, scratch):
                    weights *= flat[p0:p0 + weights.size]
                    np.add.at(row, bins, weights)
                out[ia] = row[:-1]
            else:
                bins, pixels, weights = _linear_angle_entries(spec, angle,
                                                              scratch)
                out[ia] = np.bincount(bins, weights * flat[pixels],
                                      minlength=spec.nbins)

    if split:
        _run_pair(lambda: views(0), lambda: views(1))
    else:
        views(0)
        views(1)
    if spec.psf_fwhm_bins is not None:
        out = _psf(out, gaussian_kernel(spec.psf_fwhm_bins))
    return Sinogram(spec.angles, spec.nbins, out)


def forward(A: SparseOperator, u: Image) -> Sinogram:
    if u.grid != A.spec.grid:
        raise ValueError("image grid does not match projector grid")
    return Sinogram(A.spec.angles, A.spec.nbins, A.apply(u.ravel()))


def adjoint(A: SparseOperator, s: Sinogram) -> Image:
    if s.n_angles != A.spec.n_angles or s.nbins != A.spec.nbins:
        raise ValueError("sinogram shape does not match projector")
    return Image(A.spec.grid, A.apply_adjoint(s.ravel()))


def apply_psf(s: Sinogram, fwhm_bins: float) -> Sinogram:
    """Per-view convolution along the detector axis with a unit-sum
    gaussian (symmetric boundary, so the matrix is self-adjoint)."""
    if not fwhm_bins > 0:
        raise ValueError("fwhm_bins must be positive")
    return Sinogram(s.angles, s.nbins,
                    _psf(s.values, gaussian_kernel(fwhm_bins)))
