"""Parallel-beam system matrix with strip and linear ray kernels.

Both kernels produce line-integral-scale data: the linear kernel sums
interpolated samples times step length along each ray, and the strip
kernel computes the exact pixel/strip overlap area divided by the bin
pitch (the mean line integral across the strip). Keeping both kernels in
the same units is what allows data simulated with one kernel to be
reconstructed with the other.

The matrix is precomputed and stored in CSR form; the adjoint is the
exact transpose. An optional detector point-spread function (gaussian,
unit-sum, symmetric boundary) is applied on the sinogram side of both
the forward and the adjoint map, so the operator pair stays adjoint.

Projector calls use up to two threads: large operators split their rows
into two blocks, and large streaming projections split their views. scipy's
sparse products and numpy's large-array kernels release the interpreter
lock, so the second thread runs on a second core. How the work is split
depends only on the matrix, never on the thread count, so neither do
the output bytes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import convolve1d

from .grids import GridSpec, Image, Sinogram

# Operators with at least this many stored entries split into two row
# blocks. Below it the hand-off to the worker thread on every product
# costs more than the second core saves: inside the solver a 0.57M-entry
# operator ran 7% slower split and a 1.78M-entry one broke even.
SPLIT_NNZ = 2_000_000

# Streaming projection splits its views between the two threads when
# views x pixels reaches this. The worker thread keeps its own allocator
# arena, which raised peak memory by 3-6 MiB on the comparison sizes
# (60 views of 128^2, 90 views of 200^2) for a saving of 20-170 ms; the
# full-size data (90 views of 500^2) saves about 2 s.
STREAM_SPLIT_PIXELS = 10_000_000

# Two threads when the process may run on two or more cores, else one.
THREADS = min(2, len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# The calling thread does one half of the work and this pool's single
# worker the other. No thread starts before the first task. A forked
# child inherits the pool but not its thread, so tasks submitted there
# would never run; the child runs serially instead.
_POOL = ThreadPoolExecutor(max_workers=1,
                           thread_name_prefix="eltomo-projector")
_POOL_PID = os.getpid()


def _run_pair(first, second):
    """Both results of two callables; with two threads the second runs
    on the pool worker while the calling thread runs the first."""
    if THREADS < 2 or os.getpid() != _POOL_PID:
        return first(), second()
    future = _POOL.submit(second)
    try:
        a = first()
    finally:
        b = future.result()
    return a, b


def _row_halves(m: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Two row blocks of about equal nnz sharing ``m``'s data and indices."""
    r = int(np.searchsorted(m.indptr, m.nnz // 2))
    k = int(m.indptr[r])
    top = sp.csr_matrix((m.data[:k], m.indices[:k], m.indptr[:r + 1]),
                        shape=(r, m.shape[1]))
    bottom = sp.csr_matrix((m.data[k:], m.indices[k:], m.indptr[r:] - k),
                           shape=(m.shape[0] - r, m.shape[1]))
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
        a = np.asarray(self.angles, dtype=np.float64).ravel()
        if a.size == 0:
            raise ValueError("need at least one angle")
        if np.any(a < 0.0) or np.any(a >= np.pi):
            raise ValueError("angles must lie in [0, pi)")
        if a.size > 1 and np.any(np.diff(a) <= 0):
            raise ValueError("angles must be strictly increasing")
        object.__setattr__(self, "angles", a.copy())
        self.angles.flags.writeable = False
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

    @property
    def nrays(self) -> int:
        return self.n_angles * self.nbins

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


def _strip_cumulative(t: np.ndarray, w: float, f: float, area: float
                      ) -> np.ndarray:
    """Integral from -w to t of the chord-length profile of one pixel.

    The profile of an axis-aligned pixel projected onto the detector
    axis is a trapezoid with support [-w, w], flat top [-f, f] and total
    integral equal to the pixel area.
    """
    t = np.clip(t, -w, w)
    rise = w - f
    if rise <= 1e-12 * w:
        return area * (t + w) / (2.0 * w)
    lmax = area / (w + f)
    out = np.empty_like(t)
    left = t < -f
    right = t > f
    mid = ~(left | right)
    out[left] = 0.5 * lmax * (t[left] + w) ** 2 / rise
    out[mid] = 0.5 * lmax * rise + lmax * (t[mid] + f)
    out[right] = area - 0.5 * lmax * (w - t[right]) ** 2 / rise
    return out


def _strip_angle_entries(spec: ProjectorSpec, angle: float
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bin index, pixel index, weight) triplets for one view."""
    g = spec.grid
    c, s = math.cos(angle), math.sin(angle)
    hx, hy = g.hx, g.hy
    w = 0.5 * (hx * abs(c) + hy * abs(s))
    f = 0.5 * abs(hx * abs(c) - hy * abs(s))
    area = hx * hy
    pitch = spec.bin_pitch

    x = (np.arange(g.nx) + 0.5) * hx - 0.5 * g.dx
    y = (np.arange(g.ny) + 0.5) * hy - 0.5 * g.dy
    t = (c * x[None, :] + s * y[:, None]).ravel()

    edge0 = -0.5 * spec.nbins * pitch
    klo = np.floor((t - w - edge0) / pitch).astype(np.int64)
    span = int(math.ceil(2.0 * w / pitch)) + 2

    bins, pixels, weights = [], [], []
    pix = np.arange(t.size, dtype=np.int64)
    for off in range(span):
        k = klo + off
        lo = edge0 + k * pitch
        wgt = (_strip_cumulative(lo + pitch - t, w, f, area)
               - _strip_cumulative(lo - t, w, f, area)) / pitch
        keep = (k >= 0) & (k < spec.nbins) & (wgt > 0.0)
        bins.append(k[keep])
        pixels.append(pix[keep])
        weights.append(wgt[keep])
    return (np.concatenate(bins), np.concatenate(pixels),
            np.concatenate(weights))


def _linear_angle_entries(spec: ProjectorSpec, angle: float
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interpolating ray tracing: step the ray at one-pixel-pitch
    increments along its dominant axis and split each sample between the
    two adjacent pixels."""
    g = spec.grid
    c, s = math.cos(angle), math.sin(angle)
    hx, hy = g.hx, g.hy
    sv = spec.bin_centers()

    if abs(c) >= abs(s):
        # rays are closer to the y axis: step over rows, interpolate x
        y = (np.arange(g.ny) + 0.5) * hy - 0.5 * g.dy
        tau = (y[None, :] - sv[:, None] * s) / c
        xpos = sv[:, None] * c - tau * s + 0.5 * g.dx
        frac = xpos / hx - 0.5
        i0 = np.floor(frac).astype(np.int64)
        wr = frac - i0
        step = hy / abs(c)
        base = (np.arange(g.ny, dtype=np.int64) * g.nx)[None, :]
        idx_lo = base + i0
        idx_hi = base + i0 + 1
        ok_lo = (i0 >= 0) & (i0 < g.nx)
        ok_hi = (i0 + 1 >= 0) & (i0 + 1 < g.nx)
    else:
        # rays are closer to the x axis: step over columns, interpolate y
        x = (np.arange(g.nx) + 0.5) * hx - 0.5 * g.dx
        tau = (sv[:, None] * c - x[None, :]) / s
        ypos = sv[:, None] * s + tau * c + 0.5 * g.dy
        frac = ypos / hy - 0.5
        i0 = np.floor(frac).astype(np.int64)
        wr = frac - i0
        step = hx / abs(s)
        col = np.arange(g.nx, dtype=np.int64)[None, :]
        idx_lo = i0 * g.nx + col
        idx_hi = (i0 + 1) * g.nx + col
        ok_lo = (i0 >= 0) & (i0 < g.ny)
        ok_hi = (i0 + 1 >= 0) & (i0 + 1 < g.ny)

    ray = np.broadcast_to(np.arange(spec.nbins, dtype=np.int64)[:, None],
                          i0.shape)
    w_lo = (1.0 - wr) * step
    w_hi = wr * step
    keep_lo = ok_lo & (w_lo > 0.0)
    keep_hi = ok_hi & (w_hi > 0.0)
    return (np.concatenate([ray[keep_lo], ray[keep_hi]]),
            np.concatenate([idx_lo[keep_lo], idx_hi[keep_hi]]),
            np.concatenate([w_lo[keep_lo], w_hi[keep_hi]]))


def _angle_entries(spec: ProjectorSpec, angle: float):
    if spec.kernel == "strip":
        return _strip_angle_entries(spec, angle)
    return _linear_angle_entries(spec, angle)


class SparseOperator:
    """Precomputed CSR projection matrix with optional detector PSF.

    A matrix with at least SPLIT_NNZ entries is applied as two row
    blocks, one per thread. The forward product is bitwise equal to
    ``matrix @ u``; the adjoint adds the two blocks' transposed products
    in a fixed order, so it rounds differently from ``matrix.T @ y`` but
    never depends on the thread count.
    """

    def __init__(self, matrix: sp.csr_matrix, spec: ProjectorSpec):
        self.matrix = matrix
        self.spec = spec
        self.psf_kernel = (gaussian_kernel(spec.psf_fwhm_bins)
                           if spec.psf_fwhm_bins is not None else None)
        self.blocks = (_row_halves(matrix) if matrix.nnz >= SPLIT_NNZ
                       else (matrix,))
        # CSC views of the transposes: exact adjoint without copying data
        self._adjoints = tuple(b.T for b in self.blocks)

    @property
    def nrows(self) -> int:
        return self.matrix.shape[0]

    @property
    def ncols(self) -> int:
        return self.matrix.shape[1]

    def _convolve(self, rays: np.ndarray) -> np.ndarray:
        rows = rays.reshape(self.spec.n_angles, self.spec.nbins)
        return convolve1d(rows, self.psf_kernel, axis=1,
                          mode="reflect").ravel()

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64).ravel()
        if u.size != self.ncols:
            raise ValueError(f"expected {self.ncols} pixels, got {u.size}")
        if len(self.blocks) == 1:
            y = self.matrix @ u
        else:
            top, bottom = self.blocks
            y = np.concatenate(_run_pair(lambda: top @ u,
                                         lambda: bottom @ u))
        return self._convolve(y) if self.psf_kernel is not None else y

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64).ravel()
        if y.size != self.nrows:
            raise ValueError(f"expected {self.nrows} rays, got {y.size}")
        if self.psf_kernel is not None:
            y = self._convolve(y)
        if len(self._adjoints) == 1:
            return self._adjoints[0] @ y
        top, bottom = self._adjoints
        r = top.shape[1]
        x, rest = _run_pair(lambda: top @ y[:r], lambda: bottom @ y[r:])
        x += rest
        return x


def build_projector(spec: ProjectorSpec) -> SparseOperator:
    """Assemble the sparse system matrix, one block of rows per view."""
    blocks = []
    n = spec.grid.npixels
    for angle in spec.angles:
        bins, pixels, weights = _angle_entries(spec, angle)
        blocks.append(sp.csr_matrix((weights, (bins, pixels)),
                                    shape=(spec.nbins, n)))
    matrix = sp.vstack(blocks, format="csr")
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

    def views(first):
        for ia in range(first, spec.n_angles, 2):
            bins, pixels, weights = _angle_entries(spec, spec.angles[ia])
            out[ia] = np.bincount(bins, weights * flat[pixels],
                                  minlength=spec.nbins)

    if spec.n_angles * spec.grid.npixels >= STREAM_SPLIT_PIXELS:
        _run_pair(lambda: views(0), lambda: views(1))
    else:
        views(0)
        views(1)
    if spec.psf_fwhm_bins is not None:
        out = convolve1d(out, gaussian_kernel(spec.psf_fwhm_bins),
                         axis=1, mode="reflect")
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
    blurred = convolve1d(s.values, gaussian_kernel(fwhm_bins),
                         axis=1, mode="reflect")
    return Sinogram(s.angles, s.nbins, blurred)
