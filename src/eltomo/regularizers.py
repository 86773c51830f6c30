"""Penalty functionals and their symmetric gradient matrices.

Every matrix here is alpha R(u): the penalty's weight alpha (and tvl2's
mu) sits in its diagonals, so the solvers apply it with no outer
multiplier. penalty_value is the weighted functional whose gradient,
with the diagonals frozen at u, is alpha R(u) u. Four penalties are
supported:

  tikhonov  (alpha/2) |u|_2^2                    -> alpha I
  tv        alpha sum sqrt(|grad u|^2 + eps^2)   -> Dx' Psi Dx + Dy' Psi Dy
  tvl2      tv term + mu sum (uxx^2 + uyy^2) / (|grad u|^2 + gamma)^1.5
            -> Dx' Psi Dx + Dy' Psi Dy + Lx' Ups Lx + Ly' Ups Ly
  el        (alpha/2) (|wx uxx|_2^2 + |wy uyy|_2^2)
            -> Lx' alpha Wx^2 Lx + Ly' alpha Wy^2 Ly

with Psi = alpha / sqrt(|grad u|^2 + eps^2) and
Ups = 2 mu / (|grad u|^2 + gamma)^1.5.

First derivatives are forward differences, second derivatives centered
3-point stencils, both closed with Neumann (replicated boundary)
conditions, so all matrices annihilate constant images (except the
identity). The diagonals are evaluated from the iterate supplied at
build time and then frozen, which is what makes the inner problems of
the fixed-point solver linear.

Every matrix but the identity has the form sum_t D_t' diag(w_t) D_t, so
its entries are linear in the stacked diagonals. The sorted CSR pattern
and the sparse map from the diagonals to the pattern's values are built
once per grid and stencil set; each matrix is then filled by one sparse
matrix-vector product.

The edge weights wx, wy lie in (0, 1]: they equal 1 where the image is
flat and drop toward 0 where the first derivative is large relative to
its scale-invariant average 2*umax/d, so second-order smoothing is
suppressed across edges. Degenerate all-zero iterates substitute a unit
amplitude scale, which turns every diagonal into a constant (pure
smoothing) instead of dividing by zero.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grids import GridSpec, Image

_TINY_AMPLITUDE = 1e-30
# the TV smoothing eps and the tvl2 curvature floor gamma, relative to
# the iterate amplitude umax: eps = _EPS_REL umax, gamma = _GAMMA_REL umax^2.
# A smaller eps makes the flat regions' diffusivity alpha/eps so stiff that
# tv and tvl2 runs amplify rounding: at 1e-5 umax a 1e-12 change of the
# preconditioner moved their RMSE by up to 1e-3, at 1e-3 umax by under 1e-6
# near the best weights.
_EPS_REL = 1e-3
_GAMMA_REL = 1.0

KINDS = ("tikhonov", "tv", "tvl2", "el")


@dataclass(frozen=True)
class Penalty:
    """Penalty selector with its per-kind constants."""

    kind: str
    mu: float = 0.0
    beta: float = 0.03

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and nonnegative")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")


def tikhonov() -> Penalty:
    return Penalty("tikhonov")


def tv() -> Penalty:
    return Penalty("tv")


def tv_l2(mu: float) -> Penalty:
    return Penalty("tvl2", mu=mu)


def el(beta: float = 0.03) -> Penalty:
    return Penalty("el", beta=beta)


@dataclass(frozen=True)
class ElWeights:
    wx: np.ndarray
    wy: np.ndarray


@dataclass(frozen=True)
class RegularizerMatrix:
    """Symmetric positive-semidefinite map alpha R(u) on flattened
    images, with the stencil names and frozen diagonals of its form
    sum_t D_t' diag(w_t) D_t (both empty for tikhonov's alpha I)."""

    matrix: sp.csr_matrix
    stencils: tuple[str, ...] = ()
    weights: tuple[np.ndarray, ...] = ()


# --- difference stencils ------------------------------------------------

def grad_x(v: np.ndarray, hx: float) -> np.ndarray:
    """Forward difference along x; Neumann closure (zero at the far edge)."""
    g = np.zeros_like(v)
    g[:, :-1] = (v[:, 1:] - v[:, :-1]) / hx
    return g


def grad_y(v: np.ndarray, hy: float) -> np.ndarray:
    g = np.zeros_like(v)
    g[:-1, :] = (v[1:, :] - v[:-1, :]) / hy
    return g


def second_x(v: np.ndarray, hx: float) -> np.ndarray:
    """Centered second difference along x with replicated boundary."""
    p = np.pad(v, ((0, 0), (1, 1)), mode="edge")
    return (p[:, 2:] - 2.0 * p[:, 1:-1] + p[:, :-2]) / hx ** 2


def second_y(v: np.ndarray, hy: float) -> np.ndarray:
    p = np.pad(v, ((1, 1), (0, 0)), mode="edge")
    return (p[2:, :] - 2.0 * p[1:-1, :] + p[:-2, :]) / hy ** 2


def _d1(n: int, h: float) -> sp.csr_matrix:
    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.empty(2 * (n - 1), dtype=np.int64)
    cols[0::2] = np.arange(n - 1)
    cols[1::2] = np.arange(1, n)
    vals = np.tile([-1.0 / h, 1.0 / h], n - 1)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _d2(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, -2.0)
    main[0] = main[-1] = -1.0
    m = sp.diags([np.ones(n - 1), main, np.ones(n - 1)], [-1, 0, 1],
                 format="csr")
    return (m / h ** 2).tocsr()


def _stencil(grid: GridSpec, name: str) -> sp.csr_matrix:
    """One of the difference stencils dx, dy, lx, ly on flattened images."""
    ix, iy = sp.identity(grid.nx), sp.identity(grid.ny)
    if name == "dx":
        return sp.kron(iy, _d1(grid.nx, grid.hx), format="csr")
    if name == "dy":
        return sp.kron(_d1(grid.ny, grid.hy), ix, format="csr")
    if name == "lx":
        return sp.kron(iy, _d2(grid.nx, grid.hx), format="csr")
    return sp.kron(_d2(grid.ny, grid.hy), ix, format="csr")


@dataclass(frozen=True)
class _Fill:
    """Fixed CSR pattern of sum_t D_t' diag(w_t) D_t and the sparse map
    from the stacked weights concat(w_t) to its data:
    fill[(i, j), t*n + k] = D_t[k, i] * D_t[k, j]."""

    fill: sp.csc_matrix
    indices: np.ndarray
    indptr: np.ndarray


# the lock makes sweep runs that start together build a grid's map once
_FILL_CACHE: dict[tuple[GridSpec, tuple[str, ...]], _Fill] = {}
_FILL_LOCK = threading.Lock()


def _row_pairs(d: sp.csr_matrix):
    """Every ordered pair of entries sharing a row of d, row by row and
    in column order within a row, as (column of the first, column of the
    second, product of the two values)."""
    lens = np.diff(d.indptr)
    reps = np.repeat(lens, lens)  # the length of each entry's row
    first = np.repeat(np.arange(d.nnz, dtype=d.indptr.dtype), reps)
    # the second entry runs over the first one's row
    second = np.repeat(d.indptr[:-1], lens * lens)
    second += np.arange(first.size, dtype=second.dtype)
    second -= np.repeat(np.cumsum(reps, dtype=second.dtype) - reps, reps)
    return (d.indices[first], d.indices[second],
            d.data[first] * d.data[second])


def _fill_map(grid: GridSpec, names: tuple[str, ...]) -> _Fill:
    """The _Fill of the stencils `names`, built once per grid."""
    key = (grid, names)
    with _FILL_LOCK:
        cached = _FILL_CACHE.get(key)
        if cached is None:
            cached = _FILL_CACHE[key] = _build_fill(grid, names)
    return cached


def _build_fill(grid: GridSpec, names: tuple[str, ...]) -> _Fill:
    """The _Fill of the stencils `names`; the stencils themselves are
    dropped once it is built.

    The pattern is the structure of sum_t |D_t|' |D_t|, whose positive
    entries cannot cancel. Each stencil row's pairs are then looked up
    in it, and since they come in the pattern's order, they form the
    map's columns as they are, with no sort.
    """
    n = grid.npixels
    stencils = [_stencil(grid, name) for name in names]
    for d in stencils:
        d.sort_indices()  # the pairs' order below relies on it
    pattern = sum(abs(d).T @ abs(d) for d in stencils).tocsr()
    pattern.sort_indices()
    indices, indptr = pattern.indices, pattern.indptr
    del pattern
    idx_dtype = indices.dtype
    # the pattern with each entry's position as its value
    where = sp.csr_array((np.arange(indices.size, dtype=idx_dtype),
                          indices, indptr), shape=(n, n))
    counts = np.concatenate([np.diff(d.indptr) ** 2 for d in stencils])
    colptr = np.zeros(counts.size + 1, dtype=idx_dtype)
    np.cumsum(counts, out=colptr[1:])
    positions = np.empty(colptr[-1], dtype=idx_dtype)
    coefs = np.empty(colptr[-1])
    for t, d in enumerate(stencils):
        i, j, c = _row_pairs(d)
        part = slice(colptr[t * n], colptr[(t + 1) * n])
        positions[part] = where[i, j]
        coefs[part] = c
    fill = sp.csc_matrix((coefs, positions, colptr),
                         shape=(indices.size, len(names) * n))
    # every matrix filled on this pattern shares these two arrays
    indices.flags.writeable = False
    indptr.flags.writeable = False
    return _Fill(fill, indices, indptr)


def _assemble(grid: GridSpec, names: tuple[str, ...],
              weights: tuple[np.ndarray, ...]) -> sp.csr_matrix:
    """sum_t D_t' diag(weights[t]) D_t over the stencils `names`, filled
    on the cached pattern by one sparse matvec."""
    f = _fill_map(grid, names)
    data = f.fill @ np.concatenate([w.ravel() for w in weights])
    return sp.csr_matrix((data, f.indices, f.indptr),
                         shape=(grid.npixels, grid.npixels))


# --- penalty machinery --------------------------------------------------

def _amplitude(values: np.ndarray) -> float:
    """Iterate amplitude used for the scale constants; a unit scale is
    substituted when the image is numerically zero."""
    umax = float(np.max(np.abs(values)))
    return umax if umax > _TINY_AMPLITUDE else 1.0


def _edge_slope_x(v: np.ndarray, hx: float) -> np.ndarray:
    """Larger-magnitude one-sided x-derivative per pixel.

    The centered second-difference stencil reaches across a jump from
    both sides, so the weight at BOTH neighbors of an edge must drop;
    a single one-sided difference would leave the far side unweighted
    and let the penalty smooth every edge from that side.
    """
    fwd = grad_x(v, hx)
    bwd = np.zeros_like(v)
    bwd[:, 1:] = fwd[:, :-1]
    return np.where(np.abs(fwd) >= np.abs(bwd), fwd, bwd)


def _edge_slope_y(v: np.ndarray, hy: float) -> np.ndarray:
    fwd = grad_y(v, hy)
    bwd = np.zeros_like(v)
    bwd[1:, :] = fwd[:-1, :]
    return np.where(np.abs(fwd) >= np.abs(bwd), fwd, bwd)


def compute_el_weights(u: Image, beta: float) -> ElWeights:
    if not beta > 0:
        raise ValueError("beta must be positive")
    g = u.grid
    umax = _amplitude(u.values)
    ax = 2.0 * umax / g.dx
    ay = 2.0 * umax / g.dy
    wx = 1.0 / (1.0 + beta * (_edge_slope_x(u.values, g.hx) / ax) ** 2)
    wy = 1.0 / (1.0 + beta * (_edge_slope_y(u.values, g.hy) / ay) ** 2)
    return ElWeights(wx, wy)


def _grad_mag2(u: Image) -> np.ndarray:
    g = u.grid
    return grad_x(u.values, g.hx) ** 2 + grad_y(u.values, g.hy) ** 2


def _terms(kind: Penalty, u: Image, alpha: float
           ) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
    """Stencil names and frozen diagonals of alpha R(u) in the form
    sum_t D_t' diag(w_t) D_t, for every kind but tikhonov."""
    if kind.kind == "el":
        w = compute_el_weights(u, kind.beta)
        return ("lx", "ly"), (alpha * w.wx ** 2, alpha * w.wy ** 2)
    umax = _amplitude(u.values)
    mag2 = _grad_mag2(u)
    psi = alpha / np.sqrt(mag2 + (_EPS_REL * umax) ** 2)
    if kind.kind == "tv":
        return ("dx", "dy"), (psi, psi)
    ups = 2.0 * kind.mu / (mag2 + _GAMMA_REL * umax ** 2) ** 1.5
    return ("dx", "dy", "lx", "ly"), (psi, psi, ups, ups)


def build_gradient_matrix(kind: Penalty, u: Image,
                          alpha: float) -> RegularizerMatrix:
    """The symmetric gradient matrix alpha R(u), frozen at the iterate u."""
    if kind.kind == "tikhonov":
        return RegularizerMatrix(alpha * sp.identity(u.grid.npixels,
                                                     format="csr"))
    names, weights = _terms(kind, u, alpha)
    return RegularizerMatrix(_assemble(u.grid, names, weights), names,
                             weights)


def penalty_value(kind: Penalty, u: Image, alpha: float) -> float:
    """The weighted penalty at u, whose gradient with the diagonals
    frozen at u is alpha R(u) u; used for reporting and tests (the
    solvers work with the gradient matrices, not this value)."""
    if kind.kind in ("tikhonov", "el"):  # quadratic once frozen at u
        return frozen_quadratic(kind, u, alpha)(u.values)
    umax = _amplitude(u.values)
    mag2 = _grad_mag2(u)
    value = alpha * float(np.sum(np.sqrt(mag2 + (_EPS_REL * umax) ** 2)))
    if kind.kind == "tvl2":
        g = u.grid
        curv = second_x(u.values, g.hx) ** 2 + second_y(u.values, g.hy) ** 2
        value += kind.mu * float(
            np.sum(curv / (mag2 + _GAMMA_REL * umax ** 2) ** 1.5))
    return value


def frozen_quadratic(kind: Penalty, u0: Image, alpha: float):
    """Return q(v) = 0.5 <alpha R(u0) v, v> = 0.5 sum_t w_t (D_t v)^2,
    evaluated with the numpy stencils.

    This recomputes the quadratic form from the frozen diagonals and the
    difference stencils directly, without touching the sparse matrices,
    so it can serve as an independent oracle for matrix-vector products.
    """
    g = u0.grid
    if kind.kind == "tikhonov":
        return lambda v: 0.5 * alpha * float(np.sum(np.asarray(v) ** 2))
    ops = {"dx": lambda v: grad_x(v, g.hx), "dy": lambda v: grad_y(v, g.hy),
           "lx": lambda v: second_x(v, g.hx),
           "ly": lambda v: second_y(v, g.hy)}
    terms = list(zip(*_terms(kind, u0, alpha)))

    def q(v):
        v = np.asarray(v).reshape(g.ny, g.nx)
        return 0.5 * sum(float(np.sum(w * ops[name](v) ** 2))
                         for name, w in terms)
    return q
