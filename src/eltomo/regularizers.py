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

Every matrix but the identity has the form sum_t D_t' diag(w_t) D_t.
Each D_t has two or three bands, so the sum is banded: 5 diagonals for
tv (offsets 0, +-1, +-nx), 9 for el and tvl2 (also +-2, +-2 nx). It is
stored by diagonals (scipy's DIA format), each filled in closed form
from the bands and the frozen diagonals w_t.

The edge weights wx, wy lie in (0, 1]: they equal 1 where the image is
flat and drop toward 0 where the first derivative is large relative to
its scale-invariant average 2*umax/d, so second-order smoothing is
suppressed across edges. Degenerate all-zero iterates substitute a unit
amplitude scale, which turns every diagonal into a constant (pure
smoothing) instead of dividing by zero.
"""

from __future__ import annotations

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

    matrix: sp.dia_matrix
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


def _bands(grid: GridSpec, name: str) -> dict[int, np.ndarray]:
    """The stencil `name` (dx, dy, lx or ly) on flattened images as
    {offset o: c} with D[k, k + o] = c[k], each c shaped to broadcast
    over (ny, nx) images; c[k] is 0 where row k has no entry at o."""
    along_x = name in ("dx", "lx")
    n, h = (grid.nx, grid.hx) if along_x else (grid.ny, grid.hy)
    p = np.arange(n)  # the position along the stencil's axis
    if name in ("dx", "dy"):
        inner = p < n - 1
        bands = {0: np.where(inner, -1.0 / h, 0.0),
                 1: np.where(inner, 1.0 / h, 0.0)}
    else:
        end = (p == 0) | (p == n - 1)
        bands = {-1: np.where(p > 0, 1.0 / h ** 2, 0.0),
                 0: np.where(end, -1.0 / h ** 2, -2.0 / h ** 2),
                 1: np.where(p < n - 1, 1.0 / h ** 2, 0.0)}
    step, shape = (1, (1, n)) if along_x else (grid.nx, (n, 1))
    return {o * step: c.reshape(shape) for o, c in bands.items()}


def _assemble(grid: GridSpec, names: tuple[str, ...],
              weights: tuple[np.ndarray, ...]) -> sp.dia_matrix:
    """sum_t D_t' diag(weights[t]) D_t over the stencils `names`.

    Row k of D_t adds (c_o1[k] c_o2[k]) w_t[k] to the entry
    (k + o1, k + o2) on the diagonal o2 - o1. Each entry sums its terms
    stencil by stencil, then in increasing k (decreasing o1), so its
    rounding is fixed; a matvec adds a row's diagonals in increasing
    offset, i.e. column, order, as a CSR one does. The diagonals below
    the main one are copies of those above: entry (j + d, j) sums the
    same terms as (j, j + d)."""
    n = grid.npixels
    bands = [_bands(grid, name) for name in names]
    offsets = sorted({o2 - o1 for b in bands for o1 in b for o2 in b})
    row = {o: i for i, o in enumerate(offsets)}
    data = np.zeros((len(offsets), n))  # data[row[o], j] holds (j - o, j)
    for b, w in zip(bands, weights):
        w = w.reshape(grid.ny, grid.nx)
        for o1 in sorted(b, reverse=True):
            for o2 in (o for o in b if o >= o1):
                term = ((b[o1] * b[o2]) * w).ravel()
                lo, hi = max(0, -o1), min(n, n - o2)
                data[row[o2 - o1], lo + o2:hi + o2] += term[lo:hi]
    for d in offsets:
        if d > 0:
            data[row[-d], :n - d] = data[row[d], d:]
    return sp.dia_matrix((data, offsets), shape=(n, n))


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
                                                     format="dia"))
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
