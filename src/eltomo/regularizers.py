"""Penalty functionals and their symmetric gradient matrices.

Four penalties are supported:

  tikhonov  |u|_2^2                         -> identity matrix
  tv        sum sqrt(|grad u|^2 + eps^2)    -> Dx' Phi Dx + Dy' Phi Dy
  tvl2      tv term + (mu/alpha) * sum (lap u)^2 / |grad u|_gamma^3
            -> Dx' Psi Dx + Dy' Psi Dy + Lx' Ups Lx + Ly' Ups Ly
            (alpha and mu are embedded in the diagonals, so the solver
            applies this matrix with a unit outer multiplier)
  el        |wx uxx|_2^2 + |wy uyy|_2^2     -> Lx' Wx^2 Lx + Ly' Wy^2 Ly

First derivatives are forward differences, second derivatives centered
3-point stencils, both closed with Neumann (replicated boundary)
conditions, so all matrices annihilate constant images (except the
identity). The diagonals are evaluated from the iterate supplied at
build time and then frozen, which is what makes the inner problems of
the fixed-point solver linear.

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

KINDS = ("tikhonov", "tv", "tvl2", "el")


@dataclass(frozen=True)
class Penalty:
    """Penalty selector with its per-kind constants."""

    kind: str
    eps_rel: float = 1e-5
    gamma_rel: float = 1.0
    mu: float = 0.0
    beta: float = 0.03

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if not self.eps_rel > 0:
            raise ValueError("eps_rel must be positive")
        if not self.gamma_rel > 0:
            raise ValueError("gamma_rel must be positive")
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError("mu must be finite and nonnegative")
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")


def tikhonov() -> Penalty:
    return Penalty("tikhonov")


def tv(eps_rel: float = 1e-5) -> Penalty:
    return Penalty("tv", eps_rel=eps_rel)


def tv_l2(mu: float, eps_rel: float = 1e-5, gamma_rel: float = 1.0) -> Penalty:
    return Penalty("tvl2", eps_rel=eps_rel, gamma_rel=gamma_rel, mu=mu)


def el(beta: float = 0.03) -> Penalty:
    return Penalty("el", beta=beta)


@dataclass(frozen=True)
class ElWeights:
    wx: np.ndarray
    wy: np.ndarray
    ax: float
    ay: float


@dataclass(frozen=True)
class RegularizerMatrix:
    """Symmetric positive-semidefinite map on flattened images."""

    matrix: sp.csr_matrix
    kind: Penalty

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ v


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


_STENCIL_CACHE: dict[GridSpec, dict[str, sp.csr_matrix]] = {}


def _stencils(grid: GridSpec) -> dict[str, sp.csr_matrix]:
    ops = _STENCIL_CACHE.get(grid)
    if ops is None:
        ix, iy = sp.identity(grid.nx), sp.identity(grid.ny)
        ops = {
            "dx": sp.kron(iy, _d1(grid.nx, grid.hx), format="csr"),
            "dy": sp.kron(_d1(grid.ny, grid.hy), ix, format="csr"),
            "lx": sp.kron(iy, _d2(grid.nx, grid.hx), format="csr"),
            "ly": sp.kron(_d2(grid.ny, grid.hy), ix, format="csr"),
        }
        ops["dxT"] = ops["dx"].T.tocsr()
        ops["dyT"] = ops["dy"].T.tocsr()
        ops["lxT"] = ops["lx"].T.tocsr()
        ops["lyT"] = ops["ly"].T.tocsr()
        _STENCIL_CACHE[grid] = ops
    return ops


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
    return ElWeights(wx, wy, ax, ay)


def _grad_mag2(u: Image) -> np.ndarray:
    g = u.grid
    return grad_x(u.values, g.hx) ** 2 + grad_y(u.values, g.hy) ** 2


def build_gradient_matrix(kind: Penalty, u: Image,
                          alpha: float | None = None) -> RegularizerMatrix:
    """Symmetric gradient matrix R(u) built from the current iterate."""
    g = u.grid
    n = g.npixels
    if kind.kind == "tikhonov":
        return RegularizerMatrix(sp.identity(n, format="csr"), kind)

    ops = _stencils(g)
    if kind.kind == "tv":
        eps = kind.eps_rel * _amplitude(u.values)
        phi = sp.diags(1.0 / np.sqrt(_grad_mag2(u) + eps ** 2).ravel())
        m = (ops["dxT"] @ (phi @ ops["dx"])
             + ops["dyT"] @ (phi @ ops["dy"]))
    elif kind.kind == "tvl2":
        if alpha is None:
            raise ValueError("tvl2 gradient matrix requires alpha")
        umax = _amplitude(u.values)
        eps = kind.eps_rel * umax
        gamma = kind.gamma_rel * umax ** 2
        mag2 = _grad_mag2(u)
        psi = sp.diags(alpha / np.sqrt(mag2 + eps ** 2).ravel())
        ups = sp.diags(2.0 * kind.mu / (mag2 + gamma).ravel() ** 1.5)
        m = (ops["dxT"] @ (psi @ ops["dx"])
             + ops["dyT"] @ (psi @ ops["dy"])
             + ops["lxT"] @ (ups @ ops["lx"])
             + ops["lyT"] @ (ups @ ops["ly"]))
    else:  # el
        w = compute_el_weights(u, kind.beta)
        wx2 = sp.diags((w.wx ** 2).ravel())
        wy2 = sp.diags((w.wy ** 2).ravel())
        m = (ops["lxT"] @ (wx2 @ ops["lx"])
             + ops["lyT"] @ (wy2 @ ops["ly"]))
    return RegularizerMatrix(m.tocsr(), kind)


def penalty_value(kind: Penalty, u: Image,
                  alpha: float | None = None) -> float:
    """Penalty functional value; used for reporting and gradient checks
    (the solvers work with the gradient matrices, not this value)."""
    g = u.grid
    if kind.kind == "tikhonov":
        return float(np.sum(u.values ** 2))

    umax = _amplitude(u.values)
    if kind.kind == "tv":
        eps = kind.eps_rel * umax
        return float(np.sum(np.sqrt(_grad_mag2(u) + eps ** 2)))
    if kind.kind == "tvl2":
        if alpha is None or not alpha > 0:
            raise ValueError("tvl2 penalty value requires alpha > 0")
        eps = kind.eps_rel * umax
        gamma = kind.gamma_rel * umax ** 2
        mag2 = _grad_mag2(u)
        lap = second_x(u.values, g.hx) + second_y(u.values, g.hy)
        tv_term = np.sum(np.sqrt(mag2 + eps ** 2))
        l2_term = np.sum(lap ** 2 / (mag2 + gamma) ** 1.5)
        return float(tv_term + (kind.mu / alpha) * l2_term)
    w = compute_el_weights(u, kind.beta)
    uxx = second_x(u.values, g.hx)
    uyy = second_y(u.values, g.hy)
    return float(np.sum((w.wx * uxx) ** 2) + np.sum((w.wy * uyy) ** 2))


def frozen_quadratic(kind: Penalty, u0: Image,
                     alpha: float | None = None):
    """Return q(v) = 0.5 * <R(u0) v, v> evaluated with numpy stencils.

    This recomputes the quadratic form from the frozen diagonals and the
    difference stencils directly, without touching the sparse matrices,
    so it can serve as an independent oracle for matrix-vector products.
    """
    g = u0.grid
    if kind.kind == "tikhonov":
        return lambda v: 0.5 * float(np.sum(np.asarray(v) ** 2))

    umax = _amplitude(u0.values)
    if kind.kind == "tv":
        eps = kind.eps_rel * umax
        phi = 1.0 / np.sqrt(_grad_mag2(u0) + eps ** 2)

        def q(v):
            v = np.asarray(v).reshape(g.ny, g.nx)
            return 0.5 * float(np.sum(phi * (grad_x(v, g.hx) ** 2
                                             + grad_y(v, g.hy) ** 2)))
        return q
    if kind.kind == "tvl2":
        if alpha is None:
            raise ValueError("tvl2 quadratic requires alpha")
        eps = kind.eps_rel * umax
        gamma = kind.gamma_rel * umax ** 2
        mag2 = _grad_mag2(u0)
        psi = alpha / np.sqrt(mag2 + eps ** 2)
        ups = 2.0 * kind.mu / (mag2 + gamma) ** 1.5

        def q(v):
            v = np.asarray(v).reshape(g.ny, g.nx)
            first = psi * (grad_x(v, g.hx) ** 2 + grad_y(v, g.hy) ** 2)
            second = ups * (second_x(v, g.hx) ** 2 + second_y(v, g.hy) ** 2)
            return 0.5 * float(np.sum(first) + np.sum(second))
        return q
    w = compute_el_weights(u0, kind.beta)

    def q(v):
        v = np.asarray(v).reshape(g.ny, g.nx)
        return 0.5 * float(np.sum((w.wx * second_x(v, g.hx)) ** 2)
                           + np.sum((w.wy * second_y(v, g.hy)) ** 2))
    return q
