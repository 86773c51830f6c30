"""Reconstruction solvers.

* cgls: conjugate-gradient least squares baseline (no penalty).
* fixed_point_reconstruct: outer fixed-point iterations that freeze the
  penalty diagonals, solve the resulting quadratic step equation
  (A'A + a R) s = -g by (optionally preconditioned) CG, and re-freeze.
* mlem_split_reconstruct: multiplicative ML-EM update for Poisson data
  followed by a few explicit denoising steps against the frozen penalty
  matrix.
* verify_error_bound: dense random trials of the regularization-error
  inequality |R h_a| <= a |R M^-1 N u|.

All solvers are deterministic given their inputs and the configured
seed; internal power iterations draw their probe vectors from a seeded
generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grids import Image, Sinogram
from .projector import SparseOperator
from .regularizers import Penalty, RegularizerMatrix, build_gradient_matrix, penalty_value

_REGULARIZED = ("tikhonov", "tv", "tvl2", "el")


class NumericalError(RuntimeError):
    """Solver produced a non-finite iterate or broke down."""


@dataclass(frozen=True)
class SolverConfig:
    outer_iters: int = 80
    inner_iters: int = 5
    rho: float = 1e-4
    alpha: float = 0.0
    tau: float | None = None
    precondition: bool = False
    sigma: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.tau is not None and not self.tau > 0:
            raise ValueError("tau must be positive")
        # sigma^2 I + alpha R is singular at sigma = 0 for tv and el,
        # whose R annihilates constants
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be positive (None estimates it)")


@dataclass(frozen=True)
class HistoryRecord:
    iteration: int
    objective: float
    fidelity: float
    penalty: float
    step_norm2: float
    rmse: float | None = None


@dataclass
class ReconResult:
    image: Image
    history: list[HistoryRecord]
    terminated_early: bool = False
    region_rmse: dict[str, float] = field(default_factory=dict)


def history_csv(result: ReconResult) -> str:
    lines = ["iter,objective,fidelity,penalty,step_norm2,rmse"]
    for h in result.history:
        rmse = "" if h.rmse is None else f"{h.rmse:.17g}"
        lines.append(f"{h.iteration},{h.objective:.17g},{h.fidelity:.17g},"
                     f"{h.penalty:.17g},{h.step_norm2:.17g},{rmse}")
    return "\n".join(lines) + "\n"


def _relative_rmse(u: np.ndarray, truth: Image | None) -> float | None:
    if truth is None:
        return None
    t = truth.ravel()
    return float(np.linalg.norm(u - t) / np.linalg.norm(t))


def _check_finite(u: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"non-finite iterate in {where}")


def power_iteration(apply_op, n: int, iters: int, seed: int) -> float:
    """Largest eigenvalue of a symmetric PSD operator."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = apply_op(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        lam = float(v @ w)
        v = w / norm
    return lam


def estimate_sigma(A: SparseOperator, seed: int, iters: int = 50) -> float:
    """Largest singular value of A via power iteration on A'A."""
    lam = power_iteration(lambda v: A.apply_adjoint(A.apply(v)),
                          A.ncols, iters, seed)
    return float(np.sqrt(max(lam, 0.0)))


# --- CGLS ----------------------------------------------------------------

def cgls(A: SparseOperator, b: Sinogram, iters: int,
         ground_truth: Image | None = None) -> ReconResult:
    """Least-squares reconstruction from a zero start."""
    if iters < 1:
        raise ValueError("iters must be >= 1")
    bv = b.ravel()
    if bv.size != A.nrows:
        raise ValueError("sinogram does not match operator shape")
    x = np.zeros(A.ncols)
    r = bv.copy()
    s = A.apply_adjoint(r)
    p = s.copy()
    gamma = float(s @ s)
    history: list[HistoryRecord] = []
    broke = False
    for k in range(iters):
        q = A.apply(p)
        delta = float(q @ q)
        if delta <= 0.0:
            broke = True
            break
        a = gamma / delta
        x += a * p
        r -= a * q
        _check_finite(x, "cgls")
        s = A.apply_adjoint(r)
        gamma_new = float(s @ s)
        fid = 0.5 * float(r @ r)
        history.append(HistoryRecord(
            iteration=k + 1, objective=fid, fidelity=fid, penalty=0.0,
            step_norm2=float(a * a * (p @ p)),
            rmse=_relative_rmse(x, ground_truth)))
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return ReconResult(Image(A.spec.grid, x), history, terminated_early=broke)


# --- inner CG ------------------------------------------------------------

def _cg(apply_h, rhs: np.ndarray, max_iters: int, rho: float,
        apply_m=None, collect=None) -> tuple[np.ndarray, int]:
    """CG on the SPD system H s = rhs; stops after max_iters steps or
    when the squared step update drops to rho."""
    s = np.zeros_like(rhs)
    r = rhs.copy()
    z = apply_m(r) if apply_m is not None else r
    p = z.copy()
    rz = float(r @ z)
    iters = 0
    for _ in range(max_iters):
        hp = apply_h(p)
        php = float(p @ hp)
        if php <= 0.0:
            break
        a = rz / php
        s += a * p
        iters += 1
        if collect is not None:
            collect(s.copy())
        if a * a * float(p @ p) <= rho:
            break
        r -= a * hp
        z = apply_m(r) if apply_m is not None else r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return s, iters


def _effective_alpha(kind: Penalty | None, alpha: float) -> float:
    # tvl2 embeds alpha (and mu) in its diagonals, so the outer
    # multiplier must be 1 to avoid double counting
    if kind is not None and kind.kind == "tvl2":
        return 1.0
    return alpha


def _factorized_preconditioner(R: RegularizerMatrix, alpha_eff: float,
                               sigma: float):
    n = R.matrix.shape[0]
    h = (sigma ** 2) * sp.identity(n, format="csc") + alpha_eff * R.matrix
    lu = spla.splu(h.tocsc())
    return lambda v: lu.solve(v)


# --- fixed-point solver (least-squares fidelity) --------------------------

def fixed_point_reconstruct(A: SparseOperator, b: Sinogram,
                            kind: Penalty | None, cfg: SolverConfig,
                            ground_truth: Image | None = None,
                            inner_history=None) -> ReconResult:
    """Outer iterations freeze the penalty diagonals at the current
    iterate, then CG approximately solves (A'A + a R) s = -g. With
    alpha = 0 this degenerates to Gauss-Newton on the data term."""
    bv = b.ravel()
    if bv.size != A.nrows:
        raise ValueError("sinogram does not match operator shape")
    alpha = cfg.alpha
    regularized = kind is not None and alpha > 0

    u = np.zeros(A.ncols)
    au = np.zeros(A.nrows)
    sigma = cfg.sigma
    if cfg.precondition and regularized and sigma is None:
        sigma = estimate_sigma(A, cfg.seed)

    history: list[HistoryRecord] = []
    terminated = False
    for nu in range(cfg.outer_iters):
        if regularized:
            R = build_gradient_matrix(kind, Image(A.spec.grid, u), alpha)
            a_eff = _effective_alpha(kind, alpha)
            grad = A.apply_adjoint(au - bv) + a_eff * (R.matrix @ u)

            def apply_h(v, _r=R.matrix, _a=a_eff):
                return A.apply_adjoint(A.apply(v)) + _a * (_r @ v)

            apply_m = (_factorized_preconditioner(R, a_eff, sigma)
                       if cfg.precondition else None)
        else:
            grad = A.apply_adjoint(au - bv)

            def apply_h(v):
                return A.apply_adjoint(A.apply(v))

            apply_m = None

        collect = None
        if inner_history is not None:
            steps: list[np.ndarray] = []
            collect = steps.append
        s, _ = _cg(apply_h, -grad, cfg.inner_iters, cfg.rho,
                   apply_m=apply_m, collect=collect)
        if inner_history is not None:
            inner_history.append((u.copy(), grad.copy(), steps))
        u = u + s
        _check_finite(u, "fixed_point_reconstruct")
        au = A.apply(u)

        fid = 0.5 * float(np.sum((au - bv) ** 2))
        pen = (penalty_value(kind, Image(A.spec.grid, u), alpha)
               if regularized else 0.0)
        step2 = float(s @ s)
        history.append(HistoryRecord(
            iteration=nu + 1, objective=fid + alpha * pen, fidelity=fid,
            penalty=pen, step_norm2=step2,
            rmse=_relative_rmse(u, ground_truth)))
        if step2 <= cfg.rho:
            terminated = True
            break
    return ReconResult(Image(A.spec.grid, u), history, terminated)


# --- MLEM splitting (Poisson fidelity) ------------------------------------

def mlem_split_reconstruct(A: SparseOperator, b: Sinogram,
                           kind: Penalty | None, cfg: SolverConfig,
                           ground_truth: Image | None = None,
                           masks=None) -> ReconResult:
    """Multiplicative ML-EM step followed by explicit denoising steps
    f <- f - tau ((f - f0) + a R f) against the matrix frozen at the
    post-EM iterate. Starts from all ones; iterates stay nonnegative."""
    bv = b.ravel()
    if bv.size != A.nrows:
        raise ValueError("sinogram does not match operator shape")
    if np.any(bv < 0):
        raise ValueError("Poisson data must be nonnegative")
    alpha = cfg.alpha
    regularized = kind is not None and alpha > 0

    u = np.ones(A.ncols)
    sens = A.apply_adjoint(np.ones(A.nrows))
    dead = sens <= 0.0
    sens_safe = np.where(dead, 1.0, sens)
    floor = 1e-12 * float(np.max(A.apply(u)))
    if floor <= 0.0:
        raise NumericalError("projector maps the unit image to zero")

    history: list[HistoryRecord] = []
    terminated = False
    for nu in range(cfg.outer_iters):
        q = np.maximum(A.apply(u), floor)
        u_half = u / sens_safe * A.apply_adjoint(bv / q)
        u_half[dead] = 0.0
        _check_finite(u_half, "mlem step")

        if regularized:
            R = build_gradient_matrix(kind, Image(A.spec.grid, u_half), alpha)
            a_eff = _effective_alpha(kind, alpha)
            if cfg.tau is not None:
                tau = cfg.tau
            else:
                lam = power_iteration(lambda v: R.matrix @ v, u_half.size,
                                      30, cfg.seed)
                tau = 1.0 / (1.0 + a_eff * lam)
            f = u_half.copy()
            for _ in range(cfg.inner_iters):
                f = f - tau * ((f - u_half) + a_eff * (R.matrix @ f))
            u_new = np.maximum(f, 0.0)
        else:
            u_new = u_half
        _check_finite(u_new, "mlem denoising")

        q_new = np.maximum(A.apply(u_new), floor)
        fid = float(np.sum(q_new - bv * np.log(q_new)))
        pen = (penalty_value(kind, Image(A.spec.grid, u_new), alpha)
               if regularized else 0.0)
        step2 = float(np.sum((u_new - u) ** 2))
        u = u_new
        history.append(HistoryRecord(
            iteration=nu + 1, objective=fid + alpha * pen, fidelity=fid,
            penalty=pen, step_norm2=step2,
            rmse=_relative_rmse(u, ground_truth)))
        if step2 <= cfg.rho:
            terminated = True
            break

    result = ReconResult(Image(A.spec.grid, u), history, terminated)
    if masks and ground_truth is not None:
        from .metrics import rmse as region_rmse
        for mask in masks:
            result.region_rmse[mask.label] = region_rmse(
                result.image, ground_truth, mask)
    return result


# --- regularization-error bound diagnostic --------------------------------

@dataclass
class ErrorBoundReport:
    trials: int
    n: int
    alphas: tuple[float, ...]
    violations: int
    max_lhs: float
    min_slack: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def verify_error_bound(trials: int, n: int, seed: int,
                       alphas: tuple[float, ...] = (1e-3, 1e-1, 1.0)
                       ) -> ErrorBoundReport:
    """Random dense trials of |R h_a| <= a |R M^-1 N u_hat| where
    M = A'A, N = R'R and h_a is the shift the quadratic penalty induces
    on the normal-equation solution."""
    if n > 64:
        raise ValueError("n must be <= 64 (dense desk-scale diagnostic)")
    rng = np.random.default_rng(seed)
    tol = 1e-10
    violations = 0
    max_lhs = 0.0
    min_slack = np.inf
    done = 0
    while done < trials:
        svals = rng.uniform(0.1, 1.0, size=n)
        qu, _ = np.linalg.qr(rng.standard_normal((n, n)))
        qv, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a_mat = qu @ np.diag(svals) @ qv.T
        bmat = rng.standard_normal((n, n))
        pert = bmat @ bmat.T
        r_mat = np.eye(n) + 0.1 * pert / np.linalg.norm(pert, 2)
        bvec = rng.standard_normal(n)

        m = a_mat.T @ a_mat
        nmat = r_mat.T @ r_mat
        try:
            u_hat = np.linalg.solve(m, a_mat.T @ bvec)
        except np.linalg.LinAlgError:
            continue  # singular M: regenerate
        rhs_ref = r_mat @ np.linalg.solve(m, nmat @ u_hat)
        for alpha in alphas:
            u_alpha = np.linalg.solve(m + alpha * nmat, a_mat.T @ bvec)
            lhs = float(np.linalg.norm(r_mat @ (u_alpha - u_hat)))
            rhs = alpha * float(np.linalg.norm(rhs_ref))
            slack = rhs + tol - lhs
            max_lhs = max(max_lhs, lhs)
            min_slack = min(min_slack, slack)
            if slack < 0.0:
                violations += 1
        done += 1
    return ErrorBoundReport(trials, n, tuple(alphas), violations,
                            max_lhs, float(min_slack))
