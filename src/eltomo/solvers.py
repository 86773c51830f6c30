"""Reconstruction solvers.

* cgls: conjugate-gradient least squares baseline (no penalty).
* fixed_point_reconstruct: outer fixed-point iterations that freeze the
  penalty diagonals, take inner_iters preconditioned CG steps on the
  quadratic step equation (A'A + R) s = -g, and re-freeze. Every solve
  is preconditioned, alpha = 0 included: there R = 0 and M^-1 is the
  scalar 1 / sigma^2. Inner CG stops early only on breakdown. Its
  products A p and A'A p also give A s and A'A s, so the residual
  Au - b and the gradient A'(Au - b) are carried from one iterate to
  the next: an outer iteration makes inner_iters A/A' pairs, and a run
  one more A', of b. R, built at u = 0 and after each step, gives the
  history its penalty and the next step its matrix: iters + 1 builds.
* mlem_split_reconstruct: multiplicative ML-EM update for Poisson data
  (em_update, whose fixed point ``eltomo verify`` checks) followed by a
  few explicit denoising steps against the frozen penalty matrix. Each
  iterate is forward-projected once: the projection that gives its
  fidelity also feeds the next EM update. Its step s is the
  change of the iterate.
* mlem_batch: the same ML-EM loop for a batch of runs that share the
  projector (a sweep's runs), each with its own data, penalty and
  config. The runs advance in lockstep: one block product (an (n, k)
  block, see the projector) per EM half-step serves every run still
  going, and each column is bit-identical to the run's own product.
  Denoising, the step bound, the record and the stop stay per run; a
  run leaves the batch when it stops or raises NumericalError.
  mlem_split_reconstruct is the batch of one.
* verify_error_bound: dense random trials of the regularization-error
  inequality |R h_a| <= a |R M^-1 N u|.

Every run records its history and stops by one rule, _Record: after
the first iterate with |s|^2 <= rho (cgls passes -inf) or after its
iteration limit. terminated_early is True after that stop, even on the
last allowed iteration, or after a cgls breakdown (a zero search
direction); otherwise False. cgls and fixed_point_reconstruct are
generators of (u, fidelity, penalty, |s|^2), one item per outer
iteration, that _run records; mlem_batch keeps one _Record per run.

R is the penalty matrix alpha R(u) of the regularizers module, with the
weight alpha in its diagonals, and the history's penalty is the
weighted penalty value at the recorded iterate, so each record's
objective is fidelity + penalty.

The preconditioner of every fixed-point solve approximates
H = sigma^2 I + R, R = sum_t D_t' diag(w_t) D_t, by M^-1 = S C^-1 S.
C = sigma^2 I + sum_t median(w_t) D_t'D_t has constant coefficients,
and the 2-D DCT-II diagonalizes each Neumann stencil product D_t'D_t
(Strang, SIAM Review 41(1), 1999), so one dctn/idctn pair inverts it
exactly. S = diag(sqrt(diag(C) / diag(H))) corrects for the varying
coefficients, as in cosine-transform preconditioners for TV (Chan, Chan
& Wong, IEEE TIP 8(10), 1999). With constant diagonals M^-1 = H^-1.
sigma, the largest singular value of the projector, is computed once
per operator; the stencils' eigenvalues and diagonals once per grid.

Every solver is a deterministic function of its inputs. Both power
iterations start at the all-ones vector. The preconditioner's sigma
reads the Rayleigh quotient of 10 steps on A'A, a lower bound on
sigma^2. ML-EM's denoising step tau = 1 / (1 + lambda) reads the
Collatz-Wielandt bound of 4 steps on |R|, an upper bound on lambda, the
largest eigenvalue of R, that is at most the Gershgorin bound. So tau
never exceeds 1 / (1 + lambda(R)), and the linear part
I - tau (I + R) of a denoising step has eigenvalues in [0, 1).
Only verify_error_bound draws random numbers, from its own seed.

Every dot product and norm of the solvers, and of the error metrics,
goes through ``dot``, which sums in numpy's own fixed order instead of
calling BLAS. A threaded BLAS splits a long dot product across its
threads and adds the parts in an order that depends on their count, so
through BLAS the results would change with BLAS's thread setting. Only
verify_error_bound, a dense desk-scale diagnostic, uses LAPACK.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse as sp

from .grids import GridSpec, Image, Sinogram
from .projector import SparseOperator
from .regularizers import Penalty, RegularizerMatrix, build_gradient_matrix, penalty_value


class NumericalError(RuntimeError):
    """Solver produced a non-finite iterate or broke down."""


@dataclass(frozen=True)
class SolverConfig:
    outer_iters: int = 80
    inner_iters: int = 5
    rho: float = 1e-4
    alpha: float = 0.0

    def __post_init__(self):
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if not self.rho > 0:
            raise ValueError("rho must be positive")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and nonnegative")


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


def history_csv(result: ReconResult) -> str:
    lines = ["iter,objective,fidelity,penalty,step_norm2,rmse"]
    for h in result.history:
        rmse = "" if h.rmse is None else f"{h.rmse:.17g}"
        lines.append(f"{h.iteration},{h.objective:.17g},{h.fidelity:.17g},"
                     f"{h.penalty:.17g},{h.step_norm2:.17g},{rmse}")
    return "\n".join(lines) + "\n"


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of two 1-D arrays, summed in an order that depends only on
    their length (numpy's own loop; BLAS's depends on its thread count)."""
    return float(np.einsum("i,i", a, b))


def norm(a: np.ndarray) -> float:
    """The l2 norm of a 1-D array, as ``dot`` sums it."""
    return math.sqrt(dot(a, a))


def _check_finite(u: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"non-finite iterate in {where}")


def power_iteration(apply_op, n: int,
                    iters: int) -> tuple[np.ndarray, np.ndarray]:
    """The last pair (v, w = op v) of ``iters`` (at least 1) power steps
    started at the all-ones vector, v normalized to unit length.

    The operator must be entrywise nonnegative (such as A'A for a
    nonnegative A, or |R| for a penalty matrix R): its Perron vector is
    then nonnegative and cannot be orthogonal to the start. R itself
    does not qualify: it annihilates the ones vector. Callers read
    dot(v, w), the Rayleigh quotient, a lower bound on the largest
    eigenvalue of a symmetric operator, or max(w / v), an upper bound
    while v stays positive (see penalty_eigenvalue).
    """
    v = np.full(n, 1.0 / np.sqrt(n))
    w = apply_op(v)
    for _ in range(iters - 1):
        scale = norm(w)
        if scale == 0.0:
            break
        v = w / scale
        w = apply_op(v)
    return v, w


def estimate_sigma(A: SparseOperator, iters: int = 10) -> float:
    """Largest singular value of A, from the Rayleigh quotient of a power
    iteration on A'A (A is entrywise nonnegative, PSF included)."""
    v, w = power_iteration(lambda x: A.apply_adjoint(A.apply(x)),
                           A.ncols, iters)
    return float(np.sqrt(max(dot(v, w), 0.0)))


# sigma depends only on the operator, which is not modified after
# construction; weak keys let each operator be freed as usual. The lock
# makes runs that start together on two threads compute it once.
_SIGMAS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_SIGMAS_LOCK = threading.Lock()


def _operator_sigma(A: SparseOperator) -> float:
    """estimate_sigma(A), computed once per operator."""
    with _SIGMAS_LOCK:
        sigma = _SIGMAS.get(A)
        if sigma is None:
            sigma = _SIGMAS[A] = estimate_sigma(A)
    return sigma


# power steps behind penalty_eigenvalue's bound
_BOUND_STEPS = 4


def penalty_eigenvalue(m: sp.dia_matrix) -> float:
    """A guaranteed upper bound on the largest eigenvalue of a penalty
    matrix m: the Collatz-Wielandt bound max_i (|m| v)_i / v_i at the
    last vector v of _BOUND_STEPS power steps on |m| (Horn & Johnson,
    Matrix Analysis, 2nd ed., Thm 8.1.26).

    For every positive v that maximum bounds the spectral radius of the
    nonnegative |m| from above, and each further power step can only
    lower it. After one step from the ones vector it is the Gershgorin
    bound max_i sum_j |m_ij| (ibid., 6.1). |m| has a positive diagonal,
    so v stays positive. For the tv, tvl2 and el stencils |m| is m with
    the sign of every other pixel flipped in a checkerboard (D m D,
    D = diag(+-1)), so the two share their spectrum."""
    absm = abs(m)
    v, w = power_iteration(lambda x: absm @ x, m.shape[0], _BOUND_STEPS)
    return float(np.max(w / v))


# --- the history and stop rule every run shares --------------------------

class _Record:
    """One run's history and stop rule: each iterate is recorded with the
    error |u - truth| / |truth| (None without a truth, inf or nan for a
    zero one), and the run is over after the first with step_norm2 <=
    rho or after ``iters`` of them."""

    def __init__(self, grid: GridSpec, u0: np.ndarray, iters: int,
                 rho: float, ground_truth: Image | None):
        self.grid, self.u, self.iters, self.rho = grid, u0, iters, rho
        self.truth = None if ground_truth is None else ground_truth.ravel()
        self.scale = (None if self.truth is None
                      else np.float64(norm(self.truth)))
        self.history: list[HistoryRecord] = []
        self.stopped = False

    def add(self, u: np.ndarray, fid: float, pen: float,
            step2: float) -> bool:
        """Record one iterate; True once the run is over."""
        err = (None if self.truth is None
               else float(norm(u - self.truth) / self.scale))
        self.u = u
        self.history.append(HistoryRecord(len(self.history) + 1, fid + pen,
                                          fid, pen, step2, err))
        self.stopped = step2 <= self.rho
        return self.stopped or len(self.history) == self.iters

    def result(self) -> ReconResult:
        """The last iterate (u0 if none) and the history; the run ended
        early on the stop, or if it recorded fewer than ``iters``."""
        return ReconResult(Image(self.grid, self.u), self.history,
                           self.stopped or len(self.history) < self.iters)


def _run(grid: GridSpec, u0: np.ndarray, steps, iters: int, rho: float,
         ground_truth: Image | None) -> ReconResult:
    """Record the (u, fidelity, penalty, step_norm2) items of ``steps``
    until the run is over (_Record); no item is asked for after that.
    A run whose ``steps`` runs out first (a cgls breakdown) ends early."""
    record = _Record(grid, u0, iters, rho, ground_truth)
    for item in steps:
        if record.add(*item):
            break
    return record.result()


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

    def steps(x):
        r = bv.copy()
        s = A.apply_adjoint(r)
        p = s.copy()
        gamma = dot(s, s)
        while True:
            q = A.apply(p)
            delta = dot(q, q)
            if delta <= 0.0:
                return
            a = gamma / delta
            x += a * p
            r -= a * q
            _check_finite(x, "cgls")
            s = A.apply_adjoint(r)
            gamma_new = dot(s, s)
            yield x, 0.5 * dot(r, r), 0.0, a * a * dot(p, p)
            p = s + (gamma_new / gamma) * p
            gamma = gamma_new

    return _run(A.spec.grid, x, steps(x), iters, -math.inf, ground_truth)


# --- inner CG ------------------------------------------------------------

def _cg(A: SparseOperator, R: sp.dia_matrix, rhs: np.ndarray, max_iters: int,
        apply_m) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """max_iters CG steps on the SPD system (A'A + R) s = rhs from s = 0
    with the preconditioner apply_m; fewer only on breakdown (p'Hp <= 0).
    Returns s, the step count, A s and A'A s, summed from the products
    A p and A'A p that each step makes anyway."""
    s = np.zeros_like(rhs)
    a_s = np.zeros(A.nrows)
    ata_s = np.zeros_like(rhs)
    r = rhs.copy()
    z = apply_m(r)
    p = z.copy()
    rz = dot(r, z)
    iters = 0
    while iters < max_iters:
        ap = A.apply(p)
        atap = A.apply_adjoint(ap)
        hp = atap + R @ p
        php = dot(p, hp)
        if php <= 0.0:
            break
        a = rz / php
        s += a * p
        a_s += a * ap
        ata_s += a * atap
        iters += 1
        if iters == max_iters:
            break  # the next residual would not be read
        r -= a * hp
        z = apply_m(r)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return s, iters, a_s, ata_s


@functools.lru_cache(maxsize=None)
def _stencil_spectrum(grid: GridSpec, name: str):
    """DCT-II eigenvalues and diagonal of D'D for the stencil D `name`
    (dx, dy, lx or ly of regularizers), shaped to broadcast over
    (ny, nx) images.

    Along its axis, dx'dx is the Neumann Laplacian T, with eigenvalues
    4 sin^2(pi k / 2n) / h^2 and diagonal d = (1, 2, ..., 2, 1) / h^2.
    The second difference is -T, so lx'lx = T^2: its eigenvalues are
    squared, and row i of T holds d_i h^2 off-diagonal entries -1/h^2,
    so its diagonal is d^2 + d / h^2.
    """
    along_x = name in ("dx", "lx")
    n, h = (grid.nx, grid.hx) if along_x else (grid.ny, grid.hy)
    lam = (2.0 * np.sin(np.pi * np.arange(n) / (2 * n)) / h) ** 2
    diag = np.full(n, 2.0 / h ** 2)
    diag[[0, -1]] = 1.0 / h ** 2
    if name in ("lx", "ly"):
        lam, diag = lam ** 2, diag ** 2 + diag / h ** 2
    shape = (1, n) if along_x else (n, 1)
    lam, diag = lam.reshape(shape), diag.reshape(shape)
    lam.flags.writeable = diag.flags.writeable = False
    return lam, diag


def _factorized_preconditioner(R: RegularizerMatrix, sigma: float,
                               grid: GridSpec):
    """v -> S C^-1 S v, an SPD approximation of (sigma^2 I + R)^-1 (see
    the module docstring). The orthonormal DCT Q factorizes
    C = Q' diag(eig) Q, so C^-1 is one dctn/idctn pair."""
    shape = (grid.ny, grid.nx)
    eig = np.full(shape, sigma ** 2)  # of C
    diag_c = np.full(shape, sigma ** 2)
    for name, w in zip(R.stencils, R.weights):
        lam, diag = _stencil_spectrum(grid, name)
        coef = float(np.median(w))
        eig += coef * lam
        diag_c += coef * diag
    diag_h = sigma ** 2 + R.matrix.diagonal().reshape(shape)
    scale = np.sqrt(diag_c / diag_h)

    def solve(v: np.ndarray) -> np.ndarray:
        x = scipy.fft.dctn(scale * v.reshape(shape), norm="ortho")
        x = scipy.fft.idctn(x / eig, norm="ortho", overwrite_x=True)
        return (scale * x).ravel()
    return solve


# --- fixed-point solver (least-squares fidelity) --------------------------

def fixed_point_reconstruct(A: SparseOperator, b: Sinogram, kind: Penalty,
                            cfg: SolverConfig,
                            ground_truth: Image | None = None) -> ReconResult:
    """Outer iterations freeze the penalty diagonals at the current
    iterate, then preconditioned CG approximately solves (A'A + R) s =
    -g. At alpha = 0, R = 0 and the preconditioner is the scalar
    1 / sigma^2: Gauss-Newton on the data term."""
    bv = b.ravel()
    if bv.size != A.nrows:
        raise ValueError("sinogram does not match operator shape")
    grid = A.spec.grid
    alpha = cfg.alpha
    sigma = _operator_sigma(A)
    u = np.zeros(A.ncols)

    def steps(u, res, grad_fid):
        # carried: res = Au - b (-b at u = 0), grad_fid = A'res and R(u)
        R = build_gradient_matrix(kind, Image(grid, u), alpha)
        while True:
            apply_m = _factorized_preconditioner(R, sigma, grid)
            s, _, a_s, ata_s = _cg(A, R.matrix, -(grad_fid + R.matrix @ u),
                                   cfg.inner_iters, apply_m)
            u = u + s
            _check_finite(u, "fixed_point_reconstruct")
            res += a_s
            grad_fid += ata_s
            del R  # the step is taken: free it before assembling the next
            R = build_gradient_matrix(kind, Image(grid, u), alpha)
            yield u, 0.5 * dot(res, res), R.value, dot(s, s)

    return _run(grid, u, steps(u, -bv, A.apply_adjoint(-bv)),
                cfg.outer_iters, cfg.rho, ground_truth)


# --- MLEM splitting (Poisson fidelity) ------------------------------------

def em_update(A: SparseOperator, b: np.ndarray):
    """(update, floor, q1) of the unregularized ML-EM update for data b:
    update(u, q) = u A'(b / q) / s with s = A'1 and q = max(Au, floor),
    floor = 1e-12 max(A1), is 0 on pixels no ray sees (s = 0); q1 is q
    of the all-ones image.

    b may also be an (nrows, k) block of k runs' data, and then u and q
    are (n, k) blocks with a column per run: one block product serves
    them all. ``update(u, q, b=...)`` takes other data of u's shape,
    such as the columns of the runs that are still going."""
    sens = A.apply_adjoint(np.ones(A.nrows))
    dead = sens <= 0.0
    sens_safe = np.where(dead, 1.0, sens)
    q1 = A.apply(np.ones(A.ncols))
    floor = 1e-12 * float(np.max(q1))
    if floor <= 0.0:
        raise NumericalError("projector maps the unit image to zero")

    def update(u, q, b=b):
        s = sens_safe.reshape(sens_safe.shape + (1,) * (u.ndim - 1))
        u_half = u / s * A.apply_adjoint(b / q)
        u_half[dead] = 0.0
        return u_half

    return update, floor, np.maximum(q1, floor)


@dataclass(frozen=True)
class MlemRun:
    """One run of an ML-EM batch: its Poisson data, penalty (None for
    plain ML-EM), configuration and optional ground truth."""
    b: Sinogram
    kind: Penalty | None
    cfg: SolverConfig
    ground_truth: Image | None = None


def _columns(vectors: list[np.ndarray]) -> np.ndarray:
    """The vectors as the columns of one block."""
    return np.stack(vectors, axis=1)


def _rows(block: np.ndarray) -> np.ndarray:
    """The columns of a block as contiguous rows, so every later
    elementwise pass and sum runs on contiguous memory as it would on a
    run's own vector."""
    return block.T.copy()


def _regularized(run: MlemRun) -> bool:
    return run.kind is not None and run.cfg.alpha > 0


def _denoise(run: MlemRun, grid: GridSpec, u_half: np.ndarray) -> np.ndarray:
    """The explicit denoising steps of one run's iteration, against the
    penalty matrix frozen at the post-EM iterate u_half."""
    _check_finite(u_half, "mlem step")
    if not _regularized(run):
        return u_half
    R = build_gradient_matrix(run.kind, Image(grid, u_half), run.cfg.alpha)
    tau = 1.0 / (1.0 + penalty_eigenvalue(R.matrix))
    f = u_half.copy()
    for _ in range(run.cfg.inner_iters):
        f = f - tau * ((f - u_half) + R.matrix @ f)
    u_new = np.maximum(f, 0.0)
    _check_finite(u_new, "mlem denoising")
    return u_new


def mlem_batch(A: SparseOperator,
               runs: list[MlemRun]) -> list[ReconResult | NumericalError]:
    """ML-EM runs that share the projector, advanced in lockstep: each
    run's ReconResult, or the NumericalError it raised.

    Every outer iteration makes one EM update (em_update, A'1 and A1
    computed once for the batch) and one forward projection for all
    runs still going, each as a single block product, and in between
    each run's own denoising steps against its penalty matrix. A run
    leaves the batch when it stops (_Record) or raises NumericalError;
    the others go on. Each column of a block product is bit-identical
    to a run's own product, so every run's image and history are those
    it has alone."""
    if not runs:
        return []
    data = []
    for run in runs:
        bv = run.b.ravel()
        if bv.size != A.nrows:
            raise ValueError("sinogram does not match operator shape")
        if np.any(bv < 0):
            raise ValueError("Poisson data must be nonnegative")
        data.append(bv)
    b_live = _columns(data)
    try:
        update, floor, q1 = em_update(A, b_live)
    except NumericalError as exc:
        return [exc] * len(runs)
    grid = A.spec.grid
    records = [_Record(grid, np.ones(A.ncols), run.cfg.outer_iters,
                       run.cfg.rho, run.ground_truth) for run in runs]
    outcomes: list[ReconResult | NumericalError | None] = [None] * len(runs)
    us = [record.u for record in records]
    # each run's floored projection of u, carried over from the fidelity
    # of the previous iteration
    qs = [q1] * len(runs)
    live = list(range(len(runs)))
    while live:
        halves = _rows(update(_columns([us[i] for i in live]),
                              _columns([qs[i] for i in live]), b=b_live))
        denoised = []
        for i, u_half in zip(live, halves):
            try:
                denoised.append((i, _denoise(runs[i], grid, u_half)))
            except NumericalError as exc:
                outcomes[i] = exc
        projections = (_rows(A.apply(_columns([u for _, u in denoised])))
                       if denoised else ())
        for (i, u_new), y in zip(denoised, projections):
            run = runs[i]
            q = np.maximum(y, floor)
            fid = float(np.sum(q - data[i] * np.log(q)))
            pen = (penalty_value(run.kind, Image(grid, u_new), run.cfg.alpha)
                   if _regularized(run) else 0.0)
            step2 = float(np.sum((u_new - us[i]) ** 2))
            us[i], qs[i] = u_new, q
            if records[i].add(u_new, fid, pen, step2):
                outcomes[i] = records[i].result()
        going = [i for i in live if outcomes[i] is None]
        if going and going != live:
            b_live = _columns([data[i] for i in going])
        live = going
    return outcomes


def mlem_split_reconstruct(A: SparseOperator, b: Sinogram,
                           kind: Penalty | None, cfg: SolverConfig,
                           ground_truth: Image | None = None) -> ReconResult:
    """Multiplicative ML-EM step followed by explicit denoising steps
    f <- f - tau ((f - f0) + R f) against the matrix frozen at the
    post-EM iterate. Starts from all ones; iterates stay nonnegative.
    The batch of one run (mlem_batch)."""
    (outcome,) = mlem_batch(A, [MlemRun(b, kind, cfg, ground_truth)])
    if isinstance(outcome, NumericalError):
        raise outcome
    return outcome


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
