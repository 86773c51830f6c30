import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.ndimage import gaussian_filter

from eltomo import (GridSpec, Image, build_gradient_matrix,
                    compute_el_weights, el, penalty_value, tikhonov, tv,
                    tv_l2)
from eltomo import regularizers
from eltomo.regularizers import (_EPS_REL, _GAMMA_REL, Penalty, _amplitude,
                                 _grad_mag2, frozen_quadratic)

ALL_KINDS = (tikhonov(), tv(), tv_l2(mu=0.5), el())


def _smooth_image(rng, n=32, offset=0.1):
    grid = GridSpec(n, n)
    return Image(grid, gaussian_filter(rng.standard_normal((n, n)), 2.0)
                 + offset)


def test_constant_image_weights_are_one():
    img = Image(GridSpec(16, 16), np.full(256, 3.2))
    w = compute_el_weights(img, beta=0.03)
    assert np.all(w.wx == 1.0) and np.all(w.wy == 1.0)


def test_weight_half_at_engineered_slope():
    # a pixel whose scaled derivative is 1/sqrt(beta) gets weight 1/2
    beta = 0.03
    n = 32
    grid = GridSpec(n, n)
    vals = np.zeros((n, n))
    vals[0, 20] = 10.0  # sets umax
    ax = 2.0 * 10.0 / grid.dx
    vals[5, 3] = (ax / np.sqrt(beta)) * grid.hx  # forward diff at (5, 2)
    w = compute_el_weights(Image(grid, vals), beta)
    assert_allclose(w.wx[5, 2], 0.5, rtol=1e-12)


def test_weights_scale_invariant(rng):
    img = _smooth_image(rng)
    w0 = compute_el_weights(img, 0.03)
    for c in (0.1, 3.0, 100.0):
        wc = compute_el_weights(Image(img.grid, img.values * c), 0.03)
        assert_allclose(wc.wx, w0.wx, rtol=0, atol=1e-12)
        assert_allclose(wc.wy, w0.wy, rtol=0, atol=1e-12)


def test_weights_in_unit_interval(rng):
    img = _smooth_image(rng)
    w = compute_el_weights(img, 0.5)
    for arr in (w.wx, w.wy):
        assert np.all(arr > 0.0) and np.all(arr <= 1.0)


def test_zero_image_weights_default_to_one():
    img = Image(GridSpec(8, 8), np.zeros(64))
    w = compute_el_weights(img, 0.03)
    assert np.all(w.wx == 1.0) and np.all(w.wy == 1.0)


def test_tikhonov_matrix_is_identity(rng):
    img = _smooth_image(rng)
    R = build_gradient_matrix(tikhonov(), img, alpha=1.0)
    v = rng.standard_normal(img.grid.npixels)
    assert_allclose(R.matrix @ v, v, rtol=0, atol=0)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
def test_matrices_symmetric_and_psd(kind, rng):
    img = _smooth_image(rng)
    R = build_gradient_matrix(kind, img, alpha=1.0)
    m = R.matrix
    scale = np.abs(m.data).max()
    asym = abs(m - m.T)
    assert (asym.data.max() if asym.nnz else 0.0) <= 1e-12 * scale
    for _ in range(5):
        v = rng.standard_normal(img.grid.npixels)
        assert float(v @ (m @ v)) >= -1e-12 * float(v @ v) * scale


@pytest.mark.parametrize("kind", [tv(), tv_l2(mu=0.5), el()],
                         ids=lambda k: k.kind)
def test_difference_matrices_annihilate_constants(kind, rng):
    img = _smooth_image(rng)
    R = build_gradient_matrix(kind, img, alpha=1.0)
    ones = np.ones(img.grid.npixels)
    scale = np.abs(R.matrix.data).max()
    assert np.abs(R.matrix @ ones).max() <= 1e-12 * scale


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
def test_matvec_matches_frozen_functional_gradient(kind, rng):
    # oracle: central finite differences of the frozen quadratic,
    # evaluated with numpy stencils independent of the sparse matrices
    img = _smooth_image(rng)
    R = build_gradient_matrix(kind, img, alpha=1.0)
    q = frozen_quadratic(kind, img, alpha=1.0)
    v = rng.standard_normal(img.grid.npixels)
    g = R.matrix @ v
    delta = 1e-6 * np.abs(v).max()
    candidates = np.flatnonzero(np.abs(g) >= 0.1 * np.abs(g).max())
    for j in rng.choice(candidates, 20, replace=False):
        e = np.zeros(img.grid.npixels)
        e[j] = delta
        fd = (q(v + e) - q(v - e)) / (2.0 * delta)
        assert abs(fd - g[j]) / abs(g[j]) <= 1e-5


def test_el_matrix_scale_invariant(rng):
    img = _smooth_image(rng)
    r1 = build_gradient_matrix(el(), img, alpha=1.0).matrix
    r2 = build_gradient_matrix(el(), Image(img.grid, img.values * 7.0),
                               alpha=1.0).matrix
    diff = abs(r1 - r2)
    assert (diff.data.max() if diff.nnz else 0.0) <= 1e-12 * np.abs(r1.data).max()


def test_penalty_values_on_constant_image():
    n = 16
    img = Image(GridSpec(n, n), np.full(n * n, 2.0))
    assert penalty_value(el(), img, alpha=1.0) == 0.0
    # smoothed TV of a constant is N * eps with eps = eps_rel * umax
    expected = n * n * _EPS_REL * 2.0
    assert_allclose(penalty_value(tv(), img, alpha=1.0), expected,
                    rtol=1e-12)


def test_tikhonov_penalty_of_unit_norm_image(rng):
    v = rng.standard_normal(64)
    v /= np.linalg.norm(v)
    img = Image(GridSpec(8, 8), v)
    # (alpha/2) |u|^2, whose gradient is the matrix alpha I applied to u
    assert_allclose(penalty_value(tikhonov(), img, alpha=1.0), 0.5,
                    rtol=1e-12)


def test_el_penalty_prefers_edge_over_oscillation():
    # a zigzag rising and falling by the full range every pixel carries
    # the same per-pixel slope as the step edge, so the weights match;
    # the step concentrates curvature in two pixels while the zigzag
    # pays everywhere, so the single edge is strictly cheaper
    n = 16
    grid = GridSpec(n, n)
    zigzag = Image(grid, np.tile((np.arange(n) % 2).astype(float), (n, 1)))
    step = Image(grid, np.tile((np.arange(n) >= n // 2).astype(float), (n, 1)))
    assert (penalty_value(el(), step, alpha=1.0)
            < penalty_value(el(), zigzag, alpha=1.0))


@pytest.mark.parametrize("kind,alpha", [
    (tikhonov(), 0.3), (el(), 0.3), (tv_l2(mu=0.5), 0.0)],
    ids=["tikhonov", "el", "tvl2-alpha0"])
def test_quadratic_penalty_value_is_half_the_frozen_form(kind, alpha, rng):
    # where the penalty is quadratic once its diagonals are frozen at u,
    # its value at u is 0.5 u' (alpha R(u)) u, the functional the
    # solvers descend
    img = _smooth_image(rng)
    m = build_gradient_matrix(kind, img, alpha=alpha).matrix
    u = img.ravel()
    assert_allclose(penalty_value(kind, img, alpha=alpha),
                    0.5 * float(u @ (m @ u)), rtol=1e-12)


def test_penalty_validation():
    with pytest.raises(ValueError):
        Penalty("unknown")
    for beta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="beta"):
            Penalty("el", beta=beta)
    for mu in (-0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="mu"):
            Penalty("tvl2", mu=mu)


# --- the difference stencils as sparse matrices, the reference the
# assembled penalty matrices are checked against ---------------------------

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


def _triple_product(kind, u, alpha):
    """Oracle: the penalty matrix alpha R(u) as a sum of sparse triple
    products D' diag(w) D over the difference stencils."""
    g = u.grid
    ops = {name: _stencil(g, name) for name in ("dx", "dy", "lx", "ly")}

    def term(name, w):
        d = ops[name]
        return d.T @ (sp.diags(w.ravel()) @ d)

    if kind.kind == "tv":
        eps = _EPS_REL * _amplitude(u.values)
        phi = alpha / np.sqrt(_grad_mag2(u) + eps ** 2)
        m = term("dx", phi) + term("dy", phi)
    elif kind.kind == "tvl2":
        umax = _amplitude(u.values)
        eps = _EPS_REL * umax
        gamma = _GAMMA_REL * umax ** 2
        mag2 = _grad_mag2(u)
        psi = alpha / np.sqrt(mag2 + eps ** 2)
        ups = 2.0 * kind.mu / (mag2 + gamma) ** 1.5
        m = (term("dx", psi) + term("dy", psi)
             + term("lx", ups) + term("ly", ups))
    else:
        w = compute_el_weights(u, kind.beta)
        m = term("lx", alpha * w.wx ** 2) + term("ly", alpha * w.wy ** 2)
    return m.tocsr().sorted_indices()


@pytest.mark.parametrize("grid", [GridSpec(32, 32), GridSpec(12, 7)],
                         ids=["32x32", "12x7"])
@pytest.mark.parametrize("kind,alpha", [
    (tv(), 0.3), (tv_l2(mu=0.5), 0.3), (el(), 0.3),
    (tv_l2(mu=1.0), 0.0),  # the curvature part probed by mu_scale_heuristic
], ids=["tv", "tvl2", "el", "tvl2-alpha0"])
def test_fixed_pattern_fill_matches_triple_product(grid, kind, alpha, rng):
    img = Image(grid, gaussian_filter(
        rng.standard_normal((grid.ny, grid.nx)), 2.0) + 0.1)
    m = build_gradient_matrix(kind, img, alpha=alpha).matrix.tocsr()
    oracle = _triple_product(kind, img, alpha)
    assert m.has_canonical_format
    assert np.array_equal(m.indptr, oracle.indptr)
    assert np.array_equal(m.indices, oracle.indices)
    assert np.all(np.abs(m.data - oracle.data) <= 1e-15 * np.abs(oracle.data))
    assert (m != m.T).nnz == 0


def _fill_oracle(grid, names):
    """The fill map as built before: every stencil row's pairs, the
    pattern from np.unique over their flat (i, j) keys, and the map from
    coordinate form."""
    n = grid.npixels
    ii, jj, cols, coefs = [], [], [], []
    for t, name in enumerate(names):
        d = _stencil(grid, name)
        lens = np.diff(d.indptr)
        row = np.repeat(np.arange(d.shape[0]), lens)
        reps = lens[row]
        first = np.repeat(np.arange(d.nnz), reps)
        offset = np.arange(first.size) - np.repeat(np.cumsum(reps) - reps,
                                                   reps)
        second = d.indptr[row[first]] + offset
        ii.append(d.indices[first])
        jj.append(d.indices[second])
        cols.append(row[first] + t * n)
        coefs.append(d.data[first] * d.data[second])
    flat = np.concatenate(ii).astype(np.int64) * n + np.concatenate(jj)
    pattern, position = np.unique(flat, return_inverse=True)
    fill = sp.csc_matrix((np.concatenate(coefs),
                          (position, np.concatenate(cols))),
                         shape=(pattern.size, len(names) * n))
    indices = (pattern % n).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(pattern // n, minlength=n), out=indptr[1:])
    return fill, indices, indptr


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grid", [GridSpec(250, 250), GridSpec(32, 32),
                                  GridSpec(12, 7)],
                         ids=["250x250", "32x32", "12x7"])
@pytest.mark.parametrize("names", [("dx", "dy"), ("lx", "ly"),
                                   ("dx", "dy", "lx", "ly")],
                         ids=["tv", "el", "tvl2"])
def test_fill_map_is_bytewise_the_unique_construction(grid, names, rng):
    # the assembled matrix holds the fill map's pattern and values,
    # summed in its order, byte for byte
    fill, indices, indptr = _fill_oracle(grid, names)
    w = rng.random(fill.shape[1])
    got = regularizers._assemble(grid, names,
                                 tuple(np.split(w, len(names)))).tocsr()
    for a, b in ((got.indptr, indptr), (got.indices, indices),
                 (got.data, fill @ w)):
        assert _same_bytes(a, b)
