"""Analytic phantoms built from simple primitives.

Primitive coordinates live in the unit square and are stretched to the
grid's physical extent, so the same descriptor can be evaluated on any
resolution (the basis of the dual-grid simulation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GridSpec, Image, RegionMask


@dataclass(frozen=True)
class Gaussian:
    cx: float
    cy: float
    sigma: float
    amplitude: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("gaussian sigma must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")


@dataclass(frozen=True)
class Paraboloid:
    """Profile a * max(0, 1 - ((x-cx)^2 + (y-cy)^2) / r^2)."""

    cx: float
    cy: float
    radius: float
    amplitude: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("paraboloid radius must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")


@dataclass(frozen=True)
class Rectangle:
    x0: float
    y0: float
    wx: float
    wy: float
    amplitude: float

    def __post_init__(self):
        if self.wx <= 0 or self.wy <= 0:
            raise ValueError("rectangle extents must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")


Primitive = Gaussian | Paraboloid | Rectangle


@dataclass(frozen=True)
class PhantomDescriptor:
    primitives: tuple[Primitive, ...]

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        for p in self.primitives:
            if not isinstance(p, (Gaussian, Paraboloid, Rectangle)):
                raise TypeError(f"unknown primitive {type(p).__name__}")


def evaluate_descriptor(desc: PhantomDescriptor,
                        x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum of primitive profiles at unit-square coordinates (x, y)."""
    out = np.zeros(np.broadcast(x, y).shape)
    for p in desc.primitives:
        if isinstance(p, Gaussian):
            r2 = (x - p.cx) ** 2 + (y - p.cy) ** 2
            out += p.amplitude * np.exp(-r2 / (2.0 * p.sigma ** 2))
        elif isinstance(p, Paraboloid):
            r2 = (x - p.cx) ** 2 + (y - p.cy) ** 2
            out += p.amplitude * np.maximum(0.0, 1.0 - r2 / p.radius ** 2)
        else:
            inside = ((x >= p.x0) & (x <= p.x0 + p.wx)
                      & (y >= p.y0) & (y <= p.y0 + p.wy))
            out += p.amplitude * inside
    return out


def default_ct_descriptor() -> PhantomDescriptor:
    """Smooth-plus-piecewise-constant test object: one rectangle, two
    gaussian bumps and two cone-like paraboloids."""
    return PhantomDescriptor((
        Rectangle(0.14, 0.60, 0.22, 0.26, 1.0),
        Gaussian(0.30, 0.30, 0.05, 0.9),
        Gaussian(0.68, 0.78, 0.10, 0.7),
        Paraboloid(0.72, 0.34, 0.14, 1.0),
        Paraboloid(0.44, 0.52, 0.24, 0.6),
    ))


def generate_ct_phantom(desc: PhantomDescriptor, grid: GridSpec) -> Image:
    """Evaluate the descriptor at pixel centers (no area averaging)."""
    xn = (np.arange(grid.nx) + 0.5) / grid.nx
    yn = (np.arange(grid.ny) + 0.5) / grid.ny
    x, y = np.meshgrid(xn, yn)
    return Image(grid, evaluate_descriptor(desc, x, y))


def save_descriptor(desc: PhantomDescriptor) -> str:
    """One primitive per line; parse back with load_descriptor."""
    lines = []
    for p in desc.primitives:
        if isinstance(p, Gaussian):
            lines.append(f"gaussian {p.cx:.17g} {p.cy:.17g} "
                         f"{p.sigma:.17g} {p.amplitude:.17g}")
        elif isinstance(p, Paraboloid):
            lines.append(f"paraboloid {p.cx:.17g} {p.cy:.17g} "
                         f"{p.radius:.17g} {p.amplitude:.17g}")
        else:
            lines.append(f"rectangle {p.x0:.17g} {p.y0:.17g} "
                         f"{p.wx:.17g} {p.wy:.17g} {p.amplitude:.17g}")
    return "\n".join(lines) + "\n"


def load_descriptor(text: str) -> PhantomDescriptor:
    prims: list[Primitive] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], [float(t) for t in parts[1:]]
        if kind == "gaussian" and len(args) == 4:
            prims.append(Gaussian(*args))
        elif kind == "paraboloid" and len(args) == 4:
            prims.append(Paraboloid(*args))
        elif kind == "rectangle" and len(args) == 5:
            prims.append(Rectangle(*args))
        else:
            raise ValueError(f"bad primitive on line {lineno}: {raw!r}")
    return PhantomDescriptor(tuple(prims))


# Emission phantom: a bone-like support (thick two-lobed annulus of
# amplitude 0.5) carrying six gaussian hot spots.

_SUPPORT_AMPLITUDE = 0.5
_ANNULUS_INNER = 0.18
_ANNULUS_OUTER = 0.42
_LOBES = ((0.40, 35.0, 0.11), (0.38, 215.0, 0.13))  # (offset, deg, radius)
_SPOT_DRAWS = 10 ** 6  # rejection draws before a grid counts as too small


def _support_indicator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.hypot(x - 0.5, y - 0.5)
    inside = (r >= _ANNULUS_INNER) & (r <= _ANNULUS_OUTER)
    for off, deg, rad in _LOBES:
        a = np.deg2rad(deg)
        cx, cy = 0.5 + off * np.cos(a), 0.5 + off * np.sin(a)
        inside |= np.hypot(x - cx, y - cy) <= rad
    return inside


def et_phantom_components(grid: GridSpec, seed: int):
    """Support indicator plus the six seeded gaussian hot spots.

    Returns (support, spots) where support is a bool (ny, nx) array and
    spots is a list of Gaussian primitives in unit-square coordinates
    (sigma drawn in the range 2..8 pixels of this grid).
    """
    if grid.nx != grid.ny or grid.dx != grid.dy:
        raise ValueError("emission phantom requires a square grid")
    # By the smallest spot's 4-sigma margin, 8 pixels, every centre lies
    # within a of the square's centre in x and y. While a < r, the hole's
    # radius, and no lobe reaches a sqrt(2), both offsets are at least
    # t = sqrt(r^2 - a^2): the centres lie in four corner boxes sqrt(2)
    # (a - t) across (empty if a <= t), and a box narrower than the
    # centres' 0.08 spacing holds at most one of the six.
    a, r = 0.5 - 8.0 / grid.nx, _ANNULUS_INNER
    t = np.sqrt(max(r * r - a * a, 0.0))
    lobe = min(off - rad for off, _, rad in _LOBES)
    if a < r and a * np.sqrt(2.0) < lobe and np.sqrt(2.0) * (a - t) < 0.08:
        raise ValueError(
            f"cannot place hot spots on a {grid.nx}x{grid.ny} grid: the "
            f"smallest spot's 4-sigma margin, 8 pixels = {8.0 / grid.nx:.3f}, "
            f"leaves the support room for at most 4 spots 0.08 apart; use a "
            f"larger grid")
    xn = (np.arange(grid.nx) + 0.5) / grid.nx
    x, y = np.meshgrid(xn, xn)
    return _support_indicator(x, y), _sample_spots(grid, seed)


def _sample_spots(grid: GridSpec, seed: int) -> list[Gaussian]:
    """The six seeded hot spots of a square grid, drawn by rejection."""
    h = 1.0 / grid.nx
    rng = np.random.default_rng(seed)
    spots: list[Gaussian] = []
    for _ in range(_SPOT_DRAWS):
        sigma = rng.uniform(2.0, 8.0) * h
        cx, cy = rng.uniform(0.0, 1.0, size=2)
        margin = 4.0 * sigma
        if not (margin <= cx <= 1 - margin and margin <= cy <= 1 - margin):
            continue
        if not _support_indicator(np.array(cx), np.array(cy)):
            continue
        if any(np.hypot(cx - s.cx, cy - s.cy) < 0.08 for s in spots):
            continue
        spots.append(Gaussian(cx, cy, sigma, rng.uniform(0.4, 1.0)))
        if len(spots) == 6:
            return spots
    raise ValueError(f"cannot place 6 hot spots on a {grid.nx}x{grid.ny} "
                     f"grid in {_SPOT_DRAWS} draws; use a larger grid")


def generate_et_phantom(grid: GridSpec, seed: int
                        ) -> tuple[Image, RegionMask, RegionMask]:
    """Emission phantom with its hot-spot (GR) and support (BR) masks.

    GR is the union of disks of radius 2*sigma around the gaussian
    centers; BR is the support with GR removed, so the two are disjoint.
    """
    support, spots = et_phantom_components(grid, seed)
    xn = (np.arange(grid.nx) + 0.5) / grid.nx
    x, y = np.meshgrid(xn, xn)

    values = _SUPPORT_AMPLITUDE * support.astype(float)
    gr = np.zeros_like(support)
    for s in spots:
        r2 = (x - s.cx) ** 2 + (y - s.cy) ** 2
        values += s.amplitude * np.exp(-r2 / (2.0 * s.sigma ** 2))
        gr |= r2 <= (2.0 * s.sigma) ** 2
    br = support & ~gr
    return (Image(grid, values),
            RegionMask(grid, gr, "GR"),
            RegionMask(grid, br, "BR"))
