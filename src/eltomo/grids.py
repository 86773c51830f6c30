"""Pixel grids, images, sinograms and region masks.

All containers are immutable after construction (arrays are frozen), so
they can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def frozen_angles(angles) -> np.ndarray:
    """Read-only float64 copy of view angles, which must be non-empty,
    within [0, pi) and strictly increasing."""
    a = np.array(angles, dtype=np.float64).ravel()
    if a.size == 0:
        raise ValueError("need at least one view angle")
    if np.any(a < 0.0) or np.any(a >= np.pi):
        raise ValueError("angles must lie in [0, pi)")
    if a.size > 1 and np.any(np.diff(a) <= 0):
        raise ValueError("angles must be strictly increasing")
    return _frozen(a)


@dataclass(frozen=True)
class GridSpec:
    """Pixel grid covering the rectangle [0, dx] x [0, dy].

    nx, ny are pixel counts; dx, dy the physical side lengths of the
    rectangle containing the image. Pixel pitch is hx = dx/nx, hy = dy/ny
    and values live at pixel centers.
    """

    nx: int
    ny: int
    dx: float = 1.0
    dy: float = 1.0

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2x2 pixels")
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError("physical extents dx, dy must be positive")

    @property
    def hx(self) -> float:
        return self.dx / self.nx

    @property
    def hy(self) -> float:
        return self.dy / self.ny

    @property
    def npixels(self) -> int:
        return self.nx * self.ny

    def pixel_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical (x, y) coordinates of pixel centers, each (ny, nx)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y)


@dataclass(frozen=True)
class Image:
    """2-D scalar field (attenuation or activity) on a grid.

    values has shape (ny, nx); the flattened layout is row-major, i.e.
    pixel (ix, iy) sits at flat index iy*nx + ix.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.size != self.grid.npixels:
            raise ValueError(
                f"expected {self.grid.npixels} values, got {v.size}")
        v = v.reshape(self.grid.ny, self.grid.nx)
        if not np.all(np.isfinite(v)):
            raise ValueError("image values must be finite")
        object.__setattr__(self, "values", _frozen(v))

    def ravel(self) -> np.ndarray:
        return self.values.ravel()


@dataclass(frozen=True)
class Sinogram:
    """Projection data indexed (angle, detector bin)."""

    angles: np.ndarray
    nbins: int
    values: np.ndarray

    def __post_init__(self):
        a = frozen_angles(self.angles)
        if self.nbins < 1:
            raise ValueError("nbins must be >= 1")
        v = np.asarray(self.values, dtype=np.float64)
        if v.size != a.size * self.nbins:
            raise ValueError(
                f"expected {a.size * self.nbins} values, got {v.size}")
        v = v.reshape(a.size, self.nbins)
        if not np.all(np.isfinite(v)):
            raise ValueError("sinogram values must be finite")
        object.__setattr__(self, "angles", a)
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n_angles(self) -> int:
        return self.angles.size

    def ravel(self) -> np.ndarray:
        return self.values.ravel()


@dataclass(frozen=True)
class RegionMask:
    """Boolean pixel membership for region-restricted error metrics."""

    grid: GridSpec
    membership: np.ndarray
    label: str

    def __post_init__(self):
        m = np.asarray(self.membership, dtype=bool)
        if m.size != self.grid.npixels:
            raise ValueError(
                f"mask size {m.size} does not match grid {self.grid.npixels}")
        m = m.reshape(self.grid.ny, self.grid.nx)
        object.__setattr__(self, "membership", _frozen(m))
        if not self.label or any(ch.isspace() for ch in self.label):
            raise ValueError("label must be non-empty without whitespace")

    @property
    def count(self) -> int:
        return int(self.membership.sum())


def uniform_angles(n: int) -> np.ndarray:
    """n view angles equally spaced over [0, pi)."""
    if n < 1:
        raise ValueError("need at least one angle")
    return np.arange(n) * (np.pi / n)
