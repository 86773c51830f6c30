"""Bit-exact binary file formats for images, sinograms and masks.

Headers are a single ASCII line; payloads are little-endian so files are
portable across machines. Floats are printed with 17 significant digits,
which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grids import GridSpec, Image, RegionMask, Sinogram

IMG_MAGIC = "TOMO-IMG"
SIN_MAGIC = "TOMO-SIN"
MSK_MAGIC = "TOMO-MSK"
FORMAT_VERSION = "1"


class TomoFileError(ValueError):
    """Malformed header, truncated payload or non-finite data on read."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _split_header(data: bytes, magic: str, nfields: int) -> tuple[list[str], bytes]:
    nl = data.find(b"\n")
    if nl < 0:
        raise TomoFileError("missing header line")
    try:
        header = data[:nl].decode("ascii")
    except UnicodeDecodeError as exc:
        raise TomoFileError("header is not ASCII") from exc
    tokens = header.split(" ")
    if len(tokens) != 2 + nfields or tokens[0] != magic:
        raise TomoFileError(f"bad {magic} header: {header!r}")
    if tokens[1] != FORMAT_VERSION:
        raise TomoFileError(f"unsupported format version {tokens[1]!r}")
    return tokens[2:], data[nl + 1:]


def _payload_floats(payload: bytes, count: int, what: str) -> np.ndarray:
    need = count * 8
    if len(payload) != need:
        raise TomoFileError(
            f"{what}: expected {need} payload bytes, got {len(payload)}")
    values = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(values)):
        raise TomoFileError(f"{what}: non-finite values")
    return values


def write_image(img: Image) -> bytes:
    g = img.grid
    header = f"{IMG_MAGIC} {FORMAT_VERSION} {g.nx} {g.ny} {_fmt(g.dx)} {_fmt(g.dy)}\n"
    return header.encode("ascii") + img.ravel().astype("<f8").tobytes()


def read_image(data: bytes) -> Image:
    fields, payload = _split_header(data, IMG_MAGIC, 4)
    try:
        nx, ny = int(fields[0]), int(fields[1])
        dx, dy = float(fields[2]), float(fields[3])
    except ValueError as exc:
        raise TomoFileError(f"bad image header fields {fields}") from exc
    try:
        grid = GridSpec(nx, ny, dx, dy)
    except ValueError as exc:
        raise TomoFileError(str(exc)) from exc
    values = _payload_floats(payload, nx * ny, "image")
    return Image(grid, values)


def write_sinogram(sino: Sinogram) -> bytes:
    header = f"{SIN_MAGIC} {FORMAT_VERSION} {sino.n_angles} {sino.nbins}\n"
    return (header.encode("ascii")
            + sino.angles.astype("<f8").tobytes()
            + sino.ravel().astype("<f8").tobytes())


def read_sinogram(data: bytes) -> Sinogram:
    fields, payload = _split_header(data, SIN_MAGIC, 2)
    try:
        n_angles, nbins = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise TomoFileError(f"bad sinogram header fields {fields}") from exc
    if n_angles < 1 or nbins < 1:
        raise TomoFileError("sinogram dimensions must be positive")
    both = _payload_floats(payload, n_angles * (1 + nbins), "sinogram")
    angles = both[:n_angles]
    values = both[n_angles:]
    try:
        return Sinogram(angles, nbins, values)
    except ValueError as exc:
        raise TomoFileError(str(exc)) from exc


def write_mask(mask: RegionMask) -> bytes:
    g = mask.grid
    header = f"{MSK_MAGIC} {FORMAT_VERSION} {g.nx} {g.ny} {mask.label}\n"
    return header.encode("ascii") + mask.membership.astype(np.uint8).tobytes()


def read_mask(data: bytes, dx: float = 1.0, dy: float = 1.0) -> RegionMask:
    fields, payload = _split_header(data, MSK_MAGIC, 3)
    try:
        nx, ny = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise TomoFileError(f"bad mask header fields {fields}") from exc
    label = fields[2]
    if len(payload) != nx * ny:
        raise TomoFileError(
            f"mask: expected {nx * ny} payload bytes, got {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8)
    if np.any(raw > 1):
        raise TomoFileError("mask payload bytes must be 0 or 1")
    try:
        return RegionMask(GridSpec(nx, ny, dx, dy), raw.astype(bool), label)
    except ValueError as exc:
        raise TomoFileError(str(exc)) from exc


def write_pgm(img: Image) -> tuple[bytes, str]:
    """16-bit binary PGM for viewing (min-max scaled, lossy).

    Returns (pgm bytes, sidecar text recording the scale).
    """
    v = img.values
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo
    scaled = np.zeros_like(v) if span == 0 else (v - lo) / span
    pixels = np.round(scaled * 65535.0).astype(">u2")
    header = f"P5\n{img.grid.nx} {img.grid.ny}\n65535\n"
    sidecar = f"min={_fmt(lo)}\nmax={_fmt(hi)}\n"
    return header.encode("ascii") + pixels.tobytes(), sidecar


def save_pgm(path: str | Path, img: Image) -> tuple[Path, Path]:
    """Write write_pgm's preview to ``path`` and its scale to the sidecar
    ``path`` + ".txt"; returns both paths."""
    pgm, sidecar = write_pgm(img)
    paths = Path(path), Path(f"{path}.txt")
    paths[0].write_bytes(pgm)
    paths[1].write_text(sidecar, encoding="utf-8")
    return paths


def save_bytes(path: str | Path, data: bytes) -> None:
    Path(path).write_bytes(data)


def load_image(path: str | Path) -> Image:
    return read_image(Path(path).read_bytes())


def save_image(path: str | Path, img: Image) -> None:
    save_bytes(path, write_image(img))


def load_sinogram(path: str | Path) -> Sinogram:
    return read_sinogram(Path(path).read_bytes())


def save_sinogram(path: str | Path, sino: Sinogram) -> None:
    save_bytes(path, write_sinogram(sino))


def load_mask(path: str | Path, dx: float = 1.0, dy: float = 1.0) -> RegionMask:
    return read_mask(Path(path).read_bytes(), dx, dy)


def save_mask(path: str | Path, mask: RegionMask) -> None:
    save_bytes(path, write_mask(mask))
