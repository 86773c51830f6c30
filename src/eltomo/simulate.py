"""Data simulation with an inverse-crime guard.

CT data is generated on a fine grid with the strip kernel, pushed
through a Beer-Lambert photon-count transform with Poisson noise, and
paired with a linear-kernel projector on a coarser reconstruction grid.
ET data keeps one grid but draws several Poisson realizations of the
expected-count sinogram through a PSF-bearing projector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fileio, projector
from .grids import GridSpec, Image, RegionMask, Sinogram, uniform_angles
from .phantoms import (PhantomDescriptor, default_ct_descriptor,
                       generate_ct_phantom, generate_et_phantom,
                       save_descriptor)
from .projector import ProjectorSpec, default_detector, project_streaming

_STARVATION_MEAN = 1e-6

# Largest traced peaks of the dataset builders, in float64 arrays of the
# grid's pixel count: make_ct_dataset 6.1 fine-grid arrays at 1000^2 and
# 14-16 at 32^2 to 64^2 with 90 angles, where its sinograms weigh in;
# make_et_dataset 21.7 at 512^2 with 10 angles and 41.2 with 60, where the
# projection splits its views between two threads, each with its own
# buffers. The sinograms a builder holds at once are counted apart.
_CT_PIXEL_ARRAYS = 16
_ET_PIXEL_ARRAYS = 42


def poisson_sample(lam: np.ndarray, seed: int) -> np.ndarray:
    """Independent Poisson draws from a counter-based generator keyed by
    the seed, valid for any magnitude of the mean."""
    lam = np.asarray(lam, dtype=np.float64)
    if np.any(lam < 0) or not np.all(np.isfinite(lam)):
        raise ValueError("Poisson means must be finite and nonnegative")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    return rng.poisson(lam)


def _realization_seeds(seed: int, n: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


@dataclass(frozen=True)
class CtSimSpec:
    descriptor: PhantomDescriptor = field(default_factory=default_ct_descriptor)
    fine_grid: GridSpec = GridSpec(500, 500)
    recon_grid: GridSpec = GridSpec(250, 250)
    n_angles: int = 90
    i0: float = 3e5
    nbins: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (self.fine_grid.nx > self.recon_grid.nx
                and self.fine_grid.ny > self.recon_grid.ny):
            raise ValueError("fine grid must be strictly finer than recon grid")
        if (self.fine_grid.dx != self.recon_grid.dx
                or self.fine_grid.dy != self.recon_grid.dy):
            raise ValueError("both grids must cover the same physical extent")
        if not self.i0 > 0:
            raise ValueError("incident photon count must be positive")
        if self.n_angles < 1:
            raise ValueError("need at least one angle")


@dataclass(frozen=True)
class EtSimSpec:
    grid: GridSpec = GridSpec(400, 400)
    n_angles: int = 300
    total_counts: float = 1e7
    psf_fwhm_bins: float = 3.0
    n_realizations: int = 20
    nbins: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.total_counts > 0:
            raise ValueError("total counts must be positive")
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if self.n_angles < 1:
            raise ValueError("need at least one angle")
        if not self.psf_fwhm_bins > 0:
            raise ValueError("psf fwhm must be positive")


@dataclass(frozen=True)
class Dataset:
    kind: str  # "ct" | "et"
    ground_truth: Image
    noiseless: Sinogram
    noisy: tuple[Sinogram, ...]
    recon_projector: ProjectorSpec
    generation_projector: ProjectorSpec
    gr: RegionMask | None
    br: RegionMask | None
    provenance: tuple[tuple[str, str], ...]


def _detector(grid: GridSpec, nbins: int | None) -> tuple[int, float]:
    if nbins is None:
        return default_detector(grid)
    span = math.hypot(grid.dx, grid.dy)
    return nbins, span / nbins


def _check_memory(grid: GridSpec, pixel_arrays: int, sinograms: int,
                  n_angles: int, nbins: int, flag: str) -> None:
    """Raise ValueError, before anything grid-sized is allocated, if a
    simulation on ``grid`` would need more memory than is available."""
    need = 8 * (pixel_arrays * grid.npixels + sinograms * n_angles * nbins)
    available = projector._available_memory()
    if need > available:
        raise ValueError(
            f"simulating on the {grid.nx}x{grid.ny} grid with {n_angles} "
            f"angles needs about {need / 2**20:.1f} MiB but only "
            f"{available / 2**20:.1f} MiB of memory is available; use a "
            f"smaller {flag} or --n-angles")


def make_ct_dataset(spec: CtSimSpec) -> Dataset:
    """Strip-kernel line integrals on the fine grid, transmission counts
    c ~ Poisson(I0 exp(-p)), then b = -ln(max(c,1)/I0); reconstruction
    pairs the data with a linear-kernel projector on the coarse grid.
    A simulation larger than the memory available raises ValueError
    before the phantom is drawn."""
    angles = uniform_angles(spec.n_angles)
    nbins, pitch = _detector(spec.recon_grid, spec.nbins)
    # noiseless line integrals, mean counts, counts and the noisy data,
    # with one temporary
    _check_memory(spec.fine_grid, _CT_PIXEL_ARRAYS, 5, spec.n_angles, nbins,
                  "--fine-n")

    gen_spec = ProjectorSpec(spec.fine_grid, angles, nbins, pitch, "strip")
    recon_spec = ProjectorSpec(spec.recon_grid, angles, nbins, pitch, "linear")
    assert gen_spec.grid != recon_spec.grid and gen_spec.kernel != recon_spec.kernel

    fine_phantom = generate_ct_phantom(spec.descriptor, spec.fine_grid)
    noiseless = project_streaming(gen_spec, fine_phantom)

    mean_counts = spec.i0 * np.exp(-noiseless.values)
    if np.any(mean_counts < _STARVATION_MEAN):
        warnings.warn("photon starvation: expected counts below 1e-6 in "
                      "some rays; counts are clamped at 1 for the log",
                      RuntimeWarning, stacklevel=2)
    counts = poisson_sample(mean_counts, _realization_seeds(spec.seed, 1)[0])
    b = -np.log(np.maximum(counts, 1) / spec.i0)
    noisy = Sinogram(angles, nbins, b)

    truth = generate_ct_phantom(spec.descriptor, spec.recon_grid)
    prov = _ct_provenance(spec, nbins, pitch)
    return Dataset("ct", truth, noiseless, (noisy,), recon_spec, gen_spec,
                   None, None, prov)


def make_et_dataset(spec: EtSimSpec) -> Dataset:
    """Emission phantom scaled so its PSF-blurred projections carry the
    requested total expected counts; each realization is an independent
    Poisson draw of that sinogram. A simulation larger than the memory
    available raises ValueError before the phantom is drawn."""
    angles = uniform_angles(spec.n_angles)
    nbins, pitch = _detector(spec.grid, spec.nbins)
    # the realizations, the projection, its scaled copy and one draw in
    # progress, with one temporary
    _check_memory(spec.grid, _ET_PIXEL_ARRAYS, spec.n_realizations + 4,
                  spec.n_angles, nbins, "--et-n")
    proj_spec = ProjectorSpec(spec.grid, angles, nbins, pitch, "linear",
                              psf_fwhm_bins=spec.psf_fwhm_bins)

    phantom, gr, br = generate_et_phantom(spec.grid, spec.seed)
    raw = project_streaming(proj_spec, phantom)
    total = float(raw.values.sum())
    if total <= 0:
        raise ValueError("phantom projects to zero counts")
    scale = spec.total_counts / total
    truth = Image(spec.grid, phantom.values * scale)
    lam = Sinogram(angles, nbins, raw.values * scale)

    seeds = _realization_seeds(spec.seed, spec.n_realizations)
    noisy = tuple(
        Sinogram(angles, nbins, poisson_sample(lam.values, s).astype(float))
        for s in seeds)
    prov = _et_provenance(spec, nbins, pitch)
    return Dataset("et", truth, lam, noisy, proj_spec, proj_spec, gr, br, prov)


def _ct_provenance(spec: CtSimSpec, nbins: int, pitch: float):
    return (
        ("experiment", "ct"),
        ("descriptor", save_descriptor(spec.descriptor).replace("\n", ";").rstrip(";")),
        ("fine_n", str(spec.fine_grid.nx)),
        ("recon_n", str(spec.recon_grid.nx)),
        ("extent", f"{spec.fine_grid.dx:.17g}"),
        ("n_angles", str(spec.n_angles)),
        ("i0", f"{spec.i0:.17g}"),
        ("nbins", str(nbins)),
        ("bin_pitch", f"{pitch:.17g}"),
        ("seed", str(spec.seed)),
    )


def _et_provenance(spec: EtSimSpec, nbins: int, pitch: float):
    return (
        ("experiment", "et"),
        ("et_n", str(spec.grid.nx)),
        ("extent", f"{spec.grid.dx:.17g}"),
        ("n_angles", str(spec.n_angles)),
        ("counts", f"{spec.total_counts:.17g}"),
        ("psf_fwhm_bins", f"{spec.psf_fwhm_bins:.17g}"),
        ("n_realizations", str(spec.n_realizations)),
        ("nbins", str(nbins)),
        ("bin_pitch", f"{pitch:.17g}"),
        ("seed", str(spec.seed)),
    )


def save_dataset(ds: Dataset, out_dir: str | Path) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.save_image(out / "ground_truth", ds.ground_truth)
    fileio.save_sinogram(out / "noiseless", ds.noiseless)
    for r, sino in enumerate(ds.noisy):
        fileio.save_sinogram(out / f"noisy_{r}", sino)
    if ds.gr is not None:
        fileio.save_mask(out / "mask_GR", ds.gr)
    if ds.br is not None:
        fileio.save_mask(out / "mask_BR", ds.br)
    text = "".join(f"{k}={v}\n" for k, v in ds.provenance)
    (out / "provenance.txt").write_text(text, encoding="utf-8")


def load_dataset(in_dir: str | Path) -> Dataset:
    src = Path(in_dir)
    prov_path = src / "provenance.txt"
    if not prov_path.is_file():
        raise FileNotFoundError(f"no provenance.txt in {src}")
    pairs = []
    for line in prov_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        pairs.append((key, value))
    prov = dict(pairs)

    def prov_value(key, parse):
        if key not in prov:
            raise fileio.TomoFileError(f"{prov_path}: missing key {key!r}")
        try:
            return parse(prov[key])
        except ValueError as exc:
            raise fileio.TomoFileError(
                f"{prov_path}: bad value for {key}: {prov[key]!r}") from exc

    truth = fileio.load_image(src / "ground_truth")
    noiseless = fileio.load_sinogram(src / "noiseless")
    noisy = []
    r = 0
    while (src / f"noisy_{r}").is_file():
        noisy.append(fileio.load_sinogram(src / f"noisy_{r}"))
        r += 1
    if not noisy:
        raise FileNotFoundError(f"no noisy_<r> sinograms in {src}")

    nbins = prov_value("nbins", int)
    pitch = prov_value("bin_pitch", float)
    angles = noiseless.angles
    kind = prov_value("experiment", str)
    if kind == "ct":
        extent = prov_value("extent", float)
        fine_n = prov_value("fine_n", int)
        fine_grid = GridSpec(fine_n, fine_n, extent, extent)
        gen_spec = ProjectorSpec(fine_grid, angles, nbins, pitch, "strip")
        recon_spec = ProjectorSpec(truth.grid, angles, nbins, pitch, "linear")
        gr = br = None
    elif kind == "et":
        fwhm = prov_value("psf_fwhm_bins", float)
        recon_spec = ProjectorSpec(truth.grid, angles, nbins, pitch, "linear",
                                   psf_fwhm_bins=fwhm)
        gen_spec = recon_spec
        g = truth.grid
        gr = (fileio.load_mask(src / "mask_GR", g.dx, g.dy)
              if (src / "mask_GR").is_file() else None)
        br = (fileio.load_mask(src / "mask_BR", g.dx, g.dy)
              if (src / "mask_BR").is_file() else None)
    else:
        raise fileio.TomoFileError(f"{prov_path}: unknown experiment {kind!r}")
    return Dataset(kind, truth, noiseless, tuple(noisy), recon_spec,
                   gen_spec, gr, br, tuple(pairs))
