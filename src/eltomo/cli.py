"""Command-line entry point.

Commands: phantom, simulate, reconstruct, sweep, report, verify.
Configuration is a flat key=value file; every key can also be given as a
command-line flag, and flags override the file. Each run writes a
provenance.txt with the effective configuration, sufficient to
reproduce the run bit-exactly.

The dataset chooses how it is fitted: CT data by least squares, ET
data by Poisson ML-EM. The sweep rules and default sweep grids come
from the metrics module. Every parameter is checked before the
projector is built.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O error, 4 numerical failure. Errors print one line to stderr
prefixed with "error:".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio, solvers
from .grids import GridSpec, Image, uniform_angles
from .metrics import (SweepSpec, check_method, emit_report, log_grid,
                      make_penalty, run_comparison, run_method, run_sweep,
                      sweep_center, sweep_csv)
from .phantoms import (default_ct_descriptor, generate_ct_phantom,
                       generate_et_phantom, load_descriptor, save_descriptor)
from .projector import (ProjectorSpec, build_projector, default_detector,
                        forward)
from .regularizers import (KINDS, build_gradient_matrix, el,
                           frozen_quadratic, tikhonov, tv, tv_l2)
from .simulate import (CtSimSpec, EtSimSpec, load_dataset, make_ct_dataset,
                       make_et_dataset, save_dataset)
from .solvers import (NumericalError, SolverConfig, dot, history_csv, norm,
                      verify_error_bound)


class ConfigError(ValueError):
    pass


# key -> (type, default); the registry doubles as the unknown-key filter
_KEYS: dict[str, tuple[type, object]] = {
    "command": (str, None),
    "seed": (int, 0),
    "out": (str, "out"),
    "experiment": (str, "ct"),
    "nx": (int, 250),
    "phantom_file": (str, ""),
    "fine_n": (int, 500),
    "recon_n": (int, 250),
    "n_angles": (int, 90),
    "i0": (float, 3e5),
    "nbins": (int, 0),
    "et_n": (int, 400),
    "counts": (float, 1e7),
    "psf_fwhm_bins": (float, 3.0),
    "n_realizations": (int, 20),
    "dataset": (str, ""),
    "method": (str, "el"),
    "alpha": (float, 0.0),
    "mu": (float, 0.0),
    "beta": (float, 0.03),
    "outer_iters": (int, 0),
    "inner_iters": (int, 5),
    "rho": (float, 1e-4),
    "realization": (int, 0),
    "param": (str, "alpha"),
    "values": (str, ""),
    "sweep_points": (int, 15),
    "sweep_decades": (float, 4.0),
    "realizations": (int, 1),
    "trials": (int, 100),
    "n": (int, 16),
}

_COMMANDS = ("phantom", "simulate", "reconstruct", "sweep", "report", "verify")


def _parse_value(key: str, raw: str):
    try:
        return _KEYS[key][0](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, value.strip())
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a ConfigError instead of printing usage."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eltomo",
        description="Tomographic reconstruction with edge-preserving "
                    "Laplacian, TV and TV-l2 penalties")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        for key, (typ, _default) in _KEYS.items():
            if key == "command":
                continue
            p.add_argument("--" + key.replace("_", "-"), type=typ,
                           default=None, dest=key)
    return parser


def resolve_config(argv: list[str]) -> dict:
    """defaults < config file < explicit flags, unknown keys rejected."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command is None:
        raise ConfigError("no command given (phantom, simulate, "
                          "reconstruct, sweep, report, verify)")
    cfg = {key: default for key, (_t, default) in _KEYS.items()}
    if ns.config is not None:
        file_values = _load_config_file(ns.config)
        if "command" in file_values and file_values["command"] != ns.command:
            raise ConfigError("config file command does not match CLI command")
        cfg.update(file_values)
    for key in _KEYS:  # the command too, which is always given
        value = getattr(ns, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _write_provenance(cfg: dict, out: Path, extra=()) -> None:
    """Every accepted key, plus any derived values (which win on ties,
    e.g. an auto-selected detector size is recorded as resolved)."""
    out.mkdir(parents=True, exist_ok=True)
    merged = {k: _prov_str(cfg[k]) for k in _KEYS}
    merged.update({k: v for k, v in extra})
    lines = [f"{k}={merged[k]}" for k in sorted(merged)]
    (out / "provenance.txt").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")


def _prov_str(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _descriptor_from(cfg: dict):
    if cfg["phantom_file"]:
        try:
            text = Path(cfg["phantom_file"]).read_text(encoding="utf-8")
        except OSError as exc:
            raise fileio.TomoFileError(str(exc)) from exc
        try:
            return load_descriptor(text)
        except ValueError as exc:
            raise ConfigError(f"bad phantom file: {exc}") from exc
    return default_ct_descriptor()


def cmd_phantom(cfg: dict) -> int:
    """Draw the phantom first, so an error leaves no output directory."""
    out = Path(cfg["out"])
    n = cfg["nx"]
    grid = GridSpec(n, n)
    if cfg["experiment"] == "ct":
        desc = _descriptor_from(cfg)
        img = generate_ct_phantom(desc, grid)
        out.mkdir(parents=True, exist_ok=True)
        (out / "descriptor.txt").write_text(save_descriptor(desc),
                                            encoding="utf-8")
    elif cfg["experiment"] == "et":
        img, gr, br = generate_et_phantom(grid, cfg["seed"])
        out.mkdir(parents=True, exist_ok=True)
        fileio.save_mask(out / "mask_GR", gr)
        fileio.save_mask(out / "mask_BR", br)
    else:
        raise ConfigError(f"unknown experiment {cfg['experiment']!r}")
    fileio.save_image(out / "phantom", img)
    fileio.save_pgm(out / "phantom.pgm", img)
    _write_provenance(cfg, out)
    return 0


def cmd_simulate(cfg: dict) -> int:
    out = Path(cfg["out"])
    if cfg["nbins"] < 0:
        raise ConfigError(f"nbins must be >= 0 (0 selects the default "
                          f"detector), got {cfg['nbins']}")
    nbins = cfg["nbins"] if cfg["nbins"] > 0 else None
    if cfg["experiment"] == "ct":
        spec = CtSimSpec(
            descriptor=_descriptor_from(cfg),
            fine_grid=GridSpec(cfg["fine_n"], cfg["fine_n"]),
            recon_grid=GridSpec(cfg["recon_n"], cfg["recon_n"]),
            n_angles=cfg["n_angles"], i0=cfg["i0"], nbins=nbins,
            seed=cfg["seed"])
        ds = make_ct_dataset(spec)
    elif cfg["experiment"] == "et":
        spec = EtSimSpec(
            grid=GridSpec(cfg["et_n"], cfg["et_n"]),
            n_angles=cfg["n_angles"], total_counts=cfg["counts"],
            psf_fwhm_bins=cfg["psf_fwhm_bins"],
            n_realizations=cfg["n_realizations"], nbins=nbins,
            seed=cfg["seed"])
        ds = make_et_dataset(spec)
    else:
        raise ConfigError(f"unknown experiment {cfg['experiment']!r}")
    save_dataset(ds, out)
    _write_provenance(cfg, out, extra=ds.provenance)
    return 0


def _dataset(cfg: dict):
    """(dataset, outer iteration count) of a reconstruct, sweep or
    report: --outer-iters, or for 0 the data kind's default."""
    if cfg["outer_iters"] < 0:
        raise ConfigError(f"outer_iters must be >= 0 (0 selects the "
                          f"default), got {cfg['outer_iters']}")
    if not cfg["dataset"]:
        raise ConfigError(f"{cfg['command']} needs --dataset DIR")
    ds = load_dataset(cfg["dataset"])
    return ds, cfg["outer_iters"] or (130 if ds.kind == "et" else 80)


def _realizations(cfg: dict, ds) -> tuple[int, ...]:
    """The first cfg["realizations"] noise realizations of a dataset."""
    count = cfg["realizations"]
    if count > len(ds.noisy):
        raise ConfigError(f"realizations={count} exceeds the dataset's "
                          f"{len(ds.noisy)}")
    return tuple(range(count))


def cmd_reconstruct(cfg: dict) -> int:
    method = cfg["method"]
    if method in KINDS and not cfg["alpha"] > 0:
        raise ConfigError(f"method {method!r} needs alpha > 0")
    if method == "tvl2" and not cfg["mu"] > 0:
        raise ConfigError("method 'tvl2' needs mu > 0")
    kind = make_penalty(method, alpha=cfg["alpha"], mu=cfg["mu"],
                        beta=cfg["beta"])  # checked before loading
    ds, outer = _dataset(cfg)
    check_method(method, ds.kind)
    if cfg["realization"] < 0 or cfg["realization"] >= len(ds.noisy):
        raise ConfigError(f"realization {cfg['realization']} out of range")
    solver_cfg = SolverConfig(
        outer_iters=outer, inner_iters=cfg["inner_iters"], rho=cfg["rho"])
    A = build_projector(ds.recon_projector)
    result = run_method(A, ds, kind, solver_cfg,
                        realization=cfg["realization"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    fileio.save_image(out / f"recon_{method}", result.image)
    (out / f"convergence_{method}.csv").write_text(history_csv(result),
                                                   encoding="utf-8")
    fileio.save_pgm(out / f"recon_{method}.pgm", result.image)
    _write_provenance(cfg, out)
    final = result.history[-1].rmse if result.history else None
    if final is not None:
        print(f"{method}: rmse={final:.6g}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    if cfg["values"]:
        try:
            values = tuple(float(t) for t in cfg["values"].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad values list {cfg['values']!r}") from exc
    else:
        values = log_grid(1.0, cfg["sweep_decades"], cfg["sweep_points"])
    ds, outer = _dataset(cfg)
    spec = SweepSpec(
        method=cfg["method"], param=cfg["param"], values=values,
        alpha=cfg["alpha"], mu=cfg["mu"], beta=cfg["beta"],
        realizations=_realizations(cfg, ds), outer_iters=outer,
        inner_iters=cfg["inner_iters"], rho=cfg["rho"])
    A = build_projector(ds.recon_projector)
    if not cfg["values"]:
        spec = spec.at_center(sweep_center(A, ds, spec.method, spec.param,
                                           mu=spec.mu, beta=spec.beta))
    result = run_sweep(spec, ds, A=A)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / f"sweep_{cfg['method']}.csv").write_text(sweep_csv(result),
                                                    encoding="utf-8")
    _write_provenance(cfg, out)
    for run in result.runs:
        if run.error is not None:
            print(f"failed {spec.param}={run.value:.17g} "
                  f"realization {run.realization}: {run.error}")
    print(f"best {spec.param}={result.best_value:.17g} "
          f"(mean rmse {result.mean_rmse[result.best_index]:.6g})")
    return 0


def cmd_report(cfg: dict) -> int:
    ds, outer = _dataset(cfg)
    reports = run_comparison(
        ds, outer_iters=outer, inner_iters=cfg["inner_iters"],
        realizations=_realizations(cfg, ds), beta=cfg["beta"],
        sweep_points=cfg["sweep_points"], sweep_decades=cfg["sweep_decades"],
        rho=cfg["rho"])
    out = Path(cfg["out"])
    emit_report(reports, out)
    _write_provenance(cfg, out)
    for rep in reports:
        best = "-" if rep.best_param is None else f"{rep.best_param:.3g}"
        print(f"{rep.method}: best={best} rmse={rep.rmse:.6g}")
    return 0


# --- verification suites --------------------------------------------------

def adjoint_suite(n: int = 64, n_angles: int = 30, pairs: int = 100,
                  seed: int = 0, tol: float = 1e-10) -> tuple[bool, float]:
    """Worst relative adjoint mismatch over random pairs, both kernels,
    with and without a detector PSF."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(n, n)
    angles = uniform_angles(n_angles)
    nbins, pitch = default_detector(grid)
    worst = 0.0
    for kernel in ("strip", "linear"):
        for fwhm in (None, 3.0):
            spec = ProjectorSpec(grid, angles, nbins, pitch, kernel,
                                 psf_fwhm_bins=fwhm)
            A = build_projector(spec)
            for _ in range(pairs):
                u = rng.standard_normal(A.ncols)
                v = rng.standard_normal(A.nrows)
                au = A.apply(u)
                atv = A.apply_adjoint(v)
                lhs = dot(au, v)
                rhs = dot(u, atv)
                denom = norm(au) * norm(v)
                worst = max(worst, abs(lhs - rhs) / denom)
    return worst <= tol, worst


def gradient_suite(n: int = 32, probes: int = 20, seed: int = 0,
                   tol: float = 1e-5) -> tuple[bool, float]:
    """Matrix-vector products against central finite differences of the
    frozen quadratic, for all four penalties."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(n, n)
    base = rng.standard_normal((n, n))
    from scipy.ndimage import gaussian_filter
    u0 = Image(grid, gaussian_filter(base, 2.0) + 0.1)
    worst = 0.0
    for kind in (tikhonov(1.0), tv(1.0), tv_l2(1.0, mu=0.5), el(1.0)):
        R = build_gradient_matrix(kind, u0)
        q = frozen_quadratic(kind, u0)
        v = rng.standard_normal(grid.npixels)
        g = R.matrix @ v
        scale = float(np.max(np.abs(g)))
        delta = 1e-6 * float(np.max(np.abs(v)))
        # probe pixels with non-negligible gradient so the relative
        # error is well defined
        candidates = np.flatnonzero(np.abs(g) >= 0.1 * scale)
        idx = rng.choice(candidates, size=min(probes, candidates.size),
                         replace=False)
        for j in idx:
            e = np.zeros(grid.npixels)
            e[j] = delta
            fd = (q(v + e) - q(v - e)) / (2.0 * delta)
            worst = max(worst, abs(fd - g[j]) / abs(g[j]))
    return worst <= tol, worst


def mlem_fixed_point_suite(n: int = 32, n_angles: int = 40, seed: int = 0,
                           tol: float = 1e-10) -> tuple[bool, float]:
    """With noiseless consistent data, the true strictly positive image
    is a fixed point of the solver's multiplicative update."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(n, n)
    x, y = grid.pixel_centers()
    truth = 0.2 + np.exp(-((x - 0.5) ** 2 + (y - 0.45) ** 2) / 0.02) \
        + 0.5 * np.exp(-((x - 0.3) ** 2 + (y - 0.7) ** 2) / 0.01)
    truth += 0.01 * rng.random((n, n))
    img = Image(grid, truth)
    nbins, pitch = default_detector(grid)
    spec = ProjectorSpec(grid, uniform_angles(n_angles), nbins, pitch,
                         "linear")
    A = build_projector(spec)
    b = forward(A, img)

    flat = img.ravel()
    update, floor, _ = solvers.em_update(A, b.ravel())
    step = update(flat, np.maximum(A.apply(flat), floor))
    move = norm(step - flat) / norm(flat)
    return move <= tol, move


def error_bound_suite(trials: int = 100, n: int = 16, seed: int = 0
                      ) -> tuple[bool, float]:
    report = verify_error_bound(trials, n, seed)
    return report.passed, report.min_slack


def cmd_verify(cfg: dict) -> int:
    suites = [
        ("adjoint", lambda: adjoint_suite(seed=cfg["seed"])),
        ("gradient", lambda: gradient_suite(seed=cfg["seed"])),
        ("mlem_fixed_point", lambda: mlem_fixed_point_suite(seed=cfg["seed"])),
        ("error_bound", lambda: error_bound_suite(
            trials=cfg["trials"], n=cfg["n"], seed=cfg["seed"])),
    ]
    all_ok = True
    for name, run in suites:
        ok, stat = run()
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name} ({stat:.3e})")
    return 0 if all_ok else 1


_DISPATCH = {
    "phantom": cmd_phantom,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "verify": cmd_verify,
}


def run(argv: list[str]) -> int:
    try:
        cfg = resolve_config(argv)
        return _DISPATCH[cfg["command"]](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, fileio.TomoFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
