"""The benchmark's workloads.

Each workload builds its inputs from a seed in ``setup``, runs the timed
work in ``solve`` and checks the outputs in ``evaluate``, which runs
outside the timed region. Package functions are called through their
modules (``simulate.make_ct_dataset``) so that the tracer's wrappers see
the benchmark's own calls too.

An operation is one solver run (each sweep point per realization, and
each final evaluation) or one CLI call. ``evaluate`` counts operations
attempted and failed; a failed protocol check fails the el final, unless
that final has already failed.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eltomo import cli, fileio, metrics, projector, simulate
from eltomo.grids import GridSpec

# criterion-6 bands for one seed: el/tv/tvl2 in [0.05, 0.15], cgls in
# [0.10, 0.30]
CT_BANDS = {"cgls": (0.10, 0.30), "tv": (0.05, 0.15),
            "tvl2": (0.05, 0.15), "el": (0.05, 0.15)}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.problems.append(message)

    def add(self, other: "Outcome") -> None:
        """Fold in another solve's outcome; its quality outputs must
        repeat the earlier ones exactly."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        for key, value in other.quality.items():
            if key in self.quality and self.quality[key] != value:
                self.fail(f"{key} differs between repeats: "
                          f"{self.quality[key]!r} then {value!r}", ops=0)
            self.quality[key] = value


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


class Compare:
    """Sweep-then-evaluate comparison of cgls/mlem, tv, tvl2 and el."""

    setup_ops = 0

    def __init__(self, name: str, params: dict):
        self.name = name
        self.p = params
        self.realizations = tuple(params["realizations"])

    def close(self) -> None:
        pass

    def solve_ops(self) -> int:
        # baseline + three sweeps + three finals, per realization
        return len(self.realizations) * (4 + 3 * self.p["sweep_points"])

    def solve(self, state, span=None):
        ds, A = state
        p = self.p
        return metrics.run_comparison(
            ds, outer_iters=p["outer_iters"], inner_iters=p["inner_iters"],
            realizations=self.realizations, beta=p["beta"],
            sweep_points=p["sweep_points"], sweep_decades=p["sweep_decades"],
            rho=p["rho"], precondition=p["precondition"], A=A)

    def evaluate(self, state, reports) -> Outcome:
        out = Outcome()
        finals_ok = True
        for rep in reports:
            out.attempted += len(self.realizations)
            if rep.sweep is not None:
                out.attempted += len(rep.sweep.runs)
                for run in rep.sweep.runs:
                    if run.rmse is None:
                        out.fail(f"{rep.method} sweep point {run.value:.3g} "
                                 f"realization {run.realization} failed")
            if not (np.all(np.isfinite(rep.image.values))
                    and _finite(rep.rmse)):
                out.fail(f"{rep.method} final is not finite",
                         ops=len(self.realizations))
                finals_ok = False
        by_method = {rep.method: rep for rep in reports}
        out.quality["rmse.base"] = reports[0].rmse  # cgls or mlem
        for method in ("tv", "tvl2", "el"):
            out.quality[f"rmse.{method}"] = by_method[method].rmse
        # a failed final already counts; its errors cannot be compared
        bad = self.check_protocol(by_method, out) if finals_ok else []
        if bad:
            out.fail("protocol: " + "; ".join(bad))
        return out


class CtCompare(Compare):
    def setup(self, seed: int, span=None):
        p = self.p
        spec = simulate.CtSimSpec(
            fine_grid=GridSpec(p["fine_n"], p["fine_n"]),
            recon_grid=GridSpec(p["recon_n"], p["recon_n"]),
            n_angles=p["n_angles"], i0=p["i0"], nbins=p["nbins"], seed=seed)
        ds = simulate.make_ct_dataset(spec)
        return ds, projector.build_projector(ds.recon_projector)

    def check_protocol(self, by_method, out: Outcome) -> list[str]:
        rm = {m: by_method[m].rmse for m in CT_BANDS}
        bad = [f"{m}={rm[m]:.4f} outside [{lo}, {hi}]"
               for m, (lo, hi) in CT_BANDS.items() if not lo <= rm[m] <= hi]
        if not rm["el"] < rm["tv"]:
            bad.append(f"el={rm['el']:.4f} not below tv={rm['tv']:.4f}")
        return bad


class EtCompare(Compare):
    def setup(self, seed: int, span=None):
        p = self.p
        spec = simulate.EtSimSpec(
            grid=GridSpec(p["et_n"], p["et_n"]), n_angles=p["n_angles"],
            total_counts=p["total_counts"], psf_fwhm_bins=p["psf_fwhm_bins"],
            n_realizations=p["n_realizations"], seed=seed)
        ds = simulate.make_et_dataset(spec)
        return ds, projector.build_projector(ds.recon_projector)

    def check_protocol(self, by_method, out: Outcome) -> list[str]:
        bad = []
        for region in ("gr", "br"):
            for method in ("tv", "el"):
                value = getattr(by_method[method], f"{region}_rmse")
                out.quality[f"rmse_{region}.{method}"] = value
            el_v = out.quality[f"rmse_{region}.el"]
            tv_v = out.quality[f"rmse_{region}.tv"]
            if not (_finite(el_v) and _finite(tv_v) and el_v < tv_v):
                bad.append(f"{region.upper()} el={el_v} not below tv={tv_v}")
        return bad


class CtFull:
    """The CLI pipeline in-process: simulate, then reconstruct twice.

    Work happens in a temporary directory under ``work_root``; ``close``
    removes it.
    """

    setup_ops = 1  # the simulate call

    def __init__(self, name: str, params: dict, work_root: Path):
        self.name = name
        self.p = params
        work_root.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="ct_full_", dir=work_root))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    @staticmethod
    def _cli(span, name: str, argv: list[str]) -> int:
        # the CLI prints its rmse line to stdout, which belongs to the
        # benchmark's own report
        with contextlib.redirect_stdout(io.StringIO()):
            return span(name, cli.run, argv)

    def solve_ops(self) -> int:
        return len(self.p["reconstruct"])

    def setup(self, seed: int, span=None):
        data = self.work / "data"
        code = self._cli(span or _plain, "cli.simulate",
                         [*self.p["simulate"], "--seed", str(seed),
                          "--out", str(data)])
        if code != 0:
            raise RuntimeError(f"simulate exited with code {code}")
        return data

    def solve(self, data: Path, span=None):
        runs = []
        for argv in self.p["reconstruct"]:
            method = argv[argv.index("--method") + 1]
            out = self.work / f"recon_{method}"
            code = self._cli(span or _plain, "cli.reconstruct",
                             [*argv, "--dataset", str(data),
                              "--out", str(out)])
            runs.append((method, out, code))
        return runs

    def evaluate(self, data: Path, runs) -> Outcome:
        out = Outcome(attempted=len(runs))
        truth = fileio.load_image(data / "ground_truth")
        for method, path, code in runs:
            name = "rmse.base" if method == "cgls" else f"rmse.{method}"
            out.quality[name] = math.nan
            if code != 0:
                out.fail(f"reconstruct {method} exited with code {code}")
                continue
            image = fileio.load_image(path / f"recon_{method}")
            out.quality[name] = metrics.rmse(image, truth)
            if not (np.all(np.isfinite(image.values))
                    and _finite(out.quality[name])):
                out.fail(f"reconstruct {method} gave a non-finite image")
        return out


def _plain(name, fn, *args):
    return fn(*args)


def make(name: str, params: dict, work_root: Path):
    if name == "ct_compare":
        return CtCompare(name, params)
    if name == "et_compare":
        return EtCompare(name, params)
    if name == "ct_full":
        return CtFull(name, params, work_root)
    raise ValueError(f"unknown workload {name!r}")
