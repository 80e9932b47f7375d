"""The four benchmark workloads: inputs from a seed, one public call, checks.

Each workload is a shortened acceptance-gate shape (see README.md for why
each was chosen and what it should and should not move).  `prepare` makes
the inputs, `setup` does the cold-cache construction that `setup_s`
times, `call` is the timed call into the package's public entry point,
and `verify` checks its output and returns a digest of everything it
produced, so repeated calls can be compared bit for bit.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import shutil
from pathlib import Path

import numpy as np

from snselab import experiments, forcing, runner, spectral
from snselab.experiments import InitialCondition


def digest(obj) -> str:
    """sha256 over a nested result: arrays by their bytes, floats by repr."""
    h = hashlib.sha256()

    def feed(x):
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            x = dataclasses.asdict(x)
        if isinstance(x, dict):
            for k in sorted(x, key=str):
                h.update(repr(k).encode())
                feed(x[k])
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for v in x:
                feed(v)
            h.update(b"]")
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + repr(x.shape).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def _report_digest(report) -> str:
    return digest({"tables": report.tables, "fits": report.fits,
                   "scalars": report.scalars, "checks": report.checks})


def _in(x, lo, hi) -> bool:
    return x is not None and math.isfinite(x) and lo <= x <= hi


class Workload:
    def clean(self, inputs) -> None:
        """Remove what one call left behind, so the next starts alike."""


class TemporalLadder(Workload):
    """Gate-3 shape on a shorter horizon: 4 rungs, reference at delta/16."""

    name = "temporal-ladder"

    def prepare(self, seed: int, workdir: Path):
        cfg = experiments.TemporalOrderConfig(
            deltas=(1 / 40, 1 / 80, 1 / 160, 1 / 320), shells=16, horizon=0.025,
            ensemble=128, nu=1.0, forcing_shells=4, forcing_variance=0.5,
            refine=16, p_moment=0.5, ic=InitialCondition("random", 1.0), threads=1)
        return cfg, seed

    def nominal(self, inputs) -> int:
        cfg, _ = inputs
        coarse = sum(round(cfg.horizon / d) for d in cfg.deltas)
        return cfg.ensemble * coarse * (cfg.refine + 1)

    def setup(self, inputs):
        cfg, seed = inputs
        grid = spectral.make_grid(cfg.shells)
        forcing.low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
        cfg.ic.build(grid, seed)

    def call(self, inputs):
        cfg, seed = inputs
        return experiments.temporal_order_study(cfg, seed)

    def verify(self, inputs, report):
        fit = report.fits["moment_p"]
        facts = {"moment_p_slope": fit.slope, "moment_p_r2": fit.r_squared}
        ok = _in(fit.slope, 0.40, 0.60) and _in(fit.r_squared, 0.97, 1.0)
        return ok, _report_digest(report), facts


class SinglePath(Workload):
    """Gate-13 stationary-proxy shape through the CLI: M = 1, CSV and checkpoints."""

    name = "single-path"
    steps = 4000
    cadence = 1000

    def prepare(self, seed: int, workdir: Path):
        cfg_path = workdir / "single-path.cfg"
        cfg_path.write_text(f"""[physics]
nu = 1.0
[forcing]
preset = low-mode
shells = 4
variance = 0.5
[discretization]
shells = 10
delta = 0.05
[experiment]
steps = {self.steps}
[initial]
kind = random
amplitude = 3.0
[reproducibility]
seed = {seed}
record_stride = 1
[io]
checkpoint_cadence = {self.cadence}
""")
        return cfg_path, seed, workdir / "out"

    def nominal(self, inputs) -> int:
        return self.steps

    def setup(self, inputs):
        cfg_path, seed, _ = inputs
        cfg = runner.load_config(str(cfg_path))
        grid = spectral.make_grid(int(cfg.get("discretization", "shells")))
        runner.build_forcing(cfg, grid)
        InitialCondition("random", 3.0).build(grid, seed)

    def call(self, inputs):
        cfg_path, seed, out = inputs
        return runner.main(["simulate", "--config", str(cfg_path), "--seed", str(seed),
                            "--out", str(out)])

    def clean(self, inputs) -> None:
        shutil.rmtree(inputs[2], ignore_errors=True)

    def verify(self, inputs, code):
        _, seed, out = inputs
        facts = {"exit_code": code}
        if code != 0:
            return False, "", facts
        with open(out / "tables" / "diagnostics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        finite = all(math.isfinite(float(r["energy_sq"])) and math.isfinite(float(r["h1_sq"]))
                     for r in rows)
        ckpts = sorted((out / "checkpoints").rglob("state_*.fld"))
        state, _, ck_seed, _, step_index = runner.restore(ckpts[-1])
        # the restored state must reproduce the last recorded energy bit for bit
        energy = format(float(spectral.norm_l2_sq(state.coeffs)), ".17g")
        files = sorted(p for p in out.rglob("*") if p.is_file())
        facts.update(rows=len(rows), checkpoint_files=len(ckpts),
                     bytes_written=sum(p.stat().st_size for p in files))
        ok = (len(rows) == self.steps + 1 and finite and step_index == self.steps
              and ck_seed == seed and energy == rows[-1]["energy_sq"])
        blob = digest([str(p.relative_to(out)).encode() + p.read_bytes() for p in files])
        return ok, blob, facts


class NudgedCoupling(Workload):
    """Gate-8 shape on a shorter horizon: K = 4, three perturbation sizes."""

    name = "nudged-coupling"

    def prepare(self, seed: int, workdir: Path):
        cfg = experiments.CouplingStudyConfig(
            shells=16, delta=0.01, horizon=0.8, shells_controlled=4, beta=None,
            perturbations=(1e-2, 1e-1, 1.0), ensemble=64, nu=1.0,
            forcing_shells=4, forcing_variance=0.5, compute_shifts=True,
            ic=InitialCondition("random", 1.0), threads=1)
        return cfg, seed

    def nominal(self, inputs) -> int:
        cfg, _ = inputs
        return len(cfg.perturbations) * round(cfg.horizon / cfg.delta) * 2 * cfg.ensemble

    def setup(self, inputs):
        cfg, seed = inputs
        grid = spectral.make_grid(cfg.shells)
        forcing.low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
        cfg.ic.build(grid, seed)

    def call(self, inputs):
        cfg, seed = inputs
        return experiments.coupling_study(cfg, seed)

    def verify(self, inputs, report):
        rows = report.tables["perturbations"]
        slope = report.scalars.get("kl_linearity_slope")
        spread = report.scalars.get("kl_ratio_spread")
        gap = max(r["gap_ratio"] for r in rows)
        facts = {"kl_slope": slope, "kl_ratio_spread": spread, "max_gap_ratio": gap}
        ok = (_in(slope, 0.8, 1.2) and _in(spread, 0.0, 10.0) and _in(gap, 0.0, 1e-3)
              and all(math.isfinite(r["kl_mean"]) for r in rows))
        return ok, _report_digest(report), facts


class ContractionGrid(Workload):
    """Gate-9/10 shape on a shorter horizon: 3 x 3 (N, delta) cells, exact W."""

    name = "contraction-grid"

    def prepare(self, seed: int, workdir: Path):
        cfg = experiments.ContractionConfig(
            shells_list=(3, 4, 5), deltas=(0.02, 0.01, 0.005), horizon=1.5,
            record_time=0.5, ensemble=32, nu=1.0, forcing_shells=2,
            forcing_variance=0.5, threads=1)
        return cfg, seed

    def nominal(self, inputs) -> int:
        cfg, _ = inputs
        steps = sum(round(cfg.horizon / d) for d in cfg.deltas)
        return 2 * cfg.ensemble * steps * len(cfg.shells_list)

    def setup(self, inputs):
        cfg, seed = inputs
        for shells in cfg.shells_list:
            grid = spectral.make_grid(shells)
            forcing.low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
            cfg.ic.build(grid, seed)

    def call(self, inputs):
        cfg, seed = inputs
        return experiments.contraction_study(cfg, seed)

    def verify(self, inputs, report):
        facts = {"checks": dict(report.checks),
                 "rate_spread": report.scalars["rate_spread"],
                 "exact_points": sum("w_exact" in r for r in report.tables["series"])}
        ok = bool(report.checks) and all(report.checks.values())
        return ok, _report_digest(report), facts


WORKLOADS = {w.name: w for w in (TemporalLadder(), SinglePath(), NudgedCoupling(),
                                 ContractionGrid())}
