"""The nudged coupling and its Girsanov cost: ``snse-lab couple``,
acceptance gates 7 and 8.

Gate 7 passes on the gap decay and the per-step contraction factor,
gate 8 on the cost's linearity in the squared gap and its spread
against the closed-form majorant.  Named so that it does not shadow
`snselab.coupling`, which it drives.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .. import coupling as coupling_mod
from .. import spectral
from ..errors import ConfigError, StructuralError
from ..forcing import low_mode_basis
from ..integrator import SchemeParams
from ..spectral import SpectralField, make_grid
from . import (BANDS, InitialCondition, StudyReport, _at_least, _require, _require_mode,
               _whole_steps, fit_rate, pathwise_contraction_check)


@dataclass(frozen=True)
class CouplingStudyConfig:
    shells: int = 16
    delta: float = 0.01
    horizon: float = 10.0
    shells_controlled: int = 8
    beta: float | None = None          # None: saturate nu lambda_{K+1} / 2
    perturbations: tuple = (1e-2,)
    gap_mode: tuple = (1, 0)
    ensemble: int = 64
    nu: float = 1.0
    forcing_shells: int = 8
    forcing_variance: float = 0.5
    compute_shifts: bool = True
    ic: InitialCondition = InitialCondition(kind="random", amplitude=1.0)
    threads: int = 1
    n_boot: int = 200

    def __post_init__(self):
        _whole_steps(self.horizon, self.delta, "horizon")
        # a zero size starts the nudged copy on the plain one: its gap is exact
        # from the start, and the ledger would pass on no contraction at all
        _require(all(size != 0 and math.isfinite(size) for size in self.perturbations),
                 f"sizes must be nonzero and finite, got {self.perturbations!r}",
                 "perturbations")
        _at_least(self, ensemble=1, n_boot=1, shells=1, shells_controlled=1,
                  forcing_shells=1, forcing_variance=0.0)
        _require(not self.compute_shifts or self.forcing_shells >= self.shells_controlled,
                 "shift reconstruction needs forcing covering the controlled band",
                 "forcing_shells")
        _require_mode(make_grid(self.shells), self.gap_mode, "gap_mode")


def coupling_study(cfg: CouplingStudyConfig, seed: int) -> StudyReport:
    """Gap decay and Girsanov cost of the nudged coupling.

    For each perturbation size the nudged system tracks the plain one on a
    shared tape; reported are the fitted per-step gap factor against the
    -(3/4) log(1 + beta delta) benchmark and the mean path-space cost
    against its closed-form majorant shape (linear in |zeta^0|^2).  The
    plain ensemble marches once for every size and the nudged ensembles
    of all sizes march as one batch, so ``cfg.threads`` is ignored.
    """
    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    if cfg.compute_shifts:
        # refused before the march, which would fail at step 1 or in `kl_majorant`
        try:
            basis.pinv_norm()
        except StructuralError:
            raise ConfigError("forcing of rank zero cannot carry the Girsanov shift",
                              field="forcing_variance") from None
    p = SchemeParams(cfg.nu, cfg.delta, cfg.shells)
    proposal = coupling_mod.propose_beta(cfg.shells_controlled, p, basis)
    beta = cfg.beta if cfg.beta is not None else proposal["beta"]
    np_ = coupling_mod.NudgeParams(cfg.shells_controlled, beta, p)
    n_steps = _whole_steps(cfg.horizon, cfg.delta, "horizon")
    xi0 = cfg.ic.build(grid, seed)
    gap_dir = spectral.harmonic_field(grid, *cfg.gap_mode, amplitude=1.0,
                                      normalized=True)
    traj = np.arange(cfg.ensemble)

    starts = [SpectralField(grid, xi0.coeffs + size * gap_dir.coeffs)
              for size in cfg.perturbations]
    pairs = coupling_mod.coupled_ensembles(xi0, starts, n_steps, np_, basis, seed, traj,
                                           compute_shifts=cfg.compute_shifts)

    report = StudyReport("nudged-coupling", asdict(cfg), seed)
    report.scalars["beta"] = beta
    report.scalars["lambda_next"] = proposal["lambda_next"]
    report.scalars["beta_floor_ok"] = proposal["floor_ok"]
    rows = []
    for size, pair in zip(cfg.perturbations, pairs):
        gap0_sq = float(pair.gaps_sq[0].mean())
        gap_final_sq = float(pair.gaps_sq[-1].mean())
        row = {"size": size, "gap0_sq": gap0_sq, "gap_final_sq": gap_final_sq,
               "gap_ratio": gap_final_sq / max(gap0_sq, 1e-300),
               **pathwise_contraction_check(pair.gaps_sq, np_)}
        if cfg.compute_shifts:
            # the mean path-space cost as the KL estimate, and 1 - exp(-KL)/2
            kl_mean = float(np.mean(pair.kl_bound))
            majorant = coupling_mod.kl_majorant(np_, basis, gap0_sq)
            row["kl_mean"] = kl_mean
            row["kl_majorant"] = majorant
            row["kl_ratio"] = kl_mean / max(majorant, 1e-300)
            row["tv_from_kl"] = float(1.0 - 0.5 * np.exp(-kl_mean))
        rows.append(row)
    report.tables["perturbations"] = rows
    last = pairs[-1]
    gap_table = []
    for i, v in enumerate(np.mean(last.gaps_sq, axis=1)):
        row = {"step": int(i), "t": float(i * cfg.delta), "gap_sq_mean": float(v)}
        if cfg.compute_shifts:
            row["shift_sq_mean"] = float(last.shift_sq_mean[i - 1]) if i > 0 else 0.0
        gap_table.append(row)
    report.tables["gap_series"] = gap_table
    if cfg.compute_shifts and len(cfg.perturbations) >= 3:
        sizes_sq = np.array([r["gap0_sq"] for r in rows])
        kls = np.array([r["kl_mean"] for r in rows])
        fit = fit_rate(sizes_sq, kls, n_boot=cfg.n_boot, seed=seed, boot_stream=7)
        report.fits["kl_vs_gap_sq"] = fit
        report.scalars["kl_linearity_slope"] = fit.slope
        ratios = np.array([r["kl_ratio"] for r in rows])
        report.scalars["kl_ratio_spread"] = float(ratios.max() / ratios.min())
    bands = BANDS["nudged-coupling"]
    factor = bands["per_step_log_factor"]
    report.checks["gap-decay"] = all(
        r["exact_coupling"] or bands["gap_ratio"].contains(r["gap_ratio"]) for r in rows)
    report.checks["per-step-factor"] = all(
        r["exact_coupling"] or (r["per_step_log_factor"] is not None
                                and factor.contains(r["per_step_log_factor"])
                                and r["r_squared"] >= factor.r2) for r in rows)
    if "kl_linearity_slope" in report.scalars:
        report.checks["kl-linearity-band"] = bands["kl_linearity_slope"].contains(
            report.scalars["kl_linearity_slope"])
        report.checks["kl-majorant-spread"] = bands["kl_ratio_spread"].contains(
            report.scalars["kl_ratio_spread"])
    return report
