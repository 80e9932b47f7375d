"""Spatial strong order: ``snse-lab converge-space``, acceptance gate 4.

Galerkin cutoffs step as rungs of the reference march; the gate passes
on the band of the squared error against the mode count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .. import integrator as integ
from .. import spectral
from ..forcing import low_mode_basis
from ..integrator import SchemeParams
from ..spectral import make_grid
from . import (BANDS, InitialCondition, StudyReport, _at_least, _monotone, _require,
               _whole_steps, fit_rate)


@dataclass(frozen=True)
class SpatialOrderConfig:
    shell_ladder: tuple = (3, 4, 6, 8, 11, 16)
    reference_shells: int = 54
    delta: float = 0.005
    horizon: float = 0.25
    ensemble: int = 96
    nu: float = 1.0
    forcing_shells: int = 3
    forcing_variance: float = 0.5
    ic: InitialCondition = InitialCondition(kind="random-phase", amplitude=1.5,
                                            spectral_slope=-2.0)
    record_stride: int = 1
    n_boot: int = 200

    def __post_init__(self):
        _require(_monotone(self.shell_ladder), "ladder must be strictly monotone",
                 "shell_ladder")
        _require(len(self.shell_ladder) >= 2, "need >= 2 rungs", "shell_ladder")
        _require(self.reference_shells > max(self.shell_ladder),
                 "reference cutoff must be strictly largest", "reference_shells")
        _require(self.forcing_shells <= min(self.shell_ladder),
                 "forcing must be resolved on the smallest rung", "forcing_shells")
        _whole_steps(self.horizon, self.delta, "horizon")
        _at_least(self, record_stride=1, ensemble=1, n_boot=1, forcing_shells=1,
                  forcing_variance=0.0)


def spatial_order_study(cfg: SpatialOrderConfig, seed: int) -> StudyReport:
    """Galerkin truncation error against the largest-cutoff reference.

    The reference march steps every cutoff as a rung of `integrator.ladder`
    (one tape, one initial datum restricted per rung; each rung a lone
    march bit for bit), and a reducer keeps the running sup of |embed(xi_N)
    - xi_ref|^2 over every ``record_stride``-th step.  The fitted abscissa
    is the Galerkin dimension (mode count) of each rung, the natural size
    against which the squared error scales like 1/N for H^1 data; shell
    counts are reported alongside.
    """
    ladder = tuple(sorted(cfg.shell_ladder))
    n_steps = _whole_steps(cfg.horizon, cfg.delta, "horizon")
    ref_grid = make_grid(cfg.reference_shells)
    basis = low_mode_basis(ref_grid, cfg.forcing_shells, cfg.forcing_variance)
    cols = [spectral.packed_columns(make_grid(shells), ref_grid) for shells in ladder]
    sups = [np.zeros(cfg.ensemble) for _ in ladder]

    def track(step, ref, cs):
        for k, c in enumerate(cs):
            diff = ref.copy()
            diff[:, cols[k]] -= c
            np.maximum(sups[k], spectral.packed_norm_sq(diff), out=sups[k])

    integ.ladder(SchemeParams(cfg.nu, cfg.delta, cfg.reference_shells),
                 [SchemeParams(cfg.nu, cfg.delta, shells) for shells in ladder], basis,
                 [cfg.ic.build(ref_grid, seed)], seed, np.arange(cfg.ensemble), n_steps,
                 cfg.record_stride, track)
    rows = [{"shells": shells, "modes": make_grid(shells).n_modes,
             "err_sup_sq": float(np.mean(sup)), "paths": cfg.ensemble}
            for shells, sup in zip(ladder, sups)]

    report = StudyReport("spatial-order", asdict(cfg), seed)
    report.tables["rungs"] = rows
    errs = np.array([r["err_sup_sq"] for r in rows])
    if np.max(errs) < 1e-24:
        report.notes.append("resolved regime: truncation errors at rounding level, "
                            "no rate fitted")
        report.scalars["resolved_regime"] = True
        return report
    if len(rows) < 3:
        report.notes.append("fit refused: fewer than 3 rungs, raw table only")
        report.scalars["resolved_regime"] = False
        return report
    fit = fit_rate(np.array([r["modes"] for r in rows], dtype=float), errs,
                   n_boot=cfg.n_boot, seed=seed, boot_stream=3)
    report.fits["order_sq_vs_modes"] = fit
    report.scalars["order"] = fit.slope
    report.scalars["resolved_regime"] = False
    band = BANDS["spatial-order"]["order_sq_vs_modes"]
    report.checks["spatial-order-band"] = band.contains(fit.slope)
    report.checks["spatial-order-r2"] = fit.r_squared >= band.r2
    return report
