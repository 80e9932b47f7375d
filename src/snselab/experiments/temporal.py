"""Temporal strong order: ``snse-lab converge-time``, acceptance gate 3.

The ladder of time steps marches on one Brownian path against a shared
reference; the gate passes on the band of the fitted moment slope.
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
class TemporalOrderConfig:
    deltas: tuple = (1 / 50, 1 / 100, 1 / 200, 1 / 400, 1 / 800)
    shells: int = 16
    horizon: float = 1.0
    ensemble: int = 128
    nu: float = 1.0
    forcing_shells: int = 4
    forcing_variance: float = 0.5
    refine: int = 16
    p_moment: float = 0.5
    ic: InitialCondition = InitialCondition(kind="random", amplitude=1.0)
    threads: int = 1
    n_boot: int = 200

    def __post_init__(self):
        _require(len(self.deltas) >= 4, "ladder needs >= 4 rungs", "deltas")
        _require(_monotone(self.deltas), "ladder must be strictly monotone", "deltas")
        for delta in self.deltas:
            _whole_steps(delta, min(self.deltas), "deltas")
            _whole_steps(self.horizon, delta, "horizon")
        _at_least(self, shells=1, refine=2, ensemble=1, n_boot=1, forcing_shells=1,
                  forcing_variance=0.0)
        _require(self.p_moment > 0, "moment must be positive", "p_moment")


def temporal_order_study(cfg: TemporalOrderConfig, seed: int) -> StudyReport:
    """Strong error of each rung against one shared reference at
    δ_min/refine on the base tape.

    The reference is the march of the ensemble at delta_base =
    δ_min/refine, and each rung δ steps on the same Brownian path in
    `integrator.ladder`.  The measured pathwise gap

        E sup_{k <= K} |xi_coarse^k - xi_ref(t_k)|^p

    therefore isolates the time-discretization error.  The reported order
    is the slope of the 1/p-normalized moment, directly comparable between
    the stochastic (order ~1/2) and deterministic (order 1) regimes; the
    deterministic one is ``forcing_variance = 0``.  The rungs advance in
    lockstep in one thread, so ``cfg.threads`` is ignored.
    """
    deltas = tuple(sorted(cfg.deltas, reverse=True))
    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    delta_base = deltas[-1] / cfg.refine

    sups = [np.zeros(cfg.ensemble) for _ in deltas]

    def track(step, ref, cs):
        for sup, c in zip(sups, cs):
            if c is not None:
                np.maximum(sup, np.sqrt(spectral.packed_norm_sq(c - ref)), out=sup)

    integ.ladder(SchemeParams(cfg.nu, delta_base, cfg.shells),
                 [SchemeParams(cfg.nu, delta, cfg.shells) for delta in deltas], basis,
                 [cfg.ic.build(grid, seed)], seed, np.arange(cfg.ensemble),
                 round(cfg.horizon / delta_base), cfg.refine, track)

    rows = [{"delta": delta, "err_p": float(np.mean(sup ** cfg.p_moment)),
             "err_sq": float(np.mean(sup ** 2))} for delta, sup in zip(deltas, sups)]
    xs = np.array([r["delta"] for r in rows])
    # raw p-moment E[sup^p] (the slope quoted by the acceptance band) and the
    # 1/p-normalized moment, whose slope is the strong order itself
    fit_moment = fit_rate(xs, np.array([r["err_p"] for r in rows]),
                          n_boot=cfg.n_boot, seed=seed, boot_stream=1)
    ys = np.array([r["err_p"] ** (1.0 / cfg.p_moment) for r in rows])
    fit = fit_rate(xs, ys, n_boot=cfg.n_boot, seed=seed, boot_stream=1)
    fit_sq = fit_rate(xs, np.array([r["err_sq"] for r in rows]) ** 0.5,
                      n_boot=cfg.n_boot, seed=seed, boot_stream=2)

    table = [{"delta": r["delta"], "err_p_moment": r["err_p"],
              "err_mean_square": r["err_sq"],
              "err_normalized": r["err_p"] ** (1.0 / cfg.p_moment),
              "paths": cfg.ensemble} for r in rows]
    report = StudyReport("temporal-order", asdict(cfg), seed)
    report.tables["rungs"] = table
    report.fits["moment_p"] = fit_moment
    report.fits["order_p"] = fit
    report.fits["order_l2"] = fit_sq
    report.scalars["order"] = fit.slope
    report.scalars["moment_p_slope"] = fit_moment.slope
    band = BANDS["temporal-order"]["moment_p"]
    report.checks["temporal-order-band"] = band.contains(fit_moment.slope)
    report.checks["temporal-order-r2"] = fit_moment.r_squared >= band.r2
    return report
