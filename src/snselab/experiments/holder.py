"""Hoelder regularity in time: ``snse-lab holder``, acceptance gate 12.

Increment moments over a lag ladder in one observed window; the gate
passes on the band of their log-log slope.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .. import integrator as integ
from .. import spectral
from ..forcing import low_mode_basis
from ..integrator import SchemeParams
from ..spectral import make_grid
from . import BANDS, InitialCondition, StudyReport, _at_least, _require, fit_rate


@dataclass(frozen=True)
class HolderConfig:
    shells: int = 16
    delta: float = 1 / 256
    burn_steps: int = 128
    window_steps: int = 256
    lag_min_steps: int = 2
    lag_max_steps: int = 200
    n_lags: int = 12
    moment: int = 2
    ensemble: int = 64
    nu: float = 1.0
    forcing_shells: int = 4
    forcing_variance: float = 0.5
    ic: InitialCondition = InitialCondition(kind="random", amplitude=1.0)
    n_boot: int = 200

    def __post_init__(self):
        _at_least(self, shells=1, burn_steps=0, lag_min_steps=1, lag_max_steps=1, n_lags=2,
                  ensemble=1, n_boot=1, forcing_shells=1, forcing_variance=0.0)
        _require(self.moment > 0, "moment must be positive", "moment")
        lags = self.lags()
        _require(lags.max() < self.window_steps, "largest lag exceeds the window",
                 "lag_max_steps")
        decades = np.log10(lags.max() / lags.min())
        _require(decades >= 1.5, f"lag ladder spans {decades:.2f} decades, need >= 1.5",
                 "lag_max_steps")

    def lags(self) -> np.ndarray:
        """The lag ladder: ``n_lags`` geometric steps, rounded, without repeats."""
        return np.unique(np.round(np.geomspace(self.lag_min_steps, self.lag_max_steps,
                                               self.n_lags)).astype(int))


def holder_study(cfg: HolderConfig, seed: int) -> StudyReport:
    """Fit of log E|xi(t) - xi(s)|^m against log|t - s| over a lag ladder.

    An observer of the march keeps the packed rows of the window, the
    steps ``burn_steps`` .. ``burn_steps + window_steps``; every lag's
    moment averages over all pairs of window steps that lag apart."""
    lags = cfg.lags()
    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    p = SchemeParams(cfg.nu, cfg.delta, cfg.shells)
    xi0 = cfg.ic.build(grid, seed)
    window = np.empty((cfg.window_steps + 1, cfg.ensemble, 2 * grid.n_half))

    def keep(step, c, noise, noise_scale):
        if step >= cfg.burn_steps:
            window[step - cfg.burn_steps] = c

    integ.march(p, basis, [xi0], seed, np.arange(cfg.ensemble),
                cfg.burn_steps + cfg.window_steps, keep)

    rows = []
    for lag in lags:
        moments = spectral.packed_norm_sq(window[lag:] - window[:-lag]) ** (cfg.moment / 2.0)
        rows.append({"lag_steps": int(lag), "lag_time": float(lag * cfg.delta),
                     "moment": float(np.mean(moments)),
                     "origins": int(moments.shape[0]), "paths": cfg.ensemble})

    xs = np.array([r["lag_time"] for r in rows])
    ys = np.array([r["moment"] for r in rows])
    fit = fit_rate(xs, ys, n_boot=cfg.n_boot, seed=seed, boot_stream=4)
    report = StudyReport("holder-regularity", asdict(cfg), seed)
    report.tables["lags"] = rows
    report.fits["increment_moment"] = fit
    report.scalars["exponent"] = fit.slope
    report.scalars["holder_exponent_per_increment"] = fit.slope / cfg.moment
    report.checks["holder-band"] = BANDS["holder-regularity"]["exponent"].contains(
        fit.slope)
    return report
