"""Wasserstein contraction across the (cutoff, delta) grid: ``snse-lab
contraction``, acceptance gates 9 and 10.

Gate 9 passes on the decay rates and their spread over the grid, gate
10 on the exact distance lying below the coupled bound.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .. import integrator as integ
from .. import measures as measures_mod
from .. import spectral
from ..errors import FitError
from ..forcing import low_mode_basis
from ..integrator import SchemeParams
from ..measures import DistanceParams, default_alpha
from ..spectral import SpectralField, make_grid
from . import (BANDS, InitialCondition, StudyReport, _at_least, _monotone, _require,
               _require_mode, _whole_steps, fit_series_exponential)


@dataclass(frozen=True)
class ContractionConfig:
    shells_list: tuple = (3, 4, 5)
    deltas: tuple = (0.02, 0.01, 0.005)
    horizon: float = 12.0
    record_time: float = 0.5
    ensemble: int = 32
    nu: float = 1.0
    forcing_shells: int = 2
    forcing_variance: float = 0.5
    gap_amplitude: float = 1.0
    gap_mode: tuple = (1, 0)
    eps: float = 1.0
    s: float = 1.0
    alpha: float | None = None
    ic: InitialCondition = InitialCondition(kind="random", amplitude=0.5)
    exact_limit: int = 64
    fit_floor: float = 1e-12
    threads: int = 1

    def __post_init__(self):
        _at_least(self, ensemble=1, forcing_shells=1, forcing_variance=0.0)
        _require(_monotone(self.shells_list), "ladder must be strictly monotone",
                 "shells_list")
        _require(_monotone(self.deltas), "ladder must be strictly monotone", "deltas")
        _require(self.forcing_shells <= min(self.shells_list),
                 "forcing must fit inside every cutoff", "forcing_shells")
        _require_mode(make_grid(min(self.shells_list)), self.gap_mode, "gap_mode")
        for delta in self.deltas:
            _whole_steps(self.horizon, delta, "horizon")
            _whole_steps(delta, min(self.deltas), "deltas")
            _whole_steps(self.record_time, delta, "record_time")


def contraction_study(cfg: ContractionConfig, seed: int) -> StudyReport:
    """Decay of the coupled-bound Wasserstein distance, grid-uniformly.

    Two ensembles start from initial conditions separated by a low-mode
    gap and advance under the synchronized coupling (one tape per member
    pair).  The (cutoff, delta) grid is one `integrator.ladder` on one
    Brownian path: its march is the finest cell, with the pair, built on
    the top grid, as its two starts, and every other cell is a rung that
    starts from the pair's projection.  At each record time a reducer
    takes every cell's mean weighted cost over pairs, an upper bound on
    the exact empirical Wasserstein distance (computed alongside for small
    ensembles).  The fitted exponential rates are compared across the grid
    to exhibit discretization uniformity.  Every delta must be a whole
    multiple of the smallest, and ``record_time`` a whole number of steps
    of each.  The cells advance in lockstep in one thread, so
    ``cfg.threads`` is ignored.
    """
    d_min = min(cfg.deltas)
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(
        cfg.nu, cfg.forcing_variance)
    dp = DistanceParams(cfg.eps, cfg.s, alpha)
    m = cfg.ensemble
    top = make_grid(max(cfg.shells_list))
    xi0 = cfg.ic.build(top, seed)
    gap = spectral.harmonic_field(top, *cfg.gap_mode, amplitude=cfg.gap_amplitude,
                                  normalized=True)
    cells = [(shells, delta) for shells in cfg.shells_list for delta in cfg.deltas]
    # the march's cell, then the rungs' in grid order
    order = sorted(cells, key=lambda cell: cell != (top.shells, d_min))
    params = [SchemeParams(cfg.nu, delta, shells) for shells, delta in order]
    n_steps = _whole_steps(cfg.horizon, d_min, "horizon")
    record = _whole_steps(cfg.record_time, d_min, "record_time")
    series = {cell: ([], []) for cell in cells}   # coupled, exact

    def observe(step, c, cs):
        for cell, state in zip(order, [c, *cs]):
            coupled, exact = series[cell]
            coupled.append(measures_mod.wasserstein_coupled_bound(state[:m], state[m:], dp))
            if m <= cfg.exact_limit:
                exact.append(measures_mod.wasserstein_exact(state[:m], state[m:], dp))

    integ.ladder(params[0], params[1:],
                 low_mode_basis(top, cfg.forcing_shells, cfg.forcing_variance),
                 [xi0, SpectralField(top, xi0.coeffs + gap.coeffs)], seed, np.arange(m),
                 n_steps, record, observe)

    report = StudyReport("wasserstein-contraction", asdict(cfg), seed)
    series_rows, cell_rows, ordering = [], [], []
    times = np.arange(0, n_steps + 1, record) * d_min
    for shells, delta in cells:
        coupled, exact = (np.array(x) for x in series[shells, delta])
        keep = (times > 0) & (coupled > cfg.fit_floor * max(coupled[0], 1e-300))
        if np.count_nonzero(keep) < 3:
            raise FitError(f"too few usable contraction points at cell {(shells, delta)}")
        for i, t in enumerate(times):
            row = {"shells": shells, "delta": delta, "t": float(t),
                   "w_coupled": float(coupled[i])}
            if exact.size:
                row["w_exact"] = float(exact[i])
            series_rows.append(row)
        if exact.size:
            ordering.append(bool(np.all(exact <= coupled + 1e-12)))
        fit = fit_series_exponential(times[keep], coupled[keep])
        cell_rows.append({"shells": shells, "delta": delta,
                          "rate": -fit["slope"], "r_squared": fit["r_squared"]})
    report.tables["series"] = series_rows
    report.tables["cells"] = cell_rows
    rates = np.array([r["rate"] for r in cell_rows])
    report.scalars["rate_min"] = float(rates.min())
    report.scalars["rate_max"] = float(rates.max())
    report.scalars["rate_spread"] = float(rates.max() / max(rates.min(), 1e-300))
    report.scalars["alpha"] = alpha
    bands = BANDS["wasserstein-contraction"]
    report.checks["all_rates_decay"] = bool(np.all(rates > 0))
    report.checks["r_squared_ok"] = all(r["r_squared"] >= bands["rate"].r2
                                        for r in cell_rows)
    report.checks["uniform_band_3x"] = bands["rate_spread"].contains(
        report.scalars["rate_spread"])
    if ordering:
        report.checks["exact_below_coupled"] = all(ordering)
    return report
