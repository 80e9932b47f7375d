"""Weak error across the (cutoff, delta) grid: ``snse-lab weak``.

No acceptance gate reads it: it reports the errors against the
controlling function of the weak bound and their correlation, not a band.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .. import integrator as integ
from ..forcing import low_mode_basis
from ..integrator import SchemeParams
from ..spectral import make_grid
from . import (InitialCondition, ObservableSpec, StudyReport, _at_least, _monotone,
               _require, _require_mode, _whole_steps)


@dataclass(frozen=True)
class WeakErrorConfig:
    shells_list: tuple = (4, 8, 12)
    deltas: tuple = (0.04, 0.02, 0.01)
    reference_shells: int = 16
    reference_delta: float = 0.005
    horizon: float = 4.0
    record_time: float = 0.2
    ensemble: int = 128
    nu: float = 1.0
    forcing_shells: int = 4
    forcing_variance: float = 0.5
    observable: ObservableSpec = ObservableSpec("clipped-norm")
    s: float = 0.5
    holder_exponent: float = 0.49
    strong_moment: float = 0.5
    ic: InitialCondition = InitialCondition(kind="random", amplitude=1.0)

    def __post_init__(self):
        _whole_steps(self.horizon, self.record_time, "horizon")
        _at_least(self, ensemble=1, forcing_shells=1, forcing_variance=0.0)
        _require(0.0 < self.s <= 1.0, "s must lie in (0, 1]", "s")
        _require(_monotone(self.shells_list), "ladder must be strictly monotone",
                 "shells_list")
        _require(_monotone(self.deltas), "ladder must be strictly monotone", "deltas")
        _require(self.reference_shells >= max(self.shells_list),
                 "reference cutoff must dominate the grid", "reference_shells")
        _require(self.forcing_shells <= min(self.shells_list),
                 "forcing must fit inside every cutoff", "forcing_shells")
        for delta in (self.reference_delta, *self.deltas):
            _whole_steps(delta, self.reference_delta, "deltas")
            _whole_steps(self.record_time, delta, "record_time")
        if self.observable.kind == "low-mode-coefficient":
            _require_mode(make_grid(min(self.shells_list)), self.observable.mode,
                          "observable.mode")


def weak_error_study(cfg: WeakErrorConfig, seed: int) -> StudyReport:
    """sup over recorded times of the observable-mean gap to the reference.

    Every (N, delta) cell is a rung of one `integrator.ladder` on the
    reference march, so all share its tape (common random numbers) and the
    difference of means converges at the pathwise rate rather than the
    1/sqrt(M) rate of two independent estimators; one reducer takes the
    observable means at the record times.  Every delta must be a whole
    multiple of ``reference_delta``.  Errors are tabulated against the
    controlling function g(N, delta) = max(delta^s, delta^(p/2))^(beta/2)
    + N^(-s/4) of the weak convergence bound.
    """
    obs = cfg.observable
    ref_grid = make_grid(cfg.reference_shells)
    n_rec = _whole_steps(cfg.horizon, cfg.record_time, "horizon")
    stride = _whole_steps(cfg.record_time, cfg.reference_delta, "record_time")
    cells = [(shells, delta) for shells in cfg.shells_list for delta in cfg.deltas]
    grids = [ref_grid] + [make_grid(shells) for shells, _ in cells]
    # observable means at the record times of the reference, then of each cell
    means = np.empty((len(grids), n_rec + 1))

    def observe(step, c, cs):
        for j, state in enumerate([c, *cs]):
            means[j, step // stride] = np.mean(obs.evaluate(grids[j], state))

    integ.ladder(SchemeParams(cfg.nu, cfg.reference_delta, cfg.reference_shells),
                 [SchemeParams(cfg.nu, delta, shells) for shells, delta in cells],
                 low_mode_basis(ref_grid, cfg.forcing_shells, cfg.forcing_variance),
                 [cfg.ic.build(ref_grid, seed)], seed, np.arange(cfg.ensemble),
                 n_rec * stride, stride, observe)

    p_small = cfg.strong_moment
    rows = []
    for (shells, delta), cell_means in zip(cells, means[1:]):
        modes = make_grid(shells).n_modes
        g = (max(delta ** cfg.s, delta ** (p_small / 2.0))
             ** (cfg.holder_exponent / 2.0) + modes ** (-cfg.s / 4.0))
        rows.append({"shells": shells, "delta": delta, "modes": modes,
                     "observable": obs.kind,
                     "weak_error": float(np.max(np.abs(cell_means - means[0]))),
                     "g_control": float(g)})
    report = StudyReport("weak-error", asdict(cfg), seed)
    report.tables["grid"] = rows
    errs = np.array([r["weak_error"] for r in rows])
    gs = np.array([r["g_control"] for r in rows])
    report.scalars[f"max_error_{obs.kind}"] = float(errs.max())
    pos = errs > 0
    if np.count_nonzero(pos) >= 3 and np.unique(gs[pos]).size >= 2:
        corr = np.corrcoef(np.log(gs[pos]), np.log(errs[pos]))[0, 1]
        report.scalars[f"g_correlation_{obs.kind}"] = float(corr)
    return report
