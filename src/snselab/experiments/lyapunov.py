"""Exponential Lyapunov bound: ``snse-lab lyapunov``, acceptance gate 5.

The gate passes when at least 95% of the master seeds keep the
ensemble means of exp(alpha |xi|^2) below the envelope at every step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .. import integrator as integ
from .. import spectral
from ..forcing import low_mode_basis
from ..integrator import SchemeParams
from ..measures import default_alpha
from ..spectral import make_grid
from . import BANDS, InitialCondition, StudyReport, _at_least, _require, _whole_steps


def _pmap(fn, items: Iterable, threads: int) -> list:
    """Order-preserving parallel map; results never depend on thread count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor   # not loaded by a serial run

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class LyapunovConfig:
    shells: int = 16
    delta: float = 0.05
    horizon: float = 20.0
    ensemble: int = 128
    n_seeds: int = 20
    margin_factor: float = 3.0
    nu: float = 1.0
    forcing_shells: int = 4
    forcing_variance: float = 0.5
    alpha: float | None = None
    ic: InitialCondition = InitialCondition(kind="random", amplitude=1.0)
    threads: int = 1

    def __post_init__(self):
        _whole_steps(self.horizon, self.delta, "horizon")
        _require(self.alpha is None or self.alpha > 0, f"alpha={self.alpha} must be positive",
                 "alpha")
        _at_least(self, shells=1, n_seeds=1, ensemble=1, forcing_shells=1,
                  forcing_variance=0.0)
        _require(self.margin_factor > 0, "envelope margin must be positive",
                 "margin_factor")


def lyapunov_study(cfg: LyapunovConfig, seed: int) -> StudyReport:
    """Ensemble means of exp(alpha |xi^n|^2) against the Lyapunov envelope

    exp(alpha (2 |xi0|^2 / (1 + nu lambda_1 delta)^n + C)) with
    C = (1 + nu delta) |sigma|^2 / nu, checked at every step for a family
    of independent master seeds.
    """
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(
        cfg.nu, cfg.forcing_variance)
    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    # alpha <= nu / (4 |sigma|^2) + 1e-15 multiplied through by 4 |sigma|^2,
    # so that no forcing (|sigma| = 0) leaves alpha uncapped
    _require(4.0 * alpha * basis.variance <= cfg.nu + 4e-15 * basis.variance,
             f"alpha={alpha} violates the moment condition 4 alpha |sigma|^2 <= nu",
             "alpha")
    p = SchemeParams(cfg.nu, cfg.delta, cfg.shells)
    n_steps = _whole_steps(cfg.horizon, cfg.delta, "horizon")
    lam1 = 1.0
    c_const = (1.0 + cfg.nu * p.delta) * basis.variance / cfg.nu
    traj = np.arange(cfg.ensemble)

    def run_seed(k: int) -> dict:
        sk = seed + k
        xi0 = cfg.ic.build(grid, sk)
        run = integ.march(p, basis, [xi0], sk, traj, n_steps)
        e0 = float(spectral.norm_l2_sq(xi0.coeffs))
        n = np.arange(n_steps + 1)
        envelope = np.exp(alpha * (2.0 * e0 / (1.0 + cfg.nu * lam1 * cfg.delta) ** n
                                   + c_const)) * cfg.margin_factor
        means = np.mean(np.exp(alpha * run.energy_sq), axis=1)
        return {"seed": sk, "ok": bool(np.all(means <= envelope)),
                "worst": float(np.max(means / envelope)),
                "mean_final": float(means[-1]), "envelope_final": float(envelope[-1])}

    rows = _pmap(run_seed, range(cfg.n_seeds), cfg.threads)
    n_ok = sum(r["ok"] for r in rows)
    report = StudyReport("exponential-lyapunov", asdict(cfg), seed)
    report.tables["seeds"] = rows
    report.scalars["alpha"] = alpha
    report.scalars["fraction_ok"] = n_ok / cfg.n_seeds
    report.scalars["worst_ratio"] = max(r["worst"] for r in rows)
    report.checks["envelope_95pct"] = BANDS["exponential-lyapunov"]["fraction_ok"].contains(
        report.scalars["fraction_ok"])
    return report
