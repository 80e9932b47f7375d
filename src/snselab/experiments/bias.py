"""Stationary bias and mean square error: ``snse-lab bias``, acceptance
gate 13.

The gate passes on the bands of the bias and MSE decay exponents in the
run length.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .. import integrator as integ
from .. import spectral
from ..forcing import low_mode_basis
from ..integrator import SchemeParams
from ..spectral import make_grid
from . import (BANDS, MAX_STEPS, InitialCondition, ObservableSpec, StudyReport,
               _at_least, _require, _require_mode, fit_rate)

REFERENCE_TRAJECTORY = 1 << 32   # tape id reserved for proxy/reference paths


@dataclass(frozen=True)
class StationaryBiasConfig:
    shells: int = 10
    delta: float = 0.05
    n_ladder: tuple = (40, 80, 160, 320, 640)
    replicas: int = 64
    reference_steps: int = 80_000
    burn_fraction: float = 0.5
    mse_burn_steps: int = 100
    nu: float = 1.0
    forcing_shells: int = 4
    forcing_variance: float = 0.5
    observable: ObservableSpec = ObservableSpec("clipped-norm", radius=4.0)
    ic: InitialCondition = InitialCondition(kind="random", amplitude=3.0)
    n_boot: int = 200

    def __post_init__(self):
        _require(all(n > 0 for n in self.n_ladder), "ladder entries must be positive",
                 "n_ladder")
        _require(len(set(self.n_ladder)) >= 3, "need >= 3 ladder points", "n_ladder")
        _require(0 <= self.mse_burn_steps < max(self.n_ladder),
                 "burn-in must be shorter than the measured run", "mse_burn_steps")
        _require(0.0 < self.burn_fraction < 1.0, "burn fraction must be in (0,1)",
                 "burn_fraction")
        # a standard error needs two replicas, the stationary proxy one step
        _at_least(self, replicas=2, reference_steps=1, n_boot=1, shells=1,
                  forcing_shells=1, forcing_variance=0.0)
        _require(self.reference_steps <= MAX_STEPS, f"must be <= {MAX_STEPS}",
                 "reference_steps")
        _require(max(self.n_ladder) <= MAX_STEPS, f"must be <= {MAX_STEPS}", "n_ladder")
        if self.observable.kind == "low-mode-coefficient":
            _require_mode(make_grid(self.shells), self.observable.mode, "observable.mode")


def stationary_bias_study(cfg: StationaryBiasConfig, seed: int) -> StudyReport:
    """1/(n delta) legs of the time-average estimator error.

    The stationary average is proxied by one long run with burn-in.  The
    bias leg starts replicas far from equilibrium, where the transient
    integral makes the O(1/(n delta)) bias dominate sampling noise; the
    MSE leg starts replicas after a burn-in window so the variance term
    O(1/(n delta)) dominates the squared bias.
    """
    n_max = max(cfg.n_ladder)
    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    p = SchemeParams(cfg.nu, cfg.delta, cfg.shells)
    obs = cfg.observable

    def observe_run(xi0, n_steps, tape_seed, traj_ids):
        """Per-step observable values (n_steps, M) of one run from xi0: an
        energy kind reads the |xi|^2 the march records, the low-mode
        coefficient an observer."""
        if obs.kind != "low-mode-coefficient":
            run = integ.march(p, basis, [xi0], tape_seed, traj_ids, n_steps)
            return obs.of_energy(run.energy_sq[1:])
        vals = np.empty((n_steps, len(traj_ids)))

        def watch(step, c, noise, noise_scale):
            if step:
                vals[step - 1] = obs.evaluate(grid, c)

        integ.march(p, basis, [xi0], tape_seed, traj_ids, n_steps, watch)
        return vals

    # stationary proxy: single long run, second half averaged
    ref_vals = observe_run(spectral.zero_field(grid), cfg.reference_steps, seed,
                           [REFERENCE_TRAJECTORY])
    proxy = float(np.mean(ref_vals[int(cfg.reference_steps * cfg.burn_fraction):, 0]))

    xi0 = cfg.ic.build(grid, seed)
    traj = np.arange(cfg.replicas)

    # both legs read one march: the bias leg its first n_max steps, the MSE
    # leg the n_max steps after the burn-in
    vals = observe_run(xi0, cfg.mse_burn_steps + n_max, seed + 1, traj)

    def leg(window):
        running = np.cumsum(window, axis=0)
        return {n: running[n - 1] / n for n in cfg.n_ladder}

    bias_leg = leg(vals[:n_max])
    mse_leg = leg(vals[cfg.mse_burn_steps:])

    bias_rows, mse_rows = [], []
    for n in sorted(cfg.n_ladder):
        avg = bias_leg[n]
        bias = abs(float(np.mean(avg)) - proxy)
        se = float(np.std(avg, ddof=1) / np.sqrt(cfg.replicas))
        bias_rows.append({"n": n, "t": n * cfg.delta, "bias": bias,
                          "mc_halfwidth": 1.96 * se})
        avg_m = mse_leg[n]
        mse = float(np.mean((avg_m - proxy) ** 2))
        mse_rows.append({"n": n, "t": n * cfg.delta, "mse": mse})

    report = StudyReport("stationary-bias", asdict(cfg), seed)
    report.tables["bias"] = bias_rows
    report.tables["mse"] = mse_rows
    report.scalars["stationary_proxy"] = proxy
    ns = np.array(sorted(cfg.n_ladder), dtype=float)
    report.fits["bias_decay"] = fit_rate(ns, np.array([r["bias"] for r in bias_rows]),
                                         n_boot=cfg.n_boot, seed=seed, boot_stream=5)
    report.fits["mse_decay"] = fit_rate(ns, np.array([r["mse"] for r in mse_rows]),
                                        n_boot=cfg.n_boot, seed=seed, boot_stream=6)
    report.scalars["bias_exponent"] = -report.fits["bias_decay"].slope
    report.scalars["mse_exponent"] = -report.fits["mse_decay"].slope
    bands = BANDS["stationary-bias"]
    report.checks["bias-exponent-band"] = bands["bias_exponent"].contains(
        report.scalars["bias_exponent"])
    report.checks["mse-exponent-band"] = bands["mse_exponent"].contains(
        report.scalars["mse_exponent"])
    return report
