"""Estimators and rate fits turning trajectories into verifiable numbers.

Each study is a deterministic function of (config, master seed): noise
tapes, initial data, and bootstrap resamples are all counter-keyed, so
rerunning a study reproduces every number bit for bit regardless of
threading or batching.  Studies return a `StudyReport` bundling raw
sample tables, log-log rate fits with bootstrap confidence half-widths,
and named pass/fail checks; the command-line layer serializes these to
CSV and JSON.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from . import coupling as coupling_mod
from . import forcing as forcing_mod
from . import integrator as integ
from . import measures as measures_mod
from . import rng, spectral
from .errors import ConfigError, FitError
from .forcing import low_mode_basis, sum_fine
from .integrator import SchemeParams
from .measures import DistanceParams, Ensemble, default_alpha
from .spectral import SpectralField, SpectralGrid, make_grid

REFERENCE_TRAJECTORY = 1 << 32   # tape id reserved for proxy/reference paths


# -- rate fitting ----------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Power-law fit y ~ C x^slope on log-log axes with bootstrap CI."""

    xs: tuple
    ys: tuple
    slope: float
    intercept: float
    r_squared: float
    ci_halfwidth: float
    n_boot: int

    def as_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "r_squared": self.r_squared, "ci_halfwidth": self.ci_halfwidth,
                "n_points": len(self.xs)}


def _lsq_loglog(logx: np.ndarray, logy: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(logx, logy, 1)
    pred = slope * logx + intercept
    ss_res = float(np.sum((logy - pred) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(slope), float(intercept), r2


def fit_rate(xs, ys, n_boot: int = 200, seed: int = 0, boot_stream: int = 0) -> RateFit:
    """Least squares on log-log data plus a pairs-bootstrap half-width.

    Requires at least 3 distinct positive abscissae; resampling is
    counter-keyed so the half-width is reproducible given the seed.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise FitError("xs and ys must be 1-d arrays of equal length")
    if np.unique(xs).size < 3:
        raise FitError(f"need >= 3 distinct abscissae, got {np.unique(xs).size}")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise FitError("log-log fit needs positive data")
    logx, logy = np.log(xs), np.log(ys)
    slope, intercept, r2 = _lsq_loglog(logx, logy)

    n = xs.size
    u = rng.uniforms(seed, [boot_stream], np.arange(n_boot), n, tag=rng.Tag.BOOTSTRAP)[0]
    idx = np.minimum((u * n).astype(np.intp), n - 1)
    slopes = []
    for row in idx:
        if np.unique(logx[row]).size < 2:
            continue
        s, _ = np.polyfit(logx[row], logy[row], 1)
        slopes.append(s)
    if slopes:
        lo, hi = np.percentile(slopes, [2.5, 97.5])
        halfwidth = float(0.5 * (hi - lo))
    else:
        halfwidth = float("nan")
    return RateFit(tuple(xs), tuple(ys), slope, intercept, r2, halfwidth, n_boot)


# -- observables -------------------------------------------------------------------

@dataclass(frozen=True)
class ObservableSpec:
    """A scalar observable with optional weighted-distance Lipschitz data.

    kinds: "clipped-norm" (energy clipped at radius^2), "low-mode-coefficient"
    (projection on one normalized real eigenfunction), "smoothed-energy"
    (exp(-|xi|^2 / radius^2)).
    """

    kind: str
    radius: float = 3.0
    mode: tuple[int, int] = (1, 0)
    mode_kind: str = "cos"

    def __post_init__(self):
        if self.kind not in ("clipped-norm", "low-mode-coefficient", "smoothed-energy"):
            raise ConfigError(f"unknown observable kind {self.kind!r}", field="kind")

    def evaluate(self, grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
        if self.kind == "clipped-norm":
            return np.minimum(spectral.norm_l2_sq(coeffs), self.radius ** 2)
        if self.kind == "smoothed-energy":
            return np.exp(-spectral.norm_l2_sq(coeffs) / self.radius ** 2)
        e = spectral.harmonic_field(grid, *self.mode, kind=self.mode_kind,
                                    amplitude=1.0, normalized=True)
        return spectral.TWO_PI_SQ * 2.0 * (coeffs @ np.conj(e.coeffs)).real

    def lipschitz_constant(self, dp: DistanceParams) -> float | None:
        """Certified constant against the weighted distance at desk scale.

        For separations below the clamp, rho_a >= (d^s/eps)^(1/2), so a
        plain Lipschitz bound |dphi| <= g d gives g eps^(1/s); beyond the
        clamp the bound of the observable (or the Lyapunov weight, for the
        unbounded coefficient observable) takes over.
        """
        reach = dp.eps ** (1.0 / dp.s)
        if self.kind == "clipped-norm":
            return max(self.radius ** 2, 2.0 * self.radius * reach)
        if self.kind == "smoothed-energy":
            g = np.sqrt(2.0 / np.e) / self.radius
            return max(1.0, g * reach)
        if dp.alpha <= 0:
            return None  # unbounded without the Lyapunov weight
        return max(float(1.0 / np.sqrt(dp.alpha * np.e)), reach)


def clipped_energy(radius: float = 3.0) -> ObservableSpec:
    return ObservableSpec("clipped-norm", radius=radius)


def smoothed_energy(radius: float = 3.0) -> ObservableSpec:
    return ObservableSpec("smoothed-energy", radius=radius)


def low_mode_re(kx: int = 1, ky: int = 0) -> ObservableSpec:
    return ObservableSpec("low-mode-coefficient", mode=(kx, ky))


OBSERVABLE_PRESETS = {
    "clipped-norm": clipped_energy,
    "smoothed-energy": smoothed_energy,
    "low-mode-coefficient": low_mode_re,
}


# -- initial data -----------------------------------------------------------------

@dataclass(frozen=True)
class InitialCondition:
    """Deterministic initial vorticity recipe.

    kinds: "zero"; "harmonic" (one real eigenfunction, L^2 norm =
    amplitude); "random" (random phases under a |k|^slope envelope,
    L^2 norm = amplitude).
    """

    kind: str = "random"
    amplitude: float = 1.0
    spectral_slope: float = -3.0
    mode: tuple[int, int] = (1, 0)
    mode_kind: str = "cos"
    cell: int = 0

    def build(self, grid: SpectralGrid, seed: int) -> SpectralField:
        if self.kind == "zero":
            return spectral.zero_field(grid)
        if self.kind == "harmonic":
            return spectral.harmonic_field(grid, *self.mode, kind=self.mode_kind,
                                           amplitude=self.amplitude, normalized=True)
        if self.kind in ("random", "random-phase"):
            return spectral.random_field(grid, seed, stream_id=0,
                                         rms=self.amplitude,
                                         spectral_slope=self.spectral_slope,
                                         cell=self.cell,
                                         phase_only=self.kind == "random-phase")
        raise ConfigError(f"unknown initial condition {self.kind!r}", field="kind")


# -- reports ------------------------------------------------------------------------

@dataclass
class StudyReport:
    """Raw samples, fitted rates, confidence data, and provenance."""

    name: str
    config: dict
    seed: int
    tables: dict = field(default_factory=dict)    # table name -> list of row dicts
    fits: dict = field(default_factory=dict)      # fit name -> RateFit
    scalars: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)    # check id -> bool
    notes: list = field(default_factory=list)

    def passed(self) -> bool:
        return all(self.checks.values())


def _pmap(fn, items: Iterable, threads: int) -> list:
    """Order-preserving parallel map; results never depend on thread count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _require(cond: bool, message: str, field_name: str):
    if not cond:
        raise ConfigError(message, field=field_name)


# -- temporal strong order -----------------------------------------------------------

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
    noise_on: bool = True
    threads: int = 1
    n_boot: int = 200


def temporal_order_study(cfg: TemporalOrderConfig, seed: int) -> StudyReport:
    """Strong error of each rung against one shared reference at
    δ_min/refine on the base tape.

    The base tape holds one Brownian sub-increment per cell of width
    delta_base = δ_min/refine.  One pass over it advances the reference by
    one step per cell and each rung delta by one step whenever its
    delta/delta_base cells have elapsed, with the rung's increment summed
    from exactly those cells.  The measured pathwise gap

        E sup_{k <= K} |xi_coarse^k - xi_ref(t_k)|^p

    therefore isolates the time-discretization error.  The reported order
    is the slope of the 1/p-normalized moment, directly comparable between
    the stochastic (order ~1/2) and deterministic (order 1) regimes.  The
    rungs advance in lockstep in one thread, so ``cfg.threads`` is ignored.
    """
    deltas = tuple(sorted(set(cfg.deltas), reverse=True))
    _require(len(cfg.deltas) >= 4, "ladder needs >= 4 rungs", "deltas")
    _require(len(deltas) == len(cfg.deltas), "ladder rungs must be distinct", "deltas")
    d_min = deltas[-1]
    ratios = [d / d_min for d in deltas]
    _require(all(abs(r - round(r)) < 1e-9 for r in ratios),
             "rungs must be integer multiples of the smallest step", "deltas")
    _require(cfg.refine >= 2, "reference refinement must be >= 2", "refine")
    steps = [cfg.horizon / d for d in deltas]
    _require(all(abs(s - round(s)) < 1e-9 for s in steps),
             "horizon must be a whole number of steps at every rung", "horizon")

    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    xi0 = cfg.ic.build(grid, seed)
    delta_base = d_min / cfg.refine
    m, d = cfg.ensemble, basis.d
    traj_ids = np.arange(m)

    def stepper(delta):
        return integ.step_system(grid, SchemeParams(cfg.nu, delta, cfg.shells,
                                                    delta0=deltas[0]))

    def advance(c, inc, system):
        noise = inc @ basis.packed
        c, _ = integ._advance_one(grid, c, noise, system,
                                  np.sqrt(spectral.packed_norm_sq(noise)))
        return c

    # base cells per fine step (delta/refine) and per step of each rung
    r_fs = [round(delta / cfg.refine / delta_base) for delta in deltas]
    r_cs = [cfg.refine * r_f for r_f in r_fs]
    rungs = [stepper(delta) for delta in deltas]
    ref_step = stepper(delta_base)
    # every path marches as packed states (see spectral.pack)
    c0 = np.broadcast_to(spectral.pack(xi0.coeffs), (m, 2 * grid.n_half))
    ref = c0.copy()
    cs = [c0.copy() for _ in deltas]
    sups = [np.zeros(m) for _ in deltas]

    n_base = round(cfg.horizon / delta_base)
    period = math.lcm(*r_cs)   # chunks hold whole steps of every rung
    chunk = max(1, (1 << 22) // max(1, m * d * period)) * period
    for b0 in range(0, n_base, chunk):
        take = min(chunk, n_base - b0)
        if cfg.noise_on:
            g = forcing_mod.gaussian_cells(seed, traj_ids, np.arange(b0, b0 + take), d)
            base_inc = np.sqrt(delta_base) * g
        else:
            base_inc = np.zeros((m, take, d))
        # a rung's increment is the sum of its fine-step (delta/refine) increments
        coarse = [sum_fine(sum_fine(base_inc.reshape(m, take // r_c, cfg.refine, r_f, d),
                                    axis=3), axis=2)
                  for r_f, r_c in zip(r_fs, r_cs)]
        for i in range(take):
            ref = advance(ref, base_inc[:, i], ref_step)
            for k, r_c in enumerate(r_cs):
                j, rem = divmod(i + 1, r_c)
                if rem == 0:
                    cs[k] = advance(cs[k], coarse[k][:, j - 1], rungs[k])
                    np.maximum(sups[k], np.sqrt(spectral.packed_norm_sq(cs[k] - ref)),
                               out=sups[k])

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
    return report


# -- spatial strong order --------------------------------------------------------------

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
    noise_on: bool = True
    threads: int = 1
    n_boot: int = 200


def spatial_order_study(cfg: SpatialOrderConfig, seed: int) -> StudyReport:
    """Galerkin truncation error against the largest-cutoff reference.

    All runs share one tape and one initial datum (restricted per rung).
    The fitted abscissa is the Galerkin dimension (mode count) of each
    rung, the natural size against which the squared error scales like
    1/N for H^1 data; shell counts are reported alongside.
    """
    ladder = tuple(sorted(set(cfg.shell_ladder)))
    _require(len(ladder) == len(cfg.shell_ladder), "ladder rungs must be distinct",
             "shell_ladder")
    _require(len(ladder) >= 2, "need >= 2 rungs", "shell_ladder")
    _require(cfg.reference_shells > max(ladder),
             "reference cutoff must be strictly largest", "reference_shells")
    _require(cfg.forcing_shells <= min(ladder),
             "forcing must be resolved on the smallest rung", "forcing_shells")
    n_steps = round(cfg.horizon / cfg.delta)
    _require(abs(n_steps * cfg.delta - cfg.horizon) < 1e-9, "horizon not a whole "
             "number of steps", "horizon")

    ref_grid = make_grid(cfg.reference_shells)
    xi0 = cfg.ic.build(ref_grid, seed)
    traj_ids = np.arange(cfg.ensemble)

    def run_at(shells: int) -> integ.EnsembleRun:
        grid = make_grid(shells)
        basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
        p = SchemeParams(cfg.nu, cfg.delta, shells)
        c0 = np.broadcast_to(spectral.embed_coeffs(ref_grid, grid, xi0.coeffs),
                             (cfg.ensemble, grid.n_half))
        inc = (integ.batch_increments(seed, traj_ids, 1, basis.d, cfg.delta)
               if cfg.noise_on else None)
        return integ.run_scheme(grid, c0, n_steps, p, basis, inc,
                                record_stride=cfg.record_stride)

    runs = _pmap(run_at, ladder + (cfg.reference_shells,), cfg.threads)
    ref = runs[-1]
    rows = []
    for shells, run in zip(ladder, runs[:-1]):
        emb = spectral.embed_coeffs(run.grid, ref_grid, run.states)
        diff_sq = spectral.norm_l2_sq(emb - ref.states)  # (n_rec, M)
        sup_sq = np.max(diff_sq, axis=0)
        rows.append({"shells": shells, "modes": run.grid.n_modes,
                     "err_sup_sq": float(np.mean(sup_sq)),
                     "paths": cfg.ensemble})

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
    return report


# -- Hoelder regularity in time ----------------------------------------------------------

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
    noise_on: bool = True
    threads: int = 1
    n_boot: int = 200


def holder_study(cfg: HolderConfig, seed: int) -> StudyReport:
    """Fit of log E|xi(t) - xi(s)|^m against log|t - s| over a lag ladder."""
    _require(cfg.lag_min_steps >= 1, "lags must span at least one step",
             "lag_min_steps")
    lags = np.unique(np.round(np.geomspace(cfg.lag_min_steps, cfg.lag_max_steps,
                                           cfg.n_lags)).astype(int))
    _require(lags.max() < cfg.window_steps, "largest lag exceeds the window",
             "lag_max_steps")
    decades = np.log10(lags.max() / lags.min())
    _require(decades >= 1.5, f"lag ladder spans {decades:.2f} decades, need >= 1.5",
             "lag_max_steps")

    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    p = SchemeParams(cfg.nu, cfg.delta, cfg.shells)
    xi0 = cfg.ic.build(grid, seed)
    inc = (integ.batch_increments(seed, np.arange(cfg.ensemble), 1, basis.d, cfg.delta)
           if cfg.noise_on else None)
    run = integ.run_scheme(grid, np.broadcast_to(xi0.coeffs,
                                                 (cfg.ensemble, grid.n_half)),
                           cfg.burn_steps + cfg.window_steps, p, basis, inc,
                           record_stride=1)
    states = run.states[cfg.burn_steps:]           # (W+1, M, n_half)

    rows = []
    for lag in lags:
        diff = states[lag:] - states[:-lag]
        moments = spectral.norm_l2_sq(diff) ** (cfg.moment / 2.0)
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
    return report


# -- Wasserstein contraction across the discretization grid ------------------------------

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
    n_boot: int = 200


def contraction_study(cfg: ContractionConfig, seed: int) -> StudyReport:
    """Decay of the coupled-bound Wasserstein distance, grid-uniformly.

    Two ensembles start from initial conditions separated by a low-mode
    gap and advance under the synchronized coupling (one tape per member
    pair).  The mean weighted cost over pairs upper-bounds the exact
    empirical Wasserstein distance (computed alongside for small
    ensembles); the fitted exponential rate is compared across the
    (cutoff, step) grid to exhibit discretization uniformity.
    """
    _require(cfg.forcing_shells <= min(cfg.shells_list),
             "forcing must fit inside every cutoff", "forcing_shells")
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(
        cfg.nu, cfg.forcing_variance)
    dp = DistanceParams(cfg.eps, cfg.s, alpha)
    traj_ids = np.arange(cfg.ensemble)

    cells = [(shells, delta) for shells in cfg.shells_list for delta in cfg.deltas]

    def run_cell(cell) -> dict:
        shells, delta = cell
        grid = make_grid(shells)
        basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
        p = SchemeParams(cfg.nu, delta, shells)
        stride = max(1, round(cfg.record_time / delta))
        n_steps = round(cfg.horizon / delta)
        xi0 = cfg.ic.build(grid, seed)
        gap = spectral.harmonic_field(grid, *cfg.gap_mode, amplitude=cfg.gap_amplitude,
                                      normalized=True)
        c0 = np.broadcast_to(xi0.coeffs, (cfg.ensemble, grid.n_half))
        ct0 = np.broadcast_to(xi0.coeffs + gap.coeffs, (cfg.ensemble, grid.n_half))
        inc = integ.batch_increments(seed, traj_ids, 1, basis.d, delta)
        run_a = integ.run_scheme(grid, c0, n_steps, p, basis, inc, record_stride=stride)
        inc = integ.batch_increments(seed, traj_ids, 1, basis.d, delta)
        run_b = integ.run_scheme(grid, ct0, n_steps, p, basis, inc, record_stride=stride)

        times = run_a.times
        coupled = np.array([
            measures_mod.wasserstein_coupled_bound(run_a.states[i], run_b.states[i],
                                                   "rho_weighted", dp, grid)
            for i in range(times.size)])
        exact = None
        if cfg.ensemble <= cfg.exact_limit:
            exact = np.array([
                measures_mod.wasserstein_exact(Ensemble(grid, run_a.states[i]),
                                               Ensemble(grid, run_b.states[i]),
                                               "rho_weighted", dp).value
                for i in range(times.size)])
        keep = (times > 0) & (coupled > cfg.fit_floor * max(coupled[0], 1e-300))
        if np.count_nonzero(keep) < 3:
            raise FitError(f"too few usable contraction points at cell {cell}")
        fit = fit_series_exponential(times[keep], coupled[keep])
        return {"shells": shells, "delta": delta, "times": times,
                "coupled": coupled, "exact": exact, "fit": fit}

    results = _pmap(run_cell, cells, cfg.threads)

    report = StudyReport("wasserstein-contraction", asdict(cfg), seed)
    series_rows, cell_rows = [], []
    rates = []
    for res in results:
        for i, t in enumerate(res["times"]):
            row = {"shells": res["shells"], "delta": res["delta"], "t": float(t),
                   "w_coupled": float(res["coupled"][i])}
            if res["exact"] is not None:
                row["w_exact"] = float(res["exact"][i])
            series_rows.append(row)
        fit = res["fit"]
        rates.append(-fit["slope"])
        cell_rows.append({"shells": res["shells"], "delta": res["delta"],
                          "rate": -fit["slope"], "r_squared": fit["r_squared"]})
    report.tables["series"] = series_rows
    report.tables["cells"] = cell_rows
    rates = np.array(rates)
    report.scalars["rate_min"] = float(rates.min())
    report.scalars["rate_max"] = float(rates.max())
    report.scalars["rate_spread"] = float(rates.max() / max(rates.min(), 1e-300))
    report.scalars["alpha"] = alpha
    report.checks["all_rates_decay"] = bool(np.all(rates > 0))
    report.checks["r_squared_ok"] = bool(all(r["r_squared"] >= 0.9 for r in cell_rows))
    report.checks["uniform_band_3x"] = bool(report.scalars["rate_spread"] <= 3.0)
    ordering = [bool(np.all(res["exact"] <= res["coupled"] + 1e-12))
                for res in results if res["exact"] is not None]
    if ordering:
        report.checks["exact_below_coupled"] = all(ordering)
    return report


def fit_series_exponential(times: np.ndarray, values: np.ndarray) -> dict:
    """Linear fit of log(values) against time; slope is the decay exponent."""
    y = np.log(values)
    slope, intercept = np.polyfit(times, y, 1)
    pred = slope * times + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else max(0.0, 1.0 - ss_res / ss_tot)
    return {"slope": float(slope), "intercept": float(intercept), "r_squared": r2}


# -- weak error across the (N, delta) grid ------------------------------------------------

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
    observables: tuple = (ObservableSpec("clipped-norm"),)
    eps: float = 0.1
    s: float = 0.5
    alpha: float | None = None
    holder_exponent: float = 0.49
    strong_moment: float = 0.5
    ic: InitialCondition = InitialCondition(kind="random", amplitude=1.0)
    report_lipschitz: bool = False
    threads: int = 1


def weak_error_study(cfg: WeakErrorConfig, seed: int) -> StudyReport:
    """sup over recorded times of the observable-mean gap to the reference.

    Runs share tapes with the reference (common random numbers) so the
    difference of means converges at the pathwise rate rather than the
    1/sqrt(M) rate of two independent estimators.  Errors are tabulated
    against the controlling function g(N, delta) = max(delta^s,
    delta^(p/2))^(beta/2) + N^(-s/4) of the weak convergence bound.
    """
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(
        cfg.nu, cfg.forcing_variance)
    dp = DistanceParams(cfg.eps, cfg.s, alpha)
    if cfg.report_lipschitz:
        for obs in cfg.observables:
            if obs.lipschitz_constant(dp) is None:
                raise ConfigError(
                    f"observable {obs.kind!r} has no certified constant under the "
                    "weighted distance; clip it or drop lipschitz reporting",
                    field="observables")
    _require(cfg.reference_shells >= max(cfg.shells_list),
             "reference cutoff must dominate the grid", "reference_shells")
    _require(cfg.forcing_shells <= min(cfg.shells_list),
             "forcing must fit inside every cutoff", "forcing_shells")
    for d in cfg.deltas:
        ratio = d / cfg.reference_delta
        _require(abs(ratio - round(ratio)) < 1e-9,
                 "each delta must be an integer multiple of the reference step",
                 "deltas")

    ref_grid = make_grid(cfg.reference_shells)
    xi0 = cfg.ic.build(ref_grid, seed)
    traj_ids = np.arange(cfg.ensemble)
    n_rec = round(cfg.horizon / cfg.record_time)

    def observable_means(shells: int, delta: float) -> np.ndarray:
        grid = make_grid(shells)
        basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
        p = SchemeParams(cfg.nu, delta, shells)
        stride = round(cfg.record_time / delta)
        _require(stride >= 1 and abs(stride * delta - cfg.record_time) < 1e-9,
                 "record_time must be a whole number of steps", "record_time")
        r = round(delta / cfg.reference_delta)
        c0 = np.broadcast_to(spectral.embed_coeffs(ref_grid, grid, xi0.coeffs),
                             (cfg.ensemble, grid.n_half))
        inc = integ.batch_increments(seed, traj_ids, r, basis.d, delta)
        run = integ.run_scheme(grid, c0, n_rec * stride, p, basis, inc,
                               record_stride=stride)
        means = np.empty((len(cfg.observables), run.step_indices.size))
        for i, obs in enumerate(cfg.observables):
            means[i] = np.mean(obs.evaluate(grid, run.states), axis=-1)
        return means

    cells = [(shells, delta) for shells in cfg.shells_list for delta in cfg.deltas]
    ref_means = observable_means(cfg.reference_shells, cfg.reference_delta)
    all_means = _pmap(lambda cell: observable_means(*cell), cells, cfg.threads)

    p_small = cfg.strong_moment
    rows = []
    for (shells, delta), means in zip(cells, all_means):
        modes = make_grid(shells).n_modes
        g = (max(delta ** cfg.s, delta ** (p_small / 2.0))
             ** (cfg.holder_exponent / 2.0) + modes ** (-cfg.s / 4.0))
        for i, obs in enumerate(cfg.observables):
            err = float(np.max(np.abs(means[i] - ref_means[i])))
            rows.append({"shells": shells, "delta": delta, "modes": modes,
                         "observable": obs.kind, "weak_error": err,
                         "g_control": float(g)})
    report = StudyReport("weak-error", asdict(cfg), seed)
    report.tables["grid"] = rows
    for obs in cfg.observables:
        sub = [r for r in rows if r["observable"] == obs.kind]
        errs = np.array([r["weak_error"] for r in sub])
        gs = np.array([r["g_control"] for r in sub])
        report.scalars[f"max_error_{obs.kind}"] = float(errs.max())
        pos = errs > 0
        if np.count_nonzero(pos) >= 3 and np.unique(gs[pos]).size >= 2:
            corr = np.corrcoef(np.log(gs[pos]), np.log(errs[pos]))[0, 1]
            report.scalars[f"g_correlation_{obs.kind}"] = float(corr)
    return report


# -- stationary bias and MSE ---------------------------------------------------------------

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
    threads: int = 1
    n_boot: int = 200


def stationary_bias_study(cfg: StationaryBiasConfig, seed: int) -> StudyReport:
    """1/(n delta) legs of the time-average estimator error.

    The stationary average is proxied by one long run with burn-in.  The
    bias leg starts replicas far from equilibrium, where the transient
    integral makes the O(1/(n delta)) bias dominate sampling noise; the
    MSE leg starts replicas after a burn-in window so the variance term
    O(1/(n delta)) dominates the squared bias.
    """
    _require(all(n > 0 for n in cfg.n_ladder), "ladder entries must be positive",
             "n_ladder")
    _require(len(set(cfg.n_ladder)) >= 3, "need >= 3 ladder points", "n_ladder")
    _require(0 <= cfg.mse_burn_steps < max(cfg.n_ladder),
             "burn-in must be shorter than the measured run", "mse_burn_steps")
    _require(0.0 < cfg.burn_fraction < 1.0, "burn fraction must be in (0,1)",
             "burn_fraction")
    n_max = max(cfg.n_ladder)
    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    p = SchemeParams(cfg.nu, cfg.delta, cfg.shells)
    obs = cfg.observable

    def observe_run(c0, n_steps, tape_seed, traj_ids):
        """Per-step observable values (n_steps, M) of one run from c0."""
        vals = np.empty((n_steps, len(traj_ids)))

        def watch(step, coeffs):
            vals[step - 1] = obs.evaluate(grid, coeffs)

        inc = integ.batch_increments(tape_seed, traj_ids, 1, basis.d, cfg.delta)
        c0 = np.broadcast_to(c0, (len(traj_ids), grid.n_half))
        integ.run_scheme(grid, c0, n_steps, p, basis, inc, keep_states=False,
                         observer=watch)
        return vals

    # stationary proxy: single long run, second half averaged
    ref_vals = observe_run(spectral.zero_field(grid).coeffs, cfg.reference_steps, seed,
                           [REFERENCE_TRAJECTORY])
    proxy = float(np.mean(ref_vals[int(cfg.reference_steps * cfg.burn_fraction):, 0]))

    xi0 = cfg.ic.build(grid, seed)
    traj = np.arange(cfg.replicas)

    def run_leg(start_coeffs, burn_steps: int):
        vals = observe_run(start_coeffs, burn_steps + n_max, seed + 1, traj)[burn_steps:]
        running = np.cumsum(vals, axis=0)
        return {n: running[n - 1] / n for n in cfg.n_ladder}

    bias_leg = run_leg(xi0.coeffs, 0)
    mse_leg = run_leg(xi0.coeffs, cfg.mse_burn_steps)

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
    return report


# -- nudged coupling study -------------------------------------------------------------------

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
    band: float = 0.25
    ic: InitialCondition = InitialCondition(kind="random", amplitude=1.0)
    threads: int = 1
    n_boot: int = 200


def coupling_study(cfg: CouplingStudyConfig, seed: int) -> StudyReport:
    """Gap decay and Girsanov cost of the nudged coupling.

    For each perturbation size the nudged system tracks the plain one on a
    shared tape; reported are the fitted per-step gap factor against the
    -(3/4) log(1 + beta delta) benchmark and the mean path-space cost
    against its closed-form majorant shape (linear in |zeta^0|^2).
    """
    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    p = SchemeParams(cfg.nu, cfg.delta, cfg.shells)
    proposal = coupling_mod.propose_beta(cfg.shells_controlled, p, basis)
    beta = cfg.beta if cfg.beta is not None else proposal["beta"]
    np_ = coupling_mod.NudgeParams(cfg.shells_controlled, beta, p)
    if cfg.compute_shifts:
        _require(cfg.forcing_shells >= cfg.shells_controlled,
                 "shift reconstruction needs forcing covering the controlled band",
                 "forcing_shells")
    n_steps = round(cfg.horizon / cfg.delta)
    xi0 = cfg.ic.build(grid, seed)
    gap_dir = spectral.harmonic_field(grid, *cfg.gap_mode, amplitude=1.0,
                                      normalized=True)
    traj = np.arange(cfg.ensemble)

    def run_size(size: float) -> dict:
        xt0 = SpectralField(grid, xi0.coeffs + size * gap_dir.coeffs)
        pair = coupling_mod.coupled_ensemble(xi0, xt0, n_steps, np_, basis, seed,
                                             traj, compute_shifts=cfg.compute_shifts)
        fit = coupling_mod.pathwise_contraction_check(pair, band=cfg.band)
        out = {"size": size, "gap0_sq": float(pair.gaps_sq[0].mean()),
               "gap_final_sq": float(pair.gaps_sq[-1].mean()), "fit": fit,
               "gaps_mean": np.mean(pair.gaps_sq, axis=1)}
        if cfg.compute_shifts:
            cost = coupling_mod.girsanov_cost(pair)
            out["kl_mean"] = cost.kl_mean
            out["majorant"] = coupling_mod.kl_majorant(np_, basis,
                                                       float(pair.gaps_sq[0].mean()))
            out["tv_from_kl"] = cost.tv_from_kl()
            out["shift_sq_mean"] = np.mean(np.sum(pair.shifts ** 2, axis=-1), axis=1)
        return out

    results = _pmap(run_size, cfg.perturbations, cfg.threads)

    report = StudyReport("nudged-coupling", asdict(cfg), seed)
    report.scalars["beta"] = beta
    report.scalars["lambda_next"] = proposal["lambda_next"]
    report.scalars["beta_floor_ok"] = proposal["floor_ok"]
    rows = []
    for res in results:
        fit = res["fit"]
        row = {"size": res["size"], "gap0_sq": res["gap0_sq"],
               "gap_final_sq": res["gap_final_sq"],
               "gap_ratio": res["gap_final_sq"] / max(res["gap0_sq"], 1e-300),
               "exact_coupling": fit.exact_coupling,
               "per_step_log_factor": fit.per_step_log_factor,
               "theoretical_log_factor": fit.theoretical_log_factor,
               "r_squared": fit.r_squared}
        if "kl_mean" in res:
            row["kl_mean"] = res["kl_mean"]
            row["kl_majorant"] = res["majorant"]
            row["kl_ratio"] = res["kl_mean"] / max(res["majorant"], 1e-300)
            row["tv_from_kl"] = res["tv_from_kl"]
        rows.append(row)
    report.tables["perturbations"] = rows
    last = results[-1]
    gap_table = []
    for i, v in enumerate(last["gaps_mean"]):
        row = {"step": int(i), "t": float(i * cfg.delta), "gap_sq_mean": float(v)}
        if "shift_sq_mean" in last:
            row["shift_sq_mean"] = float(last["shift_sq_mean"][i - 1]) if i > 0 else 0.0
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
    return report


# -- exponential Lyapunov verification ---------------------------------------------------------

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


def lyapunov_study(cfg: LyapunovConfig, seed: int) -> StudyReport:
    """Ensemble means of exp(alpha |xi^n|^2) against the Lyapunov envelope

    exp(alpha (2 |xi0|^2 / (1 + nu lambda_1 delta)^n + C)) with
    C = (1 + nu delta0) |sigma|^2 / nu, checked at every step for a family
    of independent master seeds.
    """
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(
        cfg.nu, cfg.forcing_variance)
    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    cond_cap = cfg.nu / (4.0 * basis.variance)
    _require(alpha <= cond_cap + 1e-15,
             f"alpha={alpha} violates the moment condition cap {cond_cap}", "alpha")
    p = SchemeParams(cfg.nu, cfg.delta, cfg.shells)
    n_steps = round(cfg.horizon / cfg.delta)
    lam1 = 1.0
    c_const = (1.0 + cfg.nu * p.delta0) * basis.variance / cfg.nu
    traj = np.arange(cfg.ensemble)

    def run_seed(k: int) -> dict:
        sk = seed + k
        xi0 = cfg.ic.build(grid, sk)
        run = integ.simulate_ensemble(xi0, n_steps, p, basis, sk, traj,
                                      keep_states=False)
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
    report.checks["envelope_95pct"] = bool(n_ok >= int(np.ceil(0.95 * cfg.n_seeds)))
    return report
