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

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from . import coupling as coupling_mod
from . import integrator as integ
from . import measures as measures_mod
from . import rng, spectral
from .errors import ConfigError, FitError
from .forcing import low_mode_basis
from .integrator import SchemeParams
from .measures import DistanceParams, default_alpha
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
    bx, by = logx[idx], logy[idx]
    spread = bx.max(axis=1) > bx.min(axis=1)   # a resample on one abscissa has no slope
    dx = bx[spread] - np.mean(bx[spread], axis=1, keepdims=True)
    dy = by[spread] - np.mean(by[spread], axis=1, keepdims=True)
    slopes = np.sum(dx * dy, axis=1) / np.sum(dx * dx, axis=1)
    if slopes.size:
        lo, hi = np.percentile(slopes, [2.5, 97.5])
        halfwidth = float(0.5 * (hi - lo))
    else:
        halfwidth = float("nan")
    return RateFit(tuple(xs), tuple(ys), slope, intercept, r2, halfwidth, n_boot)


# -- observables -------------------------------------------------------------------

@functools.cache
def _eigen_row(grid: SpectralGrid, mode: tuple[int, int], kind: str) -> np.ndarray:
    """The packed normalized real eigenfunction of ``mode``: the row whose
    product with a packed state is that state's coefficient on it, up to
    (2 pi)^2 * 2."""
    row = spectral.pack(spectral.harmonic_field(grid, *mode, kind=kind, amplitude=1.0,
                                                normalized=True).coeffs)
    row.flags.writeable = False
    return row


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
        _require(self.mode_kind in ("cos", "sin"),
                 f"mode kind must be 'cos' or 'sin', got {self.mode_kind!r}", "mode_kind")

    def evaluate(self, grid: SpectralGrid, rows: np.ndarray) -> np.ndarray:
        """Values on packed rows (..., 2 n_half) of ``grid``, as a march keeps them."""
        if self.kind == "low-mode-coefficient":
            return spectral.TWO_PI_SQ * 2.0 * (rows @ _eigen_row(grid, self.mode, self.mode_kind))
        return self.of_energy(spectral.packed_norm_sq(rows))

    def of_energy(self, energy_sq: np.ndarray) -> np.ndarray:
        """Values of the clipped-norm and smoothed-energy kinds from |xi|^2,
        as a march records it in ``EnsembleRun.energy_sq``."""
        if self.kind == "clipped-norm":
            return np.minimum(energy_sq, self.radius ** 2)
        return np.exp(-energy_sq / self.radius ** 2)

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

    def __post_init__(self):
        _require(self.kind in ("zero", "harmonic", "random", "random-phase"),
                 f"unknown initial condition {self.kind!r}", "kind")
        _require(self.mode_kind in ("cos", "sin"),
                 f"mode kind must be 'cos' or 'sin', got {self.mode_kind!r}", "mode_kind")
        _at_least(self, amplitude=0.0, cell=0)
        _require(self.cell < 1 << 64, f"a tape cell is < 2^64, got {self.cell}", "cell")

    def build(self, grid: SpectralGrid, seed: int) -> SpectralField:
        if self.kind == "zero":
            return spectral.zero_field(grid)
        if self.kind == "harmonic":
            _require_mode(grid, self.mode, "initial.mode")
            return spectral.harmonic_field(grid, *self.mode, kind=self.mode_kind,
                                           amplitude=self.amplitude, normalized=True)
        try:
            return spectral.random_field(grid, seed, stream_id=0, rms=self.amplitude,
                                         spectral_slope=self.spectral_slope, cell=self.cell,
                                         phase_only=self.kind == "random-phase")
        except ConfigError as err:
            # a run's config sets the recipe in its [initial] section
            err.field = f"initial.{err.field}"
            raise


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
        """Whether the ledger holds a check and every check holds."""
        return bool(self.checks) and all(self.checks.values())


class Band(NamedTuple):
    """Inclusive acceptance band [lo, hi] on one quantity, plus the floor
    on r^2 when the quantity is a fitted rate."""

    lo: float = -math.inf
    hi: float = math.inf
    r2: float | None = None

    def contains(self, value: float) -> bool:
        return bool(self.lo <= value <= self.hi)


# Every acceptance band, by study (report name) and quantity.  Studies record
# their checks from these, and the acceptance gates read the same bounds.
BANDS = {
    "temporal-order": {"moment_p": Band(0.40, 0.60, r2=0.97)},
    "spatial-order": {"order_sq_vs_modes": Band(-1.3, -0.7, r2=0.9)},
    "holder-regularity": {"exponent": Band(0.7, 1.1)},
    "wasserstein-contraction": {"rate": Band(r2=0.9), "rate_spread": Band(hi=3.0)},
    "stationary-bias": {"bias_exponent": Band(0.7, 1.3),
                        "mse_exponent": Band(0.7, 1.3)},
    "nudged-coupling": {"gap_ratio": Band(hi=1e-3),
                        "per_step_log_factor": Band(hi=0.0, r2=0.9),
                        "kl_linearity_slope": Band(0.8, 1.2),
                        "kl_ratio_spread": Band(hi=10.0)},
    "exponential-lyapunov": {"fraction_ok": Band(lo=0.95)},
}


def _pmap(fn, items: Iterable, threads: int) -> list:
    """Order-preserving parallel map; results never depend on thread count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor   # not loaded by a serial run

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _require(cond: bool, message: str, field_name: str):
    if not cond:
        raise ConfigError(message, field=field_name)


def _at_least(cfg, **floors):
    """A `ConfigError` on the first field in ``floors`` below its floor, or NaN."""
    for name, lo in floors.items():
        val = getattr(cfg, name)
        _require(val >= lo, f"must be >= {lo!r}, got {val!r}", name)


def _require_mode(grid: SpectralGrid, mode, field_name: str):
    """A `ConfigError` on ``field_name`` unless ``mode`` is a wavevector
    (kx, ky) of ``grid``; a mode of any other length fails to unpack."""
    try:
        grid.index_of(*mode)
    except (KeyError, TypeError):
        raise ConfigError(f"{mode!r} is not a mode (kx, ky) of the {grid.shells}-shell "
                          "grid", field=field_name) from None


def _whole_steps(span: float, step: float, field_name: str) -> int:
    """How many steps of ``step`` make up ``span``: a whole number >= 1, or
    a `ConfigError` on ``field_name``."""
    ratio = span / step if step > 0 else math.nan
    n = round(ratio) if math.isfinite(ratio) else 0
    _require(n >= 1 and abs(ratio - n) < 1e-9,
             f"{span!r} is not a whole number of steps of {step!r}", field_name)
    return n


def _monotone(ladder) -> bool:
    """Whether `ladder` strictly increases or strictly decreases."""
    diffs = np.diff(np.asarray(ladder, dtype=float))
    return bool(np.all(diffs > 0) or np.all(diffs < 0))


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

    def params(delta):
        return SchemeParams(cfg.nu, delta, cfg.shells, delta0=deltas[0])

    sups = [np.zeros(cfg.ensemble) for _ in deltas]

    def track(step, ref, cs):
        for sup, c in zip(sups, cs):
            if c is not None:
                np.maximum(sup, np.sqrt(spectral.packed_norm_sq(c - ref)), out=sup)

    integ.ladder(params(delta_base), [params(delta) for delta in deltas], basis,
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
            coupled.append(measures_mod.wasserstein_coupled_bound(
                state[:m], state[m:], "rho_weighted", dp))
            if m <= cfg.exact_limit:
                exact.append(measures_mod.wasserstein_exact(
                    state[:m], state[m:], "rho_weighted", dp))

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


def fit_series_exponential(times: np.ndarray, values: np.ndarray) -> dict:
    """Linear fit of log(values) against time; slope is the decay exponent."""
    slope, intercept, r2 = _lsq_loglog(times, np.log(values))
    return {"slope": slope, "intercept": intercept, "r_squared": r2}


GAP_FLOOR = 1e-20  # E|zeta^n|^2 / |zeta^0|^2 below which a gap has collapsed


def pathwise_contraction_check(gaps_sq: np.ndarray,
                               np_: coupling_mod.NudgeParams) -> dict:
    """Fit log E|zeta^n|^2 against n and compare with -(3/4) log(1+beta delta).

    ``gaps_sq`` is a coupled run's (n_steps+1, M) |zeta^n|^2.  Steps whose
    mean square gap has collapsed below GAP_FLOOR * |zeta^0|^2 (numerical
    coupling floor) are excluded from the fit; with fewer than 3 left the
    factor and r^2 are None.  All-zero gaps report an exact coupling
    rather than an error.
    """
    gaps = np.mean(gaps_sq, axis=1)
    fit = {"exact_coupling": False, "per_step_log_factor": None,
           "theoretical_log_factor": -0.75 * np.log1p(np_.beta * np_.base.delta),
           "r_squared": None}
    if gaps[0] == 0.0 or np.all(gaps == 0.0):
        return {**fit, "exact_coupling": True}
    n = np.flatnonzero((gaps > GAP_FLOOR * gaps[0]) & (gaps > 0))
    if n.size >= 3:
        slope, _, r2 = _lsq_loglog(n.astype(float), np.log(gaps[n]))
        fit.update(per_step_log_factor=slope, r_squared=r2)
    return fit


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
    ic: InitialCondition = InitialCondition(kind="random", amplitude=1.0)
    threads: int = 1
    n_boot: int = 200

    def __post_init__(self):
        _whole_steps(self.horizon, self.delta, "horizon")
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
    C = (1 + nu delta0) |sigma|^2 / nu, checked at every step for a family
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
    c_const = (1.0 + cfg.nu * p.delta0) * basis.variance / cfg.nu
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


# -- metric certification ---------------------------------------------------------------

@dataclass(frozen=True)
class CertifyMetricConfig:
    triples: int = 10_000
    shells: int = 16
    nu: float = 1.0
    forcing_variance: float = 0.5
    eps: float = 0.1
    s: float = 0.5
    alpha: float | None = None

    def __post_init__(self):
        _at_least(self, triples=1, shells=1, forcing_variance=0.0)


def certify_metric_study(cfg: CertifyMetricConfig, seed: int) -> StudyReport:
    """Metric axioms of the clamped distance plus the weighted generalized
    triangle inequality (gamma = 2), tested on random field triples."""
    grid = make_grid(cfg.shells)
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(
        cfg.nu, cfg.forcing_variance)
    dp = DistanceParams(cfg.eps, cfg.s, alpha)

    n = cfg.triples
    z = rng.standard_normals(seed, [0], np.arange(3 * n), 2 * grid.n_half,
                             tag=rng.Tag.SAMPLES)[0]
    # normalized so |field| ~ O(1), matching the energy scale of the dynamics
    norm = 2.0 * np.pi * np.sqrt(2.0 * grid.n_half)
    u, v, w = (z / norm).reshape(n, 3, -1).transpose(1, 0, 2)

    r_uv, r_uw, r_wv = (
        measures_mod.rho_from_dist(np.sqrt(spectral.packed_norm_sq(x - y)), dp)
        for x, y in ((u, v), (u, w), (w, v)))
    metric_violations = int(np.sum(r_uv > r_uw + r_wv + 1e-12))

    cert = measures_mod.certify_triangle(dp, 2.0, u, v, w)

    report = StudyReport("metric-certification", asdict(cfg), seed)
    report.scalars["k_tilde"] = cert.k_tilde
    report.scalars["metric_triangle_violations"] = metric_violations
    report.scalars["weighted_triangle_violations"] = len(cert.violations)
    report.checks["metric-axioms"] = metric_violations == 0
    report.checks["weighted-triangle"] = len(cert.violations) == 0
    report.tables["violations"] = [
        {"index": i, "log_lhs": a, "log_rhs": b} for i, a, b in cert.violations]
    return report
