"""Estimators and rate fits turning trajectories into verifiable numbers.

Each study is a deterministic function of (config, master seed): noise
tapes, initial data, and bootstrap resamples are all counter-keyed, so
rerunning a study reproduces every number bit for bit regardless of
threading or batching.  Studies return a `StudyReport` bundling raw
sample tables, log-log rate fits with bootstrap confidence half-widths,
and named pass/fail checks; the command-line layer serializes these to
CSV and JSON.

This module holds what the studies share.  Each study's config class and
function live in a module of their own, which `STUDIES` names and which
is imported the first time a caller names either, as
``experiments.TemporalOrderConfig`` or ``study("converge-time")``: a
process builds only the studies it runs.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .. import coupling as coupling_mod
from .. import rng, spectral
from ..errors import ConfigError, FitError
from ..measures import DistanceParams
from ..spectral import SpectralField, SpectralGrid


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


# -- the studies ---------------------------------------------------------------------

# study subcommand -> (its module in this package, config class, study function)
STUDIES = {
    "converge-time": ("temporal", "TemporalOrderConfig", "temporal_order_study"),
    "converge-space": ("spatial", "SpatialOrderConfig", "spatial_order_study"),
    "holder": ("holder", "HolderConfig", "holder_study"),
    "contraction": ("contraction", "ContractionConfig", "contraction_study"),
    "weak": ("weak", "WeakErrorConfig", "weak_error_study"),
    "bias": ("bias", "StationaryBiasConfig", "stationary_bias_study"),
    "couple": ("nudged", "CouplingStudyConfig", "coupling_study"),
    "lyapunov": ("lyapunov", "LyapunovConfig", "lyapunov_study"),
    "certify-metric": ("certify", "CertifyMetricConfig", "certify_metric_study"),
}
# config class or study function -> the module that defines it
_MODULE_OF = {name: module for module, *names in STUDIES.values() for name in names}


def study(subcommand: str) -> tuple:
    """(config class, study function) of a study subcommand."""
    module, config, run = STUDIES[subcommand]
    module = importlib.import_module(f"{__name__}.{module}")
    return getattr(module, config), getattr(module, run)


def __getattr__(name: str):
    """A study's config class or function, from its module (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


# -- config checks ------------------------------------------------------------------

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


# -- fits of a contraction ------------------------------------------------------------

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
