"""Distance-like functions on fields and exact transport between ensembles.

The base distance is rho(x, y) = min(1, |x - y|^s / eps), an actual metric
for s in (0, 1]; its Lyapunov-weighted companion

    rho_a(x, y) = rho(x, y)^(1/2) exp(a |x|^2 + a |y|^2)

drops the triangle inequality but keeps a generalized form with an
explicit constant, certified empirically by `certify_triangle`.  Both lift
to empirical laws through the coupling infimum; for finite ensembles the
infimum is computed exactly, by optimal assignment when both sides are
uniform with equal cardinality and by a transportation LP otherwise.  Any
synchronized (shared-tape) pairing of samples is a particular coupling, so
its mean cost is a certified upper bound for the exact value.

All Wasserstein numbers here are distances between *empirical* laws;
reports carry ensemble sizes so readers can judge the sampling error.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog

from .errors import CapacityError, ConfigError, StructuralError
from .spectral import SpectralField, SpectralGrid, norm_l2_sq

DEFAULT_SUPPORT_LIMIT = 512


@dataclass(frozen=True)
class DistanceParams:
    """(eps, s, alpha): clamp scale, norm exponent, Lyapunov weight."""

    eps: float
    s: float
    alpha: float = 0.0

    def __post_init__(self):
        if self.eps <= 0:
            raise ConfigError("eps must be positive", field="eps")
        if not 0.0 < self.s <= 1.0:
            raise ConfigError("s must lie in (0, 1]", field="s")
        if self.alpha < 0:
            raise ConfigError("alpha must be nonnegative", field="alpha")

    def with_alpha(self, alpha: float) -> "DistanceParams":
        return DistanceParams(self.eps, self.s, alpha)


def default_alpha(nu: float, sigma_sq: float) -> float:
    """Lyapunov weight nu / (8 |sigma|^2), inside the admissible band
    of the exponential moment bound with a factor-2 margin."""
    return nu / (8.0 * sigma_sq)


# -- pointwise distances -------------------------------------------------------

def rho_from_dist(dist, dp: DistanceParams):
    """min(1, dist^s / eps) for nonnegative separations (vectorized)."""
    return np.minimum(1.0, np.asarray(dist) ** dp.s / dp.eps)


def _coeffs(x) -> np.ndarray:
    return x.coeffs if isinstance(x, SpectralField) else np.asarray(x)


def rho(x, y, dp: DistanceParams) -> float:
    """Clamped snowflake distance of two fields; a metric in [0, 1]."""
    d = np.sqrt(norm_l2_sq(_coeffs(x) - _coeffs(y)))
    return float(rho_from_dist(d, dp))


def log_rho_weighted(x, y, dp: DistanceParams) -> float:
    """log of the Lyapunov-weighted distance (safe for large fields)."""
    cx, cy = _coeffs(x), _coeffs(y)
    r = rho(x, y, dp)
    if r == 0.0:
        return -np.inf
    return float(0.5 * np.log(r) + dp.alpha * (norm_l2_sq(cx) + norm_l2_sq(cy)))


def rho_weighted(x, y, dp: DistanceParams) -> float:
    """rho^(1/2) exp(alpha |x|^2 + alpha |y|^2), evaluated in log space."""
    lw = log_rho_weighted(x, y, dp)
    return 0.0 if lw == -np.inf else float(np.exp(lw))


# -- ensembles -------------------------------------------------------------------

@dataclass
class Ensemble:
    """Weighted finite collection of fields standing in for a law on L^2."""

    grid: SpectralGrid
    members: np.ndarray            # (M, n_half) complex coefficients
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=np.complex128)
        if self.members.ndim != 2 or self.members.shape[1] != self.grid.n_half:
            raise StructuralError("members must have shape (M, n_half)")
        m = self.members.shape[0]
        if self.weights is None:
            self.weights = np.full(m, 1.0 / m)
            self.uniform = True
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64)
            if self.weights.shape != (m,) or np.any(self.weights < 0):
                raise StructuralError("weights must be nonnegative, one per member")
            if abs(self.weights.sum() - 1.0) > 1e-12:
                raise StructuralError("weights must sum to 1 within 1e-12")
            self.uniform = bool(np.allclose(self.weights, 1.0 / m, rtol=0, atol=1e-15))
        # |x|^2 cached once; weighted costs then price pairs in O(1)
        self.norm_sq = norm_l2_sq(self.members)

    @classmethod
    def from_fields(cls, fields: list[SpectralField], weights=None) -> "Ensemble":
        if not fields:
            raise StructuralError("empty ensemble")
        grid = fields[0].grid
        return cls(grid, np.stack([f.coeffs for f in fields]), weights)

    @property
    def size(self) -> int:
        return self.members.shape[0]


def _pair_dists(a: Ensemble, b: Ensemble) -> np.ndarray:
    """|a_i - b_j| matrix from direct differences, blocked over rows.

    Differencing before taking norms keeps coincident members at exactly
    zero separation (a Gram-matrix evaluation would cancel catastrophically
    on the diagonal).
    """
    n = a.members.shape[1]
    out = np.empty((a.size, b.size))
    block = max(1, (1 << 22) // max(1, b.size * n))
    for i0 in range(0, a.size, block):
        diff = a.members[i0:i0 + block, None, :] - b.members[None, :, :]
        out[i0:i0 + block] = np.sqrt(norm_l2_sq(diff))
    return out


def cost_matrix(a: Ensemble, b: Ensemble, cost: str, dp: DistanceParams) -> np.ndarray:
    if a.grid != b.grid:
        raise StructuralError("ensembles live on different grids")
    base = rho_from_dist(_pair_dists(a, b), dp)
    if cost == "rho":
        return base
    if cost == "rho_weighted":
        logw = dp.alpha * (a.norm_sq[:, None] + b.norm_sq[None, :])
        return np.sqrt(base) * np.exp(np.minimum(logw, 700.0))
    raise ConfigError(f"unknown cost {cost!r}", field="cost")


@dataclass(frozen=True)
class TransportResult:
    value: float
    coupling: np.ndarray
    method: str
    cost: str
    pair_costs: np.ndarray


def wasserstein_exact(a: Ensemble, b: Ensemble, cost: str, dp: DistanceParams,
                      support_limit: int = DEFAULT_SUPPORT_LIMIT) -> TransportResult:
    """Exact coupling infimum between two empirical laws.

    Equal-size uniform ensembles reduce to an optimal assignment; general
    weights solve the primal transportation LP.  Above ``support_limit``
    points per side a CapacityError points the caller at the synchronized
    coupled bound instead.
    """
    if a.size > support_limit or b.size > support_limit:
        raise CapacityError(
            f"support {a.size}x{b.size} exceeds limit {support_limit}; "
            "use wasserstein_coupled_bound for large ensembles")
    cmat = cost_matrix(a, b, cost, dp)
    if a.uniform and b.uniform and a.size == b.size:
        rows, cols = linear_sum_assignment(cmat)
        coupling = np.zeros_like(cmat)
        coupling[rows, cols] = 1.0 / a.size
        return TransportResult(float(cmat[rows, cols].mean()), coupling,
                               "assignment", cost, cmat)
    na, nb = a.size, b.size
    a_eq = np.zeros((na + nb - 1, na * nb))
    b_eq = np.empty(na + nb - 1)
    for i in range(na):
        a_eq[i, i * nb:(i + 1) * nb] = 1.0
        b_eq[i] = a.weights[i]
    for j in range(nb - 1):  # last column constraint is redundant
        a_eq[na + j, j::nb] = 1.0
        b_eq[na + j] = b.weights[j]
    res = linprog(cmat.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise StructuralError(f"transport LP failed: {res.message}")
    return TransportResult(float(res.fun), res.x.reshape(na, nb),
                           "transport-lp", cost, cmat)


def wasserstein_coupled_bound(a_members, b_members, cost: str, dp: DistanceParams,
                              grid: SpectralGrid, weights=None) -> float:
    """Mean cost over matched sample pairs: an upper bound for the exact
    value on the induced marginals (any coupling dominates the infimum)."""
    a = np.asarray(a_members)
    b = np.asarray(b_members)
    if a.shape != b.shape:
        raise StructuralError("pair arrays must have matching shapes")
    dist = np.sqrt(norm_l2_sq(a - b))
    base = rho_from_dist(dist, dp)
    if cost == "rho":
        vals = base
    elif cost == "rho_weighted":
        logw = dp.alpha * (norm_l2_sq(a) + norm_l2_sq(b))
        vals = np.sqrt(base) * np.exp(np.minimum(logw, 700.0))
    else:
        raise ConfigError(f"unknown cost {cost!r}", field="cost")
    if weights is None:
        return float(np.mean(vals))
    w = np.asarray(weights)
    return float(np.sum(w * vals) / np.sum(w))


def export_coupling_csv(result: TransportResult, path) -> None:
    """Audit dump of an optimal coupling: rows (i, j, mass, cost)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "mass", "cost"])
        rows, cols = np.nonzero(result.coupling)
        for i, j in zip(rows, cols):
            writer.writerow([int(i), int(j),
                             f"{result.coupling[i, j]:.17g}",
                             f"{result.pair_costs[i, j]:.17g}"])


# -- generalized triangle certification ------------------------------------------

@dataclass(frozen=True)
class TriangleCertificate:
    k_tilde: float
    gamma: float
    n_checked: int
    violations: tuple


def triangle_constant(dp: DistanceParams, gamma: float = 2.0) -> float:
    """K~ for rho_alpha(u,v) <= K~ [rho_(gamma alpha)(u,w) + rho_(gamma alpha)(w,v)].

    Built from the ingredients of the generalized triangle inequality: the
    base metric is bounded by M = 1, satisfies its own triangle inequality
    with K = 1, and whenever rho(u, w) < c = 1 the norms obey
    |u|^2 <= gamma |w|^2 + C with C = gamma/(gamma-1) eps^(2/s) (equal to
    2 eps^(2/s) at gamma = 2).  Then K~ = max((M/c)^(1/2), K^(1/2) e^(alpha C)).
    """
    if gamma <= 1.0:
        raise ConfigError("gamma must exceed 1", field="gamma")
    big_c = gamma / (gamma - 1.0) * dp.eps ** (2.0 / dp.s)
    return float(max(1.0, np.exp(dp.alpha * big_c)))


def certify_triangle(dp: DistanceParams, gamma: float, samples,
                     slack: float = 1e-12) -> TriangleCertificate:
    """Test the weighted generalized triangle inequality on sample triples.

    ``samples`` is an iterable of (u, v, w) fields or coefficient arrays.
    Comparisons run in log space; a triple violates when
    log rho_alpha(u, v) > log(K~ [..]) + slack.
    """
    k_tilde = triangle_constant(dp, gamma)
    dp_g = dp.with_alpha(gamma * dp.alpha)
    violations = []
    n = 0
    for u, v, w in samples:
        n += 1
        lhs = log_rho_weighted(u, v, dp)
        if lhs == -np.inf:
            continue
        r1 = log_rho_weighted(u, w, dp_g)
        r2 = log_rho_weighted(w, v, dp_g)
        rhs = np.log(k_tilde) + np.logaddexp(r1, r2)
        if lhs > rhs + slack:
            violations.append((n - 1, float(lhs), float(rhs)))
    return TriangleCertificate(k_tilde, gamma, n, tuple(violations))
