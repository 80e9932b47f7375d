"""Distance-like functions on fields and exact transport between ensembles.

A field is a packed coefficient row [Re c | Im c] (`spectral.pack`), the
layout a march holds, and an ensemble is an (M, 2 n_half) array of such
rows standing for the uniform empirical law of its members.  The base
distance is rho(x, y) = min(1, |x - y|^s / eps), an actual metric for s in
(0, 1]; its Lyapunov-weighted companion

    rho_a(x, y) = rho(x, y)^(1/2) exp(a |x|^2 + a |y|^2)

drops the triangle inequality but keeps a generalized form with an
explicit constant, certified empirically by `certify_triangle`.  Both lift
to empirical laws through the coupling infimum; between two ensembles of
one size it is an optimal assignment, computed exactly.  Any synchronized
(shared-tape) pairing of samples is a particular coupling, so its mean
cost is a certified upper bound for the exact value.

All Wasserstein numbers here are distances between *empirical* laws;
reports carry ensemble sizes so readers can judge the sampling error.

The assignment solver, `linear_sum_assignment`, is a negative-cycle
canceler in numpy started from the synchronized pairing.  It is a module
attribute and is called through the module, so that a caller (a tracer, a
test) can rebind it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, StructuralError
from .spectral import packed_norm_sq

ASSIGNMENT_LIMIT = 512   # rows per side of an exact transport


def __getattr__(name: str):
    """Import scipy.optimize when `linprog` is first looked up and bind it
    here; a name already bound (a replacement) is kept.

    No function of the package calls it.  The binding exists only because
    `bench/tracer.py`'s `EXTERNAL_BOUNDARIES` looks it up; ROADMAP item 1
    removes both."""
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy import optimize

    return globals().setdefault(name, optimize.linprog)


def linear_sum_assignment(c) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns (``arange(n)``, ``col``) of a least-cost pairing of
    the square cost matrix ``c``, by negative-cycle canceling (Klein,
    Management Science 14, 1967).

    It starts from the identity pairing, the synchronized coupling, which
    is optimal or nearly so for the ensembles the studies compare.  On the
    exchange graph ``w[i, j] = c[i, col[j]] - c[i, col[i]]`` (row i takes
    row j's column) a cycle is a rotation of columns that changes the
    cost by its weight.  A round runs Jacobi Bellman-Ford passes from zero
    potentials, keeping only strict improvements, and after each pass
    walks the predecessors of the nodes it updated; a cycle there is
    applied as soon as it forms, and the next round starts afresh.  A
    pass that improves nothing ends the search: its potentials certify
    that no negative cycle is left, so the pairing is optimal.

    The loop ends in floating point.  A cycle is applied only if it lowers
    the cost of its rows as `math.fsum` sums them; a correctly rounded sum
    is monotone, so each applied cycle lowers the exact total and no
    pairing comes back.  In exact arithmetic a relaxation in pass n (of n
    nodes) leaves a cycle, a negative one, among the predecessors, so a
    round that reaches pass n without an applied cycle has met only
    rounding and ends the search.  Costs up to exp(700) (the `_price`
    clamp) keep every path sum of up to 512 nodes finite.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise StructuralError(f"assignment needs a square cost matrix, got {c.shape}")
    n = c.shape[0]
    rows, col = np.arange(n), np.arange(n)
    while (cycle := _negative_cycle(c, col)) is not None:
        col[cycle] = np.roll(col[cycle], -1)
    return rows, col


def _negative_cycle(c: np.ndarray, col: np.ndarray) -> np.ndarray | None:
    """Rows r_0, ..., r_(k-1) of a cycle whose rotation (row r_i takes the
    column of r_(i+1), cyclically) lowers the cost of ``col``, or None."""
    n, nodes = c.shape[0], np.arange(c.shape[0])
    w = c[:, col]
    w -= c[nodes, col][:, None]
    relaxed = np.empty_like(w)
    dist = np.zeros(n)
    pred = np.full(n, -1)
    for _ in range(n):
        np.add(dist[:, None], w, out=relaxed)
        via = relaxed.argmin(axis=0)
        best = relaxed[via, nodes]
        updated = np.flatnonzero(best < dist)
        if updated.size == 0:
            return None
        dist[updated] = best[updated]
        pred[updated] = via[updated]
        back = pred.tolist()
        walked = [-1] * n           # the updated node whose walk reached each node
        for v in updated.tolist():
            x = v
            while x >= 0 and walked[x] < 0:
                walked[x] = v
                x = back[x]
            if x < 0 or walked[x] != v:
                continue            # a root, or a node an earlier walk has seen
            cycle = [x]             # back[r] takes r's column: walk back, then reverse
            while (x := back[x]) != cycle[0]:
                cycle.append(x)
            cycle = np.array(cycle[::-1])
            if math.fsum(c[cycle, np.roll(col[cycle], -1)]) < math.fsum(c[cycle, col[cycle]]):
                return cycle
    return None


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
    if not sigma_sq > 0:
        raise ConfigError("alpha = auto needs a positive forcing variance", field="alpha")
    return nu / (8.0 * sigma_sq)


# -- pointwise distances -------------------------------------------------------

def rho_from_dist(dist, dp: DistanceParams):
    """min(1, dist^s / eps) for nonnegative separations (vectorized)."""
    return np.minimum(1.0, np.asarray(dist) ** dp.s / dp.eps)


def _price(dist, norm_sq_a, norm_sq_b, cost: str, dp: DistanceParams) -> np.ndarray:
    """``cost`` of pairs at separation ``dist`` with squared norms
    ``norm_sq_a`` and ``norm_sq_b`` (any shapes that broadcast together)."""
    base = rho_from_dist(dist, dp)
    if cost == "rho":
        return base
    if cost == "rho_weighted":
        logw = dp.alpha * (norm_sq_a + norm_sq_b)
        return np.sqrt(base) * np.exp(np.minimum(logw, 700.0))
    raise ConfigError(f"unknown cost {cost!r}", field="cost")


def _rows(*arrays) -> list[np.ndarray]:
    """C-contiguous float64 copies (or the arrays themselves) of packed
    rows of one shape, so that every norm sums its row in one order."""
    if any(np.iscomplexobj(x) for x in arrays):
        raise StructuralError("fields are packed real rows; see spectral.pack")
    out = [np.ascontiguousarray(x, dtype=np.float64) for x in arrays]
    if any(x.shape != out[0].shape for x in out):
        raise StructuralError(
            f"packed rows of different shapes: {', '.join(str(x.shape) for x in out)}")
    return out


# -- transport between ensembles -------------------------------------------------

def _pair_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i - b_j| matrix of packed rows from direct differences, blocked
    over rows of ``a`` (about 32 MB of differences per block).

    Differencing before taking norms keeps coincident members at exactly
    zero separation (a Gram-matrix evaluation would cancel catastrophically
    on the diagonal).
    """
    m, n = a.shape
    out = np.empty((m, m))
    block = max(1, (1 << 22) // max(1, m * n))
    for i0 in range(0, m, block):
        out[i0:i0 + block] = np.sqrt(packed_norm_sq(a[i0:i0 + block, None] - b[None]))
    return out


def wasserstein_exact(a, b, cost: str, dp: DistanceParams) -> float:
    """Exact coupling infimum between the uniform empirical laws of the
    packed rows ``a`` and ``b``, two (M, 2 n_half) arrays: the mean cost of
    an optimal assignment.  Above `ASSIGNMENT_LIMIT` rows a CapacityError,
    raised before any cost is priced, points the caller at the
    synchronized coupled bound instead.
    """
    a, b = _rows(a, b)
    if a.ndim != 2:
        raise StructuralError(f"exact transport needs (M, 2 n_half) rows, got {a.shape}")
    if a.shape[0] > ASSIGNMENT_LIMIT:
        raise CapacityError(
            f"{a.shape[0]} rows exceed the assignment's limit of {ASSIGNMENT_LIMIT}; "
            "use wasserstein_coupled_bound for large ensembles")
    cmat = _price(_pair_dists(a, b), packed_norm_sq(a)[:, None],
                  packed_norm_sq(b)[None, :], cost, dp)
    # through the module, so that a rebound solver is the one called
    rows, cols = sys.modules[__name__].linear_sum_assignment(cmat)
    return float(cmat[rows, cols].mean())


def wasserstein_coupled_bound(a, b, cost: str, dp: DistanceParams) -> float:
    """Mean cost over the matched pairs of packed rows ``a`` and ``b``:
    an upper bound for the exact value on the induced marginals (any
    coupling dominates the infimum)."""
    a, b = _rows(a, b)
    vals = _price(np.sqrt(packed_norm_sq(a - b)), packed_norm_sq(a), packed_norm_sq(b),
                  cost, dp)
    return float(np.mean(vals))


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


def certify_triangle(dp: DistanceParams, gamma: float, u, v, w,
                     slack: float = 1e-12) -> TriangleCertificate:
    """Test the weighted generalized triangle inequality on the triples
    (u_i, v_i, w_i) of three packed row arrays of one shape, all at once.

    Comparisons run in log space; a triple violates when
    log rho_alpha(u, v) > log(K~ [..]) + slack.
    """
    u, v, w = _rows(u, v, w)
    k_tilde = triangle_constant(dp, gamma)
    n_u, n_v, n_w = (packed_norm_sq(x) for x in (u, v, w))

    def log_weighted(x, y, norm_sq, alpha):
        r = rho_from_dist(np.sqrt(packed_norm_sq(x - y)), dp)
        with np.errstate(divide="ignore"):          # log 0 = -inf: never violates
            return 0.5 * np.log(r) + alpha * norm_sq

    lhs = log_weighted(u, v, n_u + n_v, dp.alpha)
    rhs = np.log(k_tilde) + np.logaddexp(log_weighted(u, w, n_u + n_w, gamma * dp.alpha),
                                         log_weighted(w, v, n_w + n_v, gamma * dp.alpha))
    bad = np.flatnonzero(lhs > rhs + slack)
    return TriangleCertificate(k_tilde, gamma, int(lhs.size), tuple(
        (int(i), float(lhs[i]), float(rhs[i])) for i in bad))
