import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment as scipy_assignment

from snselab import measures, spectral
from snselab.errors import CapacityError, ConfigError, StructuralError
from snselab.measures import (DistanceParams, certify_triangle, default_alpha,
                              triangle_constant, wasserstein_coupled_bound,
                              wasserstein_exact)
from snselab.spectral import make_grid, random_field, zero_field

from helpers import complex_transport, packed_rows, rho, transport_lp

G = make_grid(8)
DP = DistanceParams(eps=1.0, s=1.0, alpha=0.0)


def _fields(*seeds, rms=1.0):
    return [random_field(G, seed=s, rms=rms) for s in seeds]


def _rho_weighted(f, g, dp):
    # the weighted cost of one pair, as the coupled bound of a one-row ensemble
    return wasserstein_coupled_bound(packed_rows([f]), packed_rows([g]), "rho_weighted", dp)


def test_params_validation():
    with pytest.raises(ConfigError):
        DistanceParams(0.0, 0.5)
    with pytest.raises(ConfigError):
        DistanceParams(1.0, 1.5)
    with pytest.raises(ConfigError):
        DistanceParams(1.0, 0.5, -1.0)


def test_default_alpha_needs_positive_variance():
    assert default_alpha(1.0, 0.5) == 0.25
    with pytest.raises(ConfigError):
        default_alpha(1.0, 0.0)


def test_rho_identity():
    f, = _fields(1)
    assert rho(f, f, DP) == 0.0


def test_rho_clamps():
    f = zero_field(G)
    g = random_field(G, seed=2, rms=2.0)
    assert rho(f, g, DistanceParams(1.0, 1.0)) == 1.0


def test_rho_fractional_exponent_value():
    # |x - y| = 0.25, s = 0.5, eps = 1 -> 0.5
    f = zero_field(G)
    g = random_field(G, seed=3, rms=0.25)
    assert rho(f, g, DistanceParams(1.0, 0.5)) == pytest.approx(0.5, rel=1e-12)


def test_rho_weighted_closed_form():
    # rho^(1/2) exp(alpha |x|^2 + alpha |y|^2); at rho = 0.25, alpha = 0.5 and
    # |x|^2 = |y|^2 = 1 that is 0.5 e
    f, h = _fields(4, 5)
    dp = DistanceParams(1.0, 1.0, 0.5)
    want = np.sqrt(rho(f, h, dp)) * np.exp(0.5 * (f.l2_norm() ** 2 + h.l2_norm() ** 2))
    assert _rho_weighted(f, h, dp) == pytest.approx(want, rel=1e-12)
    assert np.sqrt(0.25) * np.exp(0.5 * 2.0) == pytest.approx(0.5 * np.e, rel=1e-12)


def test_rho_weighted_zero_on_diagonal():
    f, = _fields(6)
    assert _rho_weighted(f, f, DistanceParams(1.0, 0.5, 0.7)) == 0.0


def test_rho_weighted_alpha_zero_is_sqrt_rho():
    f, g = _fields(7, 8)
    dp = DistanceParams(0.3, 0.5, 0.0)
    assert _rho_weighted(f, g, dp) == pytest.approx(np.sqrt(rho(f, g, dp)), rel=1e-12)


@given(st.integers(0, 10 ** 6))
def test_rho_metric_axioms(seed):
    dp = DistanceParams(0.5, 0.5)
    f = random_field(G, seed=seed, rms=1.0 + seed % 3)
    g = random_field(G, seed=seed + 1, rms=0.5)
    h = random_field(G, seed=seed + 2, rms=1.5)
    assert rho(f, g, dp) == rho(g, f, dp)
    assert rho(f, g, dp) <= rho(f, h, dp) + rho(h, g, dp) + 1e-12
    assert 0.0 <= rho(f, g, dp) <= 1.0


def test_scale_consistency_in_eps():
    # below the clamp, multiplying eps by t divides rho by t
    f = zero_field(G)
    g = random_field(G, seed=9, rms=0.1)
    r1 = rho(f, g, DistanceParams(1.0, 0.5))
    r3 = rho(f, g, DistanceParams(3.0, 0.5))
    assert r1 == pytest.approx(3.0 * r3, rel=1e-12)


# -- exact transport ----------------------------------------------------------------

def test_dirac_pair_cost():
    f, g = _fields(10, 11)
    value = wasserstein_exact(packed_rows([f]), packed_rows([g]), "rho", DP)
    assert value == pytest.approx(rho(f, g, DP), rel=1e-12)


def test_same_ensemble_zero_with_identity_coupling(monkeypatch):
    a = packed_rows(_fields(12, 13, 14))
    original, pairings = measures.linear_sum_assignment, []

    def spy(c):
        pairings.append(original(c))
        return pairings[-1]

    monkeypatch.setattr(measures, "linear_sum_assignment", spy)
    assert wasserstein_exact(a, a, "rho", DP) == 0.0
    (rows, cols), = pairings
    assert rows.tolist() == cols.tolist() == [0, 1, 2]


def test_two_by_two_matches_permutation_enumeration():
    fields = _fields(15, 16, 17, 18)
    value = wasserstein_exact(packed_rows(fields[:2]), packed_rows(fields[2:]), "rho", DP)
    costs = [(rho(fields[0], fields[2], DP) + rho(fields[1], fields[3], DP)) / 2,
             (rho(fields[0], fields[3], DP) + rho(fields[1], fields[2], DP)) / 2]
    assert value == pytest.approx(min(costs), rel=1e-12)


def test_lp_route_matches_assignment():
    # the transportation LP of the tests, on the same cost matrix, with the
    # uniform weights and with weights 1e-13 off them
    fields = _fields(20, 21, 22, 23, 24, 25)
    cost = np.array([[rho(f, g, DP) for g in fields[3:]] for f in fields[:3]])
    exact = wasserstein_exact(packed_rows(fields[:3]), packed_rows(fields[3:]), "rho", DP)
    uniform = np.full(3, 1 / 3)
    w = np.array([1 / 3 + 1e-13, 1 / 3, 1 / 3 - 1e-13])
    for wa in (uniform, w / w.sum()):
        assert transport_lp(cost, wa, uniform) == pytest.approx(exact, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("cost, dp", [("rho", DP),
                                      ("rho_weighted", DistanceParams(0.5, 0.5, 0.25))])
def test_packed_rows_give_the_complex_path_bit_for_bit(cost, dp):
    a = np.stack([f.coeffs for f in _fields(*range(90, 96))])
    b = np.stack([f.coeffs for f in _fields(*range(96, 102))])
    exact, bound = complex_transport(a, b, cost, dp)
    assert wasserstein_exact(spectral.pack(a), spectral.pack(b), cost, dp) == exact
    assert wasserstein_coupled_bound(spectral.pack(a), spectral.pack(b), cost, dp) == bound


def _costs(kind: str, n: int, gen: np.random.Generator) -> np.ndarray:
    if kind == "small integers":        # ties everywhere
        return gen.integers(0, 4, (n, n)).astype(float)
    if kind == "constant":              # a study's t = 0: every member equal
        return np.full((n, n), gen.random())
    if kind == "equal rows":
        return np.repeat(gen.random((1, n)), n, axis=0)
    if kind == "equal columns":
        return np.repeat(gen.random((n, 1)), n, axis=1)
    # weighted costs up to `_price`'s clamp at exp(700), many of them at it
    return np.exp(np.minimum(gen.uniform(600.0, 720.0, (n, n)), 700.0))


@settings(max_examples=200)
@given(st.integers(1, 40),
       st.sampled_from(["small integers", "constant", "equal rows", "equal columns",
                        "up to exp(700)"]),
       st.integers(0, 2 ** 32 - 1))
def test_assignment_is_an_optimal_permutation(n, kind, seed):
    c = _costs(kind, n, np.random.default_rng(seed))
    rows, cols = measures.linear_sum_assignment(c)
    assert rows.tolist() == list(range(n))
    assert sorted(cols.tolist()) == list(range(n))
    value = math.fsum(c[rows, cols])
    # it starts from the identity pairing and only lowers the cost
    assert value <= math.fsum(np.diag(c))
    ref_rows, ref_cols = scipy_assignment(c)
    ref = math.fsum(c[ref_rows, ref_cols])
    assert abs(value - ref) <= 1e-12 * abs(ref)


def test_assignment_needs_a_square_matrix():
    with pytest.raises(StructuralError):
        measures.linear_sum_assignment(np.zeros((2, 3)))


def test_exact_transport_calls_solver_bound_on_module(monkeypatch):
    # a solver rebound on the module (as a tracer does) must see every call
    original = measures.linear_sum_assignment
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(measures, "linear_sum_assignment", spy)
    fields = _fields(26, 27, 28, 29)
    wasserstein_exact(packed_rows(fields[:2]), packed_rows(fields[2:]), "rho", DP)
    assert calls == [1]


def test_unequal_shapes_are_refused():
    a, b = packed_rows(_fields(32, 33, 34)), packed_rows(_fields(35, 36))
    for fn in (wasserstein_exact, wasserstein_coupled_bound):
        with pytest.raises(StructuralError):
            fn(a, b, "rho", DP)
        with pytest.raises(StructuralError):       # complex members are not packed rows
            fn(spectral.unpack(a), spectral.unpack(a), "rho", DP)
    with pytest.raises(StructuralError):
        certify_triangle(DP, 2.0, a, a, a[:2])


def test_coupled_bound_dominates_exact():
    for seed in range(5):
        a = packed_rows([random_field(G, seed=100 + seed * 10 + i, rms=1.0)
                         for i in range(6)])
        b = packed_rows([random_field(G, seed=500 + seed * 10 + i, rms=1.0)
                         for i in range(6)])
        exact = wasserstein_exact(a, b, "rho", DP)
        assert exact <= wasserstein_coupled_bound(a, b, "rho", DP) + 1e-12


def test_coupled_bound_trivia():
    f, g = _fields(30, 31)
    a = packed_rows([f, f])
    assert wasserstein_coupled_bound(a, a, "rho", DP) == 0.0
    one = wasserstein_coupled_bound(packed_rows([f]), packed_rows([g]), "rho", DP)
    assert one == pytest.approx(rho(f, g, DP), rel=1e-12)


def test_capacity_error(monkeypatch):
    # one row above the assignment's limit is refused before any cost is priced
    priced = []
    monkeypatch.setattr(measures, "_price", lambda *args: priced.append(1))
    a = np.zeros((measures.ASSIGNMENT_LIMIT + 1, 2 * G.n_half))
    with pytest.raises(CapacityError):
        wasserstein_exact(a, a, "rho", DP)
    assert priced == []


def test_weighted_cost_ordering():
    dp = DistanceParams(0.5, 0.5, default_alpha(1.0, 0.5))
    a = packed_rows([random_field(G, seed=50 + i, rms=1.0) for i in range(4)])
    b = packed_rows([random_field(G, seed=60 + i, rms=1.0) for i in range(4)])
    exact = wasserstein_exact(a, b, "rho_weighted", dp)
    assert exact <= wasserstein_coupled_bound(a, b, "rho_weighted", dp) + 1e-12


# -- generalized triangle inequality ---------------------------------------------------

def test_triangle_constant_value():
    dp = DistanceParams(0.1, 0.5, 0.25)
    want = np.exp(2 * 0.25 * 0.1 ** 4)
    assert triangle_constant(dp, 2.0) == pytest.approx(want, rel=1e-12)


def test_certify_never_violated_on_diagonal():
    dp = DistanceParams(0.1, 0.5, 0.25)
    f, g = _fields(80, 81)
    cert = certify_triangle(dp, 2.0, packed_rows([f, f]), packed_rows([f, g]),
                            packed_rows([g, f]))
    assert cert.n_checked == 2
    assert cert.violations == ()


def test_certify_reduction_when_witness_equals_endpoint():
    # w = u reduces to rho_alpha(u,v) <= K rho_{gamma alpha}(u,v)
    dp = DistanceParams(0.1, 0.5, 0.25)
    u, v = _fields(82, 83)
    lhs = _rho_weighted(u, v, dp)
    rhs = triangle_constant(dp, 2.0) * _rho_weighted(u, v, dp.with_alpha(2 * dp.alpha))
    assert lhs <= rhs * (1 + 1e-12)
    cert = certify_triangle(dp, 2.0, packed_rows([u]), packed_rows([v]), packed_rows([u]))
    assert cert.violations == ()


def test_certify_random_triples():
    dp = DistanceParams(0.1, 0.5, 0.25)
    u = packed_rows([random_field(G, seed=3 * i, rms=0.5 + (i % 4)) for i in range(500)])
    v = packed_rows([random_field(G, seed=3 * i + 1, rms=1.0) for i in range(500)])
    w = packed_rows([random_field(G, seed=3 * i + 2, rms=2.0) for i in range(500)])
    cert = certify_triangle(dp, 2.0, u, v, w)
    assert cert.n_checked == 500
    assert cert.violations == ()


def test_certify_reports_each_violation_with_its_logs():
    # a slack of -inf flags every triple but one with u = v, whose log lhs is -inf
    dp = DistanceParams(0.1, 0.5, 0.25)
    f, g, h = _fields(84, 85, 86)
    cert = certify_triangle(dp, 2.0, packed_rows([f, f, g]), packed_rows([f, g, h]),
                            packed_rows([h, h, f]), slack=-math.inf)
    assert [i for i, *_ in cert.violations] == [1, 2]
    dp_g = dp.with_alpha(2 * dp.alpha)
    for (_, lhs, rhs), (u, v, w) in zip(cert.violations, [(f, g, h), (g, h, f)]):
        assert lhs == pytest.approx(math.log(_rho_weighted(u, v, dp)), rel=1e-12)
        want = math.log(triangle_constant(dp, 2.0) * (_rho_weighted(u, w, dp_g)
                                                      + _rho_weighted(w, v, dp_g)))
        assert rhs == pytest.approx(want, rel=1e-12)


def test_wasserstein_triangle_across_ensembles():
    # lifted triangle inequality of the metric cost on small ensembles
    ens = [packed_rows([random_field(G, seed=200 + 10 * j + i, rms=0.5 + 0.5 * j)
                        for i in range(4)])
           for j in range(3)]
    dp = DistanceParams(0.5, 0.5)
    w_ac = wasserstein_exact(ens[0], ens[2], "rho", dp)
    w_ab = wasserstein_exact(ens[0], ens[1], "rho", dp)
    w_bc = wasserstein_exact(ens[1], ens[2], "rho", dp)
    assert w_ac <= w_ab + w_bc + 1e-12
