import numpy as np
import pytest
from hypothesis import given, strategies as st

from snselab import forcing, integrator, spectral
from snselab.errors import ConfigError, RangeError, StructuralError
from snselab.forcing import ForcingBasis, low_mode_basis
from snselab.integrator import batch_increments
from snselab.spectral import harmonic_field, make_grid

from helpers import apply, check_nondegeneracy, pseudo_inverse_apply, summed_increments

G = make_grid(16)
BASIS = low_mode_basis(G, 4, 0.5)


def test_low_mode_preset_shape():
    # shells 1..4 hold 10 stored wavevectors -> 20 real directions
    assert BASIS.d == 20
    assert BASIS.variance == pytest.approx(0.5, rel=1e-12)
    # normalized eigenfunction directions: diagonal Gram
    off = BASIS.gram - np.diag(np.diag(BASIS.gram))
    assert np.max(np.abs(off)) <= 1e-14


@pytest.mark.parametrize("shells, variance, field", [
    (0, 0.5, "shells"), (4, -1.0, "variance"), (4, float("nan"), "variance")])
def test_low_mode_basis_rejects_bad_shells_and_variance(shells, variance, field):
    with pytest.raises(ConfigError) as err:
        low_mode_basis(G, shells, variance)
    assert err.value.field == field


def test_zero_variance_gives_zero_directions():
    # the unforced scheme: every direction, and so every noise term, is zero
    basis = low_mode_basis(G, 4, 0.0)
    assert basis.d == BASIS.d
    assert not np.any(basis.coeff_matrix) and not np.any(basis.packed)


def test_trace_identity_matches_norms():
    assert np.trace(BASIS.gram) == pytest.approx(BASIS.variance, rel=1e-12)


def test_directions_mean_free_and_within_cutoff():
    for f in BASIS.directions():
        assert f.coeffs.shape == (G.n_half,)
        mask = G.mode_mask(4)
        assert np.all(f.coeffs[~mask] == 0)


# -- noise tapes ---------------------------------------------------------------

def test_stream_determinism():
    # a step's increment does not depend on the call or on the steps drawn with it
    a = batch_increments(9, [4], BASIS.d, 0.02)(12, 13)
    b = batch_increments(9, [4], BASIS.d, 0.02)(10, 14)
    assert np.array_equal(a[0], b[2])
    # step n is sqrt(delta) times tape cell n
    cell = forcing.gaussian_cells(9, [4], [12], BASIS.d)[:, 0]
    assert np.array_equal(a[0], np.sqrt(0.02) * cell)


@given(st.integers(0, 50), st.integers(1, 32), st.sampled_from([[3], [3, 0, 8]]))
def test_coarse_is_sum_of_fines_bitwise(n, r, ids):
    # the summed-tape reference of the ladder tests: coarse step n of r
    # cells sums fine cells n r .. n r + r - 1 of steps delta / r, in order
    coarse = summed_increments(7, ids, r, 6, 0.05)(n, n + 1)[0]
    fines = batch_increments(7, ids, 6, 0.05 / r)(n * r, n * r + r)
    want = fines[0]
    for fine in fines[1:]:
        want = want + fine
    assert np.array_equal(coarse, want)


def test_one_call_over_several_chunks_equals_per_step_calls(monkeypatch):
    # a budget of 3 steps' working set splits a 10-step request into 4 draws
    ids, d = [2, 7], 5
    step_bytes = integrator.DRAW_BYTES * len(ids) * d
    monkeypatch.setattr(integrator, "DRAW_BUDGET", 3 * step_bytes)
    provider = batch_increments(11, ids, d, 0.05)
    calls = []
    monkeypatch.setattr(forcing, "gaussian_cells",
                        lambda *a, _draw=forcing.gaussian_cells: calls.append(a) or _draw(*a))
    whole = provider(4, 14)
    assert len(calls) == 4
    steps = np.concatenate([provider(n, n + 1) for n in range(4, 14)])
    assert np.array_equal(whole, steps)


def test_increment_moments():
    # 1e6 draws from N(0, delta)
    delta = 0.3
    s_ids = np.arange(50)
    g = forcing.gaussian_cells(2024, s_ids, np.arange(1000), 20)
    draws = (np.sqrt(delta) * g).ravel()
    assert draws.size == 10 ** 6
    assert abs(draws.mean()) <= 4e-3
    assert 0.99 * delta <= draws.var() <= 1.01 * delta


def test_trajectories_decorrelated():
    a, b = batch_increments(5, [0, 1], 4, 0.1)(3, 4)[0]
    assert not np.array_equal(a, b)


# -- application ---------------------------------------------------------------

def test_apply_unit_vector_returns_direction():
    eta = np.zeros(BASIS.d)
    eta[0] = 1.0
    out = apply(BASIS, eta)
    assert np.array_equal(out.coeffs, BASIS.coeff_matrix[0])


def test_apply_zero():
    assert apply(BASIS, np.zeros(BASIS.d)).l2_norm() == 0.0


def test_apply_dimension_mismatch():
    with pytest.raises(StructuralError):
        apply(BASIS, np.zeros(BASIS.d + 1))


@given(st.integers(0, 10 ** 6))
def test_apply_norm_matches_gram_quadratic_form(seed):
    rg = np.random.default_rng(seed)
    eta = rg.standard_normal(BASIS.d)
    f = apply(BASIS, eta)
    want = float(eta @ BASIS.gram @ eta)
    assert f.l2_norm() ** 2 == pytest.approx(want, rel=1e-12, abs=1e-15)


# -- nondegeneracy ---------------------------------------------------------------

def test_canonical_basis_covers_low_modes():
    rep = check_nondegeneracy(BASIS, 4)
    assert rep.satisfied and rep.witness == ()


def test_single_high_mode_fails_with_lowest_shell_witness():
    high = harmonic_field(G, 4, 4, "cos", normalized=True)  # |k|^2 = 32
    b = ForcingBasis(G, high.coeffs[None])
    rep = check_nondegeneracy(b, 1)
    assert not rep.satisfied
    assert all(kx * kx + ky * ky == 1 for kx, ky, _ in rep.witness)


def test_random_full_rank_mix_covers():
    # directions = random invertible combinations of the first-2-shell modes
    rg = np.random.default_rng(3)
    base = low_mode_basis(G, 2, 1.0)
    mix = rg.standard_normal((base.d, base.d)) + np.eye(base.d) * 4.0
    rows = mix @ base.coeff_matrix
    rep = check_nondegeneracy(ForcingBasis(G, rows), 2)
    assert rep.satisfied


# -- pseudo-inverse ---------------------------------------------------------------

def test_pinv_recovers_unit_vector():
    eta = pseudo_inverse_apply(BASIS, BASIS.directions()[0])
    want = np.zeros(BASIS.d)
    want[0] = 1.0
    assert np.allclose(eta, want, atol=1e-12)


def test_pinv_zero_field():
    eta = pseudo_inverse_apply(BASIS, spectral.zero_field(G))
    assert np.allclose(eta, 0.0)


@given(st.integers(0, 10 ** 6))
def test_pinv_roundtrip(seed):
    rg = np.random.default_rng(seed)
    eta = rg.standard_normal(BASIS.d)
    f = apply(BASIS, eta)
    back = pseudo_inverse_apply(BASIS, f)
    assert np.max(np.abs(back - eta)) <= 1e-12 * max(1.0, np.max(np.abs(eta)))


def test_pinv_out_of_range_raises():
    outside = harmonic_field(G, 3, 3, "cos")  # shell beyond the forcing band
    with pytest.raises(RangeError) as err:
        pseudo_inverse_apply(BASIS, outside)
    assert err.value.residual > 0


def test_pinv_norm_is_inverse_smallest_amplitude():
    # uniform amplitudes q: |sigma^{-1}| = 1/q
    q = np.sqrt(0.5 / BASIS.d)
    assert BASIS.pinv_norm() == pytest.approx(1.0 / q, rel=1e-10)


def test_projection_to_smaller_grid_keeps_resolved_directions():
    small = make_grid(4)
    projected = BASIS.project_to(small)
    assert projected.d == BASIS.d
    assert projected.variance == pytest.approx(BASIS.variance, rel=1e-12)
