import numpy as np
import pytest

from snselab import spectral
from snselab.coupling import (CoupledPair, NudgeParams, coupled_ensemble,
                              coupled_simulate, girsanov_cost, kl_majorant,
                              nudged_step, pathwise_contraction_check,
                              propose_beta, shifted_tape_increments)
from snselab.errors import ConfigError, RangeError, SolverError
from snselab.forcing import ForcingBasis, NoiseStream, low_mode_basis
from snselab.integrator import (SchemeParams, batch_increments, run_scheme,
                                semi_implicit_step)
from snselab.spectral import (SpectralField, harmonic_field, make_grid,
                              random_field)

G = make_grid(16)
BASIS8 = low_mode_basis(G, 8, 0.5)   # covers the controlled band below
SILENT8 = low_mode_basis(G, 8, 0.0)  # zero-amplitude noise for linear tests
P = SchemeParams(1.0, 0.01, 16)


def _nudge(K=4, beta=None):
    b = beta if beta is not None else propose_beta(K, P)["beta"]
    return NudgeParams(K, b, P)


def test_propose_beta_saturates_condition():
    prop = propose_beta(8, P, BASIS8)
    assert prop["lambda_next"] == 16
    assert prop["beta"] == pytest.approx(8.0)
    assert prop["floor_ok"] is not None


def test_nudge_params_enforce_condition():
    with pytest.raises(ConfigError):
        NudgeParams(4, 100.0, P)  # nu lambda_5 = 8 < 2*100
    NudgeParams(4, 100.0, P, enforce_paper_condition=False)


def test_identical_states_reduce_to_plain_step():
    f = random_field(G, seed=1, rms=1.2)
    eta = np.linspace(-1, 1, BASIS8.d)
    plain = semi_implicit_step(f, eta, P, BASIS8)
    nudged = nudged_step(f, plain, eta, _nudge(), BASIS8)
    assert np.max(np.abs(nudged.coeffs - plain.coeffs)) <= 1e-10 * f.l2_norm()


def test_beta_zero_is_plain_step():
    f = random_field(G, seed=2, rms=1.2)
    g = random_field(G, seed=3, rms=1.0)
    eta = np.ones(BASIS8.d)
    plain = semi_implicit_step(f, eta, P, BASIS8)
    nudged = nudged_step(f, g, eta, _nudge(beta=0.0), BASIS8)
    assert np.max(np.abs(nudged.coeffs - plain.coeffs)) <= 1e-12 * f.l2_norm()


def test_beta_zero_coupled_walk_is_run_scheme():
    # 300 steps cross the 256-step tape chunk; with beta = 0 the nudged
    # kernel call is the plain one, bit for bit
    f = random_field(G, seed=7, rms=1.0)
    ids = np.arange(3)
    pair = coupled_ensemble(f, f, 300, _nudge(beta=0.0), BASIS8, seed=17,
                            trajectory_ids=ids, compute_shifts=False, keep_states=True)
    run = run_scheme(G, np.broadcast_to(f.coeffs, (3, G.n_half)), 300, P, BASIS8,
                     batch_increments(17, ids, 1, BASIS8.d, P.delta))
    assert np.array_equal(pair.primary.states, run.states)
    assert np.array_equal(pair.primary.energy_sq, run.energy_sq)
    assert np.array_equal(pair.nudged.states, run.states)


def test_coupled_run_reports_failing_step_index():
    # the plain step succeeds; the nudged one meets the NaN at step 1
    f = random_field(G, seed=4, rms=1.0)
    bad = f.coeffs.copy()
    bad[3] = np.nan
    with pytest.raises(SolverError) as err:
        coupled_simulate(f, SpectralField(G, bad), 5, _nudge(), BASIS8, NoiseStream(3, 0))
    assert err.value.step_index == 1


def test_single_mode_gap_scalar_recursion():
    # noise off, both states on one controlled mode: the gap obeys
    # zeta^n = zeta^0 / (1 + delta (nu |k|^2 + beta))^n exactly
    np_ = _nudge(K=4, beta=2.0)
    a = harmonic_field(G, 1, 0, "cos", amplitude=1.0)
    b = harmonic_field(G, 1, 0, "cos", amplitude=1.5)
    pair = coupled_simulate(a, b, 30, np_, SILENT8, NoiseStream(0, 0),
                            compute_shifts=False)
    gap0 = pair.gaps_sq[0]
    q = 1.0 / (1.0 + P.delta * (P.nu * 1.0 + np_.beta)) ** 2
    want = gap0 * q ** np.arange(31)
    assert np.max(np.abs(pair.gaps_sq - want) / want) <= 1e-8


def test_identical_initial_data_zero_gaps_and_shifts():
    f = random_field(G, seed=5, rms=1.0)
    pair = coupled_simulate(f, f, 20, _nudge(), BASIS8, NoiseStream(3, 1))
    assert np.allclose(pair.gaps_sq, 0.0, atol=1e-22)
    assert np.allclose(pair.shifts, 0.0, atol=1e-11)


def test_gap_decays_in_paper_regime():
    np_ = _nudge(K=8)
    f = random_field(G, seed=6, rms=1.0)
    g = SpectralField(G, f.coeffs + 1e-2 * harmonic_field(
        G, 1, 0, "cos", normalized=True).coeffs)
    pair = coupled_ensemble(f, g, 400, np_, BASIS8, seed=11,
                            trajectory_ids=np.arange(16))
    mean_gap = np.mean(pair.gaps_sq, axis=1)
    assert mean_gap[-1] <= 1e-3 * mean_gap[0]
    fit = pathwise_contraction_check(pair)
    assert not fit.exact_coupling
    assert fit.per_step_log_factor <= 0.0
    assert fit.r_squared >= 0.9


def test_exact_coupling_reported():
    f = random_field(G, seed=7)
    pair = coupled_simulate(f, f, 10, _nudge(), BASIS8, NoiseStream(1, 0))
    fit = pathwise_contraction_check(pair)
    assert fit.exact_coupling


def test_linear_regime_fitted_factor_matches_oracle():
    np_ = _nudge(K=4, beta=2.0)
    a = harmonic_field(G, 1, 0, "cos", amplitude=1.0)
    b = harmonic_field(G, 1, 0, "cos", amplitude=2.0)
    pair = coupled_simulate(a, b, 200, np_, SILENT8, NoiseStream(0, 0),
                            compute_shifts=False)
    fit = pathwise_contraction_check(pair, floor_rel=1e-20)
    want = -2.0 * np.log1p(P.delta * (P.nu + np_.beta))
    assert fit.per_step_log_factor == pytest.approx(want, abs=1e-6)


# -- Girsanov accounting --------------------------------------------------------

def test_girsanov_zero_for_identical_data():
    f = random_field(G, seed=8)
    pair = coupled_simulate(f, f, 15, _nudge(), BASIS8, NoiseStream(2, 0))
    cost = girsanov_cost(pair)
    # both solves are run independently, so the gap sits at the solver
    # rounding floor rather than exactly zero
    assert cost.kl_mean <= 1e-24
    assert cost.tv_bound(a=1.0) <= 1e-12
    assert cost.tv_bound(a=0.5) <= 1e-8
    assert cost.tv_from_kl() == pytest.approx(0.5)


def test_girsanov_single_shift_sum():
    # one step, one recorded shift psi_1 = (1, 0, ...), delta = 0.25
    shifts = np.zeros((1, BASIS8.d))
    shifts[0, 0] = 1.0
    p = SchemeParams(1.0, 0.25, 16)
    pair = CoupledPair(None, None, np.zeros(2), shifts,
                       NudgeParams(4, 1.0, p))
    assert girsanov_cost(pair).kl_mean == pytest.approx(0.25)


def test_girsanov_requires_recorded_shifts():
    f = random_field(G, seed=9)
    pair = coupled_simulate(f, f, 5, _nudge(), BASIS8, NoiseStream(0, 0),
                            compute_shifts=False)
    with pytest.raises(ConfigError):
        girsanov_cost(pair)


def test_girsanov_invariant_under_direction_relabeling():
    # relabeling the directions by a permutation (an orthogonal change
    # fixing the Gram matrix) permutes the shift coordinates but leaves
    # |psi_j|^2, and so the path-space cost, unchanged
    from snselab.forcing import pseudo_inverse_apply

    perm = np.random.default_rng(0).permutation(BASIS8.d)
    basis_p = ForcingBasis(G, BASIS8.coeff_matrix[perm])
    assert np.allclose(basis_p.gram, BASIS8.gram)  # equal-amplitude preset
    for seed in range(5):
        zeta = random_field(make_grid(16), seed=seed, rms=0.3)
        zk = spectral.project(zeta, 8)
        eta = pseudo_inverse_apply(BASIS8, zk)
        eta_p = pseudo_inverse_apply(basis_p, zk)
        assert np.sum(eta ** 2) == pytest.approx(np.sum(eta_p ** 2), rel=1e-10)
        assert np.allclose(np.sort(np.abs(eta)), np.sort(np.abs(eta_p)), atol=1e-12)


def test_kl_against_majorant_shape():
    np_ = _nudge(K=4)
    f = random_field(G, seed=12, rms=1.0)
    g = SpectralField(G, f.coeffs + 1e-1 * harmonic_field(
        G, 1, 0, "cos", normalized=True).coeffs)
    pair = coupled_ensemble(f, g, 600, np_, BASIS8, seed=13,
                            trajectory_ids=np.arange(8))
    cost = girsanov_cost(pair)
    major = kl_majorant(np_, BASIS8, float(pair.gaps_sq[0].mean()))
    assert np.isfinite(cost.kl_mean) and cost.kl_mean > 0
    assert cost.kl_mean <= 10 * major


def test_range_error_when_forcing_misses_controlled_band():
    narrow = low_mode_basis(G, 2, 0.5)
    np_ = _nudge(K=8)
    f = random_field(G, seed=14)
    g = random_field(G, seed=15)
    with pytest.raises(RangeError):
        coupled_simulate(f, g, 5, np_, narrow, NoiseStream(0, 0),
                         compute_shifts=True)


def test_uniqueness_transfer_shifted_tape():
    # plain scheme driven by the shifted tape reproduces the nudged path
    np_ = _nudge(K=4)
    f = random_field(G, seed=16, rms=1.0)
    g = SpectralField(G, f.coeffs + 5e-2 * harmonic_field(
        G, 2, 1, "sin", normalized=True).coeffs)
    n_steps = 60
    pair = coupled_simulate(f, g, n_steps, np_, BASIS8, NoiseStream(21, 2),
                            keep_states=True)
    provider = shifted_tape_increments(pair, BASIS8, seed=21, trajectory_id=2)
    run = run_scheme(G, g.coeffs, n_steps, P, BASIS8, provider)
    diff = spectral.norm_l2(run.states[:, 0] - pair.nudged.states)
    assert np.max(diff) <= 1e-8
