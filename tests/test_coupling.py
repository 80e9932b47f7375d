import numpy as np
import pytest

from snselab import integrator, spectral
from snselab.coupling import NudgeParams, coupled_ensembles, kl_majorant, propose_beta
from snselab.errors import ConfigError, RangeError, SolverError
from snselab.experiments import (CouplingStudyConfig, coupling_study,
                                 pathwise_contraction_check)
from snselab.forcing import ForcingBasis, low_mode_basis, pinv_matrix
from snselab.integrator import SchemeParams, batch_increments, run_scheme
from snselab.spectral import (SpectralField, harmonic_field, make_grid,
                              random_field)

from helpers import project, project_coeffs, pseudo_inverse_apply, record, tv_bound

G = make_grid(16)
BASIS8 = low_mode_basis(G, 8, 0.5)   # covers the controlled band below
SILENT8 = low_mode_basis(G, 8, 0.0)  # zero-amplitude noise for linear tests
P = SchemeParams(1.0, 0.01, 16)


def _nudge(K=4, beta=None):
    b = beta if beta is not None else propose_beta(K, P)["beta"]
    return NudgeParams(K, b, P)


def _pair(f, g, n_steps, np_=None, basis=BASIS8, seed=0, traj_id=0, **kwargs):
    """One coupled path: plain from f, nudged from g, on trajectory traj_id's tape."""
    return coupled_ensembles(f, [g], n_steps, np_ or _nudge(), basis, seed=seed,
                             trajectory_ids=[traj_id], **kwargs)[0]


def _recorded_pair(f, g, n_steps, np_=None, basis=BASIS8, seed=0, traj_id=0, **kwargs):
    """`_pair` and the `record` of its states: (pair, plain states, nudged states)."""
    (pair,), plain, nudged = record(coupled_ensembles, f, [g], n_steps, np_ or _nudge(),
                                    basis, seed=seed, trajectory_ids=[traj_id], **kwargs)
    return pair, plain, nudged


def test_propose_beta_saturates_condition():
    prop = propose_beta(8, P, BASIS8)
    assert prop["lambda_next"] == 16
    assert prop["beta"] == pytest.approx(8.0)
    assert prop["floor_ok"] is not None


def test_nudge_params_enforce_condition():
    with pytest.raises(ConfigError):
        NudgeParams(4, 100.0, P)  # nu lambda_5 = 8 < 2*100


def test_identical_states_reduce_to_plain_step():
    # nudged toward the plain step from its own start, the nudged step is that step
    f = random_field(G, seed=1, rms=1.2)
    _, plain, nudged = _recorded_pair(f, f, 1, seed=4)
    plain, nudged = plain[1, 0], nudged[1, 0]
    assert np.max(np.abs(nudged - plain)) <= 1e-10 * f.l2_norm()


def test_beta_zero_is_plain_step():
    # nudged from f toward the plain step from g with beta = 0: the plain step from f
    f = random_field(G, seed=2, rms=1.2)
    g = random_field(G, seed=3, rms=1.0)
    _, _, nudged = _recorded_pair(g, f, 1, _nudge(beta=0.0), seed=4)
    plain = record(run_scheme, G, f.coeffs, 1, P, BASIS8,
                   batch_increments(4, [0], BASIS8.d, P.delta))[1][1, 0]
    assert np.max(np.abs(nudged[1, 0] - plain)) <= 1e-12 * f.l2_norm()


def test_beta_zero_coupled_walk_is_run_scheme():
    # 300 steps cross the 256-step tape chunk; with beta = 0 the nudged
    # kernel call is the plain one, bit for bit
    f = random_field(G, seed=7, rms=1.0)
    ids = np.arange(3)
    _, plain, nudged = record(coupled_ensembles, f, [f], 300, _nudge(beta=0.0), BASIS8,
                              seed=17, trajectory_ids=ids, compute_shifts=False)
    run, states = record(run_scheme, G, np.broadcast_to(f.coeffs, (3, G.n_half)), 300, P,
                         BASIS8, batch_increments(17, ids, BASIS8.d, P.delta))
    assert np.array_equal(plain, states)
    assert np.array_equal(spectral.norm_l2_sq(plain), run.energy_sq)
    assert np.array_equal(nudged, states)


def test_coupled_run_needs_a_nudged_start():
    f = random_field(G, seed=4, rms=1.0)
    with pytest.raises(ConfigError):
        coupled_ensembles(f, [], 5, _nudge(), BASIS8, seed=3, trajectory_ids=[0])


def test_coupled_run_reports_failing_step_index():
    # the plain step succeeds; the nudged one meets the NaN at step 1
    f = random_field(G, seed=4, rms=1.0)
    bad = f.coeffs.copy()
    bad[3] = np.nan
    with pytest.raises(SolverError) as err:
        _pair(f, SpectralField(G, bad), 5, seed=3)
    assert err.value.step_index == 1


def _starts(f, sizes=(1e-2, 1e-1, 1.0)):
    gap = harmonic_field(G, 1, 0, amplitude=1.0, normalized=True)
    return [SpectralField(G, f.coeffs + s * gap.coeffs) for s in sizes]


def test_plain_path_is_shared_across_nudged_starts():
    # one plain march serves every nudged start; each stacked copy agrees with
    # its one-start run to the solve tolerance (the stop is batch-wide)
    f = random_field(G, seed=7, rms=1.0)
    ids = np.arange(4)
    np_ = _nudge()
    starts = _starts(f)
    pairs, plain, nudged = record(coupled_ensembles, f, starts, 40, np_, BASIS8, seed=5,
                                  trajectory_ids=ids)
    assert len(pairs) == 3
    for k, (start, pair) in enumerate(zip(starts, pairs)):
        (solo,), solo_plain, solo_nudged = record(coupled_ensembles, f, [start], 40, np_,
                                                  BASIS8, seed=5, trajectory_ids=ids)
        assert np.array_equal(plain, solo_plain)
        # each run solves step j within tol * scale_j, scale_j >= |xi_tilde^j|, so
        # the two stay within the solve errors of both runs summed over the steps
        # (one step alone differs by up to 1.7 tol * scale_j here)
        norms = spectral.norm_l2(solo_nudged)
        summed = np.concatenate([np.zeros_like(norms[:1]), np.cumsum(norms[1:], axis=0)])
        bound = 2.0 * P.tol * summed
        diff = spectral.norm_l2(nudged[:, k * ids.size:(k + 1) * ids.size] - solo_nudged)
        assert np.all(diff <= bound)
        # | |zeta_a| - |zeta_b| | <= |zeta_a - zeta_b| = |xi_tilde_a - xi_tilde_b|
        gap_diff = np.abs(np.sqrt(pair.gaps_sq) - np.sqrt(solo.gaps_sq))
        assert np.all(gap_diff <= bound)
        assert np.allclose(pair.kl_bound, solo.kl_bound, rtol=1e-9, atol=0.0)
        assert np.allclose(pair.shift_sq_mean, solo.shift_sq_mean, rtol=0.0,
                           atol=1e-9 * np.max(solo.shift_sq_mean))


def test_plain_path_does_not_depend_on_nudged_copies(monkeypatch):
    # the plain batch of a coupled run is the run_scheme march of its tape, bit
    # for bit, and its iterations count its own sweeps; 300 steps cross a chunk
    march, marched = integrator.march, []

    def spy(*args, **kwargs):
        marched.append(march(*args, **kwargs))
        return marched[-1]

    monkeypatch.setattr(integrator, "march", spy)
    f = random_field(G, seed=7, rms=1.0)
    ids = np.arange(3)
    _, plain, _ = record(coupled_ensembles, f, _starts(f), 300, _nudge(), BASIS8,
                         seed=17, trajectory_ids=ids)
    monkeypatch.undo()
    run, states = record(run_scheme, G, np.broadcast_to(f.coeffs, (3, G.n_half)), 300, P,
                         BASIS8, batch_increments(17, ids, BASIS8.d, P.delta))
    assert np.array_equal(plain, states)
    (primary,) = marched
    assert np.array_equal(primary.energy_sq, run.energy_sq)
    assert np.array_equal(primary.iterations, run.iterations)


def test_stacked_nudged_batch_reports_failing_step_index():
    f = random_field(G, seed=4, rms=1.0)
    # the plain step and the other copies succeed; the middle copy meets the NaN
    starts = _starts(f)
    bad = starts[1].coeffs.copy()
    bad[3] = np.nan
    starts[1] = SpectralField(G, bad)
    with pytest.raises(SolverError) as err:
        coupled_ensembles(f, starts, 5, _nudge(), BASIS8, seed=3,
                          trajectory_ids=np.arange(2))
    assert err.value.step_index == 1


def test_single_mode_gap_scalar_recursion():
    # noise off, both states on one controlled mode: the gap obeys
    # zeta^n = zeta^0 / (1 + delta (nu |k|^2 + beta))^n exactly
    np_ = _nudge(K=4, beta=2.0)
    a = harmonic_field(G, 1, 0, "cos", amplitude=1.0)
    b = harmonic_field(G, 1, 0, "cos", amplitude=1.5)
    pair = _pair(a, b, 30, np_, SILENT8, compute_shifts=False)
    gaps = pair.gaps_sq[:, 0]
    q = 1.0 / (1.0 + P.delta * (P.nu * 1.0 + np_.beta)) ** 2
    want = gaps[0] * q ** np.arange(31)
    assert np.max(np.abs(gaps - want) / want) <= 1e-8


def test_identical_initial_data_zero_gaps_and_shifts():
    f = random_field(G, seed=5, rms=1.0)
    pair = _pair(f, f, 20, seed=3, traj_id=1)
    assert np.allclose(pair.gaps_sq, 0.0, atol=1e-22)
    # every |psi_j| component within 1e-11
    assert np.all(pair.shift_sq_mean <= BASIS8.d * 1e-22)
    assert np.all(pair.kl_bound <= P.delta * 20 * BASIS8.d * 1e-22)


def test_gap_decays_in_paper_regime():
    np_ = _nudge(K=8)
    f = random_field(G, seed=6, rms=1.0)
    g = SpectralField(G, f.coeffs + 1e-2 * harmonic_field(
        G, 1, 0, "cos", normalized=True).coeffs)
    pair = coupled_ensembles(f, [g], 400, np_, BASIS8, seed=11,
                             trajectory_ids=np.arange(16))[0]
    mean_gap = np.mean(pair.gaps_sq, axis=1)
    assert mean_gap[-1] <= 1e-3 * mean_gap[0]
    fit = pathwise_contraction_check(pair.gaps_sq, np_)
    assert not fit["exact_coupling"]
    assert fit["per_step_log_factor"] <= 0.0
    assert fit["r_squared"] >= 0.9


def test_exact_coupling_reported():
    f = random_field(G, seed=7)
    pair = _pair(f, f, 10, seed=1)
    assert pathwise_contraction_check(pair.gaps_sq, _nudge())["exact_coupling"]


def test_linear_regime_fitted_factor_matches_oracle():
    np_ = _nudge(K=4, beta=2.0)
    a = harmonic_field(G, 1, 0, "cos", amplitude=1.0)
    b = harmonic_field(G, 1, 0, "cos", amplitude=2.0)
    pair = _pair(a, b, 200, np_, SILENT8, compute_shifts=False)
    fit = pathwise_contraction_check(pair.gaps_sq, np_)
    want = -2.0 * np.log1p(P.delta * (P.nu + np_.beta))
    assert fit["per_step_log_factor"] == pytest.approx(want, abs=1e-6)


# -- Girsanov accounting --------------------------------------------------------

def _study(**kwargs):
    """A small coupling study on 8 shells, K = 4 and 4 forced shells."""
    return coupling_study(CouplingStudyConfig(
        shells=8, horizon=0.15, shells_controlled=4, ensemble=2, forcing_shells=4,
        **kwargs), seed=2)


def test_girsanov_zero_for_identical_data():
    f = random_field(G, seed=8)
    pair = _pair(f, f, 15, seed=2)
    # both solves are run independently, so the gap sits at the solver
    # rounding floor rather than exactly zero
    assert np.mean(pair.kl_bound) <= 1e-24
    assert tv_bound(pair.kl_bound, a=1.0) <= 1e-12
    assert tv_bound(pair.kl_bound, a=0.5) <= 1e-8
    # the study's total-variation column reads 1 - exp(-KL)/2 of the mean cost,
    # here of a gap at the rounding floor: a zero one starts the nudged copy on
    # the plain one, and the study refuses it
    (row,) = _study(perturbations=(1e-15,)).tables["perturbations"]
    assert row["kl_mean"] <= 1e-24
    assert row["tv_from_kl"] == pytest.approx(0.5)
    with pytest.raises(ConfigError) as err:
        _study(perturbations=(0.0,))
    assert err.value.field == "perturbations"


def test_girsanov_identity_from_recorded_states():
    # the run's sums are delta beta^2 sum_j |sigma^-1 P_K zeta^j|^2 per member, and
    # their member mean per step, with zeta^j rebuilt from the recorded states
    K = 4
    np_ = _nudge(K=K)
    f = random_field(G, seed=10, rms=1.0)
    (pair,), plain, nudged = record(coupled_ensembles, f, _starts(f)[2:], 8, np_, BASIS8,
                                    seed=6, trajectory_ids=[0, 1])
    zeta = nudged[1:] - plain[1:]
    psi_sq = np_.beta ** 2 * np.array([
        [np.sum(pseudo_inverse_apply(BASIS8, project_coeffs(G, z, K)) ** 2)
         for z in step] for step in zeta])
    assert np.allclose(pair.kl_bound, P.delta * psi_sq.sum(axis=0), rtol=1e-10, atol=0.0)
    assert np.allclose(pair.shift_sq_mean, psi_sq.mean(axis=1), rtol=1e-10, atol=0.0)
    assert np.mean(pair.kl_bound) == pytest.approx(P.delta * psi_sq.sum(axis=0).mean(),
                                                   rel=1e-10)


def test_no_shifts_record_no_cost():
    f = random_field(G, seed=9)
    pair = _pair(f, f, 5, compute_shifts=False)
    assert pair.kl_bound is None and pair.shift_sq_mean is None
    # a study has cost columns, scalars, fits and kl-* checks exactly when it has shifts
    for shifts in (True, False):
        report = _study(perturbations=(1e-2, 1e-1, 1.0), compute_shifts=shifts)
        columns = {key for table in report.tables.values() for row in table for key in row}
        cost = {key for key in (*columns, *report.scalars, *report.fits)
                if "kl" in key or key == "shift_sq_mean"}
        assert bool(cost) == shifts
        assert any(key.startswith("kl-") for key in report.checks) == shifts


def test_girsanov_invariant_under_direction_relabeling():
    # relabeling the directions by a permutation (an orthogonal change
    # fixing the Gram matrix) permutes the shift coordinates but leaves
    # |psi_j|^2, and so the path-space cost, unchanged
    perm = np.random.default_rng(0).permutation(BASIS8.d)
    basis_p = ForcingBasis(G, BASIS8.coeff_matrix[perm])
    assert np.allclose(basis_p.gram, BASIS8.gram)  # equal-amplitude preset
    for seed in range(5):
        zeta = random_field(make_grid(16), seed=seed, rms=0.3)
        zk = project(zeta, 8)
        eta = pseudo_inverse_apply(BASIS8, zk)
        eta_p = pseudo_inverse_apply(basis_p, zk)
        assert np.sum(eta ** 2) == pytest.approx(np.sum(eta_p ** 2), rel=1e-10)
        assert np.allclose(np.sort(np.abs(eta)), np.sort(np.abs(eta_p)), atol=1e-12)


def test_kl_against_majorant_shape():
    np_ = _nudge(K=4)
    f = random_field(G, seed=12, rms=1.0)
    g = SpectralField(G, f.coeffs + 1e-1 * harmonic_field(
        G, 1, 0, "cos", normalized=True).coeffs)
    pair = coupled_ensembles(f, [g], 600, np_, BASIS8, seed=13,
                             trajectory_ids=np.arange(8))[0]
    kl_mean = np.mean(pair.kl_bound)
    major = kl_majorant(np_, BASIS8, float(pair.gaps_sq[0].mean()))
    assert np.isfinite(kl_mean) and kl_mean > 0
    assert kl_mean <= 10 * major


def test_range_error_when_forcing_misses_controlled_band():
    # the gap on the controlled band leaves range(sigma) at the first step
    narrow = low_mode_basis(G, 2, 0.5)
    np_ = _nudge(K=8)
    f = random_field(G, seed=14)
    g = random_field(G, seed=15)
    with pytest.raises(RangeError, match="at step 1"):
        _pair(f, g, 5, np_, narrow, compute_shifts=True)


def test_uniqueness_transfer_shifted_tape():
    # plain scheme driven by the shifted tape reproduces the nudged path
    np_ = _nudge(K=4)
    f = random_field(G, seed=16, rms=1.0)
    g = SpectralField(G, f.coeffs + 5e-2 * harmonic_field(
        G, 2, 1, "sin", normalized=True).coeffs)
    n_steps = 60
    _, plain, nudged = _recorded_pair(f, g, n_steps, np_, seed=21, traj_id=2)
    tape = batch_increments(21, [2], BASIS8.d, P.delta)
    # psi_j = -beta sigma^-1 P_K (xi_tilde^j - xi^j), shape (n_steps, 1, d)
    zk = project_coeffs(G, nudged[1:] - plain[1:], 4)
    psi = -np_.beta * spectral.pack(zk) @ pinv_matrix(BASIS8).T

    def shifted(n0, n1):
        # over step n the shifted increment is DW_n + delta psi_n
        return tape(n0, n1) + P.delta * psi[n0:n1]

    _, states = record(run_scheme, G, g.coeffs, n_steps, P, BASIS8, shifted)
    diff = spectral.norm_l2(states - nudged)
    assert np.max(diff) <= 1e-8
