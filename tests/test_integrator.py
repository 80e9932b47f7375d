import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from snselab import integrator, spectral
from snselab.coupling import NudgeParams, coupled_ensemble, propose_beta
from snselab.errors import ConfigError, SolverError
from snselab.forcing import NoiseStream, low_mode_basis
from snselab.integrator import (SchemeParams, _advance_one, energy_identity_residual,
                                moment_probe, reference_simulate, run_scheme,
                                semi_implicit_step, simulate, simulate_ensemble,
                                step_residual, step_system)
from snselab.spectral import (SpectralField, advect_coeffs, advect_frozen,
                              harmonic_field, make_grid, random_field, zero_field)

G = make_grid(16)
BASIS = low_mode_basis(G, 4, 0.5)


# -- single analytic steps -----------------------------------------------------

@pytest.mark.parametrize("mode", [(1, 0), (1, 1), (3, 4)])
@pytest.mark.parametrize("delta", [0.1, 0.01])
def test_single_mode_step_analytic(mode, delta):
    p = SchemeParams(1.0, delta, 16)
    f = harmonic_field(G, *mode, kind="cos", amplitude=1.3)
    out = semi_implicit_step(f, None, p, None)
    lam = mode[0] ** 2 + mode[1] ** 2
    want = f.coeffs / (1.0 + p.nu * delta * lam)
    denom = np.max(np.abs(want))
    assert np.max(np.abs(out.coeffs - want)) <= 1e-12 * denom


def test_zero_state_zero_noise_stays_zero():
    p = SchemeParams(1.0, 0.05, 16)
    out = semi_implicit_step(zero_field(G), np.zeros(BASIS.d), p, BASIS)
    assert out.l2_norm() == 0.0


def test_step_residual_small():
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=4, rms=1.5)
    eta = np.ones(BASIS.d)
    noise = np.sqrt(p.delta) * (eta @ BASIS.coeff_matrix)
    out = semi_implicit_step(f, eta, p, BASIS)
    res = step_residual(G, f.coeffs, out.coeffs, noise, p)
    scale = f.l2_norm() + float(spectral.norm_l2(noise))
    assert res <= 1e-11 * scale


@given(shells=st.sampled_from([4, 10, 16]), m=st.sampled_from([1, 3]),
       rms=st.floats(0.0, 20.0), delta=st.sampled_from([0.01, 0.05]),
       nudged=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_packed_kernel_solves_step_system(shells, m, rms, delta, nudged, seed):
    # the nudged system D_n c + delta Adv c = c_prev + rhs_extra + noise is the
    # plain one with noise + rhs_extra - delta beta P_K c on the right
    grid = make_grid(shells)
    p = SchemeParams(1.0, delta, shells)
    basis = low_mode_basis(grid, 2, 0.5)
    prev = np.stack([random_field(grid, seed=seed, stream_id=i, rms=rms).coeffs
                     for i in range(m)])
    eta = np.random.default_rng(seed).standard_normal((m, basis.d))
    noise = np.sqrt(delta) * (eta @ basis.coeff_matrix)
    extra = np.zeros_like(prev)
    system = step_system(grid, p)
    if nudged:
        db_mask = delta * 2.5 * grid.mode_mask(2)   # beta = nu lambda_3 / 2
        system = step_system(grid, p, db_mask)
        extra = db_mask * random_field(grid, seed=seed + 1, rms=rms).coeffs
    c, _ = _advance_one(grid, spectral.pack(prev), spectral.pack(noise), system,
                        spectral.norm_l2(noise), spectral.pack(extra),
                        spectral.norm_l2(extra))
    new = spectral.unpack(c)
    scale = spectral.norm_l2(prev) + spectral.norm_l2(noise) + spectral.norm_l2(extra)
    if nudged:
        noise = noise + extra - db_mask * new
    assert np.all(step_residual(grid, prev, new, noise, p) <= 10 * p.tol * scale)


def test_dense_matrix_oracle_small_cutoff():
    # build the full step operator column by column and solve directly
    shells = 3
    grid = make_grid(shells)
    p = SchemeParams(1.0, 0.05, shells)
    prev = random_field(grid, seed=8, rms=1.2)
    n = grid.n_half

    def op(c):
        return (1.0 + p.delta * p.nu * grid.lam) * c \
            + p.delta * advect_coeffs(grid, prev.coeffs, c)

    cols = []
    for i in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[i] = 1.0
        cols.append(op(e))
        e = np.zeros(n, dtype=np.complex128)
        e[i] = 1j
        cols.append(op(e))
    # real 2n x 2n system acting on [Re c, Im c]
    a_mat = np.zeros((2 * n, 2 * n))
    for j in range(n):
        a_mat[:n, 2 * j] = cols[2 * j].real
        a_mat[n:, 2 * j] = cols[2 * j].imag
        a_mat[:n, 2 * j + 1] = cols[2 * j + 1].real
        a_mat[n:, 2 * j + 1] = cols[2 * j + 1].imag
    rhs = np.concatenate([prev.coeffs.real, prev.coeffs.imag])
    # unknowns are interleaved as (re_0, im_0, re_1, im_1, ...)
    sol = np.linalg.solve(a_mat, rhs)
    c_sol = sol.reshape(n, 2) @ np.array([1.0, 1j])
    stepped = semi_implicit_step(prev, None, p, None)
    assert np.max(np.abs(stepped.coeffs - c_sol)) <= 1e-10 * prev.l2_norm()


def _dense_solve(grid, system, prev, rhs):
    """Each row of the packed step system (D + delta Adv) c = rhs, solved densely."""
    uv = spectral.velocity_values(grid, prev)
    eye = np.eye(prev.shape[-1])
    out = np.empty_like(rhs)
    for i in range(len(prev)):
        adv_t = advect_frozen(grid, uv[i], system.analysis, eye)   # row j: delta D^-1 Adv e_j
        out[i] = np.linalg.solve(system.diag[:, None] * (eye + adv_t.T), rhs[i])
    return out


def _gmres_step(grid, c_prev, p, noise=None, noise_scale=0.0):
    """`_advance_one` with GMRES in place of the fixed point: the reference solve."""
    rhs = c_prev if noise is None else c_prev + noise
    scale = np.sqrt(spectral.packed_norm_sq(c_prev)) + noise_scale
    return integrator._krylov_solve(grid, spectral.velocity_values(grid, c_prev), rhs,
                                    step_system(grid, p), scale)


def _random_step(shells, m, rms, delta, seed):
    """(grid, params, packed states, packed noise, noise norms) of one random step."""
    grid = make_grid(shells)
    basis = low_mode_basis(grid, 2, 0.5)
    prev = spectral.pack(np.stack([random_field(grid, seed=seed, stream_id=i, rms=rms).coeffs
                                   for i in range(m)]))
    eta = np.random.default_rng(seed).standard_normal((m, basis.d))
    noise = np.sqrt(delta) * spectral.pack(eta @ basis.coeff_matrix)
    return grid, SchemeParams(1.0, delta, shells), prev, noise, np.sqrt(
        spectral.packed_norm_sq(noise))


@given(shells=st.sampled_from([4, 8, 10, 16]), m=st.sampled_from([1, 3]),
       rms=st.floats(0.0, 50.0), delta=st.sampled_from([0.01, 0.05, 0.1, 1.0]),
       solver=st.sampled_from(["fixed-point", "krylov"]), seed=st.integers(0, 10 ** 6))
# near divergence: the fixed point takes 78 sweeps
@example(shells=16, m=3, rms=50.0, delta=0.1, solver="fixed-point", seed=3)
# the fixed point diverges and the step falls back to GMRES
@example(shells=16, m=3, rms=50.0, delta=1.0, solver="fixed-point", seed=0)
def test_solve_is_within_tol_of_dense_solve(shells, m, rms, delta, solver, seed):
    grid, p, prev, noise, noise_scale = _random_step(shells, m, rms, delta, seed)
    system = step_system(grid, p)
    if solver == "krylov":
        c, _ = _gmres_step(grid, prev, p, noise, noise_scale)
    else:
        c, _ = _advance_one(grid, prev, noise, system, noise_scale)
    err = np.sqrt(spectral.packed_norm_sq(c - _dense_solve(grid, system, prev, prev + noise)))
    scale = np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale
    assert np.all(err <= p.tol * scale)


# stalls from random step solves: the increment ratio hovers at 0.9-1.0
# without growing, and only the projected stop sweep ends the fixed point
# before MAX_SWEEPS
@pytest.mark.parametrize("shells, m, rms, seed", [(10, 1, 30.0, 4), (10, 3, 30.0, 0),
                                                  (16, 1, 40.0, 5)])
def test_stalled_fixed_point_hands_over_early(monkeypatch, shells, m, rms, seed):
    sweeps, handed_over_at = [], []

    def counting_advect(*args):
        sweeps.append(1)
        return advect_frozen(*args)

    def krylov(*args):
        handed_over_at.append(len(sweeps))
        return solve(*args)

    solve = integrator._krylov_solve
    monkeypatch.setattr(spectral, "advect_frozen", counting_advect)
    monkeypatch.setattr(integrator, "_krylov_solve", krylov)
    grid, p, prev, noise, noise_scale = _random_step(shells, m, rms, 1.0, seed)
    system = step_system(grid, p)
    c, _ = _advance_one(grid, prev, noise, system, noise_scale)
    assert len(handed_over_at) == 1 and handed_over_at[0] <= integrator.MAX_SWEEPS // 10
    monkeypatch.undo()
    err = np.sqrt(spectral.packed_norm_sq(c - _dense_solve(grid, system, prev, prev + noise)))
    assert np.all(err <= p.tol * (np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale))


@pytest.mark.parametrize("rms, delta, fallback_steps", [(50.0, 1.0, 1), (200.0, 0.1, 3)])
def test_diverging_fixed_point_falls_back_to_gmres(rms, delta, fallback_steps):
    # every step on which the fixed point diverges is solved by GMRES from
    # the same right-hand side; later steps may contract again
    c0 = np.stack([random_field(G, seed=s, rms=rms).coeffs for s in range(4)])
    p = SchemeParams(1.0, delta, 16)
    fp = run_scheme(G, c0, 3, p, None, None)
    c, kr_states, kr_iters = spectral.pack(c0), [c0], []
    for _ in range(3):
        c, it = _gmres_step(G, c, p)
        kr_states.append(spectral.unpack(c))
        kr_iters.append(it)
    kr_energy = np.array([spectral.norm_l2_sq(s) for s in kr_states])
    assert np.array_equal(fp.states[:fallback_steps + 1], kr_states[:fallback_steps + 1])
    assert np.array_equal(fp.iterations[:fallback_steps], kr_iters[:fallback_steps])
    assert np.all(np.abs(fp.energy_sq - kr_energy) <= 1e-10 * kr_energy)


def _increment_stop_sweeps(grid, uv, rhs, system, scale):
    """Sweeps of the fixed point under the plain stop max |Delta| <= tol."""
    p = system.p
    rhs_w = rhs * system.inv_diag
    c = rhs_w
    inc_weight = (spectral.TWO_PI_SQ * 2.0) / np.maximum(scale, 1e-100) ** 2
    for it in range(1, integrator.MAX_SWEEPS + 1):
        c_new = rhs_w - advect_frozen(grid, uv, system.analysis, c)
        d = c_new - c
        c = c_new
        if np.sqrt(np.max(inc_weight * np.einsum("...i,...i->...", d, d))) <= p.tol:
            return it
    return integrator.MAX_SWEEPS + 1


# (shells, delta, members, rms, steps, forcing shells, nudged): shortened
# shapes of the temporal ladder (coarsest rung and reference), the single
# path, the nudged coupling and a contraction-grid cell
@pytest.mark.parametrize("shells, delta, m, rms, steps, f_shells, nudged", [
    (16, 1 / 40, 16, 1.0, 4, 4, False), (16, 1 / 640, 16, 1.0, 16, 4, False),
    (10, 0.05, 1, 3.0, 200, 4, False), (16, 0.01, 8, 1.0, 10, 4, True),
    (4, 0.02, 32, 1.0, 50, 2, False)])
def test_error_bound_stop_never_sweeps_more_than_increment_stop(
        monkeypatch, shells, delta, m, rms, steps, f_shells, nudged):
    solve = integrator._fixed_point_solve
    counts = []

    def both(grid, uv, rhs, system, scale):
        out = solve(grid, uv, rhs, system, scale)
        counts.append((out[1], _increment_stop_sweeps(grid, uv, rhs, system, scale)))
        return out

    monkeypatch.setattr(integrator, "_fixed_point_solve", both)
    grid = make_grid(shells)
    p = SchemeParams(1.0, delta, shells)
    basis = low_mode_basis(grid, f_shells, 0.5)
    xi0 = random_field(grid, seed=2, rms=rms)
    if nudged:
        np_ = NudgeParams(4, propose_beta(4, p)["beta"], p)
        coupled_ensemble(xi0, random_field(grid, seed=3, rms=rms), steps, np_, basis,
                         seed=5, trajectory_ids=range(m), compute_shifts=False)
    else:
        simulate_ensemble(xi0, steps, p, basis, 5, range(m), keep_states=False)
    new, old = np.array(counts).T
    assert np.all(new <= old)
    assert new.sum() < old.sum()


def test_krylov_policy_matches_fixed_point():
    p = SchemeParams(1.0, 0.02, 8)
    grid = make_grid(8)
    f = random_field(grid, seed=5, rms=1.5)
    a = semi_implicit_step(f, None, p, None)
    b, _ = _gmres_step(grid, spectral.pack(f.coeffs), p)
    assert np.max(np.abs(a.coeffs - spectral.unpack(b))) <= 1e-9 * f.l2_norm()


@pytest.mark.parametrize("name, value", [("tol", 0.0), ("tol", -1e-12),
                                         ("record_stride", 0)])
def test_bad_solver_parameters_raise_config_error(name, value):
    kwargs = {name: value}
    stride = kwargs.pop("record_stride", 1)
    with pytest.raises(ConfigError) as err:
        p = SchemeParams(1.0, 0.05, 16, **kwargs)
        run_scheme(G, random_field(G, seed=1).coeffs, 2, p, None, None,
                   record_stride=stride)
    assert err.value.field == name


def test_non_finite_state_fails_at_first_sweep(monkeypatch):
    sweeps = []

    def counting_advect(*args):
        sweeps.append(1)
        return advect_frozen(*args)

    monkeypatch.setattr(spectral, "advect_frozen", counting_advect)
    c0 = random_field(G, seed=1).coeffs.copy()
    c0[3] = np.nan
    with pytest.raises(SolverError) as err:
        run_scheme(G, c0, 5, SchemeParams(1.0, 0.05, 16), None, None)
    assert err.value.step_index == 1
    assert len(sweeps) == 1


def test_krylov_non_finite_state_fails_before_gmres(monkeypatch):
    import scipy.sparse.linalg

    def no_gmres(*args, **kwargs):
        raise AssertionError("gmres called on a non-finite state")

    monkeypatch.setattr(scipy.sparse.linalg, "gmres", no_gmres)
    c0 = random_field(G, seed=1).coeffs.copy()
    c0[3] = np.nan
    with pytest.raises(SolverError) as err:
        _gmres_step(G, spectral.pack(c0), SchemeParams(1.0, 0.05, 16))
    assert "non-finite" in str(err.value)
    # a march that hands such a step over reports it at its step
    monkeypatch.setattr(integrator, "_fixed_point_solve", lambda *args: None)
    with pytest.raises(SolverError) as err:
        run_scheme(G, c0, 5, SchemeParams(1.0, 0.05, 16), None, None)
    assert err.value.step_index == 1
    assert "non-finite" in str(err.value)


def test_krylov_reports_gmres_iterations(monkeypatch):
    # each GMRES iteration applies the operator once; a restart cycle adds
    # the residual evaluations at its start and end
    matvecs = []

    def counting_advect(*args):
        matvecs.append(1)
        return advect_frozen(*args)

    monkeypatch.setattr(spectral, "advect_frozen", counting_advect)
    p = SchemeParams(1.0, 0.1, 16)
    rows = spectral.pack(np.stack([random_field(G, seed=s, rms=50.0).coeffs for s in (0, 1)]))
    solo = []
    for row in rows:
        matvecs.clear()
        solo.append(_gmres_step(G, row[None], p)[1])
        assert 10 <= solo[-1] < len(matvecs) <= solo[-1] + 3
    assert _gmres_step(G, rows, p)[1] == max(solo)


# -- trajectories ----------------------------------------------------------------

def test_zero_steps_returns_projected_initial():
    p = SchemeParams(1.0, 0.01, 16)
    f = random_field(make_grid(20), seed=6)
    traj = simulate(f, 0, p, BASIS, NoiseStream(1, 0))
    assert traj.states.shape[0] == 1
    want = spectral.embed_coeffs(make_grid(20), G, f.coeffs)
    assert np.array_equal(traj.states[0], want)


def test_noise_free_energy_monotone():
    p = SchemeParams(1.0, 0.05, 16)
    f = random_field(G, seed=7, rms=2.0)
    traj = simulate(f, 50, p, None, None)
    assert np.all(np.diff(traj.energy_sq) <= 1e-12)


def test_noise_free_decay_bound():
    # |xi^n| <= |xi^0| / (1 + nu lambda_1 delta)^n
    p = SchemeParams(1.0, 0.05, 16, tol=1e-13)
    f = random_field(G, seed=7, rms=2.0)
    traj = simulate(f, 200, p, None, None)
    n = np.arange(201)
    bound = f.l2_norm() / (1.0 + p.nu * 1.0 * p.delta) ** n
    assert np.all(np.sqrt(traj.energy_sq) <= bound * (1.0 + 1e-10))


def test_replay_bit_identical():
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=10)
    t1 = simulate(f, 40, p, BASIS, NoiseStream(123, 5))
    t2 = simulate(f, 40, p, BASIS, NoiseStream(123, 5))
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.energy_sq, t2.energy_sq)


def test_recorded_energy_is_norm_of_recorded_state():
    # the march's packed norms and the complex norm_l2_sq agree bit for bit,
    # so a checkpointed state reproduces its recorded energy exactly
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=14)
    for ids in ([3], [4, 9, 2]):
        run = simulate_ensemble(f, 30, p, BASIS, seed=5, trajectory_ids=ids,
                                record_stride=7)
        assert np.array_equal(run.energy_sq[run.step_indices],
                              spectral.norm_l2_sq(run.states))
        assert np.array_equal(run.h1_sq[run.step_indices],
                              spectral.sobolev_norm_sq(G, run.states, 1.0))
        last = spectral.norm_l2_sq(run.states[-1, -1].copy())
        assert last == run.energy_sq[run.step_indices[-1], -1]


def test_ensemble_member_matches_solo_run():
    # same tape by construction; agreement to rounding (BLAS kernels may
    # accumulate differently for different batch heights)
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=11)
    run = simulate_ensemble(f, 25, p, BASIS, seed=77, trajectory_ids=[4, 9, 2])
    solo = simulate(f, 25, p, BASIS, NoiseStream(77, 9))
    scale = np.max(np.abs(solo.states))
    assert np.max(np.abs(run.states[:, 1] - solo.states)) <= 1e-11 * scale


def test_energy_identity_per_step():
    p = SchemeParams(1.0, 0.02, 16)
    prev = random_field(G, seed=12, rms=1.5)
    eta = np.linspace(-1, 1, BASIS.d)
    new = semi_implicit_step(prev, eta, p, BASIS)
    noise = SpectralField(G, np.sqrt(p.delta) * (eta @ BASIS.coeff_matrix))
    assert energy_identity_residual(prev, new, noise, p) <= 1e-10


# -- refined reference ---------------------------------------------------------------

def test_reference_r1_equals_simulate():
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=13)
    a = simulate(f, 20, p, BASIS, NoiseStream(9, 1))
    b = reference_simulate(f, 20 * 0.02, p, BASIS, NoiseStream(9, 1, fine_factor=1))
    assert np.array_equal(a.states, b.states)


def test_heat_decay_oracle_fine_steps():
    # noise off, single mode: fine run approximates exp(-nu |k|^2 t)
    delta_f = 1.0 / 512
    p_f = SchemeParams(1.0, delta_f, 16)
    f = harmonic_field(G, 1, 0, "cos", amplitude=1.0)
    traj = reference_simulate(f, 1.0, p_f, None, NoiseStream(0, 0, fine_factor=16))
    final = traj.final().l2_norm()
    want = np.exp(-1.0) * f.l2_norm()
    assert abs(final - want) <= 1.0 * delta_f * f.l2_norm()


def test_coupled_error_shrinks_with_delta():
    # coarse vs fine with shared tape: halving delta shrinks the gap for
    # most sample paths
    f = random_field(G, seed=20, rms=1.0)
    horizon = 0.5
    errs = []
    for delta in (1 / 32, 1 / 64, 1 / 128):
        per_path = []
        for traj_id in range(10):
            stream = NoiseStream(31, traj_id, fine_factor=8)
            p_c = SchemeParams(1.0, delta, 16)
            p_f = SchemeParams(1.0, delta / 8, 16)
            coarse = simulate(f, round(horizon / delta), p_c, BASIS, stream)
            fine = reference_simulate(f, horizon, p_f, BASIS, stream)
            d = coarse.states[-1] - fine.states[-1]
            per_path.append(float(spectral.norm_l2(d)))
        errs.append(per_path)
    errs = np.array(errs)
    frac = np.mean((errs[1] < errs[0]) & (errs[2] < errs[1]))
    assert frac >= 0.9


# -- moment probe ----------------------------------------------------------------------

def test_moment_probe_trivial_cases():
    p = SchemeParams(1.0, 0.05, 16)
    traj = simulate(zero_field(G), 10, p, None, None)
    probe = moment_probe(traj, 0.3)
    assert np.allclose(np.exp(probe.log_values), 1.0)
    probe0 = moment_probe(simulate(random_field(G, seed=3), 10, p, None, None), 0.0)
    assert np.allclose(np.exp(probe0.log_values), 1.0)


def test_moment_probe_single_mode_closed_form():
    # sigma = 0, one mode: energies decay geometrically with known factor
    p = SchemeParams(1.0, 0.1, 16)
    f = harmonic_field(G, 1, 0, "cos")
    traj = simulate(f, 30, p, None, None)
    alpha = 0.2
    q = 1.0 / (1.0 + p.nu * p.delta) ** 2
    e0 = f.l2_norm() ** 2
    n = np.arange(31)
    energies = e0 * q ** n
    dissip = np.concatenate([[0.0], np.cumsum(energies[1:])])  # lambda = 1
    want = alpha * energies + alpha * p.nu * p.delta * dissip
    assert np.allclose(probe_vals := moment_probe(traj, alpha).log_values, want,
                       rtol=1e-9, atol=1e-12)


def test_moment_probe_admissibility_guard():
    p = SchemeParams(1.0, 0.05, 16)
    traj = simulate(zero_field(G), 5, p, BASIS, NoiseStream(1, 0))
    with pytest.raises(ConfigError):
        moment_probe(traj, alpha=10.0, basis=BASIS)


def test_lyapunov_bound_on_ensemble():
    # empirical mean of exp(alpha |xi^n|^2) under the discrete envelope
    p = SchemeParams(1.0, 0.05, 16)
    f = random_field(G, seed=2, rms=1.0)
    run = simulate_ensemble(f, 128, p, BASIS, seed=5, trajectory_ids=np.arange(128),
                            keep_states=False)
    alpha = 1.0 / (8 * BASIS.variance)
    means = np.mean(np.exp(alpha * run.energy_sq), axis=1)
    e0 = f.l2_norm() ** 2
    n = np.arange(129)
    c_const = (1.0 + p.nu * p.delta0) * BASIS.variance / p.nu
    envelope = np.exp(alpha * (2 * e0 / (1 + p.nu * p.delta) ** n + c_const)) * 3
    assert np.all(means <= envelope)
