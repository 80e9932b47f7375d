import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from snselab import integrator, spectral
from snselab.coupling import NudgeParams, coupled_ensembles, propose_beta
from snselab.errors import ConfigError, SolverError
from snselab.forcing import low_mode_basis
from snselab.integrator import (SchemeParams, _advance_one, batch_increments,
                                energy_identity_residual, run_scheme, step_residual,
                                step_system)
from snselab.spectral import (SpectralField, advect_coeffs, advect_frozen,
                              harmonic_field, make_grid, random_field, zero_field)

G = make_grid(16)
BASIS = low_mode_basis(G, 4, 0.5)


def _step(f, p, basis=None, eta=None):
    """One `run_scheme` step from field f: unforced, or forced by the unit
    normals eta (the noise is sqrt(delta) P_N sigma eta)."""
    inc = None if eta is None else (lambda n0, n1: np.sqrt(p.delta) * eta[None, None])
    return run_scheme(f.grid, f.coeffs, 1, p, basis, inc).states[-1, 0]


def _path(f, n_steps, p, basis, seed, trajectory_ids, **kwargs):
    """`run_scheme` from f, shared by every member, on the members' tapes."""
    ids = np.asarray(trajectory_ids)
    return run_scheme(f.grid, np.broadcast_to(f.coeffs, (ids.size, f.grid.n_half)),
                      n_steps, p, basis, batch_increments(seed, ids, 1, basis.d, p.delta),
                      **kwargs)


# -- single analytic steps -----------------------------------------------------

@pytest.mark.parametrize("mode", [(1, 0), (1, 1), (3, 4)])
@pytest.mark.parametrize("delta", [0.1, 0.01])
def test_single_mode_step_analytic(mode, delta):
    p = SchemeParams(1.0, delta, 16)
    f = harmonic_field(G, *mode, kind="cos", amplitude=1.3)
    out = _step(f, p)
    lam = mode[0] ** 2 + mode[1] ** 2
    want = f.coeffs / (1.0 + p.nu * delta * lam)
    denom = np.max(np.abs(want))
    assert np.max(np.abs(out - want)) <= 1e-12 * denom


def test_zero_state_zero_noise_stays_zero():
    p = SchemeParams(1.0, 0.05, 16)
    out = _step(zero_field(G), p, BASIS, np.zeros(BASIS.d))
    assert spectral.norm_l2(out) == 0.0


def test_step_residual_small():
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=4, rms=1.5)
    eta = np.ones(BASIS.d)
    noise = np.sqrt(p.delta) * (eta @ BASIS.coeff_matrix)
    out = _step(f, p, BASIS, eta)
    res = step_residual(G, f.coeffs, out, noise, p)
    scale = f.l2_norm() + float(spectral.norm_l2(noise))
    assert res <= 1e-11 * scale


@given(shells=st.sampled_from([4, 10, 16]), m=st.sampled_from([1, 3]),
       rms=st.floats(0.0, 20.0), delta=st.sampled_from([0.01, 0.05]),
       nudged=st.booleans(), seed=st.integers(0, 10 ** 6))
# a march ignores underflow (norms of subnormal states), and so does this step
# taken outside one
@np.errstate(under="ignore")
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
    stepped = _step(prev, p)
    assert np.max(np.abs(stepped - c_sol)) <= 1e-10 * prev.l2_norm()


def _dense_solve(grid, system, prev, rhs):
    """Each row of the packed step system (D + delta Adv) c = rhs, solved densely."""
    uv = spectral.velocity_values(grid, prev)
    eye = np.eye(prev.shape[-1])
    out = np.empty_like(rhs)
    for i in range(len(prev)):
        adv_t = advect_frozen(grid, uv[i], system.analysis, eye)   # row j: -delta D^-1 Adv e_j
        out[i] = np.linalg.solve(system.diag[:, None] * (eye - adv_t.T), rhs[i])
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


def _scaled_step(shells, m, rms, delta, seed, lam):
    """`_random_step` times ``lam``: states and noise times lam, nu times lam and
    delta over lam, which is the same step system times lam (exactly so for a
    power of two)."""
    grid, p, prev, noise, noise_scale = _random_step(shells, m, rms, delta, seed)
    p = SchemeParams(p.nu * lam, p.delta / lam, shells)
    return grid, p, lam * prev, lam * noise, lam * noise_scale


def _solve_sweeps(grid, p, prev, noise, noise_scale):
    """`_fixed_point_solve` of one step, and the output of each of its sweeps
    (float32 or float64)."""
    sweeps = []

    def recording_advect(*args):
        out = advect_frozen(*args)
        sweeps.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "advect_frozen", recording_advect)
        scale = np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale
        solved = integrator._fixed_point_solve(grid, spectral.velocity_values(grid, prev),
                                               prev + noise, step_system(grid, p), scale)
    return solved, sweeps


@given(shells=st.integers(3, 16), m=st.sampled_from([1, 3, 64]), rms=st.floats(4.0, 40.0),
       delta=st.sampled_from([0.05, 0.1]), log2_lam=st.integers(-40, 40),
       seed=st.integers(0, 10 ** 6))
# a march ignores underflow, which a float32 sweep meets on entries far below its row
@np.errstate(under="ignore")
def test_float32_sweep_error_is_within_a_quarter_of_its_bound(shells, m, rms, delta,
                                                              log2_lam, seed):
    # sweeps 1 and 2 are float64 in both solves, so sweep 3 maps the same
    # increment once in float32 and once in float64
    step = _scaled_step(shells, m, rms, delta, seed, 2.0 ** log2_lam)
    outs = {}
    for share in (0.0, 1e300):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "SWEEP32_SHARE", share)
            mp.setattr(integrator, "SWEEP32_MIN_WORK", 0)
            outs[share] = _solve_sweeps(*step)[1]
    if len(outs[0.0]) < 3:
        return   # solved in two sweeps
    single, double = outs[1e300][2], outs[0.0][2]
    assert single.dtype == np.float32 and double.dtype == np.float64
    err = np.sqrt(np.vecdot(single - double, single - double))
    assert np.all(err <= integrator.SWEEP32_ERROR / 4 * np.sqrt(np.vecdot(double, double)))


# (shells, members, rms, delta, seed): the nudged-coupling and temporal-ladder shapes
# and a stiffer step with many float32 sweeps
@pytest.mark.parametrize("shells, m, rms, delta, seed", [
    (16, 64, 1.0, 0.01, 0), (16, 192, 3.0, 0.01, 1), (16, 128, 1.0, 1 / 40, 2),
    (10, 64, 30.0, 0.05, 3)])
@np.errstate(under="ignore")
def test_mixed_solve_agrees_with_float64_solve(monkeypatch, shells, m, rms, delta, seed):
    step = _random_step(shells, m, rms, delta, seed)
    (mixed, n_mixed), sweeps = _solve_sweeps(*step)
    monkeypatch.setattr(integrator, "SWEEP32_SHARE", 0.0)
    (double, n_double), _ = _solve_sweeps(*step)
    assert sum(out.dtype == np.float32 for out in sweeps) > 0
    assert n_mixed == n_double
    grid, p, prev, noise, noise_scale = step
    err = np.sqrt(spectral.packed_norm_sq(mixed - double))
    assert np.all(err <= 0.1 * p.tol * (np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale))


# (lam, rescaled, members, float32 sweeps): a state of rms 8 lam, with the step
# rescaled so that it contracts as at lam = 1, or at rms 1e-150 unscaled (a row
# scale below 1e-100 is taken as 1e-100, so a rescaled step that small stops
# early in float64 as well); outside SWEEP32_SCALES, and below SWEEP32_MIN_WORK
# (one member), no sweep is float32
@pytest.mark.parametrize("lam, rescaled, m, float32", [
    (1.0, True, 64, True), (1.0, True, 1, False), (1e-150, False, 64, False),
    (2.0 ** -60, True, 64, False), (2.0 ** 60, True, 64, False), (1e150, True, 64, False)])
def test_float32_sweeps_stay_inside_their_scale_range(lam, rescaled, m, float32):
    # underflow is ignored as in a march; any other floating-point warning fails
    with np.errstate(under="ignore"):
        grid, p, prev, noise, noise_scale = _scaled_step(16, m, 8.0, 0.05, 7,
                                                         lam if rescaled else 1.0)
        if not rescaled:
            prev, noise, noise_scale = lam * prev, lam * noise, lam * noise_scale
        (c, _), sweeps = _solve_sweeps(grid, p, prev, noise, noise_scale)
        err = np.sqrt(spectral.packed_norm_sq(
            c - _dense_solve(grid, step_system(grid, p), prev, prev + noise)))
        scale = np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale
    assert np.all(err <= p.tol * scale)
    assert any(out.dtype == np.float32 for out in sweeps) == float32


# stalls from random step solves: the increment ratio hovers at 0.9-1.0
# without growing, and only the projected stop sweep ends the fixed point
# before MAX_SWEEPS; in the last one it alternates 0.81, 0.997, 0.81, ...,
# which only the two-sweep ratio sees as a steady rate
@pytest.mark.parametrize("shells, m, rms, seed", [(10, 1, 30.0, 4), (10, 3, 30.0, 0),
                                                  (16, 1, 40.0, 5), (8, 1, 33.0, 969482)])
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
        c_new = rhs_w + advect_frozen(grid, uv, system.analysis, c)
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
        coupled_ensembles(xi0, [random_field(grid, seed=3, rms=rms)], steps, np_, basis,
                          seed=5, trajectory_ids=range(m), compute_shifts=False)
    else:
        _path(xi0, steps, p, basis, 5, range(m), keep_states=False)
    new, old = np.array(counts).T
    assert np.all(new <= old)
    assert new.sum() < old.sum()


def test_krylov_policy_matches_fixed_point():
    p = SchemeParams(1.0, 0.02, 8)
    grid = make_grid(8)
    f = random_field(grid, seed=5, rms=1.5)
    a = _step(f, p)
    b, _ = _gmres_step(grid, spectral.pack(f.coeffs), p)
    assert np.max(np.abs(a - spectral.unpack(b))) <= 1e-9 * f.l2_norm()


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
    want = spectral.embed_coeffs(make_grid(20), G, random_field(make_grid(20), seed=6).coeffs)
    run = _path(SpectralField(G, want), 0, p, BASIS, 1, [0])
    assert run.states.shape[0] == 1
    assert np.array_equal(run.states[0, 0], want)


def test_noise_free_energy_monotone():
    p = SchemeParams(1.0, 0.05, 16)
    f = random_field(G, seed=7, rms=2.0)
    run = run_scheme(G, f.coeffs, 50, p, None, None)
    assert np.all(np.diff(run.energy_sq[:, 0]) <= 1e-12)


def test_noise_free_decay_bound():
    # |xi^n| <= |xi^0| / (1 + nu lambda_1 delta)^n
    p = SchemeParams(1.0, 0.05, 16, tol=1e-13)
    f = random_field(G, seed=7, rms=2.0)
    run = run_scheme(G, f.coeffs, 200, p, None, None)
    n = np.arange(201)
    bound = f.l2_norm() / (1.0 + p.nu * 1.0 * p.delta) ** n
    assert np.all(np.sqrt(run.energy_sq[:, 0]) <= bound * (1.0 + 1e-10))


def test_single_mode_energies_closed_form():
    # sigma = 0, one mode of |k|^2 = 1: |xi^n|^2 and |grad xi^n|^2 decay
    # geometrically by (1 + nu delta)^-2 per step
    p = SchemeParams(1.0, 0.1, 16)
    f = harmonic_field(G, 1, 0, "cos")
    run = run_scheme(G, f.coeffs, 30, p, None, None)
    want = f.l2_norm() ** 2 / (1.0 + p.nu * p.delta) ** (2 * np.arange(31))
    assert np.allclose(run.energy_sq[:, 0], want, rtol=1e-9, atol=1e-12)
    h1_sq = spectral.sobolev_norm_sq(G, run.states[:, 0], 1.0)
    assert np.allclose(h1_sq, want, rtol=1e-9, atol=1e-12)


def test_replay_bit_identical():
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=10)
    t1 = _path(f, 40, p, BASIS, 123, [5])
    t2 = _path(f, 40, p, BASIS, 123, [5])
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.energy_sq, t2.energy_sq)


def test_recorded_energy_is_norm_of_recorded_state():
    # the march's packed norms and the complex norm_l2_sq agree bit for bit,
    # so a checkpointed state reproduces its recorded energy exactly; so does
    # |grad c|^2 taken, as `simulate` takes it, of the packed rows an observer sees
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=14)
    for ids in ([3], [4, 9, 2]):
        h1_sq = {}

        def record_h1(step, c, noise, noise_scale):
            h1_sq[step] = spectral.packed_norm_sq(c, G.lam_packed)

        run = _path(f, 30, p, BASIS, 5, ids, record_stride=7, observer=record_h1)
        assert np.array_equal(run.energy_sq[run.step_indices],
                              spectral.norm_l2_sq(run.states))
        for i, n in enumerate(run.step_indices[1:], start=1):
            assert np.array_equal(h1_sq[n], spectral.sobolev_norm_sq(G, run.states[i], 1.0))
        last = spectral.norm_l2_sq(run.states[-1, -1].copy())
        assert last == run.energy_sq[run.step_indices[-1], -1]


def test_march_stacks_starts_over_one_tape():
    # k = 2 starts on another grid: start j is embedded and repeated for the M
    # members, and row j M + i reads tape id i, exactly as a hand-built run_scheme
    p = SchemeParams(1.0, 0.02, 16)
    fine = make_grid(20)
    starts = [random_field(fine, seed=21), random_field(G, seed=22)]
    ids = np.array([6, 1, 4])
    got = integrator.march(p, BASIS, starts, 8, ids, 300, record_stride=3)
    c0 = np.concatenate([np.broadcast_to(spectral.embed_coeffs(s.grid, G, s.coeffs),
                                         (ids.size, G.n_half)) for s in starts])
    tape = batch_increments(8, ids, 1, BASIS.d, p.delta)
    want = run_scheme(G, c0, 300, p, BASIS,
                      lambda n0, n1: np.concatenate([tape(n0, n1)] * 2, axis=1),
                      record_stride=3)
    assert got.states.shape == (101, 2 * ids.size, G.n_half)
    for name in ("step_indices", "states", "energy_sq", "iterations"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("m", [1, 3, 128])
@pytest.mark.parametrize("block_steps", [None, 7])
def test_block_noise_is_the_per_step_product(monkeypatch, m, block_steps):
    # 300 steps cross the 256-step chunk; blocks of 7 steps end inside it
    # (256 = 36 * 7 + 4), and at M = 128 the default block does too
    grid = make_grid(8)
    basis = low_mode_basis(grid, 4, 0.5)
    if block_steps is not None:
        monkeypatch.setattr(integrator, "BLOCK_BYTES",
                            block_steps * 8 * m * basis.packed.shape[1])
    tape = batch_increments(5, np.arange(m), 1, basis.d, 0.01)
    dw = tape(0, 300)
    steps = list(integrator.tape_steps(300, basis, tape))
    assert [step for step, _, _ in steps] == list(range(1, 301))
    for step, noise, noise_scale in steps:
        want = dw[step - 1] @ basis.packed
        assert np.array_equal(noise, want)
        assert np.array_equal(noise_scale, np.sqrt(spectral.packed_norm_sq(want)))


@pytest.mark.parametrize("block_bytes", [1, 7 * 3 * 2 * G.n_half * 8, None])
def test_record_unpacks_in_place_to_the_marched_states(monkeypatch, block_bytes):
    # blocks of 1 record, of 7 records (34 = 4 * 7 + 6), and the whole record
    if block_bytes is not None:
        monkeypatch.setattr(integrator, "BLOCK_BYTES", block_bytes)
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=31)
    seen = {0: spectral.pack(np.broadcast_to(f.coeffs, (3, G.n_half)))}
    run = _path(f, 100, p, BASIS, 9, [0, 1, 2], record_stride=3,
                observer=lambda step, c, noise, noise_scale: seen.update({step: c.copy()}))
    assert run.states.shape == (34, 3, G.n_half) and run.states.dtype == np.complex128
    for i, n in enumerate(run.step_indices):
        assert np.array_equal(run.states[i], spectral.unpack(seen[n]))


def test_march_with_underflowing_increments_is_quiet():
    # from rms 1e-150 the advection, and so every sweep increment, is ~1e-300,
    # and its squares underflow; the march ignores underflow, so the
    # np.seterr(all="warn") of conftest.py stays silent
    p = SchemeParams(1.0, 0.05, 16)
    f = random_field(G, seed=1, rms=1e-150)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = run_scheme(G, f.coeffs, 3, p, None, None)
    assert np.all(run.iterations >= 1) and np.all(run.energy_sq > 0)


def test_ensemble_member_matches_solo_run():
    # same tape by construction; agreement to rounding (BLAS kernels may
    # accumulate differently for different batch heights)
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=11)
    run = _path(f, 25, p, BASIS, 77, [4, 9, 2])
    solo = _path(f, 25, p, BASIS, 77, [9])
    scale = np.max(np.abs(solo.states))
    assert np.max(np.abs(run.states[:, 1] - solo.states[:, 0])) <= 1e-11 * scale


def test_energy_identity_per_step():
    p = SchemeParams(1.0, 0.02, 16)
    prev = random_field(G, seed=12, rms=1.5)
    eta = np.linspace(-1, 1, BASIS.d)
    new = SpectralField(G, _step(prev, p, BASIS, eta))
    noise = SpectralField(G, np.sqrt(p.delta) * (eta @ BASIS.coeff_matrix))
    assert energy_identity_residual(prev, new, noise, p) <= 1e-10


# -- refined reference ---------------------------------------------------------------

def test_heat_decay_oracle_fine_steps():
    # noise off, single mode: a run at delta = 1/512, recorded every 16
    # steps, approximates exp(-nu |k|^2 t)
    delta_f = 1.0 / 512
    p_f = SchemeParams(1.0, delta_f, 16)
    f = harmonic_field(G, 1, 0, "cos", amplitude=1.0)
    run = run_scheme(G, f.coeffs, 512, p_f, None, None, record_stride=16)
    final = spectral.norm_l2(run.states[-1, 0])
    want = np.exp(-1.0) * f.l2_norm()
    assert abs(final - want) <= 1.0 * delta_f * f.l2_norm()


def test_coupled_error_shrinks_with_delta():
    # coarse vs fine with shared tape: the coarse increment at fine factor 8
    # is the sum of the 8 fine ones, and halving delta shrinks the gap for
    # most sample paths
    f = random_field(G, seed=20, rms=1.0)
    horizon = 0.5
    ids = np.arange(10)
    c0 = np.broadcast_to(f.coeffs, (ids.size, G.n_half))
    errs = []
    for delta in (1 / 32, 1 / 64, 1 / 128):
        n_steps = round(horizon / delta)
        coarse = run_scheme(G, c0, n_steps, SchemeParams(1.0, delta, 16), BASIS,
                            batch_increments(31, ids, 8, BASIS.d, delta))
        fine = run_scheme(G, c0, 8 * n_steps, SchemeParams(1.0, delta / 8, 16), BASIS,
                          batch_increments(31, ids, 1, BASIS.d, delta / 8), record_stride=8)
        errs.append(spectral.norm_l2(coarse.states[-1] - fine.states[-1]))
    errs = np.array(errs)
    frac = np.mean((errs[1] < errs[0]) & (errs[2] < errs[1]))
    assert frac >= 0.9


# -- exponential moments ------------------------------------------------------------------

def test_lyapunov_bound_on_ensemble():
    # empirical mean of exp(alpha |xi^n|^2) under the discrete envelope
    p = SchemeParams(1.0, 0.05, 16)
    f = random_field(G, seed=2, rms=1.0)
    run = _path(f, 128, p, BASIS, 5, np.arange(128), keep_states=False)
    alpha = 1.0 / (8 * BASIS.variance)
    means = np.mean(np.exp(alpha * run.energy_sq), axis=1)
    e0 = f.l2_norm() ** 2
    n = np.arange(129)
    c_const = (1.0 + p.nu * p.delta0) * BASIS.variance / p.nu
    envelope = np.exp(alpha * (2 * e0 / (1 + p.nu * p.delta) ** n + c_const)) * 3
    assert np.all(means <= envelope)
