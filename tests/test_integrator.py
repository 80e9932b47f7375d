import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from snselab import integrator, spectral
from snselab.coupling import NudgeParams, coupled_ensembles, propose_beta
from snselab.errors import ConfigError, SolverError, StructuralError
from snselab.forcing import low_mode_basis
from snselab.integrator import (SchemeParams, _advance_one, batch_increments, run_scheme,
                                step_system)
from snselab.spectral import (SpectralField, advect_frozen, harmonic_field, make_grid,
                              random_field, zero_field)

from helpers import (advect_coeffs, energy_identity_residual, record, step_residual,
                     summed_increments)

G = make_grid(16)
BASIS = low_mode_basis(G, 4, 0.5)


def _step(f, p, basis=None, eta=None):
    """One `run_scheme` step from field f: unforced, or forced by the unit
    normals eta (the noise is sqrt(delta) P_N sigma eta)."""
    inc = None if eta is None else (lambda n0, n1: np.sqrt(p.delta) * eta[None, None])
    return record(run_scheme, f.grid, f.coeffs, 1, p, basis, inc)[1][-1, 0]


def _path(f, n_steps, p, basis, seed, trajectory_ids, **kwargs):
    """`record` of `run_scheme` from f, shared by every member, on the
    members' tapes: (run, states)."""
    ids = np.asarray(trajectory_ids)
    return record(run_scheme, f.grid, np.broadcast_to(f.coeffs, (ids.size, f.grid.n_half)),
                  n_steps, p, basis, batch_increments(seed, ids, basis.d, p.delta), **kwargs)


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
    # the row's scale is 0: it solves at sweep 1, without a NaN
    p = SchemeParams(1.0, 0.05, 16)
    run, states = record(run_scheme, G, zero_field(G).coeffs, 1, p, BASIS,
                         lambda n0, n1: np.zeros((1, 1, BASIS.d)))
    assert spectral.norm_l2(states[-1, 0]) == 0.0 and run.iterations[0] == 1


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


def _chebyshev_step(grid, c_prev, p, noise=None, noise_scale=0.0):
    """`_advance_one` with the Chebyshev fall-back in place of the fixed point."""
    rhs = c_prev if noise is None else c_prev + noise
    scale = np.sqrt(spectral.packed_norm_sq(c_prev)) + noise_scale
    return integrator._chebyshev_solve(grid, spectral.velocity_values(grid, c_prev), rhs,
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
       solver=st.sampled_from(["fixed-point", "chebyshev"]), seed=st.integers(0, 10 ** 6))
# near divergence: the fixed point takes 78 sweeps
@example(shells=16, m=3, rms=50.0, delta=0.1, solver="fixed-point", seed=3)
# the fixed point diverges and the step falls back to the Chebyshev iteration
@example(shells=16, m=3, rms=50.0, delta=1.0, solver="fixed-point", seed=0)
# S = 0 and kappa = 0: the Chebyshev iteration is one Richardson sweep
@example(shells=16, m=3, rms=0.0, delta=0.1, solver="chebyshev", seed=0)
# a march ignores underflow (a subnormal rms scales its field to subnormal
# entries), and so does this step taken outside one
@example(shells=4, m=1, rms=2.225073858507203e-309, delta=0.01, solver="fixed-point", seed=0)
@np.errstate(under="ignore")
def test_solve_is_within_tol_of_dense_solve(shells, m, rms, delta, solver, seed):
    grid, p, prev, noise, noise_scale = _random_step(shells, m, rms, delta, seed)
    system = step_system(grid, p)
    if solver == "chebyshev":
        c, _ = _chebyshev_step(grid, prev, p, noise, noise_scale)
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
    """`_fixed_point_solve` of one step, and the (input, output) increments of
    each map it made (float32 or float64)."""
    sweeps = []

    def recording_advect(*args):
        out = advect_frozen(*args)
        sweeps.append((args[3], out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "advect_frozen", recording_advect)
        scale = np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale
        solved = integrator._fixed_point_solve(grid, spectral.velocity_values(grid, prev),
                                               prev + noise, step_system(grid, p), scale)
    return solved, sweeps


def _float32_spent(step, sweeps):
    """SWEEP32_ERROR times the largest relative increment of every float32 map
    that `_solve_sweeps` recorded and the solve kept: a dropped one is followed
    by a float64 map of the same input."""
    grid, p, prev, noise, noise_scale = step
    scale = np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale
    spent = 0.0
    for (src, out), (nxt, _) in zip(sweeps, sweeps[1:] + [(None, None)]):
        if out.dtype == np.float32 and not (
                nxt is not None and np.array_equal(nxt.astype(np.float32), src)):
            spent += integrator.SWEEP32_ERROR * np.sqrt(
                np.max(spectral.packed_norm_sq(out.astype(np.float64)) / scale ** 2))
    return spent


@given(shells=st.integers(3, 16), m=st.sampled_from([1, 3, 64]), rms=st.floats(4.0, 40.0),
       delta=st.sampled_from([0.05, 0.1]), log2_lam=st.integers(-40, 40),
       seed=st.integers(0, 10 ** 6))
# a march ignores underflow, which a float32 sweep meets on entries far below its row
@np.errstate(under="ignore")
def test_float32_sweep_error_is_within_a_quarter_of_its_bound(shells, m, rms, delta,
                                                              log2_lam, seed):
    # sweep 1 is float64 in both solves, and with an unbounded room sweep 2 is
    # float32 in one: it maps the same float64 increment once in float32 and
    # once in float64
    step = _scaled_step(shells, m, rms, delta, seed, 2.0 ** log2_lam)
    outs = {}
    for share in (0.0, 1e300):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "SWEEP32_SHARE", share)
            mp.setattr(integrator, "SWEEP32_MIN_WORK", 0)
            outs[share] = [out for _, out in _solve_sweeps(*step)[1]]
    if len(outs[0.0]) < 2:
        return   # solved in one sweep
    single, double = outs[1e300][1], outs[0.0][1]
    assert single.dtype == np.float32 and double.dtype == np.float64
    err = np.sqrt(np.vecdot(single - double, single - double))
    assert np.all(err <= integrator.SWEEP32_ERROR / 4 * np.sqrt(np.vecdot(double, double)))


# (shells, members, rms, delta, seed): the nudged-coupling and temporal-ladder shapes,
# the temporal ladder's reference step (its float32 sweep is sweep 2; a flat spectrum
# at rms 0.5 has |Delta_1| ~ 1.5e-5 against the reference's ~ 7.7e-6) and a stiffer
# step with many float32 sweeps
@pytest.mark.parametrize("shells, m, rms, delta, seed", [
    (16, 64, 1.0, 0.01, 0), (16, 192, 3.0, 0.01, 1), (16, 128, 1.0, 1 / 40, 2),
    (16, 128, 0.5, 1 / 5120, 4), (10, 64, 30.0, 0.05, 3)])
@np.errstate(under="ignore")
def test_mixed_solve_agrees_with_float64_solve(monkeypatch, shells, m, rms, delta, seed):
    step = _random_step(shells, m, rms, delta, seed)
    (mixed, n_mixed), sweeps = _solve_sweeps(*step)
    monkeypatch.setattr(integrator, "SWEEP32_SHARE", 0.0)
    (double, n_double), _ = _solve_sweeps(*step)
    assert sum(out.dtype == np.float32 for _, out in sweeps) > 0
    assert n_mixed == n_double
    grid, p, prev, noise, noise_scale = step
    err = np.sqrt(spectral.packed_norm_sq(mixed - double))
    assert np.all(err <= 0.1 * p.tol * (np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale))


# (shells, members, rms, delta, seed): steps found by a search on which float32
# sweeps chosen by their predicted increments alone spend 106% and 108% of the
# solve's room, the second at the 192 rows of the nudged-coupling workload's solve;
# the sweep 3 that overspends is mapped again in float64
@pytest.mark.parametrize("shells, m, rms, delta, seed", [
    (16, 64, 5.0, 0.01, 0), (16, 192, 1.0, 0.01, 0)])
@np.errstate(under="ignore")
def test_float32_sweeps_never_spend_beyond_their_room(shells, m, rms, delta, seed):
    step = _random_step(shells, m, rms, delta, seed)
    (c, n), sweeps = _solve_sweeps(*step)
    assert any(out.dtype == np.float32 for _, out in sweeps)
    assert 0.0 < _float32_spent(step, sweeps) <= integrator.SWEEP32_SHARE * step[1].tol
    assert len(sweeps) > n   # a dropped float32 map is no extra sweep


# (lam, rescaled, members, float32 sweeps): a state of rms 8 lam, with the step
# rescaled so that it contracts as at lam = 1, or at rms 1e-150 unscaled, where
# the advection is negligible and the step solves at sweep 1; outside
# SWEEP32_SCALES, and below SWEEP32_MIN_WORK (one member), no sweep is float32
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
    assert any(out.dtype == np.float32 for _, out in sweeps) == float32


@given(shells=st.sampled_from([4, 10, 16]), m=st.sampled_from([1, 3]),
       rms=st.floats(0.5, 20.0), delta=st.sampled_from([0.01, 0.05]),
       log10_lam=st.floats(-150.0, 150.0), seed=st.integers(0, 10 ** 6))
# at 1e-150 squared absolute increments underflow; at 1e150 the squared scale nears overflow
@example(shells=16, m=3, rms=8.0, delta=0.05, log10_lam=-150.0, seed=7)
@example(shells=16, m=3, rms=8.0, delta=0.05, log10_lam=150.0, seed=7)
# the fixed point diverges and the Chebyshev fall-back solves the step
@example(shells=16, m=3, rms=50.0, delta=1.0, log10_lam=-150.0, seed=0)
@example(shells=16, m=3, rms=50.0, delta=1.0, log10_lam=150.0, seed=0)
# a march ignores underflow, and so does this step taken outside one
@np.errstate(under="ignore")
def test_solve_is_scale_free(shells, m, rms, delta, log10_lam, seed):
    # the step system times lam solves to tol * scale at every scale; errors
    # are measured in units of lam, where their squares neither underflow
    # nor overflow
    lam = 10.0 ** log10_lam
    grid, p, prev, noise, noise_scale = _scaled_step(shells, m, rms, delta, seed, lam)
    system = step_system(grid, p)
    c, _ = _advance_one(grid, prev, noise, system, noise_scale)
    err = np.sqrt(spectral.packed_norm_sq(
        (c - _dense_solve(grid, system, prev, prev + noise)) / lam))
    scale = np.sqrt(spectral.packed_norm_sq(prev / lam)) + noise_scale / lam
    assert np.all(err <= p.tol * scale)
    # above RESCALE_BELOW the solve keeps absolute units; rescaling rows by
    # powers of two is exact, so there it would give the same bits
    if log10_lam >= -100:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(integrator, "RESCALE_BELOW", np.inf)
            assert np.array_equal(_advance_one(grid, prev, noise, system, noise_scale)[0], c)


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

    def chebyshev(*args):
        handed_over_at.append(len(sweeps))
        return solve(*args)

    solve = integrator._chebyshev_solve
    monkeypatch.setattr(spectral, "advect_frozen", counting_advect)
    monkeypatch.setattr(integrator, "_chebyshev_solve", chebyshev)
    grid, p, prev, noise, noise_scale = _random_step(shells, m, rms, 1.0, seed)
    system = step_system(grid, p)
    c, _ = _advance_one(grid, prev, noise, system, noise_scale)
    assert len(handed_over_at) == 1 and handed_over_at[0] <= integrator.MAX_SWEEPS // 10
    monkeypatch.undo()
    err = np.sqrt(spectral.packed_norm_sq(c - _dense_solve(grid, system, prev, prev + noise)))
    assert np.all(err <= p.tol * (np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale))


@pytest.mark.parametrize("rms, delta, fallback_steps", [(50.0, 1.0, 1), (200.0, 0.1, 3)])
def test_diverging_fixed_point_falls_back_to_chebyshev(monkeypatch, rms, delta,
                                                       fallback_steps):
    # every step on which the fixed point diverges is solved again, on the
    # whole batch, by the Chebyshev fall-back, whose maps are the step's
    # count; later steps may contract again.  Every step is within tol of
    # the dense solve from the state before it
    solve, handed_over = integrator._chebyshev_solve, []

    def chebyshev(grid, uv, rhs, system, scale):
        out = solve(grid, uv, rhs, system, scale)
        handed_over.append((len(rhs), out[1]))
        return out

    monkeypatch.setattr(integrator, "_chebyshev_solve", chebyshev)
    c0 = np.stack([random_field(G, seed=s, rms=rms).coeffs for s in range(4)])
    p = SchemeParams(1.0, delta, 16)
    run, states = record(run_scheme, G, c0, 3, p, None, None)
    assert [rows for rows, _ in handed_over] == [4] * fallback_steps
    assert list(run.iterations[:fallback_steps]) == [maps for _, maps in handed_over]
    system = step_system(G, p)
    for prev, new in zip(spectral.pack(states), spectral.pack(states[1:])):
        err = np.sqrt(spectral.packed_norm_sq(new - _dense_solve(G, system, prev, prev)))
        assert np.all(err <= p.tol * np.sqrt(spectral.packed_norm_sq(prev)))


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
        run_scheme(grid, np.broadcast_to(xi0.coeffs, (m, grid.n_half)), steps, p, basis,
                   batch_increments(5, np.arange(m), basis.d, p.delta))
    new, old = np.array(counts).T
    assert np.all(new <= old)
    assert new.sum() < old.sum()


def test_krylov_policy_matches_fixed_point():
    # the Chebyshev fall-back, a Krylov method, on a step the fixed point solves
    p = SchemeParams(1.0, 0.02, 8)
    grid = make_grid(8)
    f = random_field(grid, seed=5, rms=1.5)
    a = _step(f, p)
    b, _ = _chebyshev_step(grid, spectral.pack(f.coeffs[None]), p)
    assert np.max(np.abs(a - spectral.unpack(b))) <= 1e-9 * f.l2_norm()


@pytest.mark.parametrize("name, value", [("tol", 0.0), ("tol", -1e-12)])
def test_bad_solver_parameters_raise_config_error(name, value):
    with pytest.raises(ConfigError) as err:
        p = SchemeParams(1.0, 0.05, 16, **{name: value})
        run_scheme(G, random_field(G, seed=1).coeffs, 2, p, None, None)
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


def test_chebyshev_non_finite_state_fails_before_a_map(monkeypatch):
    def no_map(*args):
        raise AssertionError("S mapped on a non-finite state")

    c0 = random_field(G, seed=1).coeffs.copy()
    c0[3] = np.nan
    monkeypatch.setattr(spectral, "advect_frozen", no_map)
    with pytest.raises(SolverError) as err:
        _chebyshev_step(G, spectral.pack(c0[None]), SchemeParams(1.0, 0.05, 16))
    assert "non-finite" in str(err.value)
    # a march that hands such a step over reports it at its step
    monkeypatch.setattr(integrator, "_fixed_point_solve", lambda *args: None)
    with pytest.raises(SolverError) as err:
        run_scheme(G, c0, 5, SchemeParams(1.0, 0.05, 16), None, None)
    assert err.value.step_index == 1
    assert "non-finite" in str(err.value)


def test_chebyshev_reports_its_maps(monkeypatch):
    # the count is every S map the fall-back made, its power maps included,
    # for one row and for the batch, which sweeps as long as its slowest row
    maps = []

    def counting_advect(*args):
        maps.append(1)
        return advect_frozen(*args)

    monkeypatch.setattr(spectral, "advect_frozen", counting_advect)
    p = SchemeParams(1.0, 0.1, 16)
    rows = spectral.pack(np.stack([random_field(G, seed=s, rms=50.0).coeffs for s in (0, 1)]))
    for c in [row[None] for row in rows] + [rows]:
        maps.clear()
        count = _chebyshev_step(G, c, p)[1]
        assert count == len(maps) > integrator.CHEBYSHEV_POWER


@pytest.mark.parametrize("rms, delta", [(50.0, 1.0), (200.0, 0.1)])
def test_chebyshev_restarts_past_an_underestimated_kappa(monkeypatch, rms, delta):
    # a kappa of a fifth of the power estimate (0.3 against 1.57 on the first
    # shape) leaves eigenvalues beyond the segment, on which the iteration
    # would diverge (by about 1.5 per sweep there): the residual outgrows its
    # bound, kappa is raised, and the solve still lands within tol
    grid, p, prev, noise, noise_scale = _random_step(16, 4, rms, delta, 0)
    system = step_system(grid, p)
    _, maps = _chebyshev_step(grid, prev, p, noise, noise_scale)
    monkeypatch.setattr(integrator, "CHEBYSHEV_MARGIN", 0.2)
    c, more = _chebyshev_step(grid, prev, p, noise, noise_scale)
    assert more > maps + integrator.CHEBYSHEV_POWER
    err = np.sqrt(spectral.packed_norm_sq(c - _dense_solve(grid, system, prev, prev + noise)))
    assert np.all(err <= p.tol * (np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale))


# -- one row ---------------------------------------------------------------------

def _one_row_step(kind):
    """(grid, uv, rhs, system, scale) of one step of one packed row, scale a
    (1,) array: a row of rms 20 (a few sweeps), the same row times 2^-450
    (below RESCALE_BELOW), a zero row, and a row holding a NaN."""
    grid, p, prev, noise, noise_scale = _random_step(10, 1, 20.0, 0.05, 11)
    if kind == "tiny":
        prev, noise, noise_scale = (np.ldexp(x, -450) for x in (prev, noise, noise_scale))
    elif kind == "zero":
        prev, noise, noise_scale = 0.0 * prev, 0.0 * noise, 0.0 * noise_scale
    elif kind == "nan":
        prev[0, 3] = np.nan
    scale = np.sqrt(spectral.packed_norm_sq(prev)) + noise_scale
    return (grid, spectral.velocity_values(grid, prev), prev + noise, step_system(grid, p),
            scale)


@pytest.mark.parametrize("kind", ["normal", "tiny", "zero", "nan"])
def test_one_row_solve_is_the_array_solve(kind):
    # a one-row solve gives the same bits and sweeps for a float scale and a
    # (1,) array; above RESCALE_BELOW it keeps its bookkeeping in floats, and
    # gives the bits of the array code that rescaling the row by 2^e (exact)
    # runs; a non-finite row fails either way
    grid, uv, rhs, system, scale = _one_row_step(kind)
    # (scale, RESCALE_BELOW) of each solve
    cases = [(scale, integrator.RESCALE_BELOW), (float(scale[0]), integrator.RESCALE_BELOW)]
    if kind == "normal":
        cases.append((scale, np.inf))
    outs = []
    for s, rescale_below in cases:
        with pytest.MonkeyPatch.context() as mp, np.errstate(under="ignore"):
            mp.setattr(integrator, "RESCALE_BELOW", rescale_below)
            if kind == "nan":
                with pytest.raises(SolverError):
                    integrator._fixed_point_solve(grid, uv, rhs, system, s)
                continue
            outs.append(integrator._fixed_point_solve(grid, uv, rhs, system, s))
    for c, sweeps in outs[1:]:
        assert np.array_equal(c.view(np.uint64), outs[0][0].view(np.uint64))
        assert sweeps == outs[0][1]
    if kind == "normal":
        assert outs[0][1] >= 3
    if kind == "zero":
        assert not np.any(outs[0][0])


@pytest.mark.parametrize("bad", [np.nan, 1e300])
@pytest.mark.parametrize("m", [1, 3])
def test_non_finite_step_fails_at_its_step(m, bad):
    # one increment of step 3 is NaN, or so large that the step's squared
    # norms overflow: a NaN noise scale takes the rescaled solve, an infinite
    # one the floats of one row, where the relative increment reads 0 inf
    # (a warning only in a batch's array form)
    tape = batch_increments(4, np.arange(m), BASIS.d, 0.02)

    def provider(n0, n1):
        dw = tape(n0, n1)
        if n0 <= 2 < n1:
            dw[2 - n0, -1, 0] = bad
        return dw

    f = random_field(G, seed=8)
    seen = []
    with pytest.raises(SolverError) as err, np.errstate(over="ignore", invalid="ignore"):
        run_scheme(G, np.broadcast_to(f.coeffs, (m, G.n_half)), 10,
                   SchemeParams(1.0, 0.02, 16), BASIS, provider,
                   observer=lambda step, *rest: seen.append(step))
    assert err.value.step_index == 3
    assert seen == [0, 1, 2]


def test_one_row_march_is_the_stepped_kernel():
    # 300 steps cross the 256-step tape chunk.  The observer sees the row's
    # noise scale as a float, the norm of the step's packed noise (0.0 at
    # the start row, which has none), and the march records the norm of
    # every state it sees; each state is the kernel's step from the last one
    # with |c_prev| taken afresh, bit for bit
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=3, rms=8.0)
    seen = {}
    system = step_system(G, p)

    def keep(step, c, noise, noise_scale):
        assert type(noise_scale) is float
        if step == 0:
            assert noise is None and noise_scale == 0.0
            want = spectral.pack(f.coeffs[None])
        else:
            assert noise_scale == np.sqrt(spectral.packed_norm_sq(noise))[0]
            want, _ = _advance_one(G, seen[step - 1], noise, system,
                                   np.sqrt(spectral.packed_norm_sq(noise)))
        assert np.array_equal(c, want)
        seen[step] = c.copy()

    run = integrator.march(p, BASIS, [f], 9, [4], 300, keep)
    assert run.energy_sq.shape == (301, 1)
    for n in range(301):
        assert np.array_equal(run.energy_sq[n], spectral.packed_norm_sq(seen[n]))


# -- trajectories ----------------------------------------------------------------

def test_zero_steps_returns_projected_initial():
    p = SchemeParams(1.0, 0.01, 16)
    want = spectral.embed_coeffs(make_grid(20), G, random_field(make_grid(20), seed=6).coeffs)
    _, states = _path(SpectralField(G, want), 0, p, BASIS, 1, [0])
    assert states.shape[0] == 1
    assert np.array_equal(states[0, 0], want)


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
    run, states = record(run_scheme, G, f.coeffs, 30, p, None, None)
    want = f.l2_norm() ** 2 / (1.0 + p.nu * p.delta) ** (2 * np.arange(31))
    assert np.allclose(run.energy_sq[:, 0], want, rtol=1e-9, atol=1e-12)
    h1_sq = spectral.sobolev_norm_sq(G, states[:, 0], 1.0)
    assert np.allclose(h1_sq, want, rtol=1e-9, atol=1e-12)


def test_replay_bit_identical():
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=10)
    (t1, states1), (t2, states2) = (_path(f, 40, p, BASIS, 123, [5]) for _ in range(2))
    assert np.array_equal(states1, states2)
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

        run, states = _path(f, 30, p, BASIS, 5, ids, stride=7, observer=record_h1)
        steps = np.arange(0, 31, 7)
        assert np.array_equal(run.energy_sq[steps], spectral.norm_l2_sq(states))
        for i, n in enumerate(steps):
            assert np.array_equal(h1_sq[n], spectral.sobolev_norm_sq(G, states[i], 1.0))
        last = spectral.norm_l2_sq(states[-1, -1].copy())
        assert last == run.energy_sq[steps[-1], -1]


def test_march_stacks_starts_over_one_tape():
    # k = 2 starts on another grid: start j is embedded and repeated for the M
    # members, and row j M + i reads tape id i, exactly as a hand-built run_scheme
    p = SchemeParams(1.0, 0.02, 16)
    fine = make_grid(20)
    starts = [random_field(fine, seed=21), random_field(G, seed=22)]
    ids = np.array([6, 1, 4])
    got, got_states = record(integrator.march, p, BASIS, starts, 8, ids, 300, stride=3)
    c0 = np.concatenate([np.broadcast_to(spectral.embed_coeffs(s.grid, G, s.coeffs),
                                         (ids.size, G.n_half)) for s in starts])
    tape = batch_increments(8, ids, BASIS.d, p.delta)
    want, want_states = record(run_scheme, G, c0, 300, p, BASIS,
                               lambda n0, n1: np.concatenate([tape(n0, n1)] * 2, axis=1),
                               stride=3)
    assert got_states.shape == (101, 2 * ids.size, G.n_half)
    assert np.array_equal(got_states, want_states)
    for name in ("energy_sq", "iterations"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_every_view_of_a_march_sees_its_start_once_and_first():
    # run_scheme's observer, march's, a ladder's reducer and a coupled run's
    # observer each see step 0 exactly once, before any other step, on the
    # packed start rows bit for bit, with no noise where the view has some
    p = SchemeParams(1.0, 0.02, 16)
    q = SchemeParams(1.0, 0.04, 8)
    starts = [random_field(make_grid(20), seed=29), random_field(G, seed=30)]
    ids = np.arange(3)
    seen = {}

    def keep(name):
        seen[name] = []
        return lambda step, c, *rest: seen[name].append((step, c.copy(), rest))

    def packed_rows(grid, fields):
        return spectral.pack(integrator.start_rows(grid, fields, ids.size))

    rows = packed_rows(G, starts)
    tape = batch_increments(8, ids, BASIS.d, p.delta)
    run_scheme(G, integrator.start_rows(G, starts, ids.size), 6, p, BASIS,
               lambda n0, n1: np.concatenate([tape(n0, n1)] * 2, axis=1),
               keep("run_scheme"))
    integrator.march(p, BASIS, starts, 8, ids, 6, keep("march"))
    integrator.ladder(p, [q], BASIS, starts, 8, ids, 6, 2, keep("ladder"))
    coupled_ensembles(starts[1], starts, 6, NudgeParams(2, 1.0, p), BASIS, 8, ids,
                      observer=keep("coupled"))
    for name, calls in seen.items():
        record_steps = range(0, 7, 2) if name == "ladder" else range(7)
        assert [step for step, _, _ in calls] == list(record_steps), name
        _, c, rest = calls[0]
        if name == "coupled":
            assert np.array_equal(c, packed_rows(G, starts[1:]))
            assert np.array_equal(rest[0], rows)
        else:
            assert np.array_equal(c, rows)
        if name == "ladder":
            assert np.array_equal(rest[0][0], packed_rows(q.grid(), starts))
        elif name != "coupled":
            assert rest == (None, 0.0)


def _ladder_states(p, rungs, start, seed, ids, n_steps, record=1):
    """{step: [march state, rung states...]} of `integrator.ladder`, complex,
    None for a rung that did not step there."""
    seen = {}

    def keep(step, c, cs):
        seen[step] = [None if x is None else spectral.unpack(x) for x in (c, *cs)]

    integrator.ladder(p, rungs, BASIS, [start], seed, ids, n_steps, record, keep)
    return seen


def test_ladder_stride_one_rung_on_a_coarser_grid_is_a_lone_march():
    # a rung at the march's delta reads the march's noise on its own modes,
    # which is the noise a lone march on its grid forms: states and energies
    # are that march's bit for bit, across the 256-step tape chunk, and a rung
    # on the march's own grid is the march itself
    p = SchemeParams(1.0, 0.01, 16)
    ids = np.array([6, 1, 4])
    start = random_field(G, seed=23)
    rungs = [SchemeParams(1.0, 0.01, shells) for shells in (6, 10, 16)]
    seen = _ladder_states(p, rungs, start, 8, ids, 300)
    for k, q in enumerate(rungs, start=1):
        lone, states = record(integrator.march, q, low_mode_basis(q.grid(), 4, 0.5), [start],
                              8, ids, 300)
        got = np.array([seen[n][k] for n in range(301)])
        assert np.array_equal(got, states)
        assert np.array_equal(spectral.norm_l2_sq(got), lone.energy_sq)


def test_ladder_coarser_delta_on_a_coarser_grid_matches_a_summed_tape():
    # a rung of stride 4 on 8 shells sums the mapped noise of its 4 base steps;
    # a lone march on the tape summed before the map agrees to the solve tolerance
    p = SchemeParams(1.0, 0.005, 16)
    q = SchemeParams(1.0, 0.02, 8)
    ids = np.arange(3)
    start = random_field(G, seed=24)
    seen = _ladder_states(p, [q], start, 8, ids, 400, record=4)
    grid = q.grid()
    basis = low_mode_basis(grid, 4, 0.5)
    lone, states = record(run_scheme, grid, integrator.start_rows(grid, [start], ids.size),
                          100, q, basis, summed_increments(8, ids, 4, basis.d, q.delta))
    got = np.array([seen[4 * n][1] for n in range(101)])
    norms = np.sqrt(lone.energy_sq)
    summed = np.concatenate([np.zeros_like(norms[:1]), np.cumsum(norms[1:], axis=0)])
    diff = spectral.norm_l2(got - states)
    assert np.all(diff <= 2.0 * q.tol * summed) and np.any(diff > 0)


def test_ladder_stacks_starts_over_one_tape(monkeypatch):
    # k = 2 starts on another grid, as in `march`: the march and a rung on a
    # coarser grid each hold start j, embedded and repeated for the M members,
    # in rows j M .. (j + 1) M - 1, and row j M + i reads tape id i, exactly as
    # a hand-built run_scheme on the stacked rows does
    p = SchemeParams(1.0, 0.02, 16)
    q = SchemeParams(1.0, 0.02, 8)
    starts = [random_field(make_grid(20), seed=26), random_field(G, seed=27)]
    ids = np.array([6, 1, 4])
    seen = {}

    def keep(step, c, cs):
        seen[step] = [spectral.unpack(x) for x in (c, *cs)]

    # the march the rungs step in, as `ladder` makes it
    runs, march = [], integrator.march
    monkeypatch.setattr(integrator, "march", lambda *a: runs.append(march(*a)))
    integrator.ladder(p, [q], BASIS, starts, 8, ids, 300, 1, keep)
    monkeypatch.undo()
    (run,) = runs
    for j, r in enumerate((p, q)):
        grid = r.grid()
        basis = low_mode_basis(grid, 4, 0.5)
        tape = batch_increments(8, ids, basis.d, r.delta)
        want, states = record(run_scheme, grid, integrator.start_rows(grid, starts, ids.size),
                              300, r, basis,
                              lambda n0, n1: np.concatenate([tape(n0, n1)] * 2, axis=1))
        assert states.shape == (301, 2 * ids.size, grid.n_half)
        assert np.array_equal(np.array([seen[n][j] for n in range(301)]), states)
        if j == 0:
            for name in ("energy_sq", "iterations"):
                assert np.array_equal(getattr(run, name), getattr(want, name))


@pytest.mark.parametrize("shells, delta", [(20, 0.02), (8, 0.01), (8, 0.03), (8, 0.05)])
def test_ladder_refuses_a_rung_finer_than_the_march(monkeypatch, shells, delta):
    # a rung must sit on the march's grid or a coarser one, at a whole
    # multiple of its delta; the refusal comes before any step
    monkeypatch.setattr(integrator, "_advance_one", None)
    with pytest.raises(StructuralError):
        integrator.ladder(SchemeParams(1.0, 0.02, 16), [SchemeParams(1.0, delta, shells)],
                          BASIS, [random_field(G, seed=25)], 8, [0], 10, 1, lambda *a: None)


def test_ladder_hands_its_reducer_only_current_rungs():
    # rungs of strides 2, 3 and 4 recorded every base step: rung k's entry is
    # None exactly when it did not step there, and otherwise the state a
    # ladder of that rung alone, recorded at its own stride, hands over (the
    # one the lone-march tests above check).  Each call gets a fresh list, so
    # the lists kept here still hold the states of their own step
    p = SchemeParams(1.0, 0.005, 16)
    strides = (2, 3, 4)
    rungs = [SchemeParams(1.0, stride * p.delta, 8) for stride in strides]
    ids = np.arange(3)
    start = random_field(G, seed=28)
    seen = {}

    def keep(step, c, cs):
        seen[step] = cs

    integrator.ladder(p, rungs, BASIS, [start], 8, ids, 24, 1, keep)
    assert sorted(seen) == list(range(25))
    for k, (q, stride) in enumerate(zip(rungs, strides)):
        alone = _ladder_states(p, [q], start, 8, ids, 24, record=stride)
        assert sorted(alone) == list(range(0, 25, stride))
        for step, cs in seen.items():
            if step % stride:
                assert cs[k] is None
            else:
                assert np.array_equal(spectral.unpack(cs[k]), alone[step][1])


@pytest.mark.parametrize("record", [3, 0])
def test_ladder_refuses_a_record_off_its_rungs_steps(monkeypatch, record):
    # rungs of strides 2 and 4 step together every 2 base steps; a record
    # at any other cadence is refused before any step
    monkeypatch.setattr(integrator, "_advance_one", None)
    with pytest.raises(StructuralError):
        integrator.ladder(SchemeParams(1.0, 0.01, 16),
                          [SchemeParams(1.0, 0.02, 8), SchemeParams(1.0, 0.04, 8)],
                          BASIS, [random_field(G, seed=25)], 8, [0], 10, record,
                          lambda *a: None)


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
    tape = batch_increments(5, np.arange(m), basis.d, 0.01)
    dw = tape(0, 300)
    steps = list(integrator.tape_steps(300, basis, tape))
    assert [step for step, _, _ in steps] == list(range(1, 301))
    for step, noise, noise_scale in steps:
        want = dw[step - 1] @ basis.packed
        assert np.array_equal(noise, want)
        want_scale = np.sqrt(spectral.packed_norm_sq(want))
        if m == 1:   # one row's scale comes as a float
            assert type(noise_scale) is float
            want_scale = want_scale[0]
        assert np.array_equal(noise_scale, want_scale)


@pytest.mark.parametrize("block_bytes", [1, 7 * 3 * 2 * G.n_half * 8, None])
def test_observed_path_does_not_depend_on_the_noise_block(monkeypatch, block_bytes):
    # noise blocks of 1 step, of 7 steps (100 = 14 * 7 + 2), and the default:
    # an observer sees the same packed states, and the march records their energies
    p = SchemeParams(1.0, 0.02, 16)
    f = random_field(G, seed=31)
    want, want_states = _path(f, 100, p, BASIS, 9, [0, 1, 2], stride=3)
    if block_bytes is not None:
        monkeypatch.setattr(integrator, "BLOCK_BYTES", block_bytes)
    seen = {}

    def keep(step, c, noise, noise_scale):
        seen[step] = c.copy()

    run, states = _path(f, 100, p, BASIS, 9, [0, 1, 2], stride=3, observer=keep)
    assert states.shape == (34, 3, G.n_half) and states.dtype == np.complex128
    assert np.array_equal(states, want_states)
    for i, n in enumerate(range(0, 101, 3)):
        assert np.array_equal(states[i], spectral.unpack(seen[n]))
    for n in range(101):
        assert np.array_equal(run.energy_sq[n], spectral.packed_norm_sq(seen[n]))
    for name in ("energy_sq", "iterations"):
        assert np.array_equal(getattr(run, name), getattr(want, name))


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
    _, states = _path(f, 25, p, BASIS, 77, [4, 9, 2])
    _, solo = _path(f, 25, p, BASIS, 77, [9])
    scale = np.max(np.abs(solo))
    assert np.max(np.abs(states[:, 1] - solo[:, 0])) <= 1e-11 * scale


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
    _, states = record(run_scheme, G, f.coeffs, 512, p_f, None, None, stride=16)
    final = spectral.norm_l2(states[-1, 0])
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
        _, coarse = record(run_scheme, G, c0, n_steps, SchemeParams(1.0, delta, 16), BASIS,
                           summed_increments(31, ids, 8, BASIS.d, delta))
        _, fine = record(run_scheme, G, c0, 8 * n_steps, SchemeParams(1.0, delta / 8, 16),
                         BASIS, batch_increments(31, ids, BASIS.d, delta / 8), stride=8)
        errs.append(spectral.norm_l2(coarse[-1] - fine[-1]))
    errs = np.array(errs)
    frac = np.mean((errs[1] < errs[0]) & (errs[2] < errs[1]))
    assert frac >= 0.9


# -- exponential moments ------------------------------------------------------------------

def test_lyapunov_bound_on_ensemble():
    # empirical mean of exp(alpha |xi^n|^2) under the discrete envelope
    p = SchemeParams(1.0, 0.05, 16)
    f = random_field(G, seed=2, rms=1.0)
    ids = np.arange(128)
    run = run_scheme(G, np.broadcast_to(f.coeffs, (ids.size, G.n_half)), 128, p, BASIS,
                     batch_increments(5, ids, BASIS.d, p.delta))
    alpha = 1.0 / (8 * BASIS.variance)
    means = np.mean(np.exp(alpha * run.energy_sq), axis=1)
    e0 = f.l2_norm() ** 2
    n = np.arange(129)
    c_const = (1.0 + p.nu * p.delta) * BASIS.variance / p.nu
    envelope = np.exp(alpha * (2 * e0 / (1 + p.nu * p.delta) ** n + c_const)) * 3
    assert np.all(means <= envelope)
