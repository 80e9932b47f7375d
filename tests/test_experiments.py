import numpy as np
import pytest

from snselab.errors import ConfigError, FitError
from snselab.experiments import (ContractionConfig, HolderConfig,
                                 InitialCondition, ObservableSpec,
                                 SpatialOrderConfig, StationaryBiasConfig,
                                 TemporalOrderConfig, WeakErrorConfig,
                                 clipped_energy, fit_rate, holder_study,
                                 low_mode_re, smoothed_energy,
                                 spatial_order_study, temporal_order_study,
                                 weak_error_study)
from snselab.measures import DistanceParams
from snselab.spectral import harmonic_field, make_grid, random_field


# -- rate fitting ----------------------------------------------------------------

def test_fit_exact_identity():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    fit = fit_rate(xs, xs)
    assert fit.slope == pytest.approx(1.0, abs=1e-13)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_exact_power_law():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_rate(xs, 3.0 * xs ** 0.5)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)


def test_fit_degenerate_xs_refused():
    with pytest.raises(FitError):
        fit_rate([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(FitError):
        fit_rate([1.0, 2.0], [1.0, 2.0])


def test_fit_nonpositive_refused():
    with pytest.raises(FitError):
        fit_rate([1.0, 2.0, 4.0], [1.0, -2.0, 3.0])


def test_fit_noisy_calibration():
    # known generator slope 0.5 with 5% multiplicative noise: the fitted
    # slope lands in [0.45, 0.55] for >= 95% of seeds
    xs = np.geomspace(1.0, 100.0, 8)
    hits = 0
    n_seeds = 60
    for seed in range(n_seeds):
        g = np.random.default_rng(seed)
        ys = 2.0 * xs ** 0.5 * (1.0 + 0.05 * g.standard_normal(xs.size))
        fit = fit_rate(xs, ys, seed=seed)
        hits += 0.45 <= fit.slope <= 0.55
    assert hits >= 0.95 * n_seeds


def test_fit_bootstrap_deterministic():
    xs = np.geomspace(1, 10, 6)
    g = np.random.default_rng(0)
    ys = xs ** 0.8 * np.exp(0.1 * g.standard_normal(6))
    a = fit_rate(xs, ys, seed=5)
    b = fit_rate(xs, ys, seed=5)
    assert a.ci_halfwidth == b.ci_halfwidth
    assert np.isfinite(a.ci_halfwidth)


# -- observables --------------------------------------------------------------------

G = make_grid(8)


def test_clipped_energy_values():
    obs = clipped_energy(radius=1.0)
    big = random_field(G, seed=1, rms=3.0)
    small = random_field(G, seed=2, rms=0.5)
    assert obs.evaluate(G, big.coeffs[None, :])[0] == pytest.approx(1.0)
    assert obs.evaluate(G, small.coeffs[None, :])[0] == pytest.approx(0.25, rel=1e-12)


def test_smoothed_energy_bounded():
    obs = smoothed_energy(radius=2.0)
    f = random_field(G, seed=3, rms=1.0)
    val = obs.evaluate(G, f.coeffs)
    assert 0.0 < val < 1.0
    assert val == pytest.approx(np.exp(-1.0 / 4.0), rel=1e-12)


def test_low_mode_coefficient_reads_projection():
    obs = low_mode_re(1, 0)
    f = harmonic_field(G, 1, 0, "cos", amplitude=1.0, normalized=True)
    assert obs.evaluate(G, f.coeffs) == pytest.approx(1.0, rel=1e-12)
    g = harmonic_field(G, 1, 0, "sin", amplitude=1.0, normalized=True)
    assert obs.evaluate(G, g.coeffs) == pytest.approx(0.0, abs=1e-14)


def test_lipschitz_declarations():
    dp = DistanceParams(0.1, 0.5, 0.25)
    assert clipped_energy(3.0).lipschitz_constant(dp) == pytest.approx(9.0)
    assert smoothed_energy(3.0).lipschitz_constant(dp) >= 1.0
    assert low_mode_re().lipschitz_constant(dp) is not None
    assert low_mode_re().lipschitz_constant(DistanceParams(0.1, 0.5, 0.0)) is None


def test_unknown_observable_kind():
    with pytest.raises(ConfigError):
        ObservableSpec("energy-flux")


# -- study validation contracts ----------------------------------------------------------

def test_temporal_requires_enough_rungs():
    cfg = TemporalOrderConfig(deltas=(0.1, 0.05, 0.025))
    with pytest.raises(ConfigError):
        temporal_order_study(cfg, seed=0)


def test_temporal_rejects_repeated_rungs():
    cfg = TemporalOrderConfig(deltas=(0.1, 0.1, 0.1, 0.1, 0.1))
    with pytest.raises(ConfigError):
        temporal_order_study(cfg, seed=0)


def test_spatial_requires_strictly_larger_reference():
    cfg = SpatialOrderConfig(shell_ladder=(4, 6, 8), reference_shells=8)
    with pytest.raises(ConfigError):
        spatial_order_study(cfg, seed=0)


def test_spatial_two_rungs_emits_raw_table_without_fit():
    cfg = SpatialOrderConfig(shell_ladder=(4, 6), reference_shells=10,
                             delta=0.01, horizon=0.05, ensemble=2)
    report = spatial_order_study(cfg, seed=0)
    assert len(report.tables["rungs"]) == 2
    assert not report.fits
    assert any("fit refused" in n for n in report.notes)


def test_holder_rejects_sub_step_lags():
    cfg = HolderConfig(lag_min_steps=0)
    with pytest.raises(ConfigError):
        holder_study(cfg, seed=0)


def test_holder_requires_decade_span():
    cfg = HolderConfig(lag_min_steps=2, lag_max_steps=20)
    with pytest.raises(ConfigError):
        holder_study(cfg, seed=0)


def test_bias_requires_short_burn():
    cfg = StationaryBiasConfig(n_ladder=(10, 20, 40), mse_burn_steps=100)
    with pytest.raises(ConfigError):
        import snselab.experiments as exp
        exp.stationary_bias_study(cfg, seed=0)


def test_weak_rejects_undeclared_lipschitz():
    cfg = WeakErrorConfig(observables=(low_mode_re(),), report_lipschitz=True,
                          alpha=0.0)
    with pytest.raises(ConfigError):
        weak_error_study(cfg, seed=0)


# -- cheap end-to-end studies ---------------------------------------------------------------

def test_temporal_noise_off_recovers_deterministic_order_one():
    cfg = TemporalOrderConfig(
        deltas=(1 / 20, 1 / 40, 1 / 80, 1 / 160),
        shells=6, horizon=0.5, ensemble=1, refine=8, noise_on=False,
        ic=InitialCondition(kind="random", amplitude=1.5, spectral_slope=-2.0))
    report = temporal_order_study(cfg, seed=3)
    fit = report.fits["order_p"]
    assert 0.95 <= fit.slope <= 1.05
    assert fit.r_squared >= 0.999


def _per_rung_errors(cfg, seed, delta):
    """Reference implementation: one rung against its own reference at
    delta/refine, both reading the base tape at min(deltas)/refine."""
    from snselab import integrator as integ
    from snselab import spectral
    from snselab.forcing import gaussian_cells, low_mode_basis, sum_fine
    from snselab.integrator import SchemeParams

    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    xi0 = cfg.ic.build(grid, seed)
    delta_base = min(cfg.deltas) / cfg.refine
    p_c = SchemeParams(cfg.nu, delta, cfg.shells, delta0=max(cfg.deltas))
    p_f = SchemeParams(cfg.nu, delta / cfg.refine, cfg.shells, delta0=max(cfg.deltas))
    n_coarse = round(cfg.horizon / delta)
    r_f = round(delta / cfg.refine / delta_base)
    sys_c, sys_f = integ.step_system(grid, p_c), integ.step_system(grid, p_f)
    m = cfg.ensemble
    c = np.broadcast_to(spectral.pack(xi0.coeffs), (m, 2 * grid.n_half)).copy()
    cf = c.copy()
    sup = np.zeros(m)
    g = gaussian_cells(seed, np.arange(m), np.arange(n_coarse * cfg.refine * r_f), basis.d)
    fine = sum_fine((np.sqrt(delta_base) * g).reshape(m, n_coarse, cfg.refine, r_f,
                                                      basis.d), axis=3)
    coarse = sum_fine(fine, axis=2)
    for j in range(n_coarse):
        for jf in range(cfg.refine):
            noise_f = fine[:, j, jf] @ basis.packed
            cf, _ = integ._advance_one(grid, cf, noise_f, sys_f,
                                       np.sqrt(spectral.packed_norm_sq(noise_f)))
        noise_c = coarse[:, j] @ basis.packed
        c, _ = integ._advance_one(grid, c, noise_c, sys_c,
                                  np.sqrt(spectral.packed_norm_sq(noise_c)))
        np.maximum(sup, np.sqrt(spectral.packed_norm_sq(c - cf)), out=sup)
    return float(np.mean(sup ** cfg.p_moment)), float(np.mean(sup ** 2))


def test_temporal_shared_reference_keeps_finest_rung_exact():
    # the finest rung's own reference is the shared one, so its errors match
    # the per-rung reference implementation bit for bit
    cfg = TemporalOrderConfig(deltas=(1 / 10, 1 / 20, 1 / 40, 1 / 80), shells=6,
                              horizon=0.2, ensemble=4, refine=4)
    report = temporal_order_study(cfg, seed=7)
    finest = report.tables["rungs"][-1]
    assert finest["delta"] == 1 / 80
    err_p, err_sq = _per_rung_errors(cfg, 7, 1 / 80)
    assert finest["err_p_moment"] == err_p
    assert finest["err_mean_square"] == err_sq
    again = temporal_order_study(cfg, seed=7)
    assert again.tables == report.tables
    assert again.fits == report.fits


def test_spatial_resolved_regime_flagged():
    # dynamics fully resolved on the smallest rung (single low mode, no noise):
    # errors at rounding level, fit refused with a note
    cfg = SpatialOrderConfig(
        shell_ladder=(4, 6, 8), reference_shells=10, delta=0.01, horizon=0.05,
        ensemble=1, noise_on=False,
        ic=InitialCondition(kind="harmonic", amplitude=1.0, mode=(1, 0)))
    report = spatial_order_study(cfg, seed=0)
    assert report.scalars["resolved_regime"] is True
    assert "order" not in report.scalars


def test_holder_noise_off_single_mode_smooth():
    # smooth decay: increments scale like the lag itself, exponent ~ m
    cfg = HolderConfig(shells=6, delta=1 / 128, burn_steps=0, window_steps=256,
                       lag_min_steps=2, lag_max_steps=128, n_lags=8, moment=2,
                       ensemble=1, noise_on=False,
                       ic=InitialCondition(kind="harmonic", mode=(1, 0)))
    report = holder_study(cfg, seed=0)
    assert report.scalars["exponent"] == pytest.approx(2.0, abs=0.1)


def test_weak_error_constant_observable_is_zero():
    grid = make_grid(6)
    cfg = WeakErrorConfig(
        shells_list=(4, 6), deltas=(0.04, 0.02), reference_shells=6,
        reference_delta=0.01, horizon=0.4, record_time=0.2, ensemble=4,
        observables=(clipped_energy(radius=1e-6),))  # clip makes it constant
    report = weak_error_study(cfg, seed=1)
    errs = [row["weak_error"] for row in report.tables["grid"]]
    assert max(errs) <= 1e-12


def test_weak_error_self_comparison_zero():
    cfg = WeakErrorConfig(shells_list=(6,), deltas=(0.01,), reference_shells=6,
                          reference_delta=0.01, horizon=0.2, record_time=0.1,
                          ensemble=4)
    report = weak_error_study(cfg, seed=2)
    assert max(r["weak_error"] for r in report.tables["grid"]) <= 1e-12


def test_contraction_identical_initial_data_zero_series():
    cfg = ContractionConfig(shells_list=(3,), deltas=(0.02,), horizon=2.0,
                            record_time=0.5, ensemble=4, gap_amplitude=0.0,
                            forcing_shells=2)
    with pytest.raises(FitError):
        # zero gap leaves nothing to fit: every coupled bound is zero
        import snselab.experiments as exp
        exp.contraction_study(cfg, seed=0)


def test_weak_error_bounded_by_strong_component():
    # the low-mode coefficient observable is 1-Lipschitz in the state, so its
    # weak error can never exceed the strong error on the shared tapes
    import snselab.experiments as exp
    from snselab.forcing import low_mode_basis
    from snselab.integrator import SchemeParams, batch_increments, run_scheme
    from snselab.spectral import embed_coeffs, norm_l2

    seed = 11
    grid_c, grid_r = make_grid(6), make_grid(8)
    cfg = WeakErrorConfig(shells_list=(6,), deltas=(0.02,), reference_shells=8,
                          reference_delta=0.01, horizon=0.5, record_time=0.1,
                          ensemble=32, observables=(low_mode_re(1, 0),),
                          forcing_shells=4)
    report = weak_error_study(cfg, seed)
    weak = max(r["weak_error"] for r in report.tables["grid"])

    ic = cfg.ic.build(grid_r, seed)
    basis_c = low_mode_basis(grid_c, 4, 0.5)
    basis_r = low_mode_basis(grid_r, 4, 0.5)
    ids = np.arange(cfg.ensemble)
    run_c = run_scheme(grid_c, np.broadcast_to(embed_coeffs(grid_r, grid_c, ic.coeffs),
                                               (32, grid_c.n_half)),
                       25, SchemeParams(1.0, 0.02, 6), basis_c,
                       batch_increments(seed, ids, 2, basis_c.d, 0.02),
                       record_stride=5)
    run_r = run_scheme(grid_r, np.broadcast_to(ic.coeffs, (32, grid_r.n_half)),
                       50, SchemeParams(1.0, 0.01, 8), basis_r,
                       batch_increments(seed, ids, 1, basis_r.d, 0.01),
                       record_stride=10)
    diff = embed_coeffs(grid_c, grid_r, run_c.states) - run_r.states
    strong = float(np.max(np.mean(norm_l2(diff), axis=1)))
    assert weak <= strong + 1e-12


def test_bias_monotone_within_mc_halfwidth():
    import snselab.experiments as exp
    cfg = StationaryBiasConfig(shells=8, delta=0.05,
                               n_ladder=(20, 40, 80, 160), replicas=24,
                               reference_steps=8000, mse_burn_steps=40)
    report = exp.stationary_bias_study(cfg, seed=4)
    rows = report.tables["bias"]
    by_n = {r["n"]: r for r in rows}
    for n in (20, 40, 80):
        assert by_n[2 * n]["bias"] <= by_n[n]["bias"] + 2 * by_n[n]["mc_halfwidth"]


def test_h1_moment_stable_under_refinement():
    # sup_n of the ensemble-mean enstrophy barely moves when the cutoff grows:
    # one smooth datum on the finest grid, restricted per rung
    from snselab.integrator import SchemeParams, simulate_ensemble
    from snselab.forcing import low_mode_basis
    from snselab.spectral import SpectralField, embed_coeffs
    fine = make_grid(20)
    ic = InitialCondition(kind="random", amplitude=1.0).build(fine, 5)
    sups = []
    for shells in (12, 16):
        grid = make_grid(shells)
        basis = low_mode_basis(grid, 4, 0.5)
        xi0 = SpectralField(grid, embed_coeffs(fine, grid, ic.coeffs))
        run = simulate_ensemble(xi0, 100, SchemeParams(1.0, 0.02, shells), basis,
                                5, np.arange(32), keep_states=False)
        sups.append(float(np.max(np.mean(run.h1_sq, axis=1))))
    assert np.all(np.isfinite(sups))
    assert abs(sups[1] - sups[0]) <= 0.2 * sups[0]
