from dataclasses import replace

import numpy as np
import pytest

from snselab import integrator, measures, spectral
from snselab.errors import ConfigError, FitError
from snselab.experiments import (ContractionConfig, CouplingStudyConfig,
                                 HolderConfig, InitialCondition, LyapunovConfig,
                                 ObservableSpec, SpatialOrderConfig, StationaryBiasConfig,
                                 StudyReport, TemporalOrderConfig, WeakErrorConfig,
                                 contraction_study, coupling_study, fit_rate,
                                 holder_study, lyapunov_study, spatial_order_study,
                                 temporal_order_study, weak_error_study)
from snselab.forcing import low_mode_basis
from snselab.measures import DistanceParams
from snselab.spectral import harmonic_field, make_grid, random_field

from helpers import clipped_energy, low_mode_re, record, smoothed_energy, summed_increments


# -- ledgers -----------------------------------------------------------------------

def test_report_passes_only_on_a_ledger_of_holding_checks():
    report = StudyReport("study", {}, 0)
    assert not report.passed()
    report.checks["a"] = True
    assert report.passed()
    report.checks["b"] = False
    assert not report.passed()


@pytest.mark.parametrize("kl", [np.nan, np.inf])
def test_coupling_ledger_fails_on_a_nan_or_infinite_kl(monkeypatch, kl):
    # gate 8 passes on this ledger: a NaN or infinite mean KL cost fails it
    import snselab.experiments as exp
    plain = exp.coupling_mod.coupled_ensembles

    def coupled(*args, **kwargs):
        pairs = plain(*args, **kwargs)
        pairs[1].kl_bound[:] = kl
        return pairs

    monkeypatch.setattr(exp.coupling_mod, "coupled_ensembles", coupled)
    cfg = CouplingStudyConfig(shells=8, delta=0.02, horizon=1.0, ensemble=8,
                              shells_controlled=4, forcing_shells=4,
                              perturbations=(1e-2, 1e-1, 1.0))
    with np.errstate(invalid="ignore"):   # an infinite cost's fit residual is NaN
        checks = exp.coupling_study(cfg, 1).checks
    assert not checks["kl-linearity-band"] and not checks["kl-majorant-spread"]


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


@pytest.mark.parametrize("xs", [[1.0, 2.0, 4.0], [0.04, 0.02, 0.01, 0.005],
                                [1.0, 1.0, 3.0, 9.0, 27.0]])
def test_fit_bootstrap_matches_polyfit_loop(xs):
    # the one-array slopes against np.polyfit per resample; at 3 and 4 points
    # some resamples draw one abscissa only and are skipped by both
    from snselab import rng

    xs = np.array(xs)
    ys = xs ** 0.7 * np.exp(0.2 * np.random.default_rng(len(xs)).standard_normal(xs.size))
    fit = fit_rate(xs, ys, seed=3, boot_stream=2)
    u = rng.uniforms(3, [2], np.arange(200), xs.size, tag=rng.Tag.BOOTSTRAP)[0]
    idx = np.minimum((u * xs.size).astype(np.intp), xs.size - 1)
    logx, logy = np.log(xs), np.log(ys)
    slopes = [np.polyfit(logx[row], logy[row], 1)[0] for row in idx
              if np.unique(logx[row]).size >= 2]
    assert len(slopes) < 200
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    assert fit.ci_halfwidth == pytest.approx(0.5 * (hi - lo), rel=1e-12)


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
    assert obs.evaluate(G, spectral.pack(big.coeffs[None, :]))[0] == pytest.approx(1.0)
    assert obs.evaluate(G, spectral.pack(small.coeffs[None, :]))[0] == pytest.approx(
        0.25, rel=1e-12)


def test_smoothed_energy_bounded():
    obs = smoothed_energy(radius=2.0)
    f = random_field(G, seed=3, rms=1.0)
    val = obs.evaluate(G, spectral.pack(f.coeffs))
    assert 0.0 < val < 1.0
    assert val == pytest.approx(np.exp(-1.0 / 4.0), rel=1e-12)


def test_low_mode_coefficient_reads_projection():
    obs = low_mode_re(1, 0)
    f = harmonic_field(G, 1, 0, "cos", amplitude=1.0, normalized=True)
    assert obs.evaluate(G, spectral.pack(f.coeffs)) == pytest.approx(1.0, rel=1e-12)
    g = harmonic_field(G, 1, 0, "sin", amplitude=1.0, normalized=True)
    assert obs.evaluate(G, spectral.pack(g.coeffs)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("obs", [
    clipped_energy(radius=1.0), smoothed_energy(radius=2.0), low_mode_re(1, 0),
    ObservableSpec("low-mode-coefficient", mode=(2, 1), mode_kind="sin"),
    # (1, -1) is stored through its conjugate (-1, 1)
    ObservableSpec("low-mode-coefficient", mode=(1, -1)),
    ObservableSpec("low-mode-coefficient", mode=(1, -1), mode_kind="sin")])
def test_packed_observable_is_complex_definition(obs):
    # on packed rows each kind reads what it reads on the complex coefficients
    coeffs = np.array([random_field(G, seed=k, rms=0.5 * k).coeffs for k in range(1, 6)])
    if obs.kind == "low-mode-coefficient":
        e = harmonic_field(G, *obs.mode, kind=obs.mode_kind, amplitude=1.0, normalized=True)
        want = spectral.TWO_PI_SQ * 2.0 * (coeffs @ np.conj(e.coeffs)).real
    else:
        want = (np.minimum(spectral.norm_l2_sq(coeffs), obs.radius ** 2)
                if obs.kind == "clipped-norm"
                else np.exp(-spectral.norm_l2_sq(coeffs) / obs.radius ** 2))
    got = obs.evaluate(G, spectral.pack(coeffs))
    assert np.array_equal(got, want)
    assert np.array_equal(obs.evaluate(G, spectral.pack(coeffs[2])), want[2])


@pytest.mark.parametrize("obs", [clipped_energy(radius=1.0), smoothed_energy(radius=2.0)])
def test_energy_observable_reads_the_recorded_energy(obs):
    # the stationary-bias study reads an energy kind off a march's energy_sq:
    # bit for bit what it evaluates on the states an observer sees
    seen = []
    run = integrator.march(integrator.SchemeParams(1.0, 0.05, 8), low_mode_basis(G, 2, 0.5),
                           [random_field(G, seed=4, rms=2.0)], 7, np.arange(3), 20,
                           lambda step, c, noise, scale: seen.append(obs.evaluate(G, c)))
    assert np.array_equal(obs.of_energy(run.energy_sq), np.array(seen))


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
# a config checks its own fields when it is built, whoever builds it

@pytest.mark.parametrize("make, field", [
    (lambda: InitialCondition(amplitude=-2.0), "amplitude"),
    (lambda: InitialCondition(cell=-1), "cell"),
    (lambda: HolderConfig(n_boot=0), "n_boot")])
def test_config_checks_its_own_fields_when_built(make, field):
    # a negative amplitude built a zero field, a negative cell overflowed
    # the tape's cipher, and a bootstrap of no resample gave a NaN half-width
    with pytest.raises(ConfigError) as err:
        make()
    assert err.value.field == field


def test_temporal_requires_enough_rungs():
    with pytest.raises(ConfigError):
        TemporalOrderConfig(deltas=(0.1, 0.05, 0.025))


def test_temporal_rejects_repeated_rungs():
    with pytest.raises(ConfigError):
        TemporalOrderConfig(deltas=(0.1, 0.1, 0.1, 0.1, 0.1))


def test_spatial_requires_strictly_larger_reference():
    with pytest.raises(ConfigError):
        SpatialOrderConfig(shell_ladder=(4, 6, 8), reference_shells=8)


def test_spatial_two_rungs_emits_raw_table_without_fit():
    cfg = SpatialOrderConfig(shell_ladder=(4, 6), reference_shells=10,
                             delta=0.01, horizon=0.05, ensemble=2)
    report = spatial_order_study(cfg, seed=0)
    assert len(report.tables["rungs"]) == 2
    assert not report.fits
    assert any("fit refused" in n for n in report.notes)


def test_holder_rejects_sub_step_lags():
    with pytest.raises(ConfigError):
        HolderConfig(lag_min_steps=0)


def test_holder_requires_two_lags():
    for n_lags in (0, 1):
        with pytest.raises(ConfigError) as err:
            HolderConfig(n_lags=n_lags)
        assert err.value.field == "n_lags"


def test_holder_requires_decade_span():
    with pytest.raises(ConfigError):
        HolderConfig(lag_min_steps=2, lag_max_steps=20)


def test_bias_requires_short_burn():
    with pytest.raises(ConfigError):
        StationaryBiasConfig(n_ladder=(10, 20, 40), mse_burn_steps=100)


def test_study_rejects_negative_forcing_variance():
    # the config refuses it when it is built, so a study called from
    # Python stops before an SVD of a non-finite forcing
    with pytest.raises(ConfigError) as err:
        coupling_study(CouplingStudyConfig(forcing_variance=-1.0, horizon=0.05,
                                           ensemble=2), 1)
    assert err.value.field == "forcing_variance"


def test_lyapunov_alpha_admissibility_guard():
    # alpha above nu / (4 |sigma|^2) leaves the range of the moment bound
    import snselab.experiments as exp
    with pytest.raises(ConfigError) as err:
        exp.lyapunov_study(exp.LyapunovConfig(alpha=10.0), seed=0)
    assert err.value.field == "alpha"


def test_weak_deltas_need_only_be_multiples_of_the_reference_delta():
    # every cell steps on the reference march, so 0.03 need not be a multiple
    # of 0.04; a delta that is no multiple of reference_delta is refused
    cfg = WeakErrorConfig(shells_list=(3, 4), deltas=(0.04, 0.03), reference_shells=6,
                          reference_delta=0.01, horizon=0.24, record_time=0.12,
                          ensemble=4, forcing_shells=2)
    report = weak_error_study(cfg, seed=0)
    assert [(row["shells"], row["delta"]) for row in report.tables["grid"]] == [
        (3, 0.04), (3, 0.03), (4, 0.04), (4, 0.03)]
    assert all(np.isfinite(row["weak_error"]) for row in report.tables["grid"])
    with pytest.raises(ConfigError) as err:
        weak_error_study(replace(cfg, deltas=(0.04, 0.025)), seed=0)
    assert err.value.field == "deltas"


# -- cheap end-to-end studies ---------------------------------------------------------------

def test_temporal_noise_off_recovers_deterministic_order_one():
    cfg = TemporalOrderConfig(
        deltas=(1 / 20, 1 / 40, 1 / 80, 1 / 160),
        shells=6, horizon=0.5, ensemble=1, refine=8, forcing_variance=0.0,
        ic=InitialCondition(kind="random", amplitude=1.5, spectral_slope=-2.0))
    report = temporal_order_study(cfg, seed=3)
    fit = report.fits["order_p"]
    assert 0.95 <= fit.slope <= 1.05
    assert fit.r_squared >= 0.999


def _per_rung_errors(cfg, seed, delta):
    """Reference implementation: one rung against its own reference at
    delta/refine, both reading the base tape at min(deltas)/refine.  A fine
    step's noise is the sum of its cells' noise, and the rung's the running
    sum of its fine steps'."""
    from snselab import integrator as integ
    from snselab.forcing import gaussian_cells, low_mode_basis
    from snselab.integrator import SchemeParams

    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    xi0 = cfg.ic.build(grid, seed)
    delta_base = min(cfg.deltas) / cfg.refine
    p_c = SchemeParams(cfg.nu, delta, cfg.shells)
    p_f = SchemeParams(cfg.nu, delta / cfg.refine, cfg.shells)
    n_coarse = round(cfg.horizon / delta)
    r_f = round(delta / cfg.refine / delta_base)
    sys_c, sys_f = integ.step_system(grid, p_c), integ.step_system(grid, p_f)
    m = cfg.ensemble
    c = np.broadcast_to(spectral.pack(xi0.coeffs), (m, 2 * grid.n_half)).copy()
    cf = c.copy()
    sup = np.zeros(m)
    g = np.sqrt(delta_base) * gaussian_cells(seed, np.arange(m),
                                             np.arange(n_coarse * cfg.refine * r_f), basis.d)
    cell = 0
    for j in range(n_coarse):
        noise_c = np.zeros_like(c)
        for jf in range(cfg.refine):
            noise_f = sum(g[:, i] @ basis.packed for i in range(cell, cell + r_f))
            cell += r_f
            cf, _ = integ._advance_one(grid, cf, noise_f, sys_f,
                                       np.sqrt(spectral.packed_norm_sq(noise_f)))
            noise_c += noise_f
        c, _ = integ._advance_one(grid, c, noise_c, sys_c,
                                  np.sqrt(spectral.packed_norm_sq(noise_c)))
        np.maximum(sup, np.sqrt(spectral.packed_norm_sq(c - cf)), out=sup)
    return float(np.mean(sup ** cfg.p_moment)), float(np.mean(sup ** 2))


def test_temporal_shared_reference_keeps_finest_rung_exact():
    # the finest rung's own reference is the shared one, so its errors match
    # the per-rung reference implementation bit for bit.  The second ladder
    # marches 600 base steps, so its 5-cell finest rung straddles both
    # boundaries of the reference's 256-step tape chunks
    for cfg in (TemporalOrderConfig(deltas=(1 / 10, 1 / 20, 1 / 40, 1 / 80), shells=6,
                                    horizon=0.2, ensemble=4, refine=4),
                TemporalOrderConfig(deltas=(3 / 100, 2 / 100, 1 / 100, 1 / 200),
                                    shells=6, horizon=0.6, ensemble=4, refine=5)):
        report = temporal_order_study(cfg, seed=7)
        finest = report.tables["rungs"][-1]
        assert finest["delta"] == min(cfg.deltas)
        err_p, err_sq = _per_rung_errors(cfg, 7, min(cfg.deltas))
        assert finest["err_p_moment"] == err_p
        assert finest["err_mean_square"] == err_sq
        again = temporal_order_study(cfg, seed=7)
        assert again.tables == report.tables
        assert again.fits == report.fits


def test_temporal_every_rung_steps_on_its_cells_summed_noise():
    # the rungs of 30, 20, 10 and 5 base cells do not nest (20 does not
    # divide 30); each rung, hand-stepped on the summed noise of its cells
    # against a hand-marched reference on the same tape, gives the study's
    # errors up to the order in which the noise is summed
    from snselab import integrator as integ
    from snselab.forcing import gaussian_cells, low_mode_basis
    from snselab.integrator import SchemeParams

    cfg = TemporalOrderConfig(deltas=(3 / 100, 2 / 100, 1 / 100, 1 / 200), shells=6,
                              horizon=0.6, ensemble=4, refine=5)
    seed, m = 7, cfg.ensemble
    grid = make_grid(cfg.shells)
    basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
    delta_base = min(cfg.deltas) / cfg.refine
    n_base = round(cfg.horizon / delta_base)
    g = np.sqrt(delta_base) * gaussian_cells(seed, np.arange(m), np.arange(n_base), basis.d)
    noise = [g[:, i] @ basis.packed for i in range(n_base)]

    def step(c, delta, noise_k):
        system = integ.step_system(grid, SchemeParams(cfg.nu, delta, cfg.shells))
        return integ._advance_one(grid, c, noise_k, system,
                                  np.sqrt(spectral.packed_norm_sq(noise_k)))[0]

    c0 = np.broadcast_to(spectral.pack(cfg.ic.build(grid, seed).coeffs), (m, 2 * grid.n_half))
    refs = [c0]
    for i in range(n_base):
        refs.append(step(refs[-1], delta_base, noise[i]))
    report = temporal_order_study(cfg, seed)
    assert [row["delta"] for row in report.tables["rungs"]] == list(cfg.deltas)
    for row in report.tables["rungs"]:
        r = round(row["delta"] / delta_base)
        c, sup = c0, np.zeros(m)
        for n in range(r, n_base + 1, r):
            c = step(c, row["delta"], sum(noise[n - r:n]))
            np.maximum(sup, np.sqrt(spectral.packed_norm_sq(c - refs[n])), out=sup)
        want_p, want_sq = np.mean(sup ** cfg.p_moment), np.mean(sup ** 2)
        assert row["err_p_moment"] == pytest.approx(want_p, rel=1e-12, abs=0)
        assert row["err_mean_square"] == pytest.approx(want_sq, rel=1e-12, abs=0)


def test_spatial_resolved_regime_flagged():
    # dynamics fully resolved on the smallest rung (single low mode, no noise):
    # errors at rounding level, fit refused with a note
    cfg = SpatialOrderConfig(
        shell_ladder=(4, 6, 8), reference_shells=10, delta=0.01, horizon=0.05,
        ensemble=1, forcing_variance=0.0,
        ic=InitialCondition(kind="harmonic", amplitude=1.0, mode=(1, 0)))
    report = spatial_order_study(cfg, seed=0)
    assert report.scalars["resolved_regime"] is True
    assert "order" not in report.scalars


def test_holder_noise_off_single_mode_smooth():
    # smooth decay: increments scale like the lag itself, exponent ~ m
    cfg = HolderConfig(shells=6, delta=1 / 128, burn_steps=0, window_steps=256,
                       lag_min_steps=2, lag_max_steps=128, n_lags=8, moment=2,
                       ensemble=1, forcing_variance=0.0,
                       ic=InitialCondition(kind="harmonic", mode=(1, 0)))
    report = holder_study(cfg, seed=0)
    assert report.scalars["exponent"] == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("burn_steps", [0, 5])
def test_holder_moments_are_those_of_the_marched_window(burn_steps):
    # the study's observer keeps the window's packed rows, from the start rows
    # when there is no burn-in; every lag moment equals the one taken of the
    # march's complex states bit for bit
    cfg = HolderConfig(shells=6, burn_steps=burn_steps, window_steps=40, lag_min_steps=1,
                       lag_max_steps=35, n_lags=5, ensemble=3, n_boot=10)
    seed = 7
    report = holder_study(cfg, seed)
    grid = make_grid(cfg.shells)
    _, states = record(integrator.march, integrator.SchemeParams(cfg.nu, cfg.delta, cfg.shells),
                       low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance),
                       [cfg.ic.build(grid, seed)], seed, np.arange(cfg.ensemble),
                       burn_steps + cfg.window_steps)
    window = states[burn_steps:]
    assert len(report.tables["lags"]) == 5
    for row in report.tables["lags"]:
        lag = row["lag_steps"]
        moments = spectral.norm_l2_sq(window[lag:] - window[:-lag]) ** (cfg.moment / 2.0)
        assert row["moment"] == float(np.mean(moments))
        assert row["origins"] == cfg.window_steps + 1 - lag


@pytest.mark.parametrize("make, study", [
    (lambda: CouplingStudyConfig(horizon=0.015, delta=0.01), coupling_study),
    (lambda: ContractionConfig(horizon=1.0, deltas=(0.03, 0.01)), contraction_study),
    (lambda: LyapunovConfig(horizon=0.07), lyapunov_study),
    (lambda: WeakErrorConfig(horizon=0.5, record_time=0.2), weak_error_study),
])
def test_horizon_off_the_step_grid_is_refused(monkeypatch, make, study):
    # round(horizon / delta) steps would stop short of the horizon or overshoot it
    monkeypatch.setattr(integrator, "_advance_one", None)   # no step may be taken
    with pytest.raises(ConfigError) as err:
        study(make(), seed=1)
    assert err.value.field == "horizon"


def test_weak_error_constant_observable_is_zero():
    grid = make_grid(6)
    cfg = WeakErrorConfig(
        shells_list=(4, 6), deltas=(0.04, 0.02), reference_shells=6,
        reference_delta=0.01, horizon=0.4, record_time=0.2, ensemble=4,
        observable=clipped_energy(radius=1e-6))  # clip makes it constant
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


def test_contraction_pair_marches_as_one_batch(monkeypatch):
    # the grid is one ladder: its march is the finest cell, with the pair
    # (xi0, xi0 + gap) built on the top grid as its two starts, and every
    # other cell is a rung.  The march, and every rung at its delta on a
    # coarser cutoff, is a lone 2-start march from the projected starts bit
    # for bit; a coarser delta agrees with a lone march on its own summed
    # tape to the solve tolerance.  Each cell's coupled bound is read from
    # that cell's states, and the report replays bit for bit
    cfg = ContractionConfig(shells_list=(3, 4), deltas=(0.02, 0.01), horizon=1.0,
                            record_time=0.2, ensemble=4, forcing_shells=2)
    seed, m = 3, cfg.ensemble
    ids = np.arange(m)
    calls, ladder = [], integrator.ladder

    def recording(p, rungs, basis, starts, seed, ids, n_steps, cadence, reducer):
        seen = {}

        def spy(step, c, cs):
            seen[step] = [None if x is None else spectral.unpack(x) for x in (c, *cs)]
            if step % cadence == 0:
                reducer(step, c, cs)

        calls.append((p, rungs, starts, n_steps, seen))
        return ladder(p, rungs, basis, starts, seed, ids, n_steps, 1, spy)

    monkeypatch.setattr(integrator, "ladder", recording)
    first = contraction_study(cfg, seed)
    monkeypatch.undo()
    (p, rungs, starts, n_steps, seen), = calls
    assert (p.shells, p.delta) == (4, 0.01)
    assert sorted((q.shells, q.delta) for q in [p, *rungs]) == sorted(
        (shells, delta) for shells in cfg.shells_list for delta in cfg.deltas)
    assert [s.grid.shells for s in starts] == [4, 4]
    dp = DistanceParams(cfg.eps, cfg.s, first.scalars["alpha"])
    for j, q in enumerate([p, *rungs]):
        stride, grid = round(q.delta / p.delta), q.grid()
        basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
        n = n_steps // stride
        got = np.array([seen[stride * i][j] for i in range(n + 1)])
        if stride == 1:
            assert np.array_equal(got, record(integrator.march, q, basis, starts, seed, ids,
                                              n)[1])
        else:
            tape = summed_increments(seed, ids, stride, basis.d, q.delta)
            lone, states = record(integrator.run_scheme, grid,
                                  integrator.start_rows(grid, starts, m), n, q, basis,
                                  lambda n0, n1: np.tile(tape(n0, n1), (1, 2, 1)))
            norms = np.sqrt(lone.energy_sq)
            summed = np.concatenate([np.zeros_like(norms[:1]),
                                     np.cumsum(norms[1:], axis=0)])
            diff = spectral.norm_l2(got - states)
            assert np.all(diff <= 2.0 * q.tol * summed) and np.any(diff > 0)
        rows = [r for r in first.tables["series"]
                if (r["shells"], r["delta"]) == (q.shells, q.delta)]
        every = round(cfg.record_time / q.delta)
        assert [r["w_coupled"] for r in rows] == [
            measures.wasserstein_coupled_bound(spectral.pack(x[:m]), spectral.pack(x[m:]), dp)
            for x in got[::every]]
    second = contraction_study(cfg, seed)
    assert repr((first.tables, first.scalars, first.checks)) == repr(
        (second.tables, second.scalars, second.checks))


@pytest.mark.parametrize("deltas, record_time, field", [
    ((0.03, 0.02), 0.06, "deltas"), ((0.02, 0.01), 0.25, "record_time"),
    ((0.02, 0.01), 0.015, "record_time")])
def test_contraction_grid_off_the_finest_step_is_refused(monkeypatch, deltas, record_time,
                                                         field):
    # every delta steps as a whole stride of the smallest on one ladder, and
    # every record time falls on a step of every delta; both are refused
    # before any step, where the ladder's StructuralError or a rounded
    # record stride came before
    monkeypatch.setattr(integrator, "_advance_one", None)
    with pytest.raises(ConfigError) as err:
        contraction_study(ContractionConfig(shells_list=(3, 4), deltas=deltas, horizon=1.2,
                                            record_time=record_time, ensemble=4), seed=1)
    assert err.value.field == field


def test_weak_delta_leg_steps_its_rungs_on_one_march(monkeypatch):
    # the study is one ladder: the reference march steps every (N, delta)
    # cell as a rung.  A cell at the reference delta reads a lone march's
    # noise on its grid and is that march bit for bit, and so is its weak
    # error.  A coarser delta agrees with a lone march on its own summed
    # tape, r = delta / reference_delta, to the solve tolerance (rounding of
    # the noise sum aside)
    cfg = WeakErrorConfig(shells_list=(3, 4), deltas=(0.04, 0.02, 0.01), reference_shells=6,
                          reference_delta=0.01, horizon=0.4, record_time=0.2,
                          ensemble=4, forcing_shells=2)
    seed, ids = 5, np.arange(cfg.ensemble)
    calls, ladder = [], integrator.ladder

    def recording(p, rungs, basis, starts, seed, ids, n_steps, cadence, reducer):
        seen = {}

        def spy(step, c, cs):
            seen[step] = [c, *cs]
            if step % cadence == 0:
                reducer(step, c, cs)

        calls.append((p, rungs, starts, seen))
        return ladder(p, rungs, basis, starts, seed, ids, n_steps, 1, spy)

    monkeypatch.setattr(integrator, "ladder", recording)
    report = weak_error_study(cfg, seed)
    monkeypatch.undo()
    (p, rungs, starts, seen), = calls
    assert (p.shells, p.delta) == (cfg.reference_shells, cfg.reference_delta)
    assert [(q.shells, q.delta) for q in rungs] == [
        (shells, delta) for shells in cfg.shells_list for delta in cfg.deltas]
    obs = cfg.observable

    def lone(q):
        """(run, states at the record times) of a lone march at q."""
        grid = q.grid()
        basis = low_mode_basis(grid, cfg.forcing_shells, cfg.forcing_variance)
        tape = summed_increments(seed, ids, round(q.delta / p.delta), basis.d, q.delta)
        return record(integrator.run_scheme, grid,
                      integrator.start_rows(grid, starts, cfg.ensemble),
                      round(cfg.horizon / q.delta), q, basis, tape,
                      stride=round(cfg.record_time / q.delta))

    def means(grid, states):
        return np.array([np.mean(obs.evaluate(grid, spectral.pack(s))) for s in states])

    errors = {(row["shells"], row["delta"]): row["weak_error"]
              for row in report.tables["grid"]}
    ref = means(p.grid(), lone(p)[1])
    base_stride = round(cfg.record_time / p.delta)
    for j, q in enumerate([p, *rungs]):
        run, states = lone(q)
        record_steps = round(cfg.record_time / q.delta) * np.arange(len(states))
        got = np.array([spectral.unpack(seen[n * base_stride][j])
                        for n in range(len(states))])
        if q.delta == p.delta:
            assert np.array_equal(got, states)
            if j:
                assert errors[q.shells, q.delta] == float(
                    np.max(np.abs(means(q.grid(), states) - ref)))
        norms = np.sqrt(run.energy_sq)
        summed = np.concatenate([np.zeros_like(norms[:1]), np.cumsum(norms[1:], axis=0)])
        bound = 2.0 * q.tol * summed[record_steps]
        assert np.all(spectral.norm_l2(got - states) <= bound)


def test_spatial_rungs_match_per_cutoff_marches():
    # the one ladder's report equals the per-cutoff marches' bit for bit: each
    # cutoff marched alone on the shared tape and start, embedded on the
    # reference grid, its squared gap's sup over the records
    cfg = SpatialOrderConfig(shell_ladder=(3, 4, 6), reference_shells=8, delta=0.01,
                             horizon=0.07, ensemble=3, record_stride=2)
    seed, ids = 9, np.arange(cfg.ensemble)
    report = spatial_order_study(cfg, seed)
    ref_grid = make_grid(cfg.reference_shells)
    xi0 = cfg.ic.build(ref_grid, seed)

    def run_at(shells):
        basis = low_mode_basis(make_grid(shells), cfg.forcing_shells, cfg.forcing_variance)
        return record(integrator.march, integrator.SchemeParams(cfg.nu, cfg.delta, shells),
                      basis, [xi0], seed, ids, 7, stride=cfg.record_stride)

    _, ref = run_at(cfg.reference_shells)
    assert len(ref) == 4   # steps 0, 2, 4 and 6
    for row, shells in zip(report.tables["rungs"], cfg.shell_ladder):
        grid = make_grid(shells)
        emb = spectral.embed_coeffs(grid, ref_grid, run_at(shells)[1])
        sup_sq = np.max(spectral.norm_l2_sq(emb - ref), axis=0)
        assert row == {"shells": shells, "modes": grid.n_modes,
                       "err_sup_sq": float(np.mean(sup_sq)), "paths": cfg.ensemble}


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
                          ensemble=32, observable=low_mode_re(1, 0),
                          forcing_shells=4)
    report = weak_error_study(cfg, seed)
    weak = max(r["weak_error"] for r in report.tables["grid"])

    ic = cfg.ic.build(grid_r, seed)
    basis_c = low_mode_basis(grid_c, 4, 0.5)
    basis_r = low_mode_basis(grid_r, 4, 0.5)
    ids = np.arange(cfg.ensemble)
    _, states_c = record(run_scheme, grid_c,
                         np.broadcast_to(embed_coeffs(grid_r, grid_c, ic.coeffs),
                                         (32, grid_c.n_half)),
                         25, SchemeParams(1.0, 0.02, 6), basis_c,
                         summed_increments(seed, ids, 2, basis_c.d, 0.02), stride=5)
    _, states_r = record(run_scheme, grid_r, np.broadcast_to(ic.coeffs, (32, grid_r.n_half)),
                         50, SchemeParams(1.0, 0.01, 8), basis_r,
                         batch_increments(seed, ids, basis_r.d, 0.01), stride=10)
    diff = embed_coeffs(grid_c, grid_r, states_c) - states_r
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
    from snselab.integrator import SchemeParams, batch_increments, run_scheme
    from snselab.forcing import low_mode_basis
    from snselab.spectral import embed_coeffs
    fine = make_grid(20)
    ic = InitialCondition(kind="random", amplitude=1.0).build(fine, 5)
    sups = []
    for shells in (12, 16):
        grid = make_grid(shells)
        basis = low_mode_basis(grid, 4, 0.5)
        c0 = np.broadcast_to(embed_coeffs(fine, grid, ic.coeffs), (32, grid.n_half))
        _, states = record(run_scheme, grid, c0, 100, SchemeParams(1.0, 0.02, shells), basis,
                           batch_increments(5, np.arange(32), basis.d, 0.02))
        h1_sq = spectral.sobolev_norm_sq(grid, states, 1.0)
        sups.append(float(np.max(np.mean(h1_sq, axis=1))))
    assert np.all(np.isfinite(sups))
    assert abs(sups[1] - sups[0]) <= 0.2 * sups[0]
