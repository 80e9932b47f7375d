"""Acceptance suite: the quantitative gates of the laboratory.

Each test evaluates one numbered criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them all).
Default regime unless a criterion states otherwise: nu = 1, low-mode
forcing spanning 4 eigenvalue shells with total variance 0.5, cutoff
covering 16 eigenvalue shells, 128-path ensembles.
"""

import numpy as np
import pytest

from snselab import runner
from snselab.experiments import (BANDS, CertifyMetricConfig, ContractionConfig,
                                 CouplingStudyConfig, HolderConfig, LyapunovConfig,
                                 SpatialOrderConfig, StationaryBiasConfig,
                                 TemporalOrderConfig, certify_metric_study,
                                 contraction_study, coupling_study, holder_study,
                                 lyapunov_study, spatial_order_study,
                                 stationary_bias_study, temporal_order_study)
from snselab.integrator import SchemeParams, run_scheme
from snselab.spectral import harmonic_field, make_grid, random_field

from helpers import advect, inner, record, sobolev_norm

pytestmark = pytest.mark.acceptance

SEED = 20_260_809
_RESULTS = []


def _criterion(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    _RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def contraction_reports():
    cfg = ContractionConfig()
    return {seed: contraction_study(cfg, seed) for seed in (SEED, 31)}


# 1 ---------------------------------------------------------------------------

def test_criterion_01_deterministic_single_mode_step():
    g = make_grid(16)
    worst = 0.0
    for mode in ((1, 0), (1, 1), (3, 4)):
        lam = mode[0] ** 2 + mode[1] ** 2
        for delta in (0.1, 0.01):
            p = SchemeParams(1.0, delta, 16)
            f = harmonic_field(g, *mode, kind="cos", amplitude=1.0)
            out = record(run_scheme, g, f.coeffs, 1, p, None, None)[1][-1, 0]
            want = f.coeffs / (1.0 + p.nu * delta * lam)
            rel = np.max(np.abs(out - want)) / np.max(np.abs(want))
            worst = max(worst, rel)
    _criterion(1, worst <= 1e-12,
               f"single-mode step vs amplitude/(1+nu delta |k|^2): "
               f"worst rel err {worst:.2e} <= 1e-12")


# 2 ---------------------------------------------------------------------------

def test_criterion_02_galerkin_exactness():
    from test_spectral import _advect_oracle

    worst_conv = 0.0
    for shells in (4, 6):
        grid = make_grid(shells)
        for seed in range(4):
            src = random_field(grid, seed=seed, rms=1.5)
            tgt = random_field(grid, seed=seed + 50, rms=1.0)
            got = advect(src, tgt)
            want = _advect_oracle(grid, src, tgt)
            scale = max(np.max(np.abs(want.coeffs)), 1e-30)
            worst_conv = max(worst_conv, np.max(np.abs(got.coeffs - want.coeffs)) / scale)
    g16 = make_grid(16)
    worst_orth = 0.0
    for seed in range(100):
        f = random_field(g16, seed=seed, rms=1.0 + seed % 4)
        rel = abs(inner(advect(f, f), f)) / (f.l2_norm() ** 2 * sobolev_norm(f, 1.0))
        worst_orth = max(worst_orth, rel)
    _criterion(2, worst_conv <= 1e-12 and worst_orth <= 1e-10,
               f"advection vs O(N^4) convolution oracle {worst_conv:.2e} <= 1e-12; "
               f"energy orthogonality {worst_orth:.2e} <= 1e-10 on 100 fields")


# 3 ---------------------------------------------------------------------------

def test_criterion_03_temporal_strong_order():
    report = temporal_order_study(TemporalOrderConfig(), SEED)
    fit = report.fits["moment_p"]
    band = BANDS["temporal-order"]["moment_p"]
    ok = band.contains(fit.slope) and fit.r_squared >= band.r2
    assert report.passed() == ok
    _criterion(3, ok,
               f"log E sup|err| (p=0.5 moment) slope {fit.slope:.3f} in "
               f"[{band.lo:.2f}, {band.hi:.2f}], r2 {fit.r_squared:.4f} >= {band.r2} "
               f"(strong order {report.scalars['order']:.3f})")


# 4 ---------------------------------------------------------------------------

def test_criterion_04_spatial_strong_order():
    report = spatial_order_study(SpatialOrderConfig(), SEED)
    fit = report.fits["order_sq_vs_modes"]
    band = BANDS["spatial-order"]["order_sq_vs_modes"]
    ok = band.contains(fit.slope) and fit.r_squared >= band.r2
    assert report.passed() == ok
    _criterion(4, ok,
               f"log E sup|err|^2 vs log N slope {fit.slope:.3f} in "
               f"[{band.lo}, {band.hi}], r2 {fit.r_squared:.4f} >= {band.r2}")


# 5 ---------------------------------------------------------------------------

def test_criterion_05_exponential_lyapunov():
    report = lyapunov_study(LyapunovConfig(n_seeds=20), SEED)
    frac = report.scalars["fraction_ok"]
    floor = BANDS["exponential-lyapunov"]["fraction_ok"].lo
    assert report.passed() == (frac >= floor)
    _criterion(5, frac >= floor,
               f"exp-moment envelope held in {frac:.0%} of 20 seeds (>= {floor:.0%}), "
               f"alpha {report.scalars['alpha']:.3g}, worst mean/envelope ratio "
               f"{report.scalars['worst_ratio']:.4f}")


# 6 ---------------------------------------------------------------------------

def test_criterion_06_noise_free_energy_decay():
    p = SchemeParams(1.0, 0.05, 16, tol=1e-13)
    f = random_field(make_grid(16), seed=SEED, rms=2.0)
    run = run_scheme(f.grid, f.coeffs, 1000, p, None, None)
    n = np.arange(1001)
    bound = f.l2_norm() / (1.0 + p.nu * 1.0 * p.delta) ** n
    ratio = np.max(np.sqrt(run.energy_sq[:, 0]) / bound)
    _criterion(6, ratio <= 1.0 + 1e-10,
               f"|xi^n| <= |xi^0|/(1+nu lambda_1 delta)^n for n <= 1e3: "
               f"worst ratio-1 = {ratio - 1.0:.2e} <= 1e-10")


# 7 ---------------------------------------------------------------------------

def test_criterion_07_nudged_pathwise_contraction():
    cfg = CouplingStudyConfig(shells_controlled=8, forcing_shells=4, ensemble=128,
                              compute_shifts=False, perturbations=(1e-2,),
                              horizon=10.0, delta=0.01)
    report = coupling_study(cfg, SEED)
    row = report.tables["perturbations"][0]
    beta, lam_next = report.scalars["beta"], report.scalars["lambda_next"]
    bands = BANDS["nudged-coupling"]
    gap, factor = bands["gap_ratio"], bands["per_step_log_factor"]
    ok = (lam_next >= 2 * beta - 1e-12
          and gap.contains(row["gap_ratio"])
          and factor.contains(row["per_step_log_factor"])
          and row["r_squared"] >= factor.r2)
    _criterion(7, ok,
               f"K=8 shells, beta={beta:.1f}: E|gap|^2(t=10)/|gap0|^2 = "
               f"{row['gap_ratio']:.2e} <= {gap.hi:g}, per-step factor "
               f"{np.exp(row['per_step_log_factor']):.4f} <= {np.exp(factor.hi):g}, "
               f"r2 {row['r_squared']:.3f} >= {factor.r2}")


# 8 ---------------------------------------------------------------------------

def test_criterion_08_girsanov_cost_sanity():
    cfg = CouplingStudyConfig(shells_controlled=4, forcing_shells=4, ensemble=128,
                              compute_shifts=True,
                              perturbations=(1e-2, 1e-1, 1.0), horizon=6.0)
    report = coupling_study(cfg, SEED)
    rows = report.tables["perturbations"]
    finite = all(np.isfinite(r["kl_mean"]) for r in rows)
    spread = report.scalars["kl_ratio_spread"]
    slope = report.scalars["kl_linearity_slope"]
    bands = BANDS["nudged-coupling"]
    spread_band, slope_band = bands["kl_ratio_spread"], bands["kl_linearity_slope"]
    ok = finite and spread_band.contains(spread) and slope_band.contains(slope)
    _criterion(8, ok,
               f"kl finite; mean-vs-majorant ratio spread {spread:.2f} <= "
               f"{spread_band.hi:g} over 2 decades; log kl vs log|gap0|^2 slope "
               f"{slope:.3f} in [{slope_band.lo}, {slope_band.hi}]")


# 9 ---------------------------------------------------------------------------

def test_criterion_09_wasserstein_contraction_uniformity(contraction_reports):
    report = contraction_reports[SEED]
    rates = [row["rate"] for row in report.tables["cells"]]
    r2s = [row["r_squared"] for row in report.tables["cells"]]
    bands = BANDS["wasserstein-contraction"]
    ok = (all(r > 0 for r in rates) and all(r >= bands["rate"].r2 for r in r2s)
          and bands["rate_spread"].contains(report.scalars["rate_spread"]))
    assert report.passed() == ok
    _criterion(9, ok,
               f"coupled-bound W decays in all 9 (N, delta) cells: rates "
               f"[{min(rates):.3f}, {max(rates):.3f}], spread "
               f"{report.scalars['rate_spread']:.2f} <= {bands['rate_spread'].hi:g}, "
               f"min r2 {min(r2s):.3f} >= {bands['rate'].r2}")


# 10 --------------------------------------------------------------------------

def test_criterion_10_exact_below_coupled(contraction_reports):
    ok = True
    checked = 0
    for seed, report in contraction_reports.items():
        assert report.config["ensemble"] == 32
        for row in report.tables["series"]:
            if "w_exact" in row:
                checked += 1
                ok &= row["w_exact"] <= row["w_coupled"] + 1e-12
    _criterion(10, ok and checked > 0,
               f"exact empirical W <= synchronized coupled bound at all "
               f"{checked} recorded times across {len(contraction_reports)} seeds")


# 11 --------------------------------------------------------------------------

def test_criterion_11_metric_certification():
    report = certify_metric_study(CertifyMetricConfig(), SEED)
    ok = (report.scalars["metric_triangle_violations"] == 0
          and report.scalars["weighted_triangle_violations"] == 0)
    _criterion(11, ok,
               f"metric axioms and weighted generalized triangle inequality "
               f"(gamma=2, K~={report.scalars['k_tilde']:.6f}): 0 violations "
               f"in 10^4 triples")


# 12 --------------------------------------------------------------------------

def test_criterion_12_holder_exponent():
    report = holder_study(HolderConfig(ensemble=128), SEED)
    exp_ = report.scalars["exponent"]
    band = BANDS["holder-regularity"]["exponent"]
    assert report.passed() == band.contains(exp_)
    _criterion(12, band.contains(exp_),
               f"E|xi(t)-xi(s)|^2 ~ |t-s|^e over lags [2 delta, 200 delta]: "
               f"e = {exp_:.3f} in [{band.lo}, {band.hi}]")


# 13 --------------------------------------------------------------------------

def test_criterion_13_stationary_bias_legs():
    report = stationary_bias_study(StationaryBiasConfig(), SEED)
    b, m = report.scalars["bias_exponent"], report.scalars["mse_exponent"]
    bands = BANDS["stationary-bias"]
    ok = bands["bias_exponent"].contains(b) and bands["mse_exponent"].contains(m)
    assert report.passed() == ok
    _criterion(13, ok,
               f"time-average bias decay exponent {b:.3f} in "
               f"[{bands['bias_exponent'].lo}, {bands['bias_exponent'].hi}] and replica "
               f"MSE exponent {m:.3f} in [{bands['mse_exponent'].lo}, "
               f"{bands['mse_exponent'].hi}] (target 1/(n delta))")


# 14 --------------------------------------------------------------------------

def test_criterion_14_reproducibility(tmp_path_factory):
    # `couple` and `contraction` march in one thread whatever --threads says
    # (the contraction grid's four (shells, delta) cells are one ladder); the
    # Lyapunov study's two seeds are spread over threads by `_pmap`
    base = tmp_path_factory.mktemp("repro")
    configs = {"couple": """
[discretization]
shells = 8
delta = 0.02

[forcing]
shells = 4

[experiment]
horizon = 2.0
ensemble = 16

[nudge]
shells = 4
beta = auto
""", "contraction": """
[experiment]
shells_list = 3, 4
deltas = 0.02, 0.01
horizon = 1.0
record_time = 0.2
ensemble = 8
""", "lyapunov": """
[discretization]
shells = 6

[experiment]
horizon = 1.0
ensemble = 4
n_seeds = 2
"""}
    same_threads, counts = True, {}
    for study, text in configs.items():
        cfg_path = base / f"{study}.cfg"
        cfg_path.write_text(text)
        outs = {}
        for threads in (1, 4, 8):
            out = base / f"{study}-t{threads}"
            code = runner.main([study, "--config", str(cfg_path), "--seed", "5",
                                "--threads", str(threads), "--out", str(out)])
            assert code == 0
            outs[threads] = out
        files = {t: sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
                 for t, out in outs.items()}
        counts[study] = len(files[1])
        same_threads = same_threads and all(
            files[t] == files[1] and all((outs[1] / rel).read_bytes()
                                         == (outs[t] / rel).read_bytes() for rel in files[1])
            for t in (4, 8))

    replay_out = base / "replayed"
    code = runner.main(["replay", str(base / "couple-t1"), "--out", str(replay_out)])
    replay_ok = code == 0
    _criterion(14, same_threads and replay_ok,
               f"replay reproduces all artifacts byte-identically; thread "
               f"counts 1/4/8 agree on {counts['couple']} couple, "
               f"{counts['contraction']} contraction and {counts['lyapunov']} lyapunov files")


def test_zz_summary():
    print()
    print("=" * 72)
    for line in _RESULTS:
        print(line)
    print("=" * 72)
