"""Acceptance suite: the quantitative gates of the laboratory.

Each test evaluates one numbered criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them all).
A study gate runs its `GATES` config file, as the command line reads it,
and passes on its study's own ledger of band checks.
Default regime unless a criterion states otherwise: nu = 1, low-mode
forcing spanning 4 eigenvalue shells with total variance 0.5, cutoff
covering 16 eigenvalue shells, 128-path ensembles.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

from snselab import runner
from snselab.integrator import SchemeParams, run_scheme
from snselab.spectral import harmonic_field, make_grid, random_field

from helpers import advect, inner, record, sobolev_norm

pytestmark = pytest.mark.acceptance

SEED = 20_260_809
GATE_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
# study gate -> (subcommand, its config file in GATE_CONFIGS, seeds); a study
# gate passes iff the ledger of every report it reads passes, which is what
# `snse-lab <subcommand> --config <file> --enforce` exits 0 on
GATES = {
    3: ("converge-time", "gate03.cfg", (SEED,)),
    4: ("converge-space", "gate04.cfg", (SEED,)),
    5: ("lyapunov", "gate05.cfg", (SEED,)),
    7: ("couple", "gate07.cfg", (SEED,)),
    8: ("couple", "gate08.cfg", (SEED,)),
    9: ("contraction", "gate09.cfg", (SEED,)),
    10: ("contraction", "gate09.cfg", (SEED, 31)),
    11: ("certify-metric", "gate11.cfg", (SEED,)),
    12: ("holder", "gate12.cfg", (SEED,)),
    13: ("bias", "gate13.cfg", (SEED,)),
}
_RESULTS = []


def _criterion(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    _RESULTS.append(line)
    print(line)
    assert ok, line


@functools.cache
def _report(subcommand: str, name: str, seed: int):
    # gates 9 and 10 share their reports
    return runner.run_study(subcommand, runner.load_config(str(GATE_CONFIGS / name)),
                            seed, 1)


def _study_gate(num: int, line):
    """Criterion `num` on the reports of its `GATES` entry, with the detail
    `line(*reports)`."""
    subcommand, name, seeds = GATES[num]
    reports = [_report(subcommand, name, seed) for seed in seeds]
    _criterion(num, all(report.passed() for report in reports), line(*reports))


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
    def line(report):
        fit = report.fits["moment_p"]
        return (f"log E sup|err| (p=0.5 moment) slope {fit.slope:.3f} in [0.40, 0.60], "
                f"r2 {fit.r_squared:.4f} >= 0.97 (strong order "
                f"{report.scalars['order']:.3f})")
    _study_gate(3, line)


# 4 ---------------------------------------------------------------------------

def test_criterion_04_spatial_strong_order():
    def line(report):
        fit = report.fits["order_sq_vs_modes"]
        return (f"log E sup|err|^2 vs log N slope {fit.slope:.3f} in [-1.3, -0.7], "
                f"r2 {fit.r_squared:.4f} >= 0.9")
    _study_gate(4, line)


# 5 ---------------------------------------------------------------------------

def test_criterion_05_exponential_lyapunov():
    _study_gate(5, lambda report: (
        f"exp-moment envelope held in {report.scalars['fraction_ok']:.0%} of 20 seeds "
        f"(>= 95%), alpha {report.scalars['alpha']:.3g}, worst mean/envelope ratio "
        f"{report.scalars['worst_ratio']:.4f}"))


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
    # an exact coupling passes the ledger with no per-step factor, which this
    # line cannot format, so it stays a failure
    def line(report):
        row = report.tables["perturbations"][0]
        return (f"K=8 shells, beta={report.scalars['beta']:.1f}: E|gap|^2(t=10)/|gap0|^2 = "
                f"{row['gap_ratio']:.2e} <= 0.001, per-step factor "
                f"{np.exp(row['per_step_log_factor']):.4f} <= 1, "
                f"r2 {row['r_squared']:.3f} >= 0.9")
    _study_gate(7, line)


# 8 ---------------------------------------------------------------------------

def test_criterion_08_girsanov_cost_sanity():
    _study_gate(8, lambda report: (
        f"kl finite; mean-vs-majorant ratio spread {report.scalars['kl_ratio_spread']:.2f} "
        f"<= 10 over 2 decades; log kl vs log|gap0|^2 slope "
        f"{report.scalars['kl_linearity_slope']:.3f} in [0.8, 1.2]"))


# 9 ---------------------------------------------------------------------------

def test_criterion_09_wasserstein_contraction_uniformity():
    def line(report):
        cells = report.tables["cells"]
        return (f"coupled-bound W decays in all 9 (N, delta) cells: rates "
                f"[{min(r['rate'] for r in cells):.3f}, {max(r['rate'] for r in cells):.3f}], "
                f"spread {report.scalars['rate_spread']:.2f} <= 3, min r2 "
                f"{min(r['r_squared'] for r in cells):.3f} >= 0.9")
    _study_gate(9, line)


# 10 --------------------------------------------------------------------------

def test_criterion_10_exact_below_coupled():
    def line(*reports):
        checked = sum("w_exact" in row for report in reports
                      for row in report.tables["series"])
        return (f"exact empirical W <= synchronized coupled bound at all {checked} "
                f"recorded times across {len(reports)} seeds")
    _study_gate(10, line)


# 11 --------------------------------------------------------------------------

def test_criterion_11_metric_certification():
    _study_gate(11, lambda report: (
        f"metric axioms and weighted generalized triangle inequality (gamma=2, "
        f"K~={report.scalars['k_tilde']:.6f}): 0 violations in 10^4 triples"))


# 12 --------------------------------------------------------------------------

def test_criterion_12_holder_exponent():
    _study_gate(12, lambda report: (
        f"E|xi(t)-xi(s)|^2 ~ |t-s|^e over lags [2 delta, 200 delta]: "
        f"e = {report.scalars['exponent']:.3f} in [0.7, 1.1]"))


# 13 --------------------------------------------------------------------------

def test_criterion_13_stationary_bias_legs():
    _study_gate(13, lambda report: (
        f"time-average bias decay exponent {report.scalars['bias_exponent']:.3f} in "
        f"[0.7, 1.3] and replica MSE exponent {report.scalars['mse_exponent']:.3f} in "
        f"[0.7, 1.3] (target 1/(n delta))"))


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
