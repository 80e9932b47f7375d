import configparser
import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import snselab
from snselab.errors import ConfigError, StructuralError
from snselab.experiments import (ContractionConfig, CouplingStudyConfig,
                                 StationaryBiasConfig, StudyReport,
                                 TemporalOrderConfig)
from snselab.forcing import low_mode_basis
from snselab.integrator import SchemeParams, batch_increments, run_scheme
from snselab.spectral import SpectralField
from snselab.runner import (CONFIGS, EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_OK, STUDIES,
                            SUBCOMMANDS, checkpoint, load_config, main, restore,
                            run_study, study_config)
from snselab.spectral import make_grid, random_field


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_list_parsing(tmp_path):
    path = _write_config(tmp_path, """
[discretization]
delta_ladder = 0.02, 0.01, 0.005
""")
    cfg = load_config(path)
    assert cfg.get("discretization", "delta_ladder") == (0.02, 0.01, 0.005)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.cfg")


def test_delta_exceeding_delta0_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, """
[discretization]
delta = 0.2
delta0 = 0.1
""")
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


def test_non_monotone_ladder_rejected(tmp_path, caplog):
    path = _write_config(tmp_path, """
[discretization]
delta_ladder = 0.02, 0.05, 0.01
""")
    # simulate reads no ladder at all
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    path = _write_config(tmp_path, """
[discretization]
delta_ladder = 0.02, 0.005, 0.01, 0.0025
""")
    caplog.clear()
    code = main(["converge-time", "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "deltas: ladder must be strictly monotone" in caplog.text


def test_simulate_zero_steps_emits_manifest_and_checkpoint(tmp_path):
    out = tmp_path / "run0"
    code = main(["simulate", "--steps", "0", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "manifest.cfg").exists()
    assert (out / "summary.json").exists()
    cks = list(out.glob("checkpoints/*/state_00000000.fld"))
    assert len(cks) == 1


@pytest.mark.parametrize("seed", range(5))
def test_simulate_zero_steps_row_is_row_zero_of_a_march(tmp_path, seed):
    # steps = 0 records the packed |c|^2 and |grad c|^2 that step 0 of a march does
    first = []
    for steps in (0, 1):
        out = tmp_path / f"run{steps}"
        assert main(["simulate", "--steps", str(steps), "--seed", str(seed),
                     "--out", str(out)]) == EXIT_OK
        first.append((out / "tables" / "diagnostics.csv").read_text().splitlines()[1])
    assert first[0] == first[1]


# -- checkpoints ------------------------------------------------------------------

def test_checkpoint_restore_roundtrip(tmp_path):
    g = make_grid(16)
    p = SchemeParams(1.0, 0.01, 16)
    f = random_field(g, seed=3, rms=1.0)
    checkpoint(f, p, seed=11, trajectory_id=0, step_index=42, directory=tmp_path)
    state, params, seed, traj, step = restore(tmp_path / "state_00000042.fld")
    assert np.array_equal(state.coeffs, f.coeffs)
    assert params == p and seed == 11 and traj == 0 and step == 42


def test_restore_then_continue_matches_straight_run(tmp_path):
    g = make_grid(16)
    p = SchemeParams(1.0, 0.02, 16)
    basis = low_mode_basis(g, 4, 0.5)
    f = random_field(g, seed=5, rms=1.0)
    tape = batch_increments(9, [0], basis.d, p.delta)
    # 300 steps cross a 256-step tape chunk that the resumed run never sees
    for n_steps in (20, 300):
        full = run_scheme(g, f.coeffs, n_steps, p, basis, tape)
        half = run_scheme(g, f.coeffs, n_steps // 2, p, basis, tape)
        where = tmp_path / str(n_steps)
        checkpoint(SpectralField(g, half.states[-1, 0]), p, seed=9, trajectory_id=0,
                   step_index=n_steps // 2, directory=where)
        state, params, seed, traj, step = restore(where / f"state_{n_steps // 2:08d}.fld")
        # index-addressed tape: continuation reads cells step.. of the same trajectory
        inc = batch_increments(seed, [traj], basis.d, params.delta)
        resumed = run_scheme(g, state.coeffs, n_steps - step, params, basis,
                             lambda n0, n1: inc(n0 + step, n1 + step))
        assert np.array_equal(resumed.states, full.states[step:])
        assert np.array_equal(resumed.energy_sq, full.energy_sq[step:])


def test_version_1_sidecar_restores_like_version_2(tmp_path):
    # version 1 sidecars also held the solver policy and sweep budget
    g = make_grid(8)
    p = SchemeParams(1.0, 0.02, 8, delta0=0.05, tol=1e-11)
    checkpoint(random_field(g, seed=3), p, 4, 1, 7, tmp_path)
    fresh = restore(tmp_path / "state_00000007.fld")
    (tmp_path / "state_00000007.json").write_text(json.dumps({
        "format_version": 1, "step_index": 7, "seed": 4, "trajectory_id": 1,
        "params": {"nu": 1.0, "delta": 0.02, "shells": 8, "delta0": 0.05,
                   "solver": "krylov", "tol": 1e-11, "max_iter": 50}}))
    old = restore(tmp_path / "state_00000007.fld")
    assert old[1] == fresh[1] == p
    assert np.array_equal(old[0].coeffs, fresh[0].coeffs) and old[2:] == fresh[2:] == (4, 1, 7)


def test_unknown_checkpoint_version_is_rejected(tmp_path):
    checkpoint(random_field(make_grid(16), seed=3), SchemeParams(1.0, 0.01, 16),
               0, 0, 5, tmp_path)
    meta = json.loads((tmp_path / "state_00000005.json").read_text())
    meta["format_version"] = 3
    (tmp_path / "state_00000005.json").write_text(json.dumps(meta))
    with pytest.raises(StructuralError):
        restore(tmp_path / "state_00000005.fld")


def test_restore_cutoff_mismatch(tmp_path):
    g = make_grid(16)
    p = SchemeParams(1.0, 0.01, 16)
    f = random_field(g, seed=3)
    checkpoint(f, p, 0, 0, 5, tmp_path)
    meta = json.loads((tmp_path / "state_00000005.json").read_text())
    meta["params"]["shells"] = 8
    (tmp_path / "state_00000005.json").write_text(json.dumps(meta))
    with pytest.raises(StructuralError):
        restore(tmp_path / "state_00000005.fld")


# -- end-to-end subcommands ---------------------------------------------------------

def _fast_couple_config(tmp_path):
    return _write_config(tmp_path, """
[discretization]
shells = 8
delta = 0.02

[forcing]
shells = 4
variance = 0.5

[experiment]
horizon = 2.0
ensemble = 8

[nudge]
shells = 4
beta = auto
compute_shifts = true
perturbation = 0.01
""")


def _capture_studies(monkeypatch):
    """Replace every study with one that records its config and returns an
    empty report; returns the list of recorded configs."""
    seen = []

    def capture(study, seed):
        seen.append(study)
        return StudyReport("captured", asdict(study), seed)

    for sub, (cls, _) in STUDIES.items():
        monkeypatch.setitem(STUDIES, sub, (cls, capture))
    return seen


@pytest.mark.parametrize("subcommand", [s for s in SUBCOMMANDS if s != "replay"])
def test_study_defaults_come_from_config_class(monkeypatch, subcommand):
    cls = CONFIGS[subcommand]
    built = study_config(cls, load_config(None), threads=3)
    if any(f.name == "threads" for f in dataclasses.fields(cls)):
        assert built.threads == 3
        built = replace(built, threads=1)
    assert built == cls()
    if subcommand in STUDIES:
        seen = _capture_studies(monkeypatch)
        run_study(subcommand, load_config(None), seed=1, threads=3)
        assert seen == [study_config(cls, load_config(None), threads=3)]


EXAMPLES = Path(__file__).resolve().parents[1] / "scripts" / "configs"


@pytest.mark.parametrize("name, subcommand, expected", [
    ("converge_time.cfg", "converge-time", TemporalOrderConfig()),
    ("bias.cfg", "bias", StationaryBiasConfig()),
    ("contraction.cfg", "contraction", ContractionConfig()),
    ("couple.cfg", "couple", CouplingStudyConfig(
        horizon=6.0, shells_controlled=4, forcing_shells=4,
        perturbations=(0.01, 0.1, 1.0))),
])
def test_example_configs_build_their_study(monkeypatch, name, subcommand, expected):
    seen = _capture_studies(monkeypatch)
    run_study(subcommand, load_config(str(EXAMPLES / name)), seed=1, threads=1)
    assert seen == [expected]


@pytest.mark.parametrize("path", sorted(EXAMPLES.glob("*.cfg")), ids=lambda p: p.name)
def test_every_example_config_builds(path):
    # each shipped config, named after its subcommand, builds that subcommand's config
    cls = CONFIGS[path.stem.replace("_", "-")]
    assert isinstance(study_config(cls, load_config(str(path))), cls)


# (subcommand, config text; for replay the run's manifest): each exits 2
BAD_CONFIGS = [
    ("converge-time", "[experiment]\nensembel = 1\n"),
    ("converge-time", "[experiment]\nrefien = 8\n"),
    ("converge-time", "[experiment]\nthreads = 4\n"),
    ("converge-time", "[experiment]\ndeltas = 0.02, 0.01, 0.005, 0.0025\n"
                      "[discretization]\ndelta_ladder = 0.02, 0.01, 0.005, 0.0025\n"),
    ("converge-time", "[experiment]\nnu = 2.0\n[physics]\nnu = 1.0\n"),
    ("converge-time", "[experiment]\nhorizon = abc\n"),
    ("converge-time", "[experiment]\nensemble = 2.5\n"),
    ("converge-time", "[initial]\namplitude = big\n"),
    ("converge-time", "[initial]\nmode_kz = 1\n"),
    ("weak", "[observable]\nkind = no-such-observable\n"),
    ("couple", "[nudge]\nbeta = strong\n"),
    ("couple", "[nudge]\ncompute_shifts = 1\n"),
    ("simulate", "[experiment]\nstepz = 4\n"),
    ("simulate", "[discretization]\nshells = abc\n"),
    ("simulate", "[discretization]\nsolver = krylov\n"),
    ("simulate", "[io]\ncheckpoint_cadence = abc\n"),
    ("simulate", "[forcing]\npreset = explicit\ndir1 = 1, 0, tan, 0.3\n"),
    ("simulate", "[forcing]\npreset = explicit\ndir1 = 99, 0, cos, 1.0\n"),
    ("simulate", "[forcing]\npreset = explicit\ndir1 = 1, 0, cos, inf\n"),
    ("simulate", "[forcing]\nshells = 0\n"),
    ("simulate", "[forcing]\nvariance = -1\n"),
    ("simulate", "[forcing]\nvariance = nan\n"),
    ("simulate", "[forcing]\namplitudes = 0.1, 0.1\n"),
    ("simulate", "[physics]\nnu = nan\n"),
    ("simulate", "[discretization]\ndelta = inf\n"),
    ("simulate", "[discretization]\ndelta0 = nan\n"),
    ("simulate", "[discretization]\ntol = nan\n"),
    ("converge-time", "[forcing]\npreset = low-mode\n"),
    ("converge-space", "[discretization]\nsolver = krylov\n"),
    ("converge-space", "[experiment]\nreference_shells = many\n"),
    ("holder", "[distance]\neps = 0.1\n"),
    # the weak study reads only s of [distance]
    ("weak", "[distance]\neps = 0.1\n"),
    ("weak", "[distance]\nalpha = 0.01\n"),
    ("holder", "[discretization]\ndelta = fast\n"),
    ("holder", "[experiment]\nensemble = 0\n"),
    ("weak", "[experiment]\nensemble = 0\n"),
    ("converge-space", "[experiment]\nensemble = 0\n"),
    ("contraction", "[nudge]\nbeta = 1.0\n"),
    ("contraction", "[distance]\nalpha = big\n"),
    ("weak", "[forcing]\npreset = explicit\n"),
    ("weak", "[observable]\nradius = wide\n"),
    ("bias", "[discretization]\ndelta0 = 0.1\n"),
    ("bias", "[experiment]\nn_ladder = 10, x, 40\n"),
    ("couple", "[discretization]\nsolver = krylov\ntol = 1e-3\n"),
    ("couple", "[forcing]\nshells = 0\n"),
    ("couple", "[forcing]\nvariance = -1\n"),
    ("contraction", "[forcing]\nshells = 0\n"),
    ("contraction", "[forcing]\nvariance = -1\n"),
    ("lyapunov", "[experiment]\nseeds = 2\n"),
    ("lyapunov", "[experiment]\nmargin_factor = wide\n"),
    ("certify-metric", "[initial]\nkind = zero\n"),
    ("certify-metric", "[distance]\neps = abc\n"),
    # a non-finite float or an empty list, whichever field it sets
    ("couple", "[experiment]\nperturbations = ,\n"),
    ("couple", "[experiment]\nhorizon = nan\n"),
    ("couple", "[experiment]\nhorizon = inf\n"),
    ("contraction", "[experiment]\nhorizon = nan\n"),
    ("converge-time", "[experiment]\nhorizon = nan\n"),
    ("lyapunov", "[experiment]\nhorizon = nan\n"),
    ("contraction", "[experiment]\nshells_list = ,\n"),
    ("contraction", "[experiment]\ndeltas = ,\n"),
    ("weak", "[experiment]\nshells_list = ,\n"),
    ("weak", "[experiment]\ndeltas = ,\n"),
    # a horizon that is not a whole number of steps (of every rung, of record_time)
    ("couple", "[experiment]\nhorizon = 0.015\n[discretization]\ndelta = 0.01\n"),
    ("contraction", "[experiment]\nhorizon = 1.0\ndeltas = 0.03, 0.01\n"),
    ("lyapunov", "[experiment]\nhorizon = 0.07\n"),
    ("weak", "[experiment]\nhorizon = 0.5\nrecord_time = 0.2\n"),
    ("replay", "[experiment]\nsteps = 2\n"),
    ("replay", "[meta]\nsubcommand = simulate\n"),
    ("replay", "[meta]\nsubcommand = simulate\nseed = abc\n"),
    ("replay", "[meta]\nsubcommand = simulate\nseed = 1\n[experiment]\nstepz = 4\n"),
] + [(sub, "[reproducibility]\nseed = abc\n") for sub in SUBCOMMANDS if sub != "replay"]


@pytest.mark.parametrize("subcommand, text", BAD_CONFIGS)
def test_bad_study_config_is_config_error(monkeypatch, tmp_path, subcommand, text):
    seen = _capture_studies(monkeypatch)
    if subcommand == "replay":
        (tmp_path / "manifest.cfg").write_text(text)
        argv = ["replay", str(tmp_path)]
    else:
        argv = [subcommand, "--config", _write_config(tmp_path, text)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert seen == []


def test_empty_perturbation_flag_is_config_error(monkeypatch, tmp_path):
    seen = _capture_studies(monkeypatch)
    assert main(["couple", "--perturbation", ",", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert seen == []


@pytest.mark.parametrize("key, val", [("shells", 0), ("variance", -1.0),
                                      ("variance", float("nan"))])
def test_forcing_checked_for_every_subcommand(key, val):
    cfg = load_config(None)
    cfg.sections["forcing"] = {key: val}
    for cls in CONFIGS.values():
        with pytest.raises(ConfigError) as err:
            study_config(cls, cfg)
        assert err.value.field == f"forcing.{key}"


def test_import_loads_no_scipy():
    # neither the import nor an exact transport (an assignment) loads scipy;
    # the tracer's lookup of measures.linprog still finds scipy's LP
    src = str(Path(snselab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, numpy as np, snselab.runner\n"
            "from snselab import measures, spectral\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "grid = spectral.SpectralGrid(3)\n"
            "a = np.zeros((2, 2 * grid.n_half))\n"
            "measures.wasserstein_exact(a, a, 'rho', measures.DistanceParams(1.0, 1.0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from scipy.optimize import linprog\n"
            "print(getattr(measures, 'linprog') is linprog)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["[]", "[]", "True"]


# values out of range, with the field each names; a seed keys the 64-bit cipher
OUT_OF_RANGE = {
    ("simulate", "[reproducibility]\nseed = -1\n"): "reproducibility.seed",
    ("couple", "--seed", "-3"): "reproducibility.seed",
    ("weak", "--seed", str(2 ** 64)): "reproducibility.seed",
    ("simulate", "[initial]\nkind = random\namplitude = -2\n"): "initial.amplitude",
    ("simulate", "[io]\ncheckpoint_cadence = -5\n"): "io.checkpoint_cadence",
    ("couple", "[initial]\ncell = -1\n"): "initial.cell",
    ("simulate", "[initial]\nspectral_slope = 1e308\n"): "initial.spectral_slope",
    # a mode that is not a wavevector of the grid that reads it
    ("simulate", "--steps", "2",
     "[discretization]\nshells = 6\n[initial]\nkind = harmonic\nmode_kx = 9\n"): "initial.mode",
    ("weak", "[experiment]\nshells_list = 3, 4\nreference_shells = 6\n[forcing]\nshells = 2\n"
             "[observable]\nkind = low-mode-coefficient\nmode_kx = 5\n"): "observables",
    ("contraction", "[experiment]\ngap_mode = 9, 0\n"): "gap_mode",
    ("weak", "[distance]\ns = 2\n"): "s",
    ("weak", "[distance]\ns = 0\n"): "s",
    # a delta off the smallest one's steps, a record time off a delta's steps
    ("contraction", "[experiment]\ndeltas = 0.03, 0.02\nhorizon = 1.2\n"): "deltas",
    ("contraction", "[experiment]\nrecord_time = 0.25\n"): "record_time",
    ("couple", "[experiment]\ngap_mode = 9, 0\n"): "gap_mode",
}


# an argument that starts with "[" is the text of the run's config file
@pytest.mark.parametrize("argv", [["simulate", "--steps", "-3"],
                                  ["certify-metric", "--triples", "0", "--enforce"],
                                  ["couple", "--ensemble", "0"],
                                  ["couple", "--horizon", "-1"],
                                  ["lyapunov", "[experiment]\nn_seeds = 0\n"],
                                  ["lyapunov", "[experiment]\nensemble = 0\n"],
                                  ["bias", "[experiment]\nreplicas = 0\n"],
                                  ["converge-time", "[experiment]\nensemble = 0\n"]]
                         + [list(argv) for argv in OUT_OF_RANGE])
def test_negative_or_zero_counts_exit_2(tmp_path, caplog, argv):
    field = OUT_OF_RANGE.get(tuple(argv))
    argv = [f"--config={_write_config(tmp_path, a)}" if a.startswith("[") else a
            for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    if field is not None:
        assert f"configuration error: {field}: " in caplog.text
        assert not (tmp_path / "out").exists()


def test_flag_replaces_other_spelling_of_its_field(monkeypatch, tmp_path):
    seen = _capture_studies(monkeypatch)
    path = _write_config(tmp_path, "[nudge]\nperturbation = 0.01\n"
                                   "[experiment]\nshells_controlled = 4\n")
    code = main(["couple", "--config", path, "--perturbation", "0.1, 1.0",
                 "--nudge-shells", "6", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert seen[0].perturbations == (0.1, 1.0) and seen[0].shells_controlled == 6


def test_contraction_forcing_outside_cutoff_exits_2(tmp_path):
    # forcing over 4 shells does not fit the 3-shell rung; the study refuses it
    path = _write_config(tmp_path, "[forcing]\nshells = 4\n")
    code = main(["contraction", "--config", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG


def test_couple_without_config_runs(tmp_path):
    out = tmp_path / "couple"
    code = main(["couple", "--horizon", "0.05", "--ensemble", "2", "--out", str(out)])
    assert code == EXIT_OK
    manifest = (out / "manifest.cfg").read_text()
    # the manifest holds what the flags set; the defaults live in the build
    assert "[experiment]" in manifest and "[nudge]" not in manifest
    assert "[physics]" not in manifest
    summary = json.loads((out / "summary.json").read_text())
    expected = asdict(CouplingStudyConfig(horizon=0.05, ensemble=2))
    del expected["threads"]
    assert summary["config"] == json.loads(json.dumps(expected))
    assert main(["replay", str(out), "--out", str(tmp_path / "replayed")]) == EXIT_OK


def test_couple_subcommand_bundle(tmp_path):
    out = tmp_path / "couple"
    code = main(["couple", "--config", _fast_couple_config(tmp_path),
                 "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema"] == "snse-lab/1"
    assert (out / "tables" / "gap_series.csv").exists()
    assert (out / "tables" / "perturbations.csv").exists()
    assert summary["checks"]["gap-decay"] is True


def test_certify_metric_subcommand(tmp_path):
    out = tmp_path / "certify"
    code = main(["certify-metric", "--seed", "1", "--triples", "500",
                 "--out", str(out), "--enforce"])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["metric-axioms"] is True
    assert summary["checks"]["weighted-triangle"] is True


def test_replay_reproduces_bytes(tmp_path):
    out = tmp_path / "orig"
    code = main(["couple", "--config", _fast_couple_config(tmp_path),
                 "--seed", "4", "--out", str(out)])
    assert code == EXIT_OK
    replay_out = tmp_path / "replayed"
    code = main(["replay", str(out), "--out", str(replay_out)])
    assert code == EXIT_OK
    for orig in sorted(out.rglob("*.csv")):
        twin = replay_out / orig.relative_to(out)
        assert twin.read_bytes() == orig.read_bytes()


def _fast_contraction_config(tmp_path):
    # four (shells, delta) cells on one ladder, in one thread
    return _write_config(tmp_path, """
[experiment]
shells_list = 3, 4
deltas = 0.02, 0.01
horizon = 1.0
record_time = 0.2
ensemble = 8
""")


def _fast_lyapunov_config(tmp_path):
    # two seeds, so `_pmap` runs them on more than one thread
    return _write_config(tmp_path, """
[discretization]
shells = 6

[experiment]
horizon = 1.0
ensemble = 4
n_seeds = 2
""")


@pytest.mark.parametrize("subcommand, make_config", [
    ("couple", _fast_couple_config), ("contraction", _fast_contraction_config),
    ("lyapunov", _fast_lyapunov_config)],
    ids=["couple", "contraction", "lyapunov"])
def test_thread_count_changes_nothing(tmp_path, subcommand, make_config):
    cfgp = make_config(tmp_path)
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        code = main([subcommand, "--config", cfgp, "--seed", "5",
                     "--threads", str(threads), "--out", str(out)])
        assert code == EXIT_OK
        outs.append(out)
    files = sorted(f.relative_to(outs[0]) for f in outs[0].rglob("*") if f.is_file())
    assert files == sorted(f.relative_to(outs[1]) for f in outs[1].rglob("*") if f.is_file())
    assert (outs[0] / "tables").is_dir()
    for f in files:
        assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes(), f


def test_enforce_gates_exit_code(tmp_path):
    # an impossible band: a deterministic run has strong order ~1, so its
    # p = 1 moment slope is ~1, far outside [0.40, 0.60]; --enforce must exit 4
    path = _write_config(tmp_path, """
[discretization]
shells = 6

[experiment]
deltas = 0.05, 0.025, 0.0125, 0.00625
horizon = 0.2
ensemble = 1
refine = 4
p_moment = 1.0

[forcing]
variance = 0
""")
    code = main(["converge-time", "--config", path, "--seed", "0",
                 "--out", str(tmp_path / "enf"), "--enforce"])
    assert code == EXIT_ACCEPTANCE


def test_simulate_with_cadence_and_replay(tmp_path):
    cfgp = _write_config(tmp_path, """
[discretization]
shells = 8
delta = 0.05

[io]
checkpoint_cadence = 2
""")
    out = tmp_path / "sim"
    code = main(["simulate", "--config", cfgp, "--steps", "6", "--seed", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    cks = sorted(out.glob("checkpoints/*/state_*.fld"))
    steps = [int(p.stem.split("_")[1]) for p in cks]
    assert 0 in steps and 6 in steps and all(s % 2 == 0 for s in steps)
    replay_out = tmp_path / "sim-replay"
    assert main(["replay", str(out), "--out", str(replay_out)]) == EXIT_OK


@pytest.mark.parametrize("steps, stride, cadence", [(7, 1, 3), (10, 3, 4), (5, 10, 0),
                                                    (6, 2, 0), (7, 10, 0)])
def test_simulate_checkpoints_the_recorded_steps_at_cadence_and_the_last(
        tmp_path, steps, stride, cadence):
    # checkpoints: step 0, the multiples of the cadence and the final step,
    # whatever the stride, each the file of a run that checkpoints every
    # step; the stride thins the diagnostics to its multiples
    def run(name, stride, cadence):
        cfgp = _write_config(tmp_path, f"""
[discretization]
shells = 8
delta = 0.05

[reproducibility]
record_stride = {stride}

[io]
checkpoint_cadence = {cadence}
""")
        out = tmp_path / name
        assert main(["simulate", "--config", cfgp, "--steps", str(steps), "--seed", "4",
                     "--out", str(out)]) == EXIT_OK
        ckpts = {p.name: p.read_bytes() for p in out.glob("checkpoints/*/state_*")}
        lines = (out / "tables" / "diagnostics.csv").read_text().splitlines()
        summary = json.loads((out / "summary.json").read_text())
        return ckpts, lines, summary["scalars"]["final_energy_sq"]

    every, every_lines, every_final = run("every", 1, 1)
    got, lines, final = run("run", stride, cadence)
    want = {0, steps} | {n for n in range(steps + 1) if cadence and n % cadence == 0}
    assert sorted(got) == sorted(f"state_{n:08d}.{ext}" for n in want for ext in ("fld", "json"))
    assert all(got[name] == every[name] for name in got)
    assert lines == every_lines[:1] + every_lines[1::stride]
    assert final == every_final


def test_explicit_forcing_preset(tmp_path):
    cfgp = _write_config(tmp_path, """
[discretization]
shells = 8
delta = 0.05

[forcing]
preset = explicit
dir1 = 1, 0, cos, 0.3
dir2 = 0, 1, sin, 0.3
""")
    out = tmp_path / "explicit"
    code = main(["simulate", "--config", cfgp, "--steps", "4", "--seed", "3",
                 "--out", str(out)])
    assert code == EXIT_OK


def test_holder_subcommand(tmp_path):
    cfgp = _write_config(tmp_path, """
[discretization]
shells = 8
delta = 0.005

[experiment]
burn_steps = 16
window_steps = 128
lag_min_steps = 2
lag_max_steps = 100
ensemble = 8
""")
    out = tmp_path / "holder"
    code = main(["holder", "--config", cfgp, "--seed", "2", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert "holder-band" in summary["checks"]


def test_converge_space_subcommand(tmp_path):
    cfgp = _write_config(tmp_path, """
[discretization]
delta = 0.01

[forcing]
shells = 3

[experiment]
shells_list = 3, 4, 6, 8
reference_shells = 12
horizon = 0.1
ensemble = 8
""")
    out = tmp_path / "space"
    code = main(["converge-space", "--config", cfgp, "--seed", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "tables" / "rungs.csv").exists()


def test_weak_subcommand(tmp_path):
    cfgp = _write_config(tmp_path, """
[experiment]
shells_list = 4, 6
deltas = 0.04, 0.02
reference_shells = 8
reference_delta = 0.01
horizon = 0.4
record_time = 0.2
ensemble = 8
""")
    out = tmp_path / "weak"
    code = main(["weak", "--config", cfgp, "--seed", "2", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["study"] == "weak-error"


def test_lyapunov_subcommand(tmp_path):
    cfgp = _write_config(tmp_path, """
[experiment]
n_seeds = 2
ensemble = 4
horizon = 0.1
""")
    out = tmp_path / "lyapunov"
    code = main(["lyapunov", "--config", cfgp, "--seed", "2", "--out", str(out)])
    assert code == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert "envelope_95pct" in summary["checks"]
    assert (out / "tables" / "seeds.csv").exists()
    assert main(["replay", str(out), "--out", str(tmp_path / "replayed")]) == EXIT_OK


def test_replay_of_manifest_without_meta_exits_2(tmp_path, caplog):
    out = tmp_path / "sim"
    assert main(["simulate", "--steps", "2", "--out", str(out)]) == EXIT_OK
    manifest = configparser.ConfigParser()
    manifest.read(out / "manifest.cfg")
    manifest.remove_section("meta")
    with open(out / "manifest.cfg", "w") as fh:
        manifest.write(fh)
    caplog.clear()
    assert main(["replay", str(out)]) == EXIT_CONFIG
    assert "meta.subcommand" in caplog.text


def test_simulate_manifest_holds_only_what_was_set(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--steps", "3", "--seed", "4", "--out", str(out)]) == EXIT_OK
    manifest = configparser.ConfigParser()
    manifest.read(out / "manifest.cfg")
    assert manifest.sections() == ["meta", "experiment"]
    assert dict(manifest["experiment"]) == {"steps": "3"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["steps"] == 3 and summary["config"]["shells"] == 16
    assert summary["scalars"]["steps"] == 3
