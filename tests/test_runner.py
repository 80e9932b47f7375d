import configparser
import dataclasses
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import snselab
from snselab import experiments
from snselab.errors import ConfigError, StructuralError
from snselab.experiments import (BANDS, ContractionConfig, CouplingStudyConfig,
                                 StationaryBiasConfig, StudyReport, TemporalOrderConfig)
from snselab.forcing import low_mode_basis
from snselab.integrator import SchemeParams, batch_increments, run_scheme
from snselab.spectral import SpectralField
from snselab.runner import (EXIT_ACCEPTANCE, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK,
                            SUBCOMMANDS, build_forcing, checkpoint, config_class,
                            load_config, main, restore, run_study, study_config)
from snselab.spectral import make_grid, random_field

from helpers import record
from test_acceptance import GATES, SEED as GATE_SEED


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
    assert "discretization.delta_ladder: ladder must be strictly monotone" in caplog.text


def test_simulate_zero_steps_emits_manifest_and_checkpoint(tmp_path):
    out = tmp_path / "run0"
    code = main(["simulate", "--steps", "0", "--seed", "7", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "manifest.cfg").exists()
    assert (out / "summary.json").exists()
    cks = list(out.glob("checkpoints/*/state_00000000.fld"))
    assert len(cks) == 1


@pytest.mark.parametrize("text, shells, variance", [
    ("", 4, 0.5),
    ("[forcing]\npreset = low-mode\nshells = 2\nvariance = 0.3\n", 2, 0.3)])
def test_simulate_forcing_is_the_studies_low_mode_basis(tmp_path, text, shells, variance):
    # simulate's one forcing, with SimulateConfig's defaults, built as every study builds it
    grid = make_grid(8)
    got = build_forcing(load_config(_write_config(tmp_path, text)), grid)
    want = low_mode_basis(grid, shells, variance)
    assert got.coeff_matrix.tobytes() == want.coeff_matrix.tobytes()


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
        full, full_states = record(run_scheme, g, f.coeffs, n_steps, p, basis, tape)
        _, half = record(run_scheme, g, f.coeffs, n_steps // 2, p, basis, tape)
        where = tmp_path / str(n_steps)
        checkpoint(SpectralField(g, half[-1, 0]), p, seed=9, trajectory_id=0,
                   step_index=n_steps // 2, directory=where)
        state, params, seed, traj, step = restore(where / f"state_{n_steps // 2:08d}.fld")
        # index-addressed tape: continuation reads cells step.. of the same trajectory
        inc = batch_increments(seed, [traj], basis.d, params.delta)
        resumed, states = record(run_scheme, g, state.coeffs, n_steps - step, params, basis,
                                 lambda n0, n1: inc(n0 + step, n1 + step))
        assert np.array_equal(states, full_states[step:])
        assert np.array_equal(resumed.energy_sq, full.energy_sq[step:])


def test_version_1_sidecar_restores_like_version_2(tmp_path):
    # version 1 and 2 sidecars also held delta0, and version 1 the solver
    # policy and sweep budget; each restores like the version 3 one written
    g = make_grid(8)
    p = SchemeParams(1.0, 0.02, 8, tol=1e-11)
    checkpoint(random_field(g, seed=3), p, 4, 1, 7, tmp_path)
    fresh = restore(tmp_path / "state_00000007.fld")
    meta = json.loads((tmp_path / "state_00000007.json").read_text())
    assert meta["format_version"] == 3 and "delta0" not in meta["params"]
    extra = {1: {"delta0": 0.05, "solver": "krylov", "max_iter": 50}, 2: {"delta0": 0.05}}
    for version, params in extra.items():
        (tmp_path / "state_00000007.json").write_text(json.dumps({
            "format_version": version, "step_index": 7, "seed": 4, "trajectory_id": 1,
            "params": {"nu": 1.0, "delta": 0.02, "shells": 8, "tol": 1e-11, **params}}))
        old = restore(tmp_path / "state_00000007.fld")
        assert old[1] == fresh[1] == p
        assert np.array_equal(old[0].coeffs, fresh[0].coeffs)
        assert old[2:] == fresh[2:] == (4, 1, 7)


def test_unknown_checkpoint_version_is_rejected(tmp_path):
    checkpoint(random_field(make_grid(16), seed=3), SchemeParams(1.0, 0.01, 16),
               0, 0, 5, tmp_path)
    meta = json.loads((tmp_path / "state_00000005.json").read_text())
    meta["format_version"] = 4
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

    lookup = experiments.study
    monkeypatch.setattr(experiments, "study", lambda sub: (lookup(sub)[0], capture))
    return seen


@pytest.mark.parametrize("subcommand", [s for s in SUBCOMMANDS if s != "replay"])
def test_study_defaults_come_from_config_class(monkeypatch, subcommand):
    cls = config_class(subcommand)
    built = study_config(cls, load_config(None), threads=3)
    if any(f.name == "threads" for f in dataclasses.fields(cls)):
        assert built.threads == 3
        built = replace(built, threads=1)
    assert built == cls()
    if subcommand in experiments.STUDIES:
        seen = _capture_studies(monkeypatch)
        run_study(subcommand, load_config(None), seed=1, threads=3)
        assert seen == [study_config(cls, load_config(None), threads=3)]


EXAMPLES = Path(__file__).resolve().parents[1] / "scripts" / "configs"
# the fast CI tier's run shapes
FAST = EXAMPLES / "fast"
# gate config file -> the subcommand that runs it
GATE_FILES = {name: subcommand for subcommand, name, _ in GATES.values()}


def test_example_configs_are_the_gate_files():
    assert sorted(path.name for path in EXAMPLES.iterdir()) == sorted([*GATE_FILES, "fast"])


# the four example configs that became gate files, by their former names;
# each former name is its subcommand's
FORMER_EXAMPLES = {"converge_time.cfg": "gate03.cfg", "bias.cfg": "gate13.cfg",
                   "contraction.cfg": "gate09.cfg", "couple.cfg": "gate08.cfg"}


@pytest.mark.parametrize("name, subcommand, expected", [
    ("converge_time.cfg", "converge-time", TemporalOrderConfig()),
    ("bias.cfg", "bias", StationaryBiasConfig()),
    ("contraction.cfg", "contraction", ContractionConfig()),
    ("couple.cfg", "couple", CouplingStudyConfig(
        horizon=6.0, shells_controlled=4, forcing_shells=4,
        perturbations=(0.01, 0.1, 1.0), ensemble=128)),
])
def test_example_configs_build_their_study(monkeypatch, name, subcommand, expected):
    seen = _capture_studies(monkeypatch)
    run_study(subcommand, load_config(str(EXAMPLES / FORMER_EXAMPLES[name])),
              seed=GATE_SEED, threads=1)
    assert seen == [expected]


@pytest.mark.parametrize("name", sorted(FORMER_EXAMPLES))
def test_every_example_config_builds(name):
    # each former example's gate file runs the subcommand its old name gave
    subcommand = Path(name).stem.replace("_", "-")
    gate_file = FORMER_EXAMPLES[name]
    assert GATE_FILES[gate_file] == subcommand
    cls = config_class(subcommand)
    assert isinstance(study_config(cls, load_config(str(EXAMPLES / gate_file))), cls)


@pytest.mark.parametrize("name", sorted(GATE_FILES))
def test_every_gate_file_builds(name):
    # each gate file builds its subcommand's config at the gates' seed, and
    # every key it sets moves a field off the config class's default (a key
    # sets one field, and no field twice)
    cfg = load_config(str(EXAMPLES / name))
    cls = config_class(GATE_FILES[name])
    built = study_config(cls, cfg)
    assert cfg.get("reproducibility", "seed") == GATE_SEED
    keys = [f"{section}.{key}" for section, body in cfg.sections.items() for key in body
            if f"{section}.{key}" not in ("reproducibility.seed", "io.out_dir")]
    moved = [f.name for f in dataclasses.fields(cls)
             if getattr(built, f.name) != getattr(cls(), f.name)]
    assert len(moved) == len(keys)
    if cls is ContractionConfig:
        # gate 10 reads the exact transport's check from this file's ledger
        assert built.ensemble <= built.exact_limit


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
    ("bias", "[observable]\nkind = low-mode-coefficient\nmode_kind = tan\n"),
    ("simulate", "[initial]\nkind = harmonic\nmode_kind = tan\n"),
    ("couple", "[nudge]\nbeta = strong\n"),
    ("couple", "[nudge]\ncompute_shifts = 1\n"),
    ("simulate", "[experiment]\nstepz = 4\n"),
    ("simulate", "[discretization]\nshells = abc\n"),
    ("simulate", "[discretization]\nsolver = krylov\n"),
    ("simulate", "[io]\ncheckpoint_cadence = abc\n"),
    # the low-mode forcing is simulate's only one: a well-formed explicit one is refused
    ("simulate", "[forcing]\npreset = explicit\ndir1 = 1, 0, cos, 0.3\n"),
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
    # [meta] is the manifest's own section; replay removes it before it runs
    ("simulate", "[meta]\n"),
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
    for subcommand in [s for s in SUBCOMMANDS if s != "replay"]:
        with pytest.raises(ConfigError) as err:
            study_config(config_class(subcommand), cfg)
        assert err.value.field == f"forcing.{key}"


def test_import_loads_no_scipy(tmp_path):
    # neither the import, an exact transport (an assignment) nor a step that
    # the fixed point hands over to the Chebyshev fall-back loads scipy; the
    # tracer's lookup of measures.linprog still finds scipy's LP.  Nor do
    # the import, a grid and a random initial field load concurrent.futures,
    # which only a run on more than one thread needs.  Neither the import nor
    # a simulate run loads a study's module, and naming a study's config
    # class loads that study's module alone
    src = str(Path(snselab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, numpy as np, snselab.runner\n"
            "def studies():\n"
            "    return sorted(m for m in sys.modules if m.startswith('snselab.experiments.'))\n"
            "print(studies())\n"
            "from snselab import measures, spectral\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "spectral.random_field(spectral.make_grid(16), 1, rms=1.0, spectral_slope=-3.0)\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'concurrent'])\n"
            "grid = spectral.SpectralGrid(3)\n"
            "a = np.zeros((2, 2 * grid.n_half))\n"
            "measures.wasserstein_exact(a, a, measures.DistanceParams(1.0, 1.0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from snselab import integrator\n"
            "solve, calls = integrator._chebyshev_solve, []\n"
            "integrator._chebyshev_solve = lambda *args: calls.append(1) or solve(*args)\n"
            "grid = spectral.make_grid(16)\n"
            "c0 = [spectral.random_field(grid, s, rms=50.0).coeffs for s in range(4)]\n"
            "integrator.run_scheme(grid, np.stack(c0), 1, integrator.SchemeParams(1.0, 1.0, 16),\n"
            "                      None, None)\n"
            "print(len(calls), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "from scipy.optimize import linprog\n"
            "print(getattr(measures, 'linprog') is linprog)\n"
            "assert snselab.runner.main(['simulate', '--steps', '2', '--out', sys.argv[1]]) == 0\n"
            "print(studies())\n"
            "from snselab import experiments\n"
            "experiments.TemporalOrderConfig\n"
            "print(studies())")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "sim")], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["[]", "[]", "[]", "[]", "1", "[]", "True", "[]",
                                  "['snselab.experiments.temporal']"]


# values out of range, with the key each names, whether the config class or
# the run rejects it; a seed keys the 64-bit cipher
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
             "[observable]\nkind = low-mode-coefficient\nmode_kx = 5\n"): "observable.mode",
    ("contraction", "[experiment]\ngap_mode = 9, 0\n"): "experiment.gap_mode",
    ("weak", "[distance]\ns = 2\n"): "distance.s",
    ("weak", "[distance]\ns = 0\n"): "distance.s",
    # a delta off the smallest one's steps, a record time off a delta's steps
    ("contraction", "[experiment]\ndeltas = 0.03, 0.02\nhorizon = 1.2\n"): "experiment.deltas",
    ("contraction", "[experiment]\nrecord_time = 0.25\n"): "experiment.record_time",
    ("couple", "[experiment]\ngap_mode = 9, 0\n"): "experiment.gap_mode",
    # values on which a study divided by zero or reported a NaN exponent, a NaN
    # proxy or a negative envelope instead of exiting 2
    ("converge-time", "[experiment]\np_moment = 0\n"): "experiment.p_moment",
    ("holder", "[experiment]\nmoment = 0\n"): "experiment.moment",
    ("contraction", "[experiment]\nensemble = 0\n"): "experiment.ensemble",
    ("holder", "[experiment]\nburn_steps = -5\n"): "experiment.burn_steps",
    ("bias", "[experiment]\nreference_steps = 0\n"): "experiment.reference_steps",
    ("lyapunov", "[experiment]\nmargin_factor = -1\n"): "experiment.margin_factor",
    # an exponential moment of weight alpha <= 0 and a bootstrap of no
    # resample, which reported a meaningless ratio and a NaN half-width
    ("lyapunov", "[experiment]\nalpha = -1\n"): "experiment.alpha",
    ("lyapunov", "[experiment]\nalpha = 0\n"): "experiment.alpha",
    ("holder", "[experiment]\nn_boot = -3\n"): "experiment.n_boot",
    ("converge-time", "[experiment]\nn_boot = 0\n"): "experiment.n_boot",
    # the record stride of a path, and of the spatial study's sup
    ("simulate", "[reproducibility]\nrecord_stride = 0\n"): "reproducibility.record_stride",
    ("converge-space", "[reproducibility]\nrecord_stride = 0\n"):
        "reproducibility.record_stride",
    # a nested section's own check names the field within its section
    ("bias", "[observable]\nkind = low-mode-coefficient\nmode_kind = tan\n"):
        "observable.mode_kind",
    ("simulate", "[initial]\nkind = harmonic\nmode_kind = tan\n"): "initial.mode_kind",
    ("weak", "[observable]\nkind = x\n"): "observable.kind",
    ("simulate", "[initial]\nkind = x\n"): "initial.kind",
    # a value that the scheme's parameters, which the run builds, reject
    ("simulate", "[physics]\nnu = -1\n"): "physics.nu",
    # a shell count below 1, which reached spectral.eigenvalue_shells' ValueError
    ("lyapunov", "[discretization]\nshells = -1\n"): "discretization.shells",
    ("holder", "[discretization]\nshells = -1\n"): "discretization.shells",
    ("converge-time", "[discretization]\nshells = -1\n"): "discretization.shells",
    ("certify-metric", "[discretization]\nshells = -1\n"): "discretization.shells",
    ("couple", "[nudge]\nshells = -1\n"): "nudge.shells",
    # a zero size starts the nudged copy on the plain one, whose ledger held
    # no contraction yet passed
    ("couple", "--perturbation", "0", "--enforce"): "experiment.perturbations",
    ("couple", "[nudge]\nperturbation = 0.1, 0\n"): "nudge.perturbation",
    # inputs no subcommand reads: an explicit forcing, its directions, an
    # amplitude list and delta0
    ("simulate", "[forcing]\npreset = explicit\n"): "forcing.preset",
    ("simulate", "[forcing]\ndir1 = 1, 0, cos, 0.3\n"): "forcing.dir1",
    ("simulate", "[forcing]\namplitudes = 0.1, 0.1\n"): "forcing.amplitudes",
    ("simulate", "[discretization]\ndelta0 = 0.1\n"): "discretization.delta0",
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
def test_negative_or_zero_counts_exit_2(monkeypatch, tmp_path, caplog, argv):
    # every such value is refused before any study runs
    seen = _capture_studies(monkeypatch)
    field = OUT_OF_RANGE.get(tuple(argv))
    argv = [f"--config={_write_config(tmp_path, a)}" if a.startswith("[") else a
            for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert seen == []
    if field is not None:
        assert f"configuration error: {field}: " in caplog.text
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, key", [
    # NudgeParams, which the coupling study builds, needs nu lambda_{K+1} >= 2 beta
    (["couple", "--beta", "100"], "nudge.beta"),
    # the Lyapunov study caps alpha by the variance of the forcing it builds
    (["lyapunov", "[experiment]\nalpha = 10\n"], "experiment.alpha"),
    # the gain floor divides by nu^5, which underflows to zero (a ZeroDivisionError once)
    (["couple", "[physics]\nnu = 1e-300\n"], "physics.nu"),
    # a forcing of rank zero cannot carry the Girsanov shift: it exited 3, at
    # step 1 or after the whole march
    (["couple", "[forcing]\nvariance = 0\n"], "forcing.variance"),
    (["couple", "[forcing]\nvariance = 1e-300\n"], "forcing.variance")])
def test_a_study_names_the_key_that_set_a_field_it_refuses(tmp_path, caplog, argv, key):
    argv = [f"--config={_write_config(tmp_path, a)}" if a.startswith("[") else a
            for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"configuration error: {key}: " in caplog.text
    assert not (tmp_path / "out").exists()


def test_a_hopeless_step_exits_3_naming_kappa(tmp_path, caplog):
    # at amplitude 1e30 the fixed point diverges, and the Chebyshev fall-back
    # would need far more maps than it may make: it refuses before it sweeps
    path = _write_config(tmp_path, "[discretization]\nshells = 10\ndelta = 0.05\n"
                                   "[experiment]\nsteps = 3\n[initial]\namplitude = 1e30\n")
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert "numerical error: the Chebyshev fall-back needs more than" in caplog.text
    assert "maps at kappa = " in caplog.text
    # the line names the step the march was taking
    (line,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert line.endswith(" (step 1)")


@pytest.mark.parametrize("variance, alpha, code", [
    # no forcing leaves alpha uncapped (a ZeroDivisionError once)
    (0.0, 0.1, EXIT_OK),
    # nu / (4 |sigma|^2) = 0.5 caps alpha: at the cap the run goes ahead, above it not
    (0.5, 0.5, EXIT_OK),
    (0.5, 0.51, EXIT_CONFIG)])
def test_lyapunov_caps_alpha_by_the_forcing_variance(tmp_path, caplog, variance, alpha,
                                                     code):
    path = _write_config(tmp_path, f"[forcing]\nvariance = {variance}\n"
                                   "[discretization]\nshells = 4\n"
                                   "[experiment]\nhorizon = 0.2\nensemble = 2\n"
                                   f"n_seeds = 1\nalpha = {alpha}\n")
    assert main(["lyapunov", "--config", path, "--out", str(tmp_path / "out")]) == code
    refused = "configuration error: experiment.alpha: " in caplog.text
    assert refused == (code == EXIT_CONFIG)


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


# the contraction run steps four (shells, delta) cells on one ladder in one
# thread; the Lyapunov run has two seeds, so `_pmap` spreads them over threads
@pytest.mark.parametrize("subcommand, make_config", [
    ("couple", _fast_couple_config),
    ("contraction", lambda tmp_path: str(FAST / "contraction.cfg")),
    ("lyapunov", lambda tmp_path: str(FAST / "lyapunov.cfg"))],
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


@pytest.mark.parametrize("subcommand", ["couple", "contraction", "converge-time",
                                        "converge-space", "holder", "bias", "lyapunov"])
def test_ledger_fails_when_its_bands_cannot_hold(monkeypatch, subcommand):
    # the ledger is what a gate passes on: on the fast CI tier's run of each
    # banded study it holds checks, and with every band of the study moved
    # above any statistic (its r^2 floor kept) it fails
    cfg = load_config(str(FAST / f"{subcommand}.cfg"))
    report = run_study(subcommand, cfg, seed=3, threads=1)
    assert report.checks
    bands = BANDS[report.name]
    for lo in (1e300, math.inf):
        monkeypatch.setitem(BANDS, report.name, {
            key: band._replace(lo=lo) for key, band in bands.items()})
        assert not run_study(subcommand, cfg, seed=3, threads=1).passed()


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


def test_replay_flags_a_file_the_run_lacks(tmp_path, caplog):
    out = tmp_path / "sim"
    assert main(["simulate", "--steps", "5", "--out", str(out)]) == EXIT_OK
    (out / "tables" / "diagnostics.csv").unlink()
    assert main(["replay", str(out)]) == EXIT_ACCEPTANCE
    assert "missing from run: tables/diagnostics.csv" in caplog.text


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


def test_converge_space_with_two_rungs_fails_under_enforce(tmp_path):
    # two rungs refuse the fit, so the ledger holds no check
    path = _write_config(tmp_path, """
[discretization]
delta = 0.01

[forcing]
shells = 3

[experiment]
shells_list = 3, 4
reference_shells = 8
horizon = 0.05
ensemble = 2
""")
    out = tmp_path / "space"
    code = main(["converge-space", "--config", path, "--seed", "2", "--out", str(out),
                 "--enforce"])
    assert code == EXIT_ACCEPTANCE
    assert json.loads((out / "summary.json").read_text())["checks"] == {}


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
