"""Command-line front end: configs, dispatch, artifacts, replay.

A run is described by an INI-style key-value file; command-line flags
override file values.  Every subcommand but `replay` builds its config
dataclass (`config_class`) from what the file and the flags set; every other
field keeps the dataclass default, and the manifest records only what
was set.  A key that the subcommand does not read is a configuration
error.  Every artifact in a run directory is a deterministic function of
(manifest, build): CSV tables, the JSON summary (schema "snse-lab/1"),
and checkpoints carry no timestamps or machine state, so `replay` can
regenerate and byte-compare them.

Exit codes: 0 success, 2 configuration error, 3 numerical error (solver
or transport capacity), 4 acceptance-band failure under --enforce, or a
replay whose artifacts differ from the run's.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import logging
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__
from . import experiments as exp
from . import forcing as forcing_mod
from . import integrator as integ
from . import spectral
from .errors import (CapacityError, ConfigError, FitError, RangeError,
                     SnseLabError, SolverError, StructuralError)
from .experiments import InitialCondition

log = logging.getLogger("snselab")

SCHEMA = "snse-lab/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4


# -- configuration ----------------------------------------------------------------

def _parse_scalar(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_list(text: str) -> tuple:
    return tuple(_parse_scalar(tok) for tok in text.split(",") if tok.strip())


@dataclasses.dataclass
class RunConfig:
    """What the config file and the flags set, as a nested dict."""

    sections: dict

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)


# keys read as lists even when they hold one value (a study's tuple fields
# take one value as a 1-tuple anyway)
_LIST_KEYS = {("discretization", "delta_ladder"), ("discretization", "shells_ladder")}


def load_config(path: str | None) -> RunConfig:
    sections = {}
    if path is not None:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}", field="config")
        for section in cp.sections():
            tgt = sections.setdefault(section, {})
            for key, raw in cp.items(section):
                if (section, key) in _LIST_KEYS or "," in raw:
                    tgt[key] = _parse_list(raw)
                else:
                    tgt[key] = _parse_scalar(raw)
    return RunConfig(sections)


def effective_manifest(cfg: RunConfig, subcommand: str,
                       seed: int) -> configparser.ConfigParser:
    """What the file and the flags set, plus run metadata.

    Every other field is a default of the subcommand's config class, which
    lives in the build.  Thread count is deliberately absent: parallelism
    never changes any emitted number, so it is not part of what a run *is*.
    """
    out = configparser.ConfigParser()
    out["meta"] = {"schema": SCHEMA, "version": __version__,
                   "subcommand": subcommand, "seed": str(seed)}
    for section, body in sorted(cfg.sections.items()):
        out[section] = {key: ", ".join(map(_csv_cell, val))
                        if isinstance(val, tuple) else _csv_cell(val)
                        for key, val in sorted(body.items())}
    return out


# -- artifact emission --------------------------------------------------------------

def _csv_cell(v) -> str:
    """A manifest value or a table cell as text: floats to 17 significant
    digits, so that they read back bit for bit."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float) or isinstance(v, np.floating):
        return format(float(v), ".17g")
    return str(v)


def _csv_column(values: list) -> list[str]:
    """`_csv_cell` of every value, with one mapped formatter for a column
    of only Python floats, or of only ints and strings."""
    kinds = set(map(type, values))
    if kinds <= {float}:
        return list(map("{:.17g}".format, values))
    if kinds <= {int, str}:
        return list(map(str, values))
    return list(map(_csv_cell, values))


def write_table_csv(rows: list[dict], path: Path) -> None:
    if not rows:
        path.write_text("")
        return
    keys = list(dict.fromkeys(k for row in rows for k in row))
    columns = [_csv_column([row.get(k, "") for row in rows]) for k in keys]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows(zip(*columns))


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_bundle(report: exp.StudyReport, out_dir: Path,
                 manifest: configparser.ConfigParser) -> None:
    """Emit manifest, per-table CSVs, and the JSON summary.

    The summary's `config` is the study config without `threads`, which
    changes no number.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.cfg", "w") as fh:
        manifest.write(fh)
    tables_dir = out_dir / "tables"
    tables_dir.mkdir(exist_ok=True)
    for name, rows in report.tables.items():
        write_table_csv(rows, tables_dir / f"{name}.csv")
    summary = {
        "schema": SCHEMA,
        "study": report.name,
        "seed": report.seed,
        "config": _jsonable({k: v for k, v in report.config.items()
                             if k != "threads"}),
        "fits": {k: v.as_dict() for k, v in report.fits.items()},
        "scalars": _jsonable(report.scalars),
        "checks": _jsonable(report.checks),
        "notes": list(report.notes),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")


# -- trajectory checkpoints -----------------------------------------------------------

CHECKPOINT_VERSION = 3


def checkpoint(state: spectral.SpectralField, params: integ.SchemeParams,
               seed: int, trajectory_id: int, step_index: int, directory: Path) -> Path:
    """Persist a state plus the manifest needed for exact continuation."""
    directory.mkdir(parents=True, exist_ok=True)
    field_path = directory / f"state_{step_index:08d}.fld"
    spectral.save_field(state, field_path)
    meta = {"format_version": CHECKPOINT_VERSION, "step_index": step_index,
            "seed": seed, "trajectory_id": trajectory_id,
            "params": {"nu": params.nu, "delta": params.delta,
                       "shells": params.shells, "tol": params.tol}}
    (directory / f"state_{step_index:08d}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return field_path


def restore(field_path: Path):
    """Load (state, params, seed, trajectory_id, step_index) from a checkpoint."""
    field_path = Path(field_path)
    state = spectral.load_field(field_path)
    meta_path = field_path.with_suffix(".json")
    if not meta_path.exists():
        raise StructuralError(f"missing checkpoint manifest {meta_path}")
    meta = json.loads(meta_path.read_text())
    # versions 1 and 2 also hold delta0, and version 1 a solver policy and a
    # sweep budget, all unread
    if meta.get("format_version") not in (1, 2, CHECKPOINT_VERSION):
        raise StructuralError(
            f"checkpoint format version {meta.get('format_version')} unsupported")
    p = meta["params"]
    params = integ.SchemeParams(p["nu"], p["delta"], p["shells"], p["tol"])
    if params.shells != state.grid.shells:
        raise StructuralError("checkpoint cutoff does not match its manifest")
    return state, params, meta["seed"], meta["trajectory_id"], meta["step_index"]


# -- study assembly from config ----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SimulateConfig:
    """One path of `steps` steps from `ic` under the low-mode forcing
    (`build_forcing`), checkpointed every `checkpoint_cadence` steps (0: never)."""

    shells: int = 16
    delta: float = 0.01
    tol: float = 1e-12
    steps: int = 0
    nu: float = 1.0
    forcing_shells: int = 4
    forcing_variance: float = 0.5
    ic: InitialCondition = InitialCondition()
    record_stride: int = 1
    checkpoint_cadence: int = 0

    def __post_init__(self):
        exp._at_least(self, steps=0, record_stride=1, checkpoint_cadence=0,
                      forcing_shells=1, forcing_variance=0.0)


SUBCOMMANDS = ("simulate", *exp.STUDIES, "replay")


def config_class(subcommand: str) -> type:
    """The config dataclass a subcommand builds; `replay` reads a run's manifest."""
    return SimulateConfig if subcommand == "simulate" else exp.study(subcommand)[0]


# Shared-section spellings of config fields (a config takes the first name
# it has); `[experiment]` keys name fields directly.
_ALIASES = {
    ("physics", "nu"): ("nu",),
    ("forcing", "shells"): ("forcing_shells",),
    ("forcing", "variance"): ("forcing_variance",),
    ("discretization", "shells"): ("shells",),
    ("discretization", "delta"): ("delta",),
    ("discretization", "tol"): ("tol",),
    ("discretization", "delta_ladder"): ("deltas",),
    ("discretization", "shells_ladder"): ("shell_ladder", "shells_list"),
    ("experiment", "shells_list"): ("shell_ladder",),
    ("nudge", "shells"): ("shells_controlled",),
    ("nudge", "beta"): ("beta",),
    ("nudge", "compute_shifts"): ("compute_shifts",),
    ("nudge", "perturbation"): ("perturbations",),
    ("distance", "eps"): ("eps",),
    ("distance", "s"): ("s",),
    ("distance", "alpha"): ("alpha",),
    ("reproducibility", "record_stride"): ("record_stride",),
    ("io", "checkpoint_cadence"): ("checkpoint_cadence",),
}
# sections whose keys set the fields of one nested value
_NESTED = {"initial": ("ic",), "observable": ("observable",)}


def _field_name(names, where: str) -> str | None:
    """The field among `names` that `where` ("section.key", or a whole
    nested section) sets, if any."""
    section, _, key = where.partition(".")
    spellings = _NESTED.get(section) or (
        ((key,) if section == "experiment" else ()) + _ALIASES.get((section, key), ()))
    return next((n for n in spellings if n in names), None)


def _read_elsewhere(cls, where: str) -> bool:
    """Keys a subcommand reads outside its config fields: `main` reads the
    seed and the output directory, `build_forcing` `simulate`'s
    `[forcing] preset`."""
    return where in ("reproducibility.seed", "io.out_dir") or (
        cls is SimulateConfig and where == "forcing.preset")


def _scalar(kind: type, val, where: str):
    """`val` as a `kind`: an int passes as a float, a bool only as a bool,
    and a float only if it is finite."""
    accepted = (int, float) if kind is float else kind
    if not isinstance(val, accepted) or (isinstance(val, bool) and kind is not bool):
        raise ConfigError(f"expected {kind.__name__}, got {val!r}", field=where)
    if kind is float and not np.isfinite(val):
        raise ConfigError(f"expected a finite number, got {val!r}", field=where)
    return kind(val)


def _coerce(kind, default, val, where: str):
    """`val` as a field declared `kind` whose default is `default`."""
    if isinstance(val, dict):       # a nested section
        return _nested(default, val, where)
    if type(None) in typing.get_args(kind):
        if val == "auto":
            return None
        kind = next(k for k in typing.get_args(kind) if k is not type(None))
    if typing.get_origin(kind) is tuple or kind is tuple:
        items = val if isinstance(val, tuple) else (val,)
        if not items:
            raise ConfigError("expected at least one value", field=where)
        return tuple(_scalar(type(default[0]), v, where) for v in items)
    return _scalar(kind, val, where)


def _nested(default, section: dict, where: str):
    """`default` with the fields its section sets; `mode_kx`/`mode_ky`
    set `mode`."""
    hints = typing.get_type_hints(type(default))
    mode, kwargs = list(default.mode), {}
    for key, val in section.items():
        if key in ("mode_kx", "mode_ky"):
            mode[0 if key == "mode_kx" else 1] = _scalar(int, val, f"{where}.{key}")
        elif key in hints and key != "mode":
            kwargs[key] = _coerce(hints[key], getattr(default, key), val,
                                  f"{where}.{key}")
        else:
            raise ConfigError(f"unknown key {key!r}", field=f"{where}.{key}")
    try:
        return dataclasses.replace(default, mode=tuple(mode), **kwargs)
    except ConfigError as err:   # a section's dataclass names the bare field
        err.field = f"{where}.{err.field}"
        raise


@contextlib.contextmanager
def _fields_set(cls, cfg: RunConfig):
    """Yields field -> (the key that sets it, its value) for each field of
    `cls` the run sets, and a `ConfigError` raised inside on such a field
    names that key (`physics.nu` for `nu`).  A key that sets no field and
    is not read elsewhere (`_read_elsewhere`), or a field set twice, is
    itself a `ConfigError`."""
    names = {f.name for f in dataclasses.fields(cls)} - {"threads"}
    given = {}
    for section, body in cfg.sections.items():
        items = ([(section, body)] if section in _NESTED else
                 [(f"{section}.{key}", val) for key, val in body.items()])
        for where, val in items:
            name = _field_name(names, where)
            if name is None:
                if _read_elsewhere(cls, where):
                    continue
                raise ConfigError(f"not read by {cls.__name__}", field=where)
            if name in given:
                raise ConfigError(f"{name} is also set by {given[name][0]}",
                                  field=where)
            given[name] = (where, val)
    try:
        yield given
    except ConfigError as err:
        err.field = given.get(err.field, (err.field,))[0]
        raise


def study_config(cls, cfg: RunConfig, threads: int = 1):
    """The `cls` instance a run describes.

    Each field the file or a flag sets is coerced to the field's type
    ("auto" means None); every other field keeps its default, and a class
    with a `threads` field gets `threads`.  A value of the wrong type, a
    float that is not finite or an empty list is a `ConfigError` here; a
    value out of range is one that `cls` raises when it is built.  Either
    names the key that set the field.
    """
    hints = typing.get_type_hints(cls)
    with _fields_set(cls, cfg) as given:
        kwargs = {name: _coerce(hints[name], getattr(cls, name), val, where)
                  for name, (where, val) in given.items()}
        if "threads" in hints:
            kwargs["threads"] = threads
        return cls(**kwargs)


def build_forcing(cfg: RunConfig, grid) -> forcing_mod.ForcingBasis:
    """`simulate`'s forcing on `grid`: the low-mode basis of the run's
    `SimulateConfig` (`[forcing] shells` and `variance`), as every study
    builds it.  `[forcing] preset` may name it, as `low-mode`, and nothing
    else."""
    preset = cfg.get("forcing", "preset", "low-mode")
    if preset != "low-mode":
        raise ConfigError(f"unknown forcing preset {preset!r}", field="forcing.preset")
    sim = study_config(SimulateConfig, cfg)
    return forcing_mod.low_mode_basis(grid, sim.forcing_shells, sim.forcing_variance)


def run_study(subcommand: str, cfg: RunConfig, seed: int,
              threads: int) -> exp.StudyReport:
    """Run the study behind one subcommand; its report carries the band checks."""
    if subcommand not in exp.STUDIES:
        raise ConfigError(f"unknown study subcommand {subcommand!r}",
                          field="subcommand")
    cls, study = exp.study(subcommand)
    with _fields_set(cls, cfg):
        return study(study_config(cls, cfg, threads), seed)


# -- simulate / replay ---------------------------------------------------------------

def run_simulate(cfg: RunConfig, seed: int, ck_root: Path) -> exp.StudyReport:
    """One path with its energies at every `record_stride`-th step;
    checkpoints go to `ck_root` at step 0, at the multiples of
    `checkpoint_cadence` and at the final step, whatever the stride."""
    sim = study_config(SimulateConfig, cfg)
    with _fields_set(SimulateConfig, cfg):
        p = integ.SchemeParams(sim.nu, sim.delta, sim.shells, sim.tol)
    grid = p.grid()
    basis = build_forcing(cfg, grid)
    # |grad c|^2 of the packed row (1, 2 n_half) at the recorded steps, start included
    h1_sq = np.empty((sim.steps + 1, 1))
    kept = {}   # the states checkpointed after the march, by step

    def observe(step, c, noise, noise_scale):
        if step % sim.record_stride == 0:
            h1_sq[step] = spectral.packed_norm_sq(c, grid.lam_packed)
        cadence = sim.checkpoint_cadence
        if step in (0, sim.steps) or cadence > 0 and step % cadence == 0:
            kept[step] = spectral.unpack(c[0])

    # steps = 0 marches too, so row 0 is always the march's packed |c|^2
    run = integ.march(p, basis, [sim.ic.build(grid, seed)], seed, [0], sim.steps, observe)
    idx = np.arange(0, sim.steps + 1, sim.record_stride)
    rows = [{"step": n, "t": n * sim.delta, "energy_sq": e, "h1_sq": h, "iterations": it}
            for n, e, h, it in zip(idx.tolist(), run.energy_sq[idx, 0].tolist(),
                                   h1_sq[idx, 0].tolist(),
                                   np.append(0, run.iterations)[idx].tolist())]
    for n, state in kept.items():
        checkpoint(spectral.SpectralField(grid, state), p, seed, 0, n, ck_root)
    report = exp.StudyReport("simulate", dataclasses.asdict(sim), seed)
    report.tables["diagnostics"] = rows
    report.scalars.update(steps=sim.steps, final_energy_sq=run.energy_sq[-1, 0].item())
    return report


def _manifest_digest(manifest: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    manifest.write(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]


def run_replay(run_dir: Path, out_dir: Path | None) -> int:
    """Re-execute a run from its manifest and byte-compare the artifacts."""
    manifest_path = run_dir / "manifest.cfg"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest at {manifest_path}", field="replay")
    cfg = load_config(str(manifest_path))
    meta = cfg.sections.pop("meta", {})
    subcommand = _scalar(str, meta.get("subcommand"), "meta.subcommand")
    seed = _scalar(int, meta.get("seed"), "meta.seed")

    replay_dir = out_dir if out_dir is not None else run_dir / "replay"
    execute(subcommand, cfg, seed, 1, replay_dir, enforce=False)

    # the run's files outside the replay's own subtree, and the replay's
    ran = {path.relative_to(run_dir) for path in run_dir.rglob("*") if path.is_file()
           and replay_dir not in path.parents and run_dir / "replay" not in path.parents}
    replayed = {path.relative_to(replay_dir) for path in replay_dir.rglob("*")
                if path.is_file()}
    mismatches = [f"missing from replay: {rel}" for rel in sorted(ran - replayed)]
    mismatches += [f"missing from run: {rel}" for rel in sorted(replayed - ran)]
    mismatches += [f"differs: {rel}" for rel in sorted(ran & replayed)
                   if (run_dir / rel).read_bytes() != (replay_dir / rel).read_bytes()]
    if mismatches:
        for m in mismatches:
            log.error("replay mismatch: %s", m)
        return 1
    log.info("replay reproduced %s byte-identically", run_dir)
    return 0


def execute(subcommand: str, cfg: RunConfig, seed: int, threads: int,
            out_dir: Path, enforce: bool) -> int:
    """Run one subcommand into `out_dir`; under `enforce`, a report that
    does not pass (`StudyReport.passed`) exits 4."""
    if "meta" in cfg.sections:
        raise ConfigError("only a run's manifest holds [meta]", field="meta")
    if not 0 <= seed < 1 << 64:   # a word of the 64-bit tape cipher
        raise ConfigError(f"expected an integer in [0, 2^64), got {seed}",
                          field="reproducibility.seed")
    manifest = effective_manifest(cfg, subcommand, seed)
    if subcommand == "simulate":
        report = run_simulate(cfg, seed, out_dir / "checkpoints" / _manifest_digest(manifest))
    else:
        report = run_study(subcommand, cfg, seed, threads)
    write_bundle(report, out_dir, manifest)
    for key, ok in sorted(report.checks.items()):
        log.info("%s: %s", key, "pass" if ok else "FAIL")
    if enforce and not report.passed():
        log.error("acceptance checks failed: %s", ", ".join(
            k for k, ok in report.checks.items() if not ok) or "the ledger holds none")
        return EXIT_ACCEPTANCE
    return EXIT_OK


# -- entry point -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="snse-lab",
        description="Stochastic 2D Navier-Stokes vorticity laboratory")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        if name == "replay":
            p.add_argument("run_dir", type=Path)
            p.add_argument("--out", type=Path, default=None)
            p.add_argument("-v", "--verbose", action="store_true")
            continue
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--enforce", action="store_true")
        p.add_argument("-v", "--verbose", action="store_true")
        if name == "simulate":
            p.add_argument("--steps", type=int, default=None)
        if name == "couple":
            p.add_argument("--nudge-shells", type=int, default=None)
            p.add_argument("--beta", type=_parse_scalar, default=None)
            p.add_argument("--perturbation", type=_parse_list, default=None)
            p.add_argument("--ensemble", type=int, default=None)
            p.add_argument("--horizon", type=float, default=None)
        if name == "certify-metric":
            p.add_argument("--triples", type=int, default=None)
    return ap


# flag -> the (section, key) it sets
_FLAG_KEYS = {
    "steps": ("experiment", "steps"),
    "triples": ("experiment", "triples"),
    "ensemble": ("experiment", "ensemble"),
    "horizon": ("experiment", "horizon"),
    "nudge_shells": ("nudge", "shells"),
    "beta": ("nudge", "beta"),
    "perturbation": ("experiment", "perturbations"),
}


def _apply_cli_overrides(args, cfg: RunConfig) -> None:
    """Flags override the file; a flag that sets a config field drops the
    file's other spellings of that field."""
    names = {f.name for f in dataclasses.fields(config_class(args.subcommand))}
    for flag, (section, key) in _FLAG_KEYS.items():
        val = getattr(args, flag, None)
        if val is None:
            continue
        name = _field_name(names, f"{section}.{key}")
        if name is not None:
            for sec, body in cfg.sections.items():
                for k in [k for k in body if _field_name(names, f"{sec}.{k}") == name]:
                    del body[k]
        cfg.sections.setdefault(section, {})[key] = val


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        if args.subcommand == "replay":
            return EXIT_ACCEPTANCE if run_replay(args.run_dir, args.out) else EXIT_OK
        cfg = load_config(args.config)
        _apply_cli_overrides(args, cfg)
        seed = _scalar(int, cfg.get("reproducibility", "seed", 0), "reproducibility.seed")
        out_dir = _scalar(str, cfg.get("io", "out_dir", "runs/out"), "io.out_dir")
        return execute(args.subcommand, cfg, seed if args.seed is None else args.seed,
                       args.threads, args.out or Path(out_dir), args.enforce)
    except ConfigError as err:
        log.error("configuration error: %s", err)
        return EXIT_CONFIG
    except FitError as err:
        log.error("fit refused: %s", err)
        return EXIT_CONFIG
    except (SolverError, CapacityError, RangeError) as err:
        log.error("numerical error: %s", err)
        return EXIT_NUMERICAL
    except SnseLabError as err:
        log.error("%s", err)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
