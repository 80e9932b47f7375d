"""snselab benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload temporal-ladder --seed 20260809 \
        --seconds 20 --trace 0

With ``--trace 0`` the workload's public call is repeated, untraced, for
``--seconds`` seconds, every output is verified, and the end-to-end
metrics of BENCHMARK.json are reported.  With ``--trace 1`` untraced and
traced calls alternate for the same time and the per-layer metrics are
reported (see tracer.py).  The last line of standard output is the JSON
result; the line before it holds the details: machine facts, every
per-call time, the verification facts and the failure share.

Set-up time is measured in fresh child processes of this script (run
with ``--probe-setup``), so import and the grid, forcing and initial-data
caches are cold each time.  All files a run writes go to a temporary
directory under ``.bench_tmp/`` in the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("temporal-ladder", "single-path", "nudged-coupling", "contraction-grid")
DEFAULT_SEED = 20_260_809
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5         # cold set-ups per run; setup_s is their median
MIN_CALLS = 3            # timed calls per run even if --seconds has passed
PROBE_TIMEOUT_S = 60
# fixes the unit of SpeedSampler-scaled times; on the machine the bounds were
# set on (2-vCPU Intel Xeon VM, OpenBLAS 0.3.31 on one thread) they read
# 15-35% above the fastest raw calls seen while the host was quiet
KERNEL_REF_S = 0.0025


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="time one cold import and set-up, print it and exit")
    return ap.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS}}


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Import plus grid, forcing and initial-data construction, from cold.

    numpy is imported first, untimed, because the speed sampler needs it;
    the package, scipy and everything else are imported inside the timing.
    """
    sampler = SpeedSampler()
    with sampler:
        t0 = time.perf_counter()
        from workloads import WORKLOADS

        w = WORKLOADS[workload]
        w.setup(w.prepare(seed, workdir))
        wall = time.perf_counter() - t0
    return sampler.scaled(wall)


class SpeedSampler:
    """Measures the machine's speed while a call runs, in the call's thread.

    On a shared host (measured: a 2-vCPU VM with other tenants) the same
    code runs up to 1.6x slower, in stretches from under a second to
    minutes.  While armed, an interval timer interrupts the call every
    PERIOD_S and times a fixed numpy kernel that shares no code with
    snselab: gemms of the sweep's shapes and small-array calls like per-step
    bookkeeping.  `scaled` removes the kernel's own time from the call and
    rescales the rest by KERNEL_REF_S over the kernel's mean time, so a
    stretch that slows both cancels out.  A change to snselab cannot change
    the kernel, so it moves scaled times as it moves raw ones.
    """

    PERIOD_S = 0.05

    def __init__(self):
        import numpy as np

        g = np.random.default_rng(0)
        self.np = np
        self.a = g.standard_normal((128, 100))
        self.b = g.standard_normal((100, 512))
        self.c = g.standard_normal((256, 100))
        self.x = g.standard_normal(50) + 1j * g.standard_normal(50)
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(2):
            y = self.a @ self.b
            (y[:, :256] * y[:, 256:]) @ self.c
        for _ in range(200):
            float(np.sqrt(np.sum(np.abs(self.x) ** 2, axis=-1)))
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self._sample()        # one sample just before the call, outside its time
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, wall: float) -> float:
        """`wall` without the kernel's interruptions, at reference speed."""
        inside = sum(self.samples[1:])
        return (wall - inside) * KERNEL_REF_S / statistics.fmean(self.samples)


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Times, verifies and counts calls of one workload."""

    def __init__(self, workload, inputs, sampler: SpeedSampler | None = None):
        self.w = workload
        self.inputs = inputs
        self.sampler = sampler
        self.raw_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.facts = None
        self.errors: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        self.errors.append(why)

    def once(self, tracer=None):
        """One call; returns (wall_s, facts, verified), or None if it raised.

        With a sampler, wall_s is scaled to reference speed."""
        self.attempted += 1
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            with self.sampler or contextlib.nullcontext():
                t0 = time.perf_counter()
                out = self.w.call(self.inputs)
                wall = time.perf_counter() - t0
        except Exception:   # a failed operation is counted, not fatal
            self.fail(traceback.format_exc(limit=4))
            self.w.clean(self.inputs)
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.sampler is not None:
            self.raw_walls.append(wall)
            wall = self.sampler.scaled(wall)
        try:
            ok, dig, facts = self.w.verify(self.inputs, out)
        except Exception:
            ok, dig, facts = False, None, {"error": traceback.format_exc(limit=4)}
        finally:
            self.w.clean(self.inputs)
        # every repeat, traced or not, must reproduce the first bit for bit
        if self.reference is None and ok:
            self.reference, self.facts = dig, facts
        ok = ok and dig == self.reference
        if not ok:
            self.fail(f"verification failed: {facts}")
        return wall, facts, ok


def verified_first(results: list) -> list:
    """The verified results if any, else all returned ones (then the run is
    reported as not correct, with timings of unverified calls)."""
    return [x for x, ok in results if ok] or [x for x, _ in results]


def run_untraced(w, inputs, seconds: float, seed: int):
    setups = measure_setup(w.name, seed)
    r = Runner(w, inputs, SpeedSampler())
    done = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or r.attempted < MIN_CALLS:
        res = r.once()
        if res is not None:
            done.append((res[0], res[2]))
    walls = verified_first(done)
    if not walls:
        return r, {}, {}
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "member_steps_per_s": w.nominal(inputs) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verified_frac": (r.attempted - r.failed) / r.attempted,
    }
    return r, metrics, {"setup_samples_s": setups, "wall_samples_s": walls,
                        "raw_wall_samples_s": r.raw_walls}


def run_traced(w, inputs, seconds: float):
    from tracer import EXACT_COUNTS, Tracer

    tracer = Tracer()
    r = Runner(w, inputs)
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or (len(traced) < 2 and r.attempted < 4 * MIN_CALLS):
        res = r.once()
        if res is not None:
            plain.append((res[0], res[2]))
        res = r.once(tracer)
        if res is not None:
            layer = tracer.layer_metrics(res[0])
            layer["runner.bytes_written"] = res[1].get("bytes_written", 0)
            traced.append((layer, res[2]))
    plain, traced = verified_first(plain), verified_first(traced)
    metrics = {}
    if traced and plain:
        # all layer numbers come from one call, so its self times add up to its wall
        metrics = dict(min(traced, key=lambda t: t["trace.wall_s"]))
        # exact counts must not vary between repeats of one input
        for k in EXACT_COUNTS + ("runner.bytes_written",):
            if len({t[k] for t in traced}) != 1:
                r.fail(f"count {k} differs between repeats")
        untraced = min(plain)   # other tenants only ever add time
        metrics["trace.untraced_wall_s"] = untraced
        metrics["trace.overhead_frac"] = (metrics["trace.wall_s"] - untraced) / untraced
        metrics["trace.unattributed_s"] = metrics.pop("bench.self_s")
        metrics["integrator.nominal_solves"] = w.nominal(inputs)
    return r, metrics, {"untraced_wall_samples_s": plain,
                        "traced_wall_samples_s": [t["trace.wall_s"] for t in traced]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "snselab" / "__init__.py").is_file():
        print(f"snselab sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    try:
        if args.probe_setup:
            print(repr(probe_setup(args.workload, args.seed, workdir)))
            return 0
        from workloads import WORKLOADS

        w = WORKLOADS[args.workload]
        inputs = w.prepare(args.seed, workdir)
        if args.trace:
            r, values, samples = run_traced(w, inputs, args.seconds)
            declared = spec["per_layer"]
        else:
            r, values, samples = run_untraced(w, inputs, args.seconds, args.seed)
            declared = spec["end_to_end"]
        for err in r.errors:
            print(err, file=sys.stderr)
        if not values:
            print("no call was verified; nothing to report", file=sys.stderr)
            return 1
        detail = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine_facts(),
                  "nominal_member_solves": w.nominal(inputs),
                  "attempted": r.attempted, "failed": r.failed,
                  "failed_frac": r.failed / r.attempted, "verification": r.facts,
                  **samples}
        print(json.dumps({"detail": detail}, default=str))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared}
        print(json.dumps({"correct": r.failed == 0 and r.reference is not None,
                          "attempted": r.attempted, "failed": r.failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass   # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
