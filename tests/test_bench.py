"""The benchmark's span tracer still finds and wraps the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import snselab

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_the_bench_tracer_installs_and_counts_a_traced_study():
    # as a traced benchmark run does, in a fresh process that imports what the
    # benchmark imports: after one untraced call the tracer's plan must build
    # (every layer module loaded, the external boundaries resolved), and the
    # traced call must hand its arguments to the hooks that count work
    src = str(Path(snselab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, str(BENCH), os.environ.get("PYTHONPATH"))))}
    code = ("import json\n"
            "import workloads   # what a benchmark run imports\n"
            "from snselab.experiments import (InitialCondition, TemporalOrderConfig,\n"
            "                                 temporal_order_study)\n"
            "from tracer import Tracer\n"
            "cfg = TemporalOrderConfig(deltas=(1 / 40, 1 / 80, 1 / 160, 1 / 320), shells=4,\n"
            "                          horizon=2 / 40, ensemble=4, forcing_shells=2, refine=2,\n"
            "                          ic=InitialCondition('random', 1.0), n_boot=10)\n"
            "want = temporal_order_study(cfg, 3).tables\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "tracer.uninstall()\n"
            "tracer.reset()\n"
            "tracer.install()\n"
            "try:\n"
            "    got = temporal_order_study(cfg, 3).tables\n"
            "finally:\n"
            "    tracer.uninstall()\n"
            "m = tracer.layer_metrics(1.0)\n"
            "print(json.dumps([m['spectral.advect_calls'], m['integrator.solves'],\n"
            "                  got == want]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    advect_calls, solves, same = json.loads(out.stdout.splitlines()[-1])
    assert advect_calls > 0 and solves > 0 and same
