"""Span tracing of the snselab layers, installed from outside the package.

`Tracer.install` replaces every function defined in a layer module (and
the methods of the classes it defines) with a wrapper that records one
span per call: name, start, end and the index of the enclosing span.
References to the same function bound in other snselab modules (``from
.spectral import norm_l2_sq``) are replaced too, so calls across module
boundaries are seen whichever name they use.  `uninstall` restores every
original object, so untraced and traced calls can alternate in one
process.

Spans live in flat arrays and are reduced to per-layer numbers by
`layer_metrics` after the traced call has returned.  Self time of a span
is its duration minus the durations of its direct children; since every
span except the roots has exactly one parent, the self times of all spans
plus the untraced gap around the roots add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("rng", "forcing", "spectral", "integrator", "coupling", "measures",
          "experiments", "runner")

# scipy solvers called from measures; spans around them are measures' own
EXTERNAL_BOUNDARIES = (("measures", "linear_sum_assignment"),
                       ("measures", "linprog"))

NORMS = ("spectral.norm_l2", "spectral.norm_l2_sq", "spectral.sobolev_norm_sq")
TAPE = ("forcing.gaussian_cells", "forcing.sum_fine")
FITS = ("experiments.fit_rate", "experiments.fit_series_exponential")
IO = ("runner.write_table_csv", "runner.checkpoint")

# metrics of `layer_metrics` that are counts, identical for identical inputs
EXACT_COUNTS = ("rng.normals", "forcing.tape_calls", "spectral.advect_calls",
                "spectral.velocity_calls", "spectral.gemm_gflop", "spectral.gemm_bytes",
                "spectral.norms_calls", "integrator.solves", "integrator.sweeps_per_solve",
                "integrator.solver_errors", "measures.exact_calls", "runner.checkpoints",
                "trace.spans")


def _rows(arr) -> int:
    return arr.size // arr.shape[-1] if arr.ndim else 1


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self, package: str = "snselab"):
        self.package = package
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.raised: list[tuple[str, BaseException]] = []
        self.counts = dict.fromkeys(
            ("normals", "velocity_rows", "advect_rows", "gemm_flop", "gemm_bytes"), 0)
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._installed = False

    def reset(self) -> None:
        """Forget the spans and counts of the previous traced call."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        del self.stack[1:]
        self.raised.clear()
        for key in self.counts:
            self.counts[key] = 0

    # -- wrapping ---------------------------------------------------------

    def _hook(self, qualname: str):
        """Exact work count taken from the arguments and result of a call."""
        counts = self.counts
        if qualname == "rng.standard_normals":
            def hook(args, kwargs, out):
                counts["normals"] += out.size
        elif qualname == "spectral.velocity_values":
            def hook(args, kwargs, out):
                grid = args[0] if args else kwargs["grid"]
                xi = args[1] if len(args) > 1 else kwargs["xi"]
                rows, n2, p2 = _rows(xi), 2 * grid.n_half, grid.pad * grid.pad
                counts["velocity_rows"] += rows
                # one synthesis gemm (rows, 2n) @ (2n, 2p^2)
                counts["gemm_flop"] += 2 * rows * n2 * 2 * p2
                counts["gemm_bytes"] += 8 * (rows * n2 + n2 * 2 * p2 + rows * 2 * p2)
        elif qualname == "spectral.advect_frozen":
            def hook(args, kwargs, out):
                grid = args[0] if args else kwargs["grid"]
                target = args[3] if len(args) > 3 else kwargs["target"]
                rows, n2, p2 = _rows(target), 2 * grid.n_half, grid.pad * grid.pad
                counts["advect_rows"] += rows
                # gradient synthesis (rows, 2n) @ (2n, 2p^2), analysis (rows, p^2) @ (p^2, 2n)
                counts["gemm_flop"] += 2 * rows * n2 * 2 * p2 + 2 * rows * p2 * n2
                counts["gemm_bytes"] += 8 * (rows * n2 + n2 * 2 * p2 + rows * 2 * p2
                                             + rows * p2 + p2 * n2 + rows * n2)
        else:
            hook = None
        return hook

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        hook = self._hook(qualname)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self.stack)
        raised = self.raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                # attribute each exception to the innermost span it left
                if not any(seen is err for _, seen in raised):
                    raised.append((qualname, err))
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every traced binding."""
        modules = {layer: sys.modules[f"{self.package}.{layer}"] for layer in LAYERS}
        plan = []
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if inspect.isfunction(meth) and (
                                not mname.startswith("__")
                                or mname in ("__init__", "__post_init__")):
                            plan.append((obj, mname, meth, self._wrap(
                                f"{layer}.{obj.__name__}.{mname}", meth)))
                    continue
                target = getattr(obj, "__wrapped__", obj)   # lru_cache wrappers
                if (inspect.isfunction(target) and target.__module__ == mod.__name__
                        and id(obj) not in wrapped):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for layer, attr in EXTERNAL_BOUNDARIES:
            obj = getattr(modules[layer], attr)
            wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # rebind every reference in the package, re-exports included
        for modname, mod in list(sys.modules.items()):
            if modname == self.package or modname.startswith(self.package + "."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        plan.append((mod, attr, obj, wrapped[id(obj)]))
        return plan

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan or []):
            setattr(owner, attr, original)
        self._installed = False

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self and busy times plus exact counts of one traced call."""
        nid = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        start = np.array(self.start)
        end = np.array(self.end)
        dur = end - start
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                   minlength=dur.size)
        span_names = np.array(self.names, dtype=object)[nid]
        span_layer = np.array([n.split(".", 1)[0] for n in self.names], dtype=object)[nid]
        calls = dict(zip(self.names, np.bincount(nid, minlength=len(self.names)).tolist()))

        def member(group) -> np.ndarray:
            return np.isin(span_names, list(group))

        def outermost(mask: np.ndarray):
            """Spans of one thread nest or are disjoint, and are stored in
            order of their start, so a span is outermost within a group
            exactly when it starts after every earlier span of the group ended."""
            s, e = start[mask], end[mask]
            prev_end = np.maximum.accumulate(np.concatenate([[-np.inf], e]))[:-1]
            top = s >= prev_end
            return s[top], e[top]

        def busy(mask: np.ndarray) -> float:
            s, e = outermost(mask)
            return float(np.sum(e - s))

        out: dict[str, float] = {f"{layer}.self_s": float(np.sum(self_t[span_layer == layer]))
                                 for layer in LAYERS}
        out["bench.self_s"] = wall_s - float(np.sum(dur[~has_parent]))

        c = self.counts
        rng_busy = busy(span_layer == "rng")
        out["rng.normals"] = c["normals"]
        out["rng.busy_s"] = rng_busy
        out["rng.normals_per_s"] = c["normals"] / rng_busy if rng_busy > 0 else 0.0

        tape = member(TAPE)
        out["forcing.tape_calls"] = int(np.count_nonzero(tape))
        out["forcing.tape_self_s"] = float(np.sum(self_t[tape]))

        adv = member(("spectral.advect_frozen",))
        vel = member(("spectral.velocity_values",))
        out["spectral.advect_calls"] = calls.get("spectral.advect_frozen", 0)
        out["spectral.advect_busy_s"] = busy(adv)
        out["spectral.velocity_calls"] = calls.get("spectral.velocity_values", 0)
        out["spectral.velocity_busy_s"] = busy(vel)
        gemm_s = busy(adv | vel)
        out["spectral.gemm_gflop"] = c["gemm_flop"] / 1e9
        out["spectral.gemm_bytes"] = c["gemm_bytes"]
        out["spectral.gemm_gflop_per_s"] = c["gemm_flop"] / 1e9 / gemm_s if gemm_s > 0 else 0.0
        norms = member(NORMS)
        out["spectral.norms_calls"] = len(outermost(norms)[0])
        out["spectral.norms_busy_s"] = busy(norms)

        solves = c["velocity_rows"]
        integ_busy = busy(span_layer == "integrator")
        out["integrator.solves"] = solves
        out["integrator.sweeps_per_solve"] = c["advect_rows"] / solves if solves else 0.0
        out["integrator.busy_s"] = integ_busy
        out["integrator.us_per_member_step"] = 1e6 * integ_busy / solves if solves else 0.0
        out["integrator.solver_errors"] = sum(
            1 for where, err in self.raised
            if where.startswith("integrator.") and type(err).__name__ == "SolverError")

        out["coupling.girsanov_s"] = busy(member(("coupling.girsanov_cost",)))

        out["measures.exact_calls"] = calls.get("measures.wasserstein_exact", 0)
        out["measures.exact_busy_s"] = busy(member(("measures.wasserstein_exact",)))
        out["measures.assignment_busy_s"] = busy(member(("measures.linear_sum_assignment",)))
        out["measures.coupled_bound_busy_s"] = busy(
            member(("measures.wasserstein_coupled_bound",)))

        out["experiments.fit_busy_s"] = busy(member(FITS))

        out["runner.io_s"] = busy(member(IO))
        out["runner.checkpoints"] = calls.get("runner.checkpoint", 0)

        out["trace.spans"] = int(dur.size)
        out["trace.wall_s"] = wall_s
        return out
