"""Semi-implicit Euler time stepping for the truncated vorticity dynamics.

One step solves the linear system

    (I + delta nu A) xi_new + delta P_N(u_prev . grad xi_new) = xi_prev
        + sqrt(delta) P_N sigma eta_n,      u_prev = K * xi_prev,

with diffusion and advection at the new time level and the advecting
velocity frozen at the old one.  The diagonal part is inverted exactly in
Fourier space; the O(delta) advection perturbation is handled by
preconditioned fixed-point iteration, which stops on an a-posteriori bound
of its error (`_fixed_point_solve`).  The iteration runs in increment form:
each sweep maps the last increment to the next one and adds it to the
state.  From the third sweep on an increment is tiny next to the state, so
a sweep may run in float32 (mixed-precision iterative refinement: Carson
and Higham, SIAM J. Sci. Comput. 40(2), 2018) when its predicted increment,
times `SWEEP32_ERROR` = 2^-18, the bound on a float32 sweep's relative
error, fits in the solve's error budget: all float32 sweeps of a solve
together add at most `SWEEP32_SHARE` = 5% of tol * scale to any row.  A
step on which the fixed point cannot finish within `MAX_SWEEPS` sweeps, by
its own contraction estimate, is solved again by restarted GMRES.  Both
solvers stop at tol * scale in the L^2 norm.

Everything operates on batched states (M, 2 n_half) in the real packed
layout [Re c | Im c] of `spectral` (see `spectral.pack`), so whole
ensembles advance in single vectorized steps: the noise coefficients, the
frozen velocity, every fixed-point sweep and the per-step norms stay real,
and complex coefficients appear only where states leave the march (the
recorded `EnsembleRun.states` and observers).  Each member reads its own
index-addressed noise, so its path does not depend on which other members
share the batch, up to the solve tolerance: the fixed-point stop is
batch-wide, every row sweeps as often as the stiffest one, and
``iterations`` records that batch maximum.

One kernel, `_advance_one`, takes every step: the plain scheme by default,
and the nudged scheme when the caller adds delta beta P_K to the diagonal
of its `StepSystem` and passes the matching right-hand-side term.  One
generator, `tape_steps`, walks an increment provider in `INCREMENT_CHUNK`
pieces and turns each Brownian increment into its noise coefficients,
and one march loop, `run_scheme`, iterates over it.  Its observer sees
each step's packed state and noise, which is how the coupled run steps
its nudged copies after the plain batch, and one `MarchRecord` per batch
holds the per-step energies |c|^2 and the strided states.  The temporal
ladder of `experiments` steps its rungs the same way, in an observer of
the reference's march over the base tape.

Every march from initial fields goes through `march`, which owns the
layout of the synchronous coupling: k starts, each repeated for the M
members of ``ids`` (`start_rows`), stack as k M rows, and row j M + i
reads tape id i.  A single path is the march of one start on one id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import forcing as forcing_mod
from . import spectral
from .errors import ConfigError, SolverError, StructuralError
from .forcing import ForcingBasis, sum_fine
from .spectral import SpectralField, SpectralGrid

INCREMENT_CHUNK = 256  # coarse steps of tape generated per philox call
MAX_SWEEPS = 200       # fixed-point sweeps per solve before GMRES takes over
SWEEP32_ERROR = 2.0 ** -18  # bound on a float32 sweep's error relative to its increment
SWEEP32_SHARE = 0.05        # share of tol * scale the float32 sweeps of a solve may add
SWEEP32_MIN_WORK = 1 << 17  # rows * 2 n_half * pad^2 below which a float32 sweep does not pay
SWEEP32_SCALES = (2.0 ** -50, 2.0 ** 50)  # row scales whose sweeps stay in float32's range
DRAW_BUDGET = 32 << 20  # bytes one philox draw of the tape may hold at once
DRAW_BYTES = 16         # bytes a draw holds per normal (its word and uniform, tracemalloc)
BLOCK_BYTES = 1 << 20   # bytes of packed rows formed or unpacked in one call


@dataclass(frozen=True)
class SchemeParams:
    """One point theta = (N, delta) of the discretization family.

    delta0 is the largest step of the family under study (enters moment
    bounds); tol bounds the L^2 error of the implicit solve relative to
    its scale.  How the step system is solved is not part of theta.
    """

    nu: float
    delta: float
    shells: int
    delta0: float | None = None
    tol: float = 1e-12

    def __post_init__(self):
        if self.delta0 is None:
            object.__setattr__(self, "delta0", self.delta)
        for name in ("nu", "delta", "delta0", "tol"):
            x = getattr(self, name)
            if not (x > 0 and math.isfinite(x)):
                raise ConfigError(f"must be positive and finite, got {x!r}", field=name)
        if self.shells < 1:
            raise ConfigError("cutoff must be >= 1 shell", field="shells")
        if self.delta > self.delta0 + 1e-15:
            raise ConfigError("delta exceeds delta0", field="delta")

    def grid(self) -> SpectralGrid:
        return spectral.make_grid(self.shells)


@dataclass
class EnsembleRun:
    """Batched trajectories sharing params; leading axis is the member.

    ``energy_sq`` is |c|^2 of every row at every step; other norms come
    from ``states`` or from an observer of the march.  A single path is a
    run with M = 1."""

    grid: SpectralGrid
    params: SchemeParams
    step_indices: np.ndarray
    states: np.ndarray | None     # (n_rec, M, n_half) or None if not kept
    energy_sq: np.ndarray         # (n_steps+1, M)
    iterations: np.ndarray        # (n_steps,)

    @property
    def times(self) -> np.ndarray:
        return self.step_indices * self.params.delta


# -- implicit solve ------------------------------------------------------------

class StepSystem(NamedTuple):
    """Diagonal part of one step's system in the packed [Re | Im] layout.

    ``analysis`` is ``grid._anal`` with -delta D^-1 folded into its columns,
    so one `spectral.advect_frozen` call returns the sweep map
    -delta D^-1 P_N(u . grad c); ``analysis32`` is its float32 copy, for
    the float32 sweeps of `_fixed_point_solve`.
    """

    p: SchemeParams
    diag: np.ndarray          # D, (2 n_half,)
    inv_diag: np.ndarray      # D^-1
    analysis: np.ndarray      # (pad^2, 2 n_half)
    analysis32: np.ndarray    # (pad^2, 2 n_half), float32


def step_system(grid: SpectralGrid, p: SchemeParams, extra_diag=None) -> StepSystem:
    """D = I + delta nu A, plus ``extra_diag`` (delta beta P_K when nudging)."""
    diag = 1.0 + p.delta * p.nu * grid.lam
    if extra_diag is not None:
        diag = diag + extra_diag
    diag = np.concatenate([diag, diag])
    inv_diag = 1.0 / diag
    analysis = grid._anal * (-p.delta * inv_diag)
    # entries below float32's range come only with steps too small to
    # contract slowly enough for a float32 sweep
    with np.errstate(under="ignore"):
        return StepSystem(p, diag, inv_diag, analysis, analysis.astype(np.float32))


def _fixed_point_solve(grid, uv, rhs, system: StepSystem, scale):
    """Solve (D + delta Adv) c = rhs by fixed-point iteration in increment form.

    With the sweep map S = -delta D^-1 Adv (one `spectral.advect_frozen`
    call on ``system.analysis``), the iteration c_k = D^-1 rhs + S c_{k-1}
    from c_0 = D^-1 rhs is taken through its increments Delta_k = c_k -
    c_{k-1}: sweep 1 gives Delta_1 = S c_0, each later sweep Delta_{k+1} =
    S Delta_k, and every sweep adds its increment to c.

    Float32 sweeps (mixed-precision iterative refinement): from sweep 3 on,
    each sweep refines an increment far below the state, so its float32
    rounding can stay far below tol.  A sweep runs in float32 when its
    predicted relative increment, rho_k |Delta_k| with the last ratio
    rho_k = |Delta_k| / |Delta_{k-1}|, times `SWEEP32_ERROR` fits in what
    is left of the solve's budget of `SWEEP32_SHARE` * tol; each float32
    sweep then spends `SWEEP32_ERROR` times its measured increment.
    `SWEEP32_ERROR` = 2^-18 bounds the error of a float32 sweep relative to
    its increment (tests measure at most a quarter of it), so all float32
    sweeps of a solve together add at most 5% of tol * scale to any row.
    A float32 sweep casts Delta_k (or takes the last sweep's float32
    increment) and the velocity to float32, maps them with the float32
    copies of the gradient synthesis and ``system.analysis``, and adds the
    result to c in float64.  Sweeps 1 and 2 stay float64, and so does the
    whole solve when any row's scale lies outside `SWEEP32_SCALES` (there
    a float32 increment could overflow, or underflow to nothing) or when
    the sweep is smaller than `SWEEP32_MIN_WORK`, where the casts cost more
    than float32 gemms save.

    Error-bound stopping: the iteration is an affine contraction, so with
    the relative increment |Delta_k| / scale and the contraction estimate
    rho_k, the iterate c_k lies within about rho_k |Delta_k| / (1 - rho_k)
    of the solution.  The first sweep has no estimate and stops on
    |Delta_1| <= tol; from the second on the solve stops once twice that
    bound is <= tol, with rho_k capped at 1/3.  The factor 2 covers the
    growth of the increment ratio from one sweep to the next (an estimate
    from the last ratio alone was seen to miss tol by 9%), and the cap
    keeps 2 rho / (1 - rho) <= 1, so the solve never stops later than
    |Delta_k| <= tol would.  The stop is batch-wide: |Delta_k| and rho_k
    come from the largest relative increment of any row.

    Hand-over: from sweep 3 on, the steady rate r_k = (|Delta_k| /
    |Delta_{k-2}|)^(1/2) is the two-sweep ratio, which sees through a
    one-sweep ratio that alternates (0.81, 0.997, 0.81, ...).  Were the
    increments to keep shrinking by r_k per sweep, the bound 2 r_k
    |Delta_j| / (1 - r_k) would reach tol at sweep j = k + log(tol (1 -
    r_k) / (2 r_k |Delta_k|)) / log r_k.  A sweep is slow when r_k >= 1 or
    that projection exceeds `MAX_SWEEPS`, and two slow sweeps in a row end
    the iteration.  One slow sweep is not enough: the ratio of a slow but
    finishing contraction oscillates about its rate.

    Returns (c, sweeps), or None when the fixed point hands over or
    reaches `MAX_SWEEPS`, so that the caller solves the step another way.
    """
    tol = system.p.tol
    c = rhs * system.inv_diag
    d = c
    s = np.maximum(scale, 1e-100)
    # squared relative increment of a row = inc_weight * sum of its squares
    inc_weight = (spectral.TWO_PI_SQ * 2.0) / s ** 2
    # relative error the float32 sweeps may still add
    lo, hi = SWEEP32_SCALES
    room = (SWEEP32_SHARE * tol if rhs.size * grid.pad ** 2 >= SWEEP32_MIN_WORK
            and lo <= s.min() and s.max() <= hi else 0.0)
    uv32 = d32 = None   # float32 velocity; float32 increment of the last sweep
    prev_inc = prev2_inc = math.inf
    was_slow = False
    for it in range(1, MAX_SWEEPS + 1):
        if it > 2 and SWEEP32_ERROR * prev_inc * (prev_inc / prev2_inc) <= room:
            if uv32 is None:
                uv32 = uv.astype(np.float32)
            d32 = spectral.advect_frozen(grid, uv32, system.analysis32,
                                         d.astype(np.float32) if d32 is None else d32)
            d = d32.astype(np.float64)
        else:
            d32 = None
            d = spectral.advect_frozen(grid, uv, system.analysis, d)
        c += d
        top = math.sqrt(np.maximum.reduce(inc_weight * np.vecdot(d, d), initial=0.0))
        if not math.isfinite(top):
            raise SolverError(f"non-finite state (relative increment {top:.3e})",
                              residual=top)
        if d32 is not None:
            room -= SWEEP32_ERROR * top
        rho = top / prev_inc
        # a capped rho of 1/3 on the first sweep turns the test into top <= tol
        capped = 1.0 / 3.0 if it == 1 else min(rho, 1.0 / 3.0)
        if 2.0 * capped * top <= tol * (1.0 - capped):
            return c, it
        if it > 2:
            # the sweep at which 2 r |Delta| / (1 - r) reaches tol at the two-sweep rate r
            rate = math.sqrt(top / prev2_inc)
            projected = math.inf if rate >= 1.0 else it + math.log(
                tol * (1.0 - rate) / (2.0 * rate * top)) / math.log(rate)
            if projected > MAX_SWEEPS and was_slow:
                return None
            was_slow = projected > MAX_SWEEPS
        prev2_inc, prev_inc = prev_inc, max(top, 1e-300)
    return None


def _krylov_solve(grid, uv, rhs, system: StepSystem, scale):
    """Row-by-row restarted GMRES on the real step operator
    D (I + delta D^-1 Adv) = D (I - S), with the sweep map S of
    `_fixed_point_solve`, which acts on packed states directly.

    Each row stops once its residual is <= tol * scale in the L^2 norm, the
    norm of the fixed point's increments.  D >= 1 and Adv is skew-adjoint,
    so the operator's inverse has L^2 norm <= 1 and the error is bounded by
    the same tol * scale.  Returns (c, iterations), the most inner GMRES
    iterations of any row.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(scale))):
        raise SolverError("non-finite state entering the krylov solve")
    n2 = rhs.shape[-1]
    rhs2 = rhs.reshape(-1, n2)
    uv2 = uv.reshape(-1, uv.shape[-1])
    scale2 = np.atleast_1d(scale).reshape(-1)
    # |x|_L2 = sqrt(2 (2 pi)^2) times the Euclidean norm of packed x
    atol = system.p.tol / math.sqrt(spectral.TWO_PI_SQ * 2.0)
    out = np.empty_like(rhs2)
    most_it = 0
    for i in range(rhs2.shape[0]):
        def matvec(x, i=i):
            return system.diag * (
                x - spectral.advect_frozen(grid, uv2[i], system.analysis, x))

        op = LinearOperator((n2, n2), matvec=matvec, dtype=np.float64)
        inner = []
        x, info = gmres(op, rhs2[i], x0=rhs2[i] * system.inv_diag, rtol=0.0,
                        atol=atol * max(scale2[i], 1e-300), restart=50,
                        maxiter=40, callback=inner.append, callback_type="pr_norm")
        if info != 0:
            raise SolverError(f"gmres failed to converge (info={info})",
                              residual=float(np.linalg.norm(op @ x - rhs2[i])))
        out[i] = x
        most_it = max(most_it, len(inner))
    return out.reshape(rhs.shape), most_it


def _advance_one(grid, c_prev, noise, system: StepSystem, noise_scale,
                 rhs_extra=None, extra_scale=0.0, c_norm=None):
    """One scheme step for a batch of packed states; returns (c_new, sweeps).

    The plain step solves D c + delta Adv c = c_prev + noise.  Nudging
    builds its `StepSystem` with delta beta P_K added to D and passes
    rhs_extra = delta beta P_K xi, with ``extra_scale`` bounding its norm
    in the solver's stopping scale.  ``c_norm`` is |c_prev|, when the
    caller already holds it.  The fixed point solves the step unless it
    hands over (see `_fixed_point_solve`); then the whole batch is solved
    again by GMRES from the same right-hand side, and ``sweeps`` is the
    GMRES count.
    """
    rhs = c_prev if rhs_extra is None else c_prev + rhs_extra
    if noise is not None:
        rhs = rhs + noise
    uv = spectral.velocity_values(grid, c_prev)
    if c_norm is None:
        c_norm = np.sqrt(spectral.packed_norm_sq(c_prev))
    scale = c_norm + noise_scale + extra_scale
    solved = _fixed_point_solve(grid, uv, rhs, system, scale)
    return solved if solved is not None else _krylov_solve(grid, uv, rhs, system, scale)


def step_residual(grid, c_prev, c_new, noise_coeffs, p: SchemeParams) -> np.ndarray:
    """L^2 residual of the implicit step system at c_new (diagnostic)."""
    diag = 1.0 + p.delta * p.nu * grid.lam
    adv = spectral.advect_coeffs(grid, c_prev, c_new)
    rhs = c_prev + (noise_coeffs if noise_coeffs is not None else 0.0)
    return spectral.norm_l2(diag * c_new + p.delta * adv - rhs)


def energy_identity_residual(xi_prev: SpectralField, xi_new: SpectralField,
                             noise_field: SpectralField | None,
                             p: SchemeParams) -> float:
    """Relative defect of the per-step energy identity

    |xi^n|^2 + |xi^n - xi^{n-1}|^2 - |xi^{n-1}|^2 + 2 nu delta |grad xi^n|^2
        = 2 (sqrt(delta) P_N sigma eta_n, xi^n).
    """
    grid = xi_prev.grid
    lhs = (xi_new.l2_norm() ** 2
           + spectral.norm_l2_sq(xi_new.coeffs - xi_prev.coeffs)
           - xi_prev.l2_norm() ** 2
           + 2.0 * p.nu * p.delta * spectral.sobolev_norm_sq(grid, xi_new.coeffs, 1.0))
    rhs = 0.0 if noise_field is None else 2.0 * spectral.inner(noise_field, xi_new)
    scale = max(xi_prev.l2_norm() ** 2, xi_new.l2_norm() ** 2, 1e-300)
    return float(abs(lhs - rhs) / scale)


# -- increment providers -------------------------------------------------------

def batch_increments(seed: int, trajectory_ids, fine_factor: int, d: int, delta: float):
    """Coarse increments for a batch of trajectories, drawn on demand.

    Output of the provider has shape (steps, M, d).  It draws exactly the
    tape cells of the requested steps, in philox calls of at most
    `INCREMENT_CHUNK` steps whose working set stays within `DRAW_BUDGET`;
    generation is keyed by absolute tape cells, so values do not depend on
    how a request is split.
    """
    traj = np.asarray(trajectory_ids)
    r = int(fine_factor)
    # keep one chunk's working set, not just its normals, around ~32 MB
    step_bytes = DRAW_BYTES * max(1, traj.size * d * r)
    chunk = max(1, min(INCREMENT_CHUNK, DRAW_BUDGET // step_bytes))
    root = np.sqrt(delta / r)

    def draw(a: int, b: int) -> np.ndarray:
        fine = forcing_mod.gaussian_cells(seed, traj, np.arange(a * r, b * r), d)
        fine *= root
        return sum_fine(fine.reshape(traj.size, b - a, r, d), axis=2).transpose(1, 0, 2)

    def provider(n0: int, n1: int) -> np.ndarray:
        # the output is allocated after every chunk's raw normals are freed
        return np.concatenate([draw(a, min(a + chunk, n1)) for a in range(n0, n1, chunk)])

    return provider


# -- time marching -------------------------------------------------------------

def tape_steps(n_steps: int, basis: ForcingBasis | None, increments):
    """Yield (step, noise, noise_scale) for steps 1..n_steps.

    The one walk over an increment provider: it asks for INCREMENT_CHUNK
    steps at a time and maps each increment (M, d) to its packed noise
    coefficients ``inc @ basis.packed`` and their norms.  It forms them
    for a block of steps in one stacked product and one norm call, with a
    block's noise held to `BLOCK_BYTES`; a stacked product multiplies
    each step's (M, d) matrix on its own, so every step's noise is the
    per-step product bit for bit.  ``basis`` must live on the marching
    grid; without it or without ``increments`` every step is unforced,
    (step, None, 0.0).
    """
    if basis is None or increments is None:
        for step in range(1, n_steps + 1):
            yield step, None, 0.0
        return
    for pos in range(0, n_steps, INCREMENT_CHUNK):
        dw = increments(pos, min(pos + INCREMENT_CHUNK, n_steps))
        step_bytes = 8 * dw.shape[1] * basis.packed.shape[1]
        block = max(1, BLOCK_BYTES // step_bytes)
        for b0 in range(0, len(dw), block):
            noise = dw[b0:b0 + block] @ basis.packed
            scale = np.sqrt(spectral.packed_norm_sq(noise))
            for j in range(len(noise)):
                yield pos + b0 + j + 1, noise[j], scale[j]


class MarchRecord:
    """What a march records of one batch: |c|^2 of every row at every
    step, and the step numbers and (if ``keep_states``) states of every
    ``stride``-th step.  The states stay packed until `run` unpacks them
    in place.  Construction records step 0 from the packed start ``c``."""

    def __init__(self, grid: SpectralGrid, c: np.ndarray, n_steps: int, stride: int,
                 keep_states: bool):
        if stride < 1:
            raise ConfigError("record stride must be >= 1", field="record_stride")
        n_rec, m = n_steps // stride + 1, c.shape[0]
        self.grid, self.stride, self.slot = grid, stride, 0
        self.states = np.empty((n_rec,) + c.shape) if keep_states else None
        self.energy = np.empty((n_steps + 1, m))
        self.rec_idx = np.empty(n_rec, dtype=np.int64)
        self.push(0, c)

    def push(self, step: int, c: np.ndarray) -> None:
        self.energy[step] = spectral.packed_norm_sq(c)
        if step % self.stride == 0:
            self.rec_idx[self.slot] = step
            if self.states is not None:
                self.states[self.slot] = c
            self.slot += 1

    def run(self, p: SchemeParams, iterations: np.ndarray) -> EnsembleRun:
        n, states = self.slot, None
        if self.states is not None:
            # a complex row takes the bytes of its packed row, so the record
            # is unpacked over itself, `BLOCK_BYTES` of it at a time
            states = self.states[:n].view(np.complex128)
            block = max(1, BLOCK_BYTES // self.states[0].nbytes)
            for i in range(0, n, block):
                states[i:i + block] = spectral.unpack(self.states[i:i + block])
        return EnsembleRun(self.grid, p, self.rec_idx[:n], states, self.energy, iterations)


def run_scheme(grid: SpectralGrid, c0: np.ndarray, n_steps: int, p: SchemeParams,
               basis: ForcingBasis | None, increments, record_stride: int = 1,
               keep_states: bool = True,
               observer: Callable[..., None] | None = None) -> EnsembleRun:
    """March a batch of states n_steps forward.

    ``c0`` holds complex coefficients, (n_half,) or (M, n_half); the march
    itself runs on packed states and unpacks only what it hands out.
    ``increments`` is a provider (n0, n1) -> Brownian increments
    (steps, M, d), or None for the unforced scheme.  ``observer`` is
    called as observer(step, c, noise, noise_scale) after every step
    (step >= 1) with the packed state and the step's packed noise; a
    `SolverError` it raises carries the step index like one of the march.
    Underflow is ignored for the whole march: a norm of a state or an
    increment with subnormal entries underflows harmlessly, and so does a
    float32 sweep's entry far below its row's scale.
    """
    if p.shells != grid.shells:
        raise StructuralError("params cutoff differs from grid")
    c = spectral.pack(np.asarray(c0, dtype=np.complex128))
    if c.ndim == 1:
        c = c[None, :]
    b = basis.project_to(grid) if basis is not None else None
    system = step_system(grid, p)
    rec = MarchRecord(grid, c, n_steps, record_stride, keep_states)
    iters = np.zeros(n_steps, dtype=np.int64)

    with np.errstate(under="ignore"):
        for step, noise, noise_scale in tape_steps(n_steps, b, increments):
            try:
                # |c_prev| is the square root of the energy recorded last step
                c, sweeps = _advance_one(grid, c, noise, system, noise_scale,
                                         c_norm=np.sqrt(rec.energy[step - 1]))
                if observer is not None:
                    observer(step, c, noise, noise_scale)
            except SolverError as err:
                err.step_index = step
                raise
            iters[step - 1] = sweeps
            rec.push(step, c)

    return rec.run(p, iters)


def start_rows(grid: SpectralGrid, starts, m: int) -> np.ndarray:
    """Complex start rows (k m, n_half) of k fields on any grids: start j,
    embedded on ``grid``, fills rows j m .. (j+1) m - 1."""
    return np.concatenate([
        np.broadcast_to(spectral.embed_coeffs(s.grid, grid, s.coeffs), (m, grid.n_half))
        for s in starts])


def march(p: SchemeParams, basis: ForcingBasis, starts, seed: int, ids, n_steps: int,
          r: int = 1, **run_kw) -> EnsembleRun:
    """March k = len(starts) fields, each for the M = len(ids) members of
    ``ids``, on the grid of ``p``: `run_scheme` on the `start_rows`, where
    row j M + i reads tape id i of ``batch_increments(seed, ids, r, ...)``.
    ``run_kw`` goes to `run_scheme`."""
    grid = p.grid()
    tape = batch_increments(seed, ids, r, basis.d, p.delta)
    k = len(starts)
    inc = tape if k == 1 else (lambda n0, n1: np.tile(tape(n0, n1), (1, k, 1)))
    return run_scheme(grid, start_rows(grid, starts, len(ids)), n_steps, p, basis, inc,
                      **run_kw)
