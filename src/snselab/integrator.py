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
state.  From the second sweep on an increment is tiny next to the state,
so a sweep may run in float32 (mixed-precision iterative refinement:
Carson and Higham, SIAM J. Sci. Comput. 40(2), 2018), and all float32
sweeps of a solve together add at most `SWEEP32_SHARE` = 5% of tol *
scale to any row.  A step on which the fixed point cannot finish within
`MAX_SWEEPS` sweeps, by its own contraction estimate, is solved again, on
the whole batch, by a Chebyshev iteration on the known spectrum of the
sweep map (`_chebyshev_solve`), which converges at any step size and
stops on a residual that bounds its error by tol * scale in the L^2 norm.

Everything operates on batched states (M, 2 n_half) in the real packed
layout [Re c | Im c] of `spectral` (see `spectral.pack`), so whole
ensembles advance in single vectorized steps: the noise coefficients, the
frozen velocity, every fixed-point sweep and the per-step norms stay real,
and a state leaves the march only through its observer, still packed.
Each member reads its own index-addressed noise, so its path does not
depend on which other members share the batch, up to the solve
tolerance: the fixed-point stop is batch-wide, every row sweeps as often
as the stiffest one, and ``iterations`` records that batch maximum.
A batch of one row (a single path) keeps its per-step bookkeeping in
Python floats, with the batch form's arithmetic and bits (see
`_fixed_point_solve`).

One kernel, `_advance_one`, takes every step: the plain scheme by default,
and the nudged scheme when the caller adds delta beta P_K to the diagonal
of its `StepSystem` and passes the matching right-hand-side term.  One
generator, `tape_steps`, walks an increment provider in `INCREMENT_CHUNK`
pieces and turns each Brownian increment into its noise coefficients,
and one march loop, `run_scheme`, iterates over it.  Its observer sees
the packed start rows as step 0, with no noise, and then each step's
packed state and noise, which is how the coupled run steps its nudged
copies after the plain batch and how every study takes its statistics
of a path, the start included; the march itself keeps only the per-step
energies |c|^2 and sweep counts of its `EnsembleRun`.  `ladder` is the
one place coarser discretizations of a path are stepped: every rung, at
any cutoff up to the march's and any whole multiple of its delta, steps
in an observer of the finest march on that march's summed noise,
restricted to the rung's modes, and its reducer sees, at the caller's
record steps, only the rungs that stepped there.  The temporal,
spatial, weak and contraction studies each make one such march.

Every march from initial fields goes through `march`, which owns the
layout of the synchronous coupling: k starts, each repeated for the M
members of ``ids`` (`start_rows`), stack as k M rows, and row j M + i
reads tape id i.  A single path is the march of one start on one id.
No study calls `run_scheme` or `batch_increments` itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import forcing as forcing_mod
from . import spectral
from .errors import ConfigError, SolverError, StructuralError
from .forcing import ForcingBasis
from .spectral import SpectralGrid

INCREMENT_CHUNK = 256  # coarse steps of tape generated per philox call
MAX_SWEEPS = 200       # fixed-point sweeps per solve before the Chebyshev fall-back
CHEBYSHEV_POWER = 10   # power maps of S behind the fall-back's estimate of kappa
CHEBYSHEV_MARGIN = 1.1  # factor on that estimate, a lower bound of kappa
FALLBACK_MAPS = 2000   # S maps one fall-back solve may make, power maps included
SWEEP32_ERROR = 2.0 ** -18  # bound on a float32 sweep's error relative to its increment
SWEEP32_SHARE = 0.05        # share of tol * scale the float32 sweeps of a solve may add
SWEEP32_GROWTH = 16.0       # sweep 2's predicted |Delta_2| / |Delta_1|^2 (medians 4-10.5 seen)
SWEEP32_MIN_WORK = 1 << 17  # rows * 2 n_half * n_nodes below which a float32 sweep does not pay
SWEEP32_SCALES = (2.0 ** -50, 2.0 ** 50)  # row scales whose sweeps stay in float32's range
RESCALE_BELOW = 2.0 ** -400  # row scale below which a solve runs in units of its rows' scales
DRAW_BUDGET = 32 << 20  # bytes one philox draw of the tape may hold at once
DRAW_BYTES = 16         # bytes per normal of a tape chunk: its words (normals in place), their copy out
BLOCK_BYTES = 1 << 20   # bytes of packed noise rows formed in one call


@dataclass(frozen=True)
class SchemeParams:
    """One point theta = (N, delta) of the discretization family.

    tol bounds the L^2 error of the implicit solve relative to its scale.
    How the step system is solved is not part of theta.
    """

    nu: float
    delta: float
    shells: int
    tol: float = 1e-12

    def __post_init__(self):
        for name in ("nu", "delta", "tol"):
            x = getattr(self, name)
            if not (x > 0 and math.isfinite(x)):
                raise ConfigError(f"must be positive and finite, got {x!r}", field=name)
        if self.shells < 1:
            raise ConfigError("cutoff must be >= 1 shell", field="shells")

    def grid(self) -> SpectralGrid:
        return spectral.make_grid(self.shells)


@dataclass
class EnsembleRun:
    """What a march of a batch keeps; the leading axis of each row is the
    member.

    ``energy_sq`` is |c|^2 of every row at every step; every other view
    of the states comes from an observer of the march.  A single path is
    a run with M = 1."""

    energy_sq: np.ndarray         # (n_steps+1, M)
    iterations: np.ndarray        # (n_steps,)


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
    analysis: np.ndarray      # (n_nodes, 2 n_half)
    analysis32: np.ndarray    # (n_nodes, 2 n_half), float32


def step_system(grid: SpectralGrid, p: SchemeParams, extra_diag=None) -> StepSystem:
    """D = I + delta nu A, plus ``extra_diag`` (delta beta P_K when nudging)."""
    diag = 1.0 + p.delta * p.nu * grid.lam
    if extra_diag is not None:
        diag = diag + extra_diag
    diag = np.concatenate([diag, diag])
    inv_diag = 1.0 / diag
    analysis = grid._anal * (-p.delta * inv_diag)
    # entries below float32's range come only with steps too small to
    # contract slowly enough for a float32 sweep, and entries above it
    # (delta D^-1 beyond ~1e38) with steps that contract only from states
    # far below `SWEEP32_SCALES`, where no sweep is float32
    with np.errstate(under="ignore", over="ignore"):
        return StepSystem(p, diag, inv_diag, analysis, analysis.astype(np.float32))


def _fixed_point_solve(grid, uv, rhs, system: StepSystem, scale):
    """Solve (D + delta Adv) c = rhs by fixed-point iteration in increment form.

    With the sweep map S = -delta D^-1 Adv (one `spectral.advect_frozen`
    call on ``system.analysis``), the iteration c_k = D^-1 rhs + S c_{k-1}
    from c_0 = D^-1 rhs is taken through its increments Delta_k = c_k -
    c_{k-1}: sweep 1 gives Delta_1 = S c_0, each later sweep Delta_{k+1} =
    S Delta_k, and every sweep adds its increment to c.

    Float32 sweeps (mixed-precision iterative refinement): from sweep 2 on,
    each sweep refines an increment far below the state, so its float32
    rounding can stay far below tol.  `SWEEP32_ERROR` = 2^-18 bounds the
    error of a float32 sweep relative to its increment (tests measure at
    most a quarter of it), and a solve's float32 sweeps share a room of
    `SWEEP32_SHARE` * tol.  A sweep runs in float32 when its predicted
    relative increment times `SWEEP32_ERROR` fits in what is left of that
    room.  From sweep 3 on the prediction is rho_k |Delta_k|, with the last
    ratio rho_k = |Delta_k| / |Delta_{k-1}|.  Sweep 2 has no ratio yet, but
    c_0 is at most about the scale, so |Delta_1| = |S c_0| / scale is at
    most about the contraction factor rho of S, and |Delta_2| ~ rho
    |Delta_1|: sweep 2 is predicted as `SWEEP32_GROWTH` |Delta_1|^2 = 16
    |Delta_1|^2.  Over the solves of the four benchmark workloads
    |Delta_2| / |Delta_1|^2 had medians of 4 to 10.5 per solve shape; at
    the temporal ladder's reference (16 shells, 128 rows, delta = 1/5120)
    it was 9 to 13, with |Delta_1| ~ 7.7e-6 and |Delta_2| ~ 6.2e-10, so
    sweep 2 there costs 2^-18 * 6.2e-10 ~ 2.4e-15 of a room of 5e-14 and
    runs in float32, and the solve keeps one float64 sweep.  A prediction
    only picks the precision: the room pays for a float32 sweep after its
    increment is measured, and only if it fits.  An increment that would
    overspend (a ratio that grew faster than predicted, or a float32
    overflow) is dropped, and the same input increment is mapped again in
    float64 before anything is added to c.  So all float32 sweeps of a
    solve together add at most 5% of tol * scale to any row, and a dropped
    sweep costs one extra map but no extra sweep.  A float32 sweep casts Delta_k
    (or takes the last sweep's float32 increment) and the velocity to
    float32, maps them with the float32 copies of the gradient synthesis
    and ``system.analysis``, and adds the result to c in float64.  Sweep 1
    stays float64, and so does the whole solve when any row's scale lies
    outside `SWEEP32_SCALES` (there a float32 increment could overflow, or
    underflow to nothing) or when the sweep is smaller than
    `SWEEP32_MIN_WORK`, where the casts cost more than float32 gemms save.

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
    come from the largest relative increment of any row.  When a row's
    scale is below `RESCALE_BELOW` = 2^-400 (a zero row included), where
    squared increments could underflow, every row iterates in units of
    the power of two 2^e of its scale, an exact rescaling undone on
    return, so increments are relative before they are squared; above
    it, absolute units give the same bits for less work.

    One row: a batch of one row, chosen once from the row count, keeps its
    scale, inc_weight and relative increments in Python floats, and its
    increment is sqrt(inc_weight |Delta_k|^2) in place of the batch's max
    over rows: the same products in the same order, so the same bits and
    sweeps.  A row below `RESCALE_BELOW` keeps the array code, and so do
    float32 sweeps and the Chebyshev fall-back.  At 10 shells a one-row
    solve of 4 sweeps took about 34 us in place of 45 us for the array
    form, and a rescaled one about 5 us more (one BLAS thread, 2-vCPU Xeon).

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
    reaches `MAX_SWEEPS`: the caller then solves by `_chebyshev_solve`.
    """
    tol = system.p.tol
    c = rhs * system.inv_diag
    expo = None
    one_row = len(rhs) == 1
    if one_row and not isinstance(scale, float):
        scale = scale.item()
    # squared relative increment of a row = inc_weight * sum of its squares
    smallest = scale if one_row else np.minimum.reduce(scale)
    if smallest >= RESCALE_BELOW:
        inc_weight = (spectral.TWO_PI_SQ * 2.0) / (scale * scale)
    else:
        one_row = False   # a rescaled row keeps the array code
        # scale = mant 2^expo with mant in [1/2, 1), or 0 for a zero row
        mant, expo = np.frexp(scale)
        expo = expo[..., None]
        c = np.ldexp(c, -expo)
        inc_weight = (spectral.TWO_PI_SQ * 2.0) / np.maximum(mant, 0.5) ** 2
    d = c
    # relative error the float32 sweeps may still add
    lo, hi = SWEEP32_SCALES
    room = (SWEEP32_SHARE * tol if rhs.size * grid.n_nodes >= SWEEP32_MIN_WORK
            and lo <= smallest and (scale if one_row else scale.max()) <= hi else 0.0)
    uv32 = d32 = None   # float32 velocity; float32 increment of the last sweep
    if one_row:
        def measure(x):   # the largest relative increment of any row
            return math.sqrt(inc_weight * float(np.vecdot(x[0], x[0])))
    else:
        def measure(x):
            return math.sqrt(np.maximum.reduce(inc_weight * np.vecdot(x, x), initial=0.0))
    prev_inc = prev2_inc = math.inf
    was_slow = False
    for it in range(1, MAX_SWEEPS + 1):
        # float32 when the predicted relative increment times SWEEP32_ERROR fits
        # the room left: none at sweep 1, SWEEP32_GROWTH |Delta_1|^2 at sweep 2,
        # then the last increment times the last ratio
        single = room > 0.0 and it > 1 and SWEEP32_ERROR * prev_inc * (
            SWEEP32_GROWTH * prev_inc if it == 2 else prev_inc / prev2_inc) <= room
        if single:
            if uv32 is None:
                uv32 = uv.astype(np.float32)
            new32 = spectral.advect_frozen(grid, uv32, system.analysis32,
                                           d.astype(np.float32) if d32 is None else d32)
            new = new32.astype(np.float64)
            top = measure(new)
            # the room pays only for a measured float32 increment that fits; one
            # that would overspend is dropped and the same increment mapped in float64
            single = SWEEP32_ERROR * top <= room
            if single:
                room -= SWEEP32_ERROR * top
                d, d32 = new, new32
        if not single:
            d32 = None
            d = spectral.advect_frozen(grid, uv, system.analysis, d)
            top = measure(d)
        if not math.isfinite(top):
            raise SolverError(f"non-finite state (relative increment {top:.3e})",
                              residual=top)
        c += d
        rho = top / prev_inc
        # a capped rho of 1/3 on the first sweep turns the test into top <= tol
        capped = 1.0 / 3.0 if it == 1 else min(rho, 1.0 / 3.0)
        if 2.0 * capped * top <= tol * (1.0 - capped):
            return (c if expo is None else np.ldexp(c, expo)), it
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


def _chebyshev_solve(grid, uv, rhs, system: StepSystem, scale):
    """Chebyshev iteration on (I - S) c = D^-1 rhs, all rows at once, with
    the sweep map S of `_fixed_point_solve`; returns (c, maps of S).

    S is skew in the D-norm |x|_D^2 = x . D x, so I - S has its spectrum on
    1 + i[-kappa, kappa], kappa = |S|_D, where the iteration (Saad, Iterative
    Methods for Sparse Linear Systems, 2nd ed., 2003, Alg. 12.1) has real
    coefficients, converges for any kappa and keeps |r_k|_D <= b_k |r_0|_D,
    b_k = 2 rho^k / (1 + (-rho^2)^k), rho = exp(-asinh(1 / kappa)).  kappa
    is the largest |S x|_D / |x|_D of any row after `CHEBYSHEV_POWER` power
    maps, a lower bound, times `CHEBYSHEV_MARGIN`; a row past 2 b_k |r_0|_D
    has an eigenvalue beyond it, and the iteration restarts from its iterate
    with kappa estimated from the residual, at least 1.5 times larger.  It
    stops once every row has |D r|_L2 <= tol * scale, which bounds the error
    by tol * scale (y . D (I - S) y = y . D y >= |y|^2).  Rows run in units
    of the power of two of their scale, exact and undone on return.  A
    (re)start at which sqrt(max D) b_k reaches tol only past `FALLBACK_MAPS`
    maps, or a solve that spends them, raises a `SolverError` naming kappa.
    """
    if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(scale))):
        raise SolverError("non-finite state entering the Chebyshev solve")
    tol, diag, maps = system.p.tol, system.diag, 0
    mant, expo = np.frexp(np.reshape(scale, (-1, 1)))
    log_needed = math.log(2.0 * math.sqrt(diag.max()) / tol)   # k -log rho to reach tol

    def sweep(x):
        nonlocal maps
        maps += 1
        return spectral.advect_frozen(grid, uv, system.analysis, x)

    def d_norm(x):
        return np.sqrt(np.vecdot(diag * x, x))

    def estimate(x):
        for _ in range(CHEBYSHEV_POWER):
            x = sweep(x / np.maximum(d_norm(x), 1e-300)[:, None])
        return CHEBYSHEV_MARGIN * float(np.max(d_norm(x)))

    x, r = np.zeros_like(rhs), np.ldexp(rhs * system.inv_diag, -expo)
    kappa, k = estimate(r), 0   # k: sweeps since the last (re)start
    while True:
        res = np.sqrt(spectral.packed_norm_sq(diag * r))   # |D r|_L2
        if np.all(res <= tol * mant[:, 0]):
            return np.ldexp(x, expo), maps
        if k == 0:
            decay = math.asinh(1.0 / kappa) if kappa else math.inf   # -log rho
            r0, d, tau = d_norm(r), r, kappa
        if maps >= FALLBACK_MAPS or k == 0 and not ((FALLBACK_MAPS - maps) * decay >= log_needed):
            raise SolverError(f"the Chebyshev fall-back needs more than {FALLBACK_MAPS} "
                              f"maps at kappa = {kappa:.3e}",
                              residual=float(np.max(res / np.maximum(mant[:, 0], 0.5))))
        x += d
        r = r - (d - sweep(d))
        k += 1
        omega = 2.0 / (2.0 + kappa * tau)   # 2 tau_{k+1} / kappa, also at kappa = 0
        d, tau = omega * r - (0.5 * kappa * omega * tau) * d, 0.5 * kappa * omega
        bound = 2.0 * math.exp(-k * decay) / (1.0 + (-math.exp(-2.0 * decay)) ** k)
        if np.any(d_norm(r) > 2.0 * bound * r0):
            kappa, k = max(1.5 * kappa, estimate(r)), 0


def _advance_one(grid, c_prev, noise, system: StepSystem, noise_scale,
                 rhs_extra=None, extra_scale=0.0, c_norm=None):
    """One scheme step for a batch of packed states; returns (c_new, sweeps).

    The plain step solves D c + delta Adv c = c_prev + noise.  Nudging
    builds its `StepSystem` with delta beta P_K added to D and passes
    rhs_extra = delta beta P_K xi, with ``extra_scale`` bounding its norm
    in the solver's stopping scale; it is added only when nudging.
    ``c_norm`` is |c_prev|, when the caller already holds it; it and
    ``noise_scale`` may be floats for a batch of one row.  The fixed point
    solves the step unless it hands over (see `_fixed_point_solve`); then
    the whole batch is solved again by `_chebyshev_solve` from the same
    right-hand side, and ``sweeps`` is the number of S maps it made.
    """
    rhs = c_prev if rhs_extra is None else c_prev + rhs_extra
    if noise is not None:
        rhs = rhs + noise
    uv = spectral.velocity_values(grid, c_prev)
    if c_norm is None:
        c_norm = np.sqrt(spectral.packed_norm_sq(c_prev))
    scale = (c_norm + noise_scale if rhs_extra is None
             else c_norm + noise_scale + extra_scale)
    return (_fixed_point_solve(grid, uv, rhs, system, scale)
            or _chebyshev_solve(grid, uv, rhs, system, scale))


# -- increment providers -------------------------------------------------------

def batch_increments(seed: int, trajectory_ids, d: int, delta: float):
    """Brownian increments for a batch of trajectories, drawn on demand:
    step n of trajectory i is sqrt(delta) times tape cell n of id i.

    Output of the provider has shape (steps, M, d).  It draws exactly the
    tape cells of the requested steps, in philox calls of at most
    `INCREMENT_CHUNK` steps whose working set stays within `DRAW_BUDGET`;
    generation is keyed by absolute tape cells, so values do not depend on
    how a request is split.
    """
    traj = np.asarray(trajectory_ids)
    # keep one chunk's working set, not just its normals, around ~32 MB
    step_bytes = DRAW_BYTES * max(1, traj.size * d)
    chunk = max(1, min(INCREMENT_CHUNK, DRAW_BUDGET // step_bytes))
    root = np.sqrt(delta)

    def draw(a: int, b: int) -> np.ndarray:
        cells = forcing_mod.gaussian_cells(seed, traj, np.arange(a, b), d)
        cells *= root
        return cells.transpose(1, 0, 2)

    def provider(n0: int, n1: int) -> np.ndarray:
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
    per-step product bit for bit.  A batch of one row gets its norm as a
    float, the others an (M,) array.  ``basis`` must live on the marching
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
            if scale.shape[1] == 1:
                scale = scale[:, 0].tolist()
            for j in range(len(noise)):
                yield pos + b0 + j + 1, noise[j], scale[j]


def run_scheme(grid: SpectralGrid, c0: np.ndarray, n_steps: int, p: SchemeParams,
               basis: ForcingBasis | None, increments,
               observer: Callable[..., None] | None = None) -> EnsembleRun:
    """March a batch of states n_steps forward.

    ``c0`` holds complex coefficients, (n_half,) or (M, n_half); the march
    itself runs on packed states.  ``increments`` is a provider (n0, n1)
    -> Brownian increments (steps, M, d), or None for the unforced scheme.
    The march keeps only |c|^2 of every row at every step, which the next
    step's solve reads (as a float when M = 1), and the sweep counts;
    ``observer`` is the one view of its states, called as observer(step,
    c, noise, noise_scale) with the packed state and the step's packed
    noise: first at step 0 on the packed start rows, with no noise (None,
    0.0, as `tape_steps` gives an unforced step), then after every step.
    A `SolverError` it raises carries the step index like one of the
    march.  Underflow is ignored for the whole march: a norm of a state or
    an increment with subnormal entries underflows harmlessly, and so does
    a float32 sweep's entry far below its row's scale.
    """
    if p.shells != grid.shells:
        raise StructuralError("params cutoff differs from grid")
    c = spectral.pack(np.asarray(c0, dtype=np.complex128))
    if c.ndim == 1:
        c = c[None, :]
    b = basis.project_to(grid) if basis is not None else None
    system = step_system(grid, p)
    energy = np.empty((n_steps + 1, c.shape[0]))
    iters = np.zeros(n_steps, dtype=np.int64)
    one_row = c.shape[0] == 1

    with np.errstate(under="ignore"):
        for step, noise, noise_scale in itertools.chain(
                [(0, None, 0.0)], tape_steps(n_steps, b, increments)):
            try:
                if step:
                    # |c_prev| is the square root of the energy recorded last step
                    c_norm = (math.sqrt(energy[step - 1, 0]) if one_row
                              else np.sqrt(energy[step - 1]))
                    c, iters[step - 1] = _advance_one(grid, c, noise, system,
                                                      noise_scale, c_norm=c_norm)
                if observer is not None:
                    observer(step, c, noise, noise_scale)
            except SolverError as err:
                err.step_index = step
                raise
            energy[step] = spectral.packed_norm_sq(c)

    return EnsembleRun(energy, iters)


def start_rows(grid: SpectralGrid, starts, m: int) -> np.ndarray:
    """Complex start rows (k m, n_half) of k fields on any grids: start j,
    embedded on ``grid``, fills rows j m .. (j+1) m - 1."""
    return np.concatenate([
        np.broadcast_to(spectral.embed_coeffs(s.grid, grid, s.coeffs), (m, grid.n_half))
        for s in starts])


def march(p: SchemeParams, basis: ForcingBasis, starts, seed: int, ids, n_steps: int,
          observer: Callable[..., None] | None = None) -> EnsembleRun:
    """March k = len(starts) fields, each for the M = len(ids) members of
    ``ids``, on the grid of ``p``: `run_scheme` on the `start_rows`, where
    row j M + i reads tape id i of ``batch_increments(seed, ids, ...)``,
    with ``observer`` as its observer."""
    grid = p.grid()
    tape = batch_increments(seed, ids, basis.d, p.delta)
    k = len(starts)
    inc = tape if k == 1 else (lambda n0, n1: np.tile(tape(n0, n1), (1, k, 1)))
    return run_scheme(grid, start_rows(grid, starts, len(ids)), n_steps, p, basis, inc,
                      observer)


def ladder(p: SchemeParams, rungs, basis: ForcingBasis, starts, seed: int, ids,
           n_steps: int, record: int, reducer: Callable[..., None]) -> None:
    """`march` the k ``starts`` at ``p`` and, on the same Brownian path, a
    copy of them at each `SchemeParams` of ``rungs``: the one place rungs
    step.  Every state, the march's and each rung's, holds the k M rows of
    `start_rows`, and row j M + i reads tape id i.

    A rung's cutoff is at most ``p.shells`` and its delta a whole multiple,
    its stride, of ``p.delta`` (else a `StructuralError`).  It starts from
    the ``starts`` embedded on its grid and steps once per stride in the
    march's observer, through `_advance_one`, on the sum of the noise its
    stride's base steps gave the march, restricted to its own modes
    (`spectral.packed_columns`, a slice on the march's grid); its noise
    scale is that sum's norm.  The noise map is linear and a mode's noise
    does not depend on the cutoff, so that is the noise of the summed
    Brownian increment on the rung's grid, as in Giles's multilevel
    coupling (Operations Research 56(3), 2008): a stride-1 rung is a lone
    `march` on its grid bit for bit, and a coarser one matches a lone
    march on the summed tape up to rounding.  The sum has two levels:
    every base step adds its noise into one buffer, and every g base
    steps, g the gcd of the strides, that buffer is added into each
    rung's; a rung steps on its buffer and clears it.  (Adding every base
    step into every rung made the temporal ladder about 10% slower.)

    ``reducer(step, c, cs)`` sees the march's packed state ``c`` at step 0
    (the march's observer call on the start rows, with no noise to sum)
    and after every ``record``-th base step, a positive multiple of g
    (else a `StructuralError` before any step), and a fresh list ``cs``:
    rung k's packed state if it stepped at ``step`` (every rung at step
    0), else None, so no reducer reads a stale rung.  No path is kept
    beyond the current states; the reducer takes what the caller needs.
    """
    grid = p.grid()
    strides = [round(q.delta / p.delta) for q in rungs]
    if any(q.shells > p.shells or k < 1 or abs(q.delta / p.delta - k) > 1e-9
           for q, k in zip(rungs, strides)):
        raise StructuralError("a rung needs a cutoff <= the march's and a whole stride")
    g = math.gcd(*strides) or 1
    if record < 1 or record % g:
        raise StructuralError(f"record {record!r} is not a positive multiple of {g}")
    grids = [q.grid() for q in rungs]
    systems = [step_system(gr, q) for gr, q in zip(grids, rungs)]
    cols = [spectral.packed_columns(gr, grid) for gr in grids]
    cs = [spectral.pack(start_rows(gr, starts, len(ids))) for gr in grids]
    # the noise of the base steps since the last g-th
    part = np.zeros((len(starts) * len(ids), 2 * grid.n_half))
    sums = [np.zeros(c.shape) for c in cs]

    def follow(step, c, noise, noise_scale):
        if step:
            np.add(part, noise, out=part)
            if step % g:
                return
            for k, stride in enumerate(strides):
                sums[k] += part[:, cols[k]]
                if step % stride == 0:
                    cs[k], _ = _advance_one(grids[k], cs[k], sums[k], systems[k],
                                            np.sqrt(spectral.packed_norm_sq(sums[k])))
                    sums[k][:] = 0.0
            part[:] = 0.0
        if step % record == 0:
            reducer(step, c, [x if step % s == 0 else None for x, s in zip(cs, strides)])

    march(p, basis, starts, seed, ids, n_steps, follow)
