"""Semi-implicit Euler time stepping for the truncated vorticity dynamics.

One step solves the linear system

    (I + delta nu A) xi_new + delta P_N(u_prev . grad xi_new) = xi_prev
        + sqrt(delta) P_N sigma eta_n,      u_prev = K * xi_prev,

with diffusion and advection at the new time level and the advecting
velocity frozen at the old one.  The diagonal part is inverted exactly in
Fourier space; the O(delta) advection perturbation is handled by
preconditioned fixed-point iteration, which stops on an a-posteriori bound
of its error (`_fixed_point_solve`).  A step on which the fixed point
cannot finish within `MAX_SWEEPS` sweeps, by its own contraction estimate,
is solved again by restarted GMRES.  Both solvers stop at tol * scale in
the L^2 norm.

Everything operates on batched states (M, 2 n_half) in the real packed
layout [Re c | Im c] of `spectral` (see `spectral.pack`), so whole
ensembles advance in single vectorized steps: the noise coefficients, the
frozen velocity, every fixed-point sweep and the per-step norms stay real,
and complex coefficients appear only where states leave the march (the
recorded `EnsembleRun.states`, observers, and the `SpectralField` entry
points).  Each member reads its own index-addressed noise, so its path
does not depend on which other members share the batch, up to the solve
tolerance: the fixed-point stop is batch-wide, every row sweeps as often
as the stiffest one, and ``iterations`` records that batch maximum.

One kernel, `_advance_one`, takes every step: the plain scheme by default,
and the nudged scheme when the caller adds delta beta P_K to the diagonal
of its `StepSystem` and passes the matching right-hand-side term.  One
generator, `tape_steps`, walks an increment provider in `INCREMENT_CHUNK`
pieces and turns each Brownian increment into its noise coefficients;
every march loop (`run_scheme`, the coupled run) iterates over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import forcing as forcing_mod
from . import spectral
from .errors import ConfigError, SolverError, StructuralError
from .forcing import ForcingBasis, NoiseStream, sum_fine
from .spectral import SpectralField, SpectralGrid

INCREMENT_CHUNK = 256  # coarse steps of tape generated per philox call
MAX_SWEEPS = 200       # fixed-point sweeps per solve before GMRES takes over


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
        if self.nu <= 0:
            raise ConfigError("viscosity must be positive", field="nu")
        if self.delta <= 0:
            raise ConfigError("time step must be positive", field="delta")
        if self.shells < 1:
            raise ConfigError("cutoff must be >= 1 shell", field="shells")
        if self.delta0 is None:
            object.__setattr__(self, "delta0", self.delta)
        if self.delta > self.delta0 + 1e-15:
            raise ConfigError("delta exceeds delta0", field="delta")
        if not self.tol > 0:
            raise ConfigError("solver tolerance must be positive", field="tol")

    def grid(self) -> SpectralGrid:
        return spectral.make_grid(self.shells)


@dataclass
class Trajectory:
    """A single path of the scheme with per-step scalar diagnostics."""

    grid: SpectralGrid
    params: SchemeParams
    step_indices: np.ndarray      # recorded step numbers (monotone, starts at 0)
    states: np.ndarray            # (n_rec, n_half) complex coefficients
    energy_sq: np.ndarray         # |xi^n|^2 for every step 0..n_steps
    h1_sq: np.ndarray             # |grad xi^n|^2 likewise
    iterations: np.ndarray        # implicit-solver sweeps per step

    @property
    def times(self) -> np.ndarray:
        return self.step_indices * self.params.delta

    def state(self, i: int) -> SpectralField:
        return SpectralField(self.grid, self.states[i])

    def final(self) -> SpectralField:
        return self.state(-1)


@dataclass
class EnsembleRun:
    """Batched trajectories sharing params; leading axis is the member."""

    grid: SpectralGrid
    params: SchemeParams
    step_indices: np.ndarray
    states: np.ndarray | None     # (n_rec, M, n_half) or None if not kept
    energy_sq: np.ndarray         # (n_steps+1, M)
    h1_sq: np.ndarray
    iterations: np.ndarray        # (n_steps,)

    @property
    def times(self) -> np.ndarray:
        return self.step_indices * self.params.delta

    def member(self, i: int) -> Trajectory:
        states = self.states[:, i] if self.states is not None else None
        return Trajectory(self.grid, self.params, self.step_indices, states,
                          self.energy_sq[:, i], self.h1_sq[:, i], self.iterations)


# -- implicit solve ------------------------------------------------------------

class StepSystem(NamedTuple):
    """Diagonal part of one step's system in the packed [Re | Im] layout.

    ``analysis`` is ``grid._anal`` with delta D^-1 folded into its columns,
    so one `spectral.advect_frozen` call returns delta D^-1 P_N(u . grad c).
    """

    p: SchemeParams
    diag: np.ndarray          # D, (2 n_half,)
    inv_diag: np.ndarray      # D^-1
    analysis: np.ndarray      # (pad^2, 2 n_half)


def step_system(grid: SpectralGrid, p: SchemeParams, extra_diag=None) -> StepSystem:
    """D = I + delta nu A, plus ``extra_diag`` (delta beta P_K when nudging)."""
    diag = 1.0 + p.delta * p.nu * grid.lam
    if extra_diag is not None:
        diag = diag + extra_diag
    diag = np.concatenate([diag, diag])
    inv_diag = 1.0 / diag
    return StepSystem(p, diag, inv_diag, grid._anal * (p.delta * inv_diag))


def _fixed_point_solve(grid, uv, rhs, system: StepSystem, scale):
    """Solve (D + delta Adv) c = rhs by c <- D^-1 rhs - delta D^-1 Adv c.

    Error-bound stopping: the iteration is an affine contraction, so with
    the relative increment |Delta_k| = |c_k - c_{k-1}| / scale and the
    contraction estimate rho_k = |Delta_k| / |Delta_{k-1}|, the iterate c_k
    lies within about rho_k |Delta_k| / (1 - rho_k) of the solution.  The
    first sweep has no estimate and stops on |Delta_1| <= tol; from the
    second on the solve stops once twice that bound is <= tol, with rho_k
    capped at 1/3.  The factor 2 covers the growth of the increment ratio
    from one sweep to the next (an estimate from the last ratio alone was
    seen to miss tol by 9%), and the cap keeps 2 rho / (1 - rho) <= 1, so
    the solve never stops later than |Delta_k| <= tol would.  The stop is
    batch-wide: |Delta_k| and rho_k come from the largest relative
    increment of any row.

    Hand-over: were the increments to keep shrinking by the raw (uncapped)
    rho_k per sweep, the uncapped bound 2 rho_k |Delta_j| / (1 - rho_k)
    would reach tol at sweep j = k + log(tol (1 - rho_k) / (2 rho_k
    |Delta_k|)) / log rho_k.  A sweep is slow when rho_k >= 1 or that projection exceeds
    `MAX_SWEEPS`; from sweep 4 on, two slow sweeps in a row end the
    iteration.  One slow sweep is not enough: the ratio of a slow but
    finishing contraction oscillates about its rate.

    Returns (c, sweeps), or None when the fixed point hands over or
    reaches `MAX_SWEEPS`, so that the caller solves the step another way.
    """
    tol = system.p.tol
    rhs_w = rhs * system.inv_diag
    c = rhs_w
    # squared relative increment of a row = inc_weight * sum of its squares
    inc_weight = (spectral.TWO_PI_SQ * 2.0) / np.maximum(scale, 1e-100) ** 2
    prev_inc = math.inf
    was_slow = False
    for it in range(1, MAX_SWEEPS + 1):
        c_new = rhs_w - spectral.advect_frozen(grid, uv, system.analysis, c)
        d = c_new - c
        c = c_new
        top = math.sqrt(np.max(inc_weight * np.einsum("...i,...i->...", d, d),
                               initial=0.0))
        if not math.isfinite(top):
            raise SolverError(f"non-finite state (relative increment {top:.3e})",
                              residual=top)
        rho = top / prev_inc
        # a capped rho of 1/3 on the first sweep turns the test into top <= tol
        capped = 1.0 / 3.0 if it == 1 else min(rho, 1.0 / 3.0)
        if 2.0 * capped * top <= tol * (1.0 - capped):
            return c, it
        if it > 1:
            # the sweep at which 2 rho |Delta| / (1 - rho) reaches tol, rho uncapped
            projected = math.inf if rho >= 1.0 else it + math.log(
                tol * (1.0 - rho) / (2.0 * rho * top)) / math.log(rho)
            if projected > MAX_SWEEPS and was_slow and it >= 4:
                return None
            was_slow = projected > MAX_SWEEPS
        prev_inc = max(top, 1e-300)
    return None


def _krylov_solve(grid, uv, rhs, system: StepSystem, scale):
    """Row-by-row restarted GMRES on the real step operator
    D (I + delta D^-1 Adv), which acts on packed states directly.

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
                x + spectral.advect_frozen(grid, uv2[i], system.analysis, x))

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


def semi_implicit_step(xi_prev: SpectralField, eta: np.ndarray, p: SchemeParams,
                       basis: ForcingBasis | None) -> SpectralField:
    """One step of the scheme from a single state.

    ``eta`` holds the unit-variance Gaussian vector of the step (the noise
    enters as sqrt(delta) P_N sigma eta); pass basis=None or eta=None for
    the unforced scheme.
    """
    grid = xi_prev.grid
    noise, noise_scale = _eta_noise(grid, eta, p.delta, basis)
    c, _ = _advance_one(grid, spectral.pack(xi_prev.coeffs), noise,
                        step_system(grid, p), noise_scale)
    return SpectralField(grid, spectral.unpack(c))


def _eta_noise(grid, eta, delta: float, basis: ForcingBasis | None):
    """(sqrt(delta) P_N sigma eta packed, its norm), or (None, 0.0) when unforced."""
    if basis is None or eta is None:
        return None, 0.0
    noise = np.sqrt(delta) * spectral.pack(
        forcing_mod.apply_forcing(basis.project_to(grid), eta))
    return noise, np.sqrt(spectral.packed_norm_sq(noise))


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

def stream_increments(stream: NoiseStream, d: int, delta: float,
                      chunk: int = INCREMENT_CHUNK) -> Callable[[int, int], np.ndarray]:
    """Coarse Brownian increments of one stream as a chunked provider.

    The returned callable maps (n0, n1) to the increments of coarse steps
    n0..n1-1 with shape (n1 - n0, 1, d); each coarse increment is the sum
    of the stream's fine_factor sub-increments.
    """
    return batch_increments(stream.seed, [stream.trajectory_id],
                            stream.fine_factor, d, delta, chunk)


def batch_increments(seed: int, trajectory_ids, fine_factor: int, d: int,
                     delta: float, chunk: int | None = None):
    """Coarse increments for a batch of trajectories, drawn on demand.

    Output of the provider has shape (steps, M, d).  It draws exactly the
    tape cells of the requested steps, at most ``chunk`` steps per philox
    call; generation is keyed by absolute tape cells, so values do not
    depend on chunk size.
    """
    traj = np.asarray(trajectory_ids)
    r = int(fine_factor)
    if chunk is None:
        # keep one chunk of raw normals around ~32 MB
        chunk = max(1, min(INCREMENT_CHUNK, (1 << 22) // max(1, traj.size * d * r)))
    root = np.sqrt(delta / r)

    def provider(n0: int, n1: int) -> np.ndarray:
        out = np.empty((n1 - n0, traj.size, d))
        for a in range(n0, n1, chunk):
            b = min(a + chunk, n1)
            g = forcing_mod.gaussian_cells(seed, traj, np.arange(a * r, b * r), d)
            fine = root * g.reshape(traj.size, b - a, r, d)
            out[a - n0: b - n0] = sum_fine(fine, axis=2).transpose(1, 0, 2)
        return out

    return provider


# -- time marching -------------------------------------------------------------

def tape_steps(n_steps: int, basis: ForcingBasis | None, increments):
    """Yield (step, noise, noise_scale) for steps 1..n_steps.

    The one walk over an increment provider: it asks for INCREMENT_CHUNK
    steps at a time and maps each increment (M, d) to its packed noise
    coefficients ``dw @ basis.packed`` and their norms, one step at a
    time.  ``basis`` must live on the marching grid; without it or without
    ``increments`` every step is unforced, (step, None, 0.0).
    """
    if basis is None or increments is None:
        for step in range(1, n_steps + 1):
            yield step, None, 0.0
        return
    for pos in range(0, n_steps, INCREMENT_CHUNK):
        dw = increments(pos, min(pos + INCREMENT_CHUNK, n_steps))
        for j, inc in enumerate(dw):
            noise = inc @ basis.packed
            yield pos + j + 1, noise, np.sqrt(spectral.packed_norm_sq(noise))


def run_scheme(grid: SpectralGrid, c0: np.ndarray, n_steps: int, p: SchemeParams,
               basis: ForcingBasis | None, increments, record_stride: int = 1,
               keep_states: bool = True,
               observer: Callable[[int, np.ndarray], None] | None = None) -> EnsembleRun:
    """March a batch of states n_steps forward.

    ``c0`` holds complex coefficients, (n_half,) or (M, n_half); the march
    itself runs on packed states and unpacks only what it hands out.
    ``increments`` is a provider (n0, n1) -> Brownian increments
    (steps, M, d), or None for the unforced scheme.  ``observer`` is
    called as observer(step, coeffs) after every step (step >= 1).
    """
    if p.shells != grid.shells:
        raise StructuralError("params cutoff differs from grid")
    if record_stride < 1:
        raise ConfigError("record stride must be >= 1", field="record_stride")
    c = spectral.pack(np.asarray(c0, dtype=np.complex128))
    if c.ndim == 1:
        c = c[None, :]
    m = c.shape[0]
    b = basis.project_to(grid) if basis is not None else None
    system = step_system(grid, p)

    n_rec = n_steps // record_stride + 1
    states = np.empty((n_rec, m, grid.n_half), dtype=np.complex128) if keep_states else None
    energy = np.empty((n_steps + 1, m))
    h1 = np.empty((n_steps + 1, m))
    iters = np.zeros(n_steps, dtype=np.int64)
    rec_idx = np.empty(n_rec, dtype=np.int64)

    def record(step, slot):
        rec_idx[slot] = step
        if keep_states:
            states[slot] = spectral.unpack(c)

    energy[0] = spectral.packed_norm_sq(c)
    h1[0] = spectral.packed_norm_sq(c, grid.lam_packed)
    record(0, 0)
    slot = 1

    for step, noise, noise_scale in tape_steps(n_steps, b, increments):
        try:
            # |c_prev| is the square root of the energy recorded last step
            c, sweeps = _advance_one(grid, c, noise, system, noise_scale,
                                     c_norm=np.sqrt(energy[step - 1]))
        except SolverError as err:
            err.step_index = step
            raise
        iters[step - 1] = sweeps
        energy[step] = spectral.packed_norm_sq(c)
        h1[step] = spectral.packed_norm_sq(c, grid.lam_packed)
        if observer is not None:
            observer(step, spectral.unpack(c))
        if step % record_stride == 0:
            record(step, slot)
            slot += 1

    return EnsembleRun(grid, p, rec_idx[:slot], states[:slot] if keep_states else None,
                       energy, h1, iters)


def simulate(xi0: SpectralField, n_steps: int, p: SchemeParams,
             basis: ForcingBasis | None, stream: NoiseStream | None,
             record_stride: int = 1) -> Trajectory:
    """Deterministic function of (xi0, params, forcing, stream)."""
    grid = p.grid()
    c0 = spectral.embed_coeffs(xi0.grid, grid, xi0.coeffs) if xi0.grid != grid else xi0.coeffs
    inc = None
    if basis is not None and stream is not None:
        inc = stream_increments(stream, basis.d, p.delta)
    run = run_scheme(grid, c0, n_steps, p, basis, inc, record_stride)
    return run.member(0)


def simulate_ensemble(xi0, n_steps: int, p: SchemeParams, basis: ForcingBasis,
                      seed: int, trajectory_ids, fine_factor: int = 1,
                      record_stride: int = 1, keep_states: bool = True) -> EnsembleRun:
    """Batch of paths from shared initial data (or per-member batch array)."""
    grid = p.grid()
    c0 = xi0.coeffs if isinstance(xi0, SpectralField) else np.asarray(xi0)
    if c0.ndim == 1:
        c0 = np.broadcast_to(c0, (len(trajectory_ids), grid.n_half))
    inc = batch_increments(seed, trajectory_ids, fine_factor, basis.d, p.delta)
    return run_scheme(grid, c0, n_steps, p, basis, inc, record_stride, keep_states)


def reference_simulate(xi0: SpectralField, horizon: float, p_fine: SchemeParams,
                       basis: ForcingBasis, stream: NoiseStream) -> Trajectory:
    """Self-refined reference: same scheme at delta/R on the same tape.

    p_fine.delta must equal the coarse step divided by stream.fine_factor;
    states are recorded at the coarse times so they pair directly with the
    coarse run.
    """
    r = stream.fine_factor
    n_coarse = round(horizon / (p_fine.delta * r))
    if abs(n_coarse * p_fine.delta * r - horizon) > 1e-9 * max(horizon, 1.0):
        raise ConfigError("horizon is not a whole number of coarse steps",
                          field="horizon")
    grid = p_fine.grid()
    c0 = spectral.embed_coeffs(xi0.grid, grid, xi0.coeffs) if xi0.grid != grid else xi0.coeffs
    inc = None
    if basis is not None:
        fine_stream = NoiseStream(stream.seed, stream.trajectory_id, 1)
        inc = stream_increments(fine_stream, basis.d, p_fine.delta)
    run = run_scheme(grid, c0, n_coarse * r, p_fine, basis, inc, record_stride=r)
    return run.member(0)


# -- exponential-moment probe ---------------------------------------------------

@dataclass(frozen=True)
class MomentProbe:
    """Log-space samples of exp(alpha |xi^n|^2 + alpha nu delta sum |grad xi^j|^2)."""

    alpha: float
    log_values: np.ndarray          # (n_steps+1,) or (n_steps+1, M)
    log_energy_only: np.ndarray     # alpha |xi^n|^2 alone
    bound_log: np.ndarray = field(default=None)


def moment_probe(run: Trajectory | EnsembleRun, alpha: float,
                 basis: ForcingBasis | None = None,
                 margin: float = 0.25, c_tilde: float = 1.0) -> MomentProbe:
    """Exponential-moment samples along a run, stored in log space.

    Requires alpha <= (margin/|sigma|^2) min(nu, 1/delta0) when the
    forcing is supplied (the admissible range of the moment bound, with
    the unspecified absolute constant exposed as ``margin``).
    """
    p = run.params
    if basis is not None and alpha > 0:
        cap = (margin / basis.variance) * min(p.nu, 1.0 / p.delta0)
        if alpha > cap + 1e-15:
            raise ConfigError(
                f"alpha={alpha} exceeds admissible {cap:.4g} for this margin",
                field="alpha")
    dissip = np.concatenate([np.zeros_like(run.h1_sq[:1]),
                             np.cumsum(run.h1_sq[1:], axis=0)])
    log_values = alpha * run.energy_sq + alpha * p.nu * p.delta * dissip
    log_energy = alpha * run.energy_sq
    bound = None
    if basis is not None:
        n = np.arange(run.energy_sq.shape[0])
        e0 = np.atleast_1d(run.energy_sq[0])
        bign = n[:, None] if log_values.ndim == 2 else n
        c_big = c_tilde * (1.0 + p.nu * p.delta0)
        bound = (np.log(c_tilde) + c_big * alpha * e0
                 + c_tilde * alpha * basis.variance * bign * p.delta)
        bound = np.broadcast_to(bound, log_values.shape)
    return MomentProbe(alpha, log_values, log_energy, bound)
