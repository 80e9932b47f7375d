"""Nudged coupling of scheme trajectories and its Girsanov accounting.

A nudged copy of the dynamics tracks a reference trajectory xi^n through
the feedback term -beta delta P_K (xi_tilde^n - xi^n) acting on the first
K eigenvalue shells: low modes are steered directly and high modes are
slaved to them through the dissipation (nu lambda_{K+1} >= 2 beta keeps
the slaving margin).  Removing the feedback by shifting the driving
Wiener path with

    psi_j = -beta sigma^{-1} P_K (xi_tilde^j - xi^j)

turns the nudged run back into the plain scheme, so the path-space cost
delta sum_j |psi_j|^2 bounds the Kullback-Leibler divergence (and through
it the total variation distance) between the two time-marginal laws.

Both systems advance on one noise tape; the plain system is advanced
first within each step because the control term references xi^n at the
new time level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forcing as forcing_mod
from . import integrator as integ
from . import spectral
from .errors import ConfigError, RangeError, SolverError
from .forcing import ForcingBasis, NoiseStream
from .integrator import EnsembleRun, SchemeParams, Trajectory
from .spectral import SpectralField, SpectralGrid


@dataclass(frozen=True)
class NudgeParams:
    """Controlled-shell count K, gain beta, and the base discretization."""

    shells_controlled: int
    beta: float
    base: SchemeParams
    enforce_paper_condition: bool = True

    def __post_init__(self):
        if self.shells_controlled < 1:
            raise ConfigError("at least one controlled shell required",
                              field="shells_controlled")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative", field="beta")
        if self.enforce_paper_condition:
            lam_next = int(spectral.eigenvalue_shells(
                self.shells_controlled + 1)[self.shells_controlled])
            if self.base.nu * lam_next < 2.0 * self.beta - 1e-12:
                raise ConfigError(
                    f"nu*lambda_(K+1)={self.base.nu * lam_next} < 2*beta={2 * self.beta}; "
                    "relax beta or widen the controlled band",
                    field="beta")


def propose_beta(shells_controlled: int, base: SchemeParams,
                 basis: ForcingBasis | None = None, margin: float = 1.0) -> dict:
    """Saturating gain beta = nu lambda_{K+1} / 2 for a given K.

    Also reports whether beta clears the admissibility floor
    beta >= margin * max(1/delta0, delta0^2 |sigma|^4/nu^3, |sigma|^4/nu^5),
    whose absolute constant the theory leaves free.
    """
    lam_next = int(spectral.eigenvalue_shells(shells_controlled + 1)[shells_controlled])
    beta = 0.5 * base.nu * lam_next
    out = {"beta": beta, "lambda_next": lam_next, "floor_ok": None, "floor": None}
    if basis is not None:
        s2 = basis.variance
        floor = margin * max(1.0 / base.delta0,
                             base.delta0 ** 2 * s2 ** 2 / base.nu ** 3,
                             s2 ** 2 / base.nu ** 5)
        out["floor"] = floor
        out["floor_ok"] = bool(beta >= floor)
    return out


@dataclass
class CoupledPair:
    """A plain trajectory, its nudged shadow, and the coupling records."""

    primary: Trajectory | EnsembleRun
    nudged: Trajectory | EnsembleRun
    gaps_sq: np.ndarray            # |zeta^n|^2, shape (n_steps+1,) or (n_steps+1, M)
    shifts: np.ndarray | None      # psi_j, shape (n_steps, d) or (n_steps, M, d)
    params: NudgeParams

    @property
    def times(self) -> np.ndarray:
        n = self.gaps_sq.shape[0]
        return np.arange(n) * self.params.base.delta


def nudged_step(xi_tilde_prev: SpectralField, xi_target_new: SpectralField,
                eta: np.ndarray | None, np_: NudgeParams,
                basis: ForcingBasis | None) -> SpectralField:
    """One nudged step; the control enters the diagonal of the solve."""
    grid = xi_tilde_prev.grid
    p = np_.base
    mask = grid.mode_mask(np_.shells_controlled).astype(np.float64)
    system = integ.step_system(grid, p, p.delta * np_.beta * mask)
    rhs_extra = spectral.pack(p.delta * np_.beta * mask * xi_target_new.coeffs)
    noise, noise_scale = integ._eta_noise(grid, eta, p.delta, basis)
    c, _ = integ._advance_one(grid, spectral.pack(xi_tilde_prev.coeffs), noise, system,
                              noise_scale, rhs_extra,
                              np.sqrt(spectral.packed_norm_sq(rhs_extra)))
    return SpectralField(grid, spectral.unpack(c))


def _coupled_run(grid: SpectralGrid, c0: np.ndarray, ct0: np.ndarray, n_steps: int,
                 np_: NudgeParams, basis: ForcingBasis, increments,
                 record_stride: int = 1, compute_shifts: bool = True,
                 keep_states: bool = False, shift_tol: float = 1e-8):
    """Advance plain and nudged batches on one tape; record gaps and shifts.

    Both batches march as packed states; complex coefficients are written
    only into the recorded states.
    """
    p = np_.base
    b = basis.project_to(grid)
    mask = grid.mode_mask(np_.shells_controlled).astype(np.float64)
    system = integ.step_system(grid, p)
    system_n = integ.step_system(grid, p, p.delta * np_.beta * mask)
    mask = np.concatenate([mask, mask])   # P_K on packed states
    nudge = p.delta * np_.beta * mask

    c = spectral.pack(np.asarray(c0, dtype=np.complex128))
    ct = spectral.pack(np.asarray(ct0, dtype=np.complex128))
    if c.ndim == 1:
        c, ct = c[None, :], ct[None, :]
    m = c.shape[0]

    pinv_t = forcing_mod.pinv_matrix(b).T if compute_shifts else None

    n_rec = n_steps // record_stride + 1
    rec_idx = np.empty(n_rec, dtype=np.int64)
    states = np.empty((n_rec, m, grid.n_half), dtype=np.complex128) if keep_states else None
    states_t = np.empty_like(states) if keep_states else None
    gaps = np.empty((n_steps + 1, m))
    shifts = np.empty((n_steps, m, b.d)) if compute_shifts else None
    energy = np.empty((n_steps + 1, m))
    energy_t = np.empty((n_steps + 1, m))
    h1 = np.empty((n_steps + 1, m))
    h1_t = np.empty((n_steps + 1, m))
    iters = np.zeros(n_steps, dtype=np.int64)

    def record(step, slot):
        rec_idx[slot] = step
        if keep_states:
            states[slot], states_t[slot] = spectral.unpack(c), spectral.unpack(ct)

    gaps[0] = spectral.packed_norm_sq(ct - c)
    energy[0], energy_t[0] = spectral.packed_norm_sq(c), spectral.packed_norm_sq(ct)
    h1[0] = spectral.packed_norm_sq(c, grid.lam_packed)
    h1_t[0] = spectral.packed_norm_sq(ct, grid.lam_packed)
    record(0, 0)
    slot = 1

    for step, noise, nscale in integ.tape_steps(n_steps, b, increments):
        try:
            # plain system first: the control references xi^n at the new level
            c, it1 = integ._advance_one(grid, c, noise, system, nscale,
                                        c_norm=np.sqrt(energy[step - 1]))
            energy[step] = spectral.packed_norm_sq(c)
            ct, it2 = integ._advance_one(
                grid, ct, noise, system_n, nscale, rhs_extra=nudge * c,
                extra_scale=np_.beta * p.delta * np.sqrt(energy[step]),
                c_norm=np.sqrt(energy_t[step - 1]))
        except SolverError as err:
            err.step_index = step
            raise
        zeta = ct - c
        gaps[step] = spectral.packed_norm_sq(zeta)
        if compute_shifts:
            zk = mask * zeta
            eta = zk @ pinv_t
            resid = np.sqrt(spectral.packed_norm_sq(eta @ b.packed - zk))
            znorm = np.sqrt(spectral.packed_norm_sq(zk))
            bad = resid > shift_tol * np.maximum(znorm, 1e-300)
            if np.any(bad & (znorm > 0)):
                raise RangeError(
                    f"controlled modes left range(sigma) at step {step}",
                    float(np.max(resid)))
            shifts[step - 1] = -np_.beta * eta
        energy_t[step] = spectral.packed_norm_sq(ct)
        h1[step] = spectral.packed_norm_sq(c, grid.lam_packed)
        h1_t[step] = spectral.packed_norm_sq(ct, grid.lam_packed)
        iters[step - 1] = max(it1, it2)
        if step % record_stride == 0:
            record(step, slot)
            slot += 1

    primary = EnsembleRun(grid, p, rec_idx[:slot],
                          states[:slot] if keep_states else None, energy, h1, iters)
    nudged = EnsembleRun(grid, p, rec_idx[:slot],
                         states_t[:slot] if keep_states else None, energy_t, h1_t, iters)
    return primary, nudged, gaps, shifts


def coupled_simulate(xi0: SpectralField, xi_tilde0: SpectralField, n_steps: int,
                     np_: NudgeParams, basis: ForcingBasis, stream: NoiseStream,
                     record_stride: int = 1, compute_shifts: bool = True,
                     keep_states: bool = False) -> CoupledPair:
    """Advance the pair (plain, nudged) from two initial states on one tape."""
    grid = np_.base.grid()
    if compute_shifts:
        rep = forcing_mod.check_nondegeneracy(basis.project_to(grid),
                                              np_.shells_controlled)
        if not rep.satisfied:
            raise RangeError(
                "shift reconstruction requested but forcing does not cover the "
                f"controlled band (uncovered: {rep.witness[:4]}...)", float("nan"))
    c0 = spectral.embed_coeffs(xi0.grid, grid, xi0.coeffs)
    ct0 = spectral.embed_coeffs(xi_tilde0.grid, grid, xi_tilde0.coeffs)
    inc = integ.stream_increments(stream, basis.d, np_.base.delta)
    primary, nudged, gaps, shifts = _coupled_run(
        grid, c0, ct0, n_steps, np_, basis, inc, record_stride,
        compute_shifts, keep_states)
    return CoupledPair(primary.member(0), nudged.member(0), gaps[:, 0],
                       shifts[:, 0] if shifts is not None else None, np_)


def coupled_ensemble(xi0: SpectralField, xi_tilde0: SpectralField, n_steps: int,
                     np_: NudgeParams, basis: ForcingBasis, seed: int,
                     trajectory_ids, record_stride: int = 1,
                     compute_shifts: bool = True,
                     keep_states: bool = False) -> CoupledPair:
    """Batched coupled pairs, one tape per trajectory id."""
    grid = np_.base.grid()
    m = len(trajectory_ids)
    c0 = np.broadcast_to(spectral.embed_coeffs(xi0.grid, grid, xi0.coeffs),
                         (m, grid.n_half))
    ct0 = np.broadcast_to(spectral.embed_coeffs(xi_tilde0.grid, grid, xi_tilde0.coeffs),
                          (m, grid.n_half))
    inc = integ.batch_increments(seed, trajectory_ids, 1, basis.d, np_.base.delta)
    primary, nudged, gaps, shifts = _coupled_run(
        grid, c0, ct0, n_steps, np_, basis, inc, record_stride,
        compute_shifts, keep_states)
    return CoupledPair(primary, nudged, gaps, shifts, np_)


# -- information-theoretic cost -----------------------------------------------

@dataclass(frozen=True)
class GirsanovCost:
    """Path-space cost of the shift removing the nudging feedback.

    ``kl_bound`` is delta * sum_j |psi_j|^2 (per member when batched), an
    upper bound for KL(law of shifted path || law of driving path).
    """

    kl_bound: np.ndarray
    delta: float

    @property
    def kl_mean(self) -> float:
        return float(np.mean(self.kl_bound))

    def tv_bound(self, a: float = 1.0) -> float:
        """2^((1-a)/(1+a)) (E (integral |phi|^2)^a)^(1/(1+a)) for a in (0, 1]."""
        if not 0.0 < a <= 1.0:
            raise ValueError("a must lie in (0, 1]")
        cost = np.atleast_1d(self.kl_bound)
        return float(2.0 ** ((1.0 - a) / (1.0 + a))
                     * np.mean(cost ** a) ** (1.0 / (1.0 + a)))

    def tv_from_kl(self) -> float:
        """1 - exp(-KL)/2, using the mean cost as the KL estimate."""
        return float(1.0 - 0.5 * np.exp(-self.kl_mean))


def girsanov_cost(pair: CoupledPair) -> GirsanovCost:
    if pair.shifts is None:
        raise ConfigError("coupled run was made without shift recording",
                          field="compute_shifts")
    cost = pair.params.base.delta * np.sum(pair.shifts ** 2, axis=(0, -1))
    return GirsanovCost(np.atleast_1d(cost), pair.params.base.delta)


def kl_majorant(np_: NudgeParams, basis: ForcingBasis, gap0_sq: float,
                c_tilde: float = 1.0) -> float:
    """Closed-form majorant shape c~ beta (1+beta delta) |sigma^-1|^2 |zeta0|^2.

    The state-dependent exponential factor of the full bound is dropped
    (it is O(1) at desk scale); used for order-of-magnitude comparisons.
    """
    b = np_.beta
    return float(c_tilde * b * (1.0 + b * np_.base.delta)
                 * basis.pinv_norm() ** 2 * gap0_sq)


# -- pathwise contraction fit ---------------------------------------------------

@dataclass(frozen=True)
class ContractionFit:
    exact_coupling: bool
    per_step_log_factor: float | None
    theoretical_log_factor: float
    r_squared: float | None
    rate_ok: bool | None
    n_fit: int


def pathwise_contraction_check(pair: CoupledPair, band: float = 0.5,
                               floor_rel: float = 1e-20) -> ContractionFit:
    """Fit log E|zeta^n|^2 against n and compare with -(3/4) log(1+beta delta).

    Steps whose mean square gap has collapsed below floor_rel * |zeta^0|^2
    (numerical coupling floor) are excluded from the fit.  All-zero gaps
    report an exact coupling rather than an error.
    """
    gaps = pair.gaps_sq if pair.gaps_sq.ndim == 1 else np.mean(pair.gaps_sq, axis=1)
    theo = -0.75 * np.log1p(pair.params.beta * pair.params.base.delta)
    if gaps[0] == 0.0 or np.all(gaps == 0.0):
        return ContractionFit(True, None, theo, None, None, 0)
    keep = gaps > floor_rel * gaps[0]
    keep &= gaps > 0
    n = np.flatnonzero(keep)
    if n.size < 3:
        return ContractionFit(False, None, theo, None, None, int(n.size))
    y = np.log(gaps[n])
    slope, intercept = np.polyfit(n.astype(float), y, 1)
    pred = slope * n + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    rate_ok = bool(-slope >= band * (-theo))
    return ContractionFit(False, float(slope), theo, r2, rate_ok, int(n.size))


def shifted_tape_increments(pair: CoupledPair, basis: ForcingBasis,
                            seed: int, trajectory_id: int):
    """Increment provider for the shifted path W_hat read off a coupled run.

    Over step n the shifted increment is DW_n + delta psi_n, the drift that
    converts the plain scheme started from the nudged initial state into
    the nudged trajectory (pathwise uniqueness identification).
    """
    if pair.shifts is None:
        raise ConfigError("shifts were not recorded", field="compute_shifts")
    p = pair.params.base
    shifts = pair.shifts if pair.shifts.ndim == 2 else pair.shifts[:, 0, :]
    stream = NoiseStream(seed, trajectory_id, 1)
    base = integ.stream_increments(stream, basis.d, p.delta)

    def provider(n0: int, n1: int) -> np.ndarray:
        return base(n0, n1) + p.delta * shifts[n0:n1, None, :]

    return provider
