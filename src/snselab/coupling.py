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

Both systems advance on one noise tape.  The plain batch is one
`integrator.march`, and its observer steps the nudged copies after each
plain step, because the control term references xi^n at the new time
level.  A run returns per nudged start only its gaps and, with shifts,
its per-member cost and per-step mean |psi_j|^2 (`CoupledPair`); a
caller sees both batches' states through the run's observer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forcing as forcing_mod
from . import integrator as integ
from . import spectral
from .errors import ConfigError, RangeError
from .forcing import ForcingBasis
from .integrator import SchemeParams
from .spectral import SpectralField

SHIFT_TOL = 1e-8   # relative residual above which a shift leaves range(sigma)


@dataclass(frozen=True)
class NudgeParams:
    """Controlled-shell count K, gain beta, and the base discretization."""

    shells_controlled: int
    beta: float
    base: SchemeParams

    def __post_init__(self):
        if self.shells_controlled < 1:
            raise ConfigError("at least one controlled shell required",
                              field="shells_controlled")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative", field="beta")
        lam_next = int(spectral.eigenvalue_shells(
            self.shells_controlled + 1)[self.shells_controlled])
        if self.base.nu * lam_next < 2.0 * self.beta - 1e-12:
            raise ConfigError(
                f"nu*lambda_(K+1)={self.base.nu * lam_next} < 2*beta={2 * self.beta}; "
                "relax beta or widen the controlled band",
                field="beta")


def propose_beta(shells_controlled: int, base: SchemeParams,
                 basis: ForcingBasis | None = None) -> dict:
    """Saturating gain beta = nu lambda_{K+1} / 2 for a given K.

    Also reports whether beta clears the admissibility floor
    beta >= max(1/delta, delta^2 |sigma|^4/nu^3, |sigma|^4/nu^5), taking
    the absolute constant, which the theory leaves free, as 1.  A nu whose
    fifth power underflows to zero leaves the floor undefined and is a
    `ConfigError` on ``nu``.
    """
    lam_next = int(spectral.eigenvalue_shells(shells_controlled + 1)[shells_controlled])
    beta = 0.5 * base.nu * lam_next
    out = {"beta": beta, "lambda_next": lam_next, "floor_ok": None, "floor": None}
    if basis is not None:
        if base.nu ** 5 == 0.0:
            raise ConfigError(f"nu^5 underflows to zero at nu = {base.nu!r}", field="nu")
        s2 = basis.variance
        floor = max(1.0 / base.delta, base.delta ** 2 * s2 ** 2 / base.nu ** 3,
                    s2 ** 2 / base.nu ** 5)
        out["floor"] = floor
        out["floor_ok"] = bool(beta >= floor)
    return out


@dataclass
class CoupledPair:
    """One nudged start's coupling records (the last two None without
    ``compute_shifts``)."""

    gaps_sq: np.ndarray                  # |zeta^n|^2, shape (n_steps+1, M)
    kl_bound: np.ndarray | None          # delta sum_j |psi_j|^2, shape (M,)
    shift_sq_mean: np.ndarray | None     # member mean of |psi_j|^2, shape (n_steps,)


def coupled_ensembles(xi0: SpectralField, xi_tilde0s, n_steps: int,
                      np_: NudgeParams, basis: ForcingBasis, seed: int,
                      trajectory_ids, compute_shifts: bool = True,
                      observer=None) -> list[CoupledPair]:
    """Batched coupled pairs, one per nudged start, on one tape per trajectory id.

    The plain ensemble of M = len(trajectory_ids) rows marches once in
    `integ.march`, and its observer steps the k nudged copies after each
    plain step, as one batch of k M rows (`integ.start_rows`): copy j
    takes rows j M .. (j+1) M - 1, and each row i is nudged toward plain
    row i mod M on the plain row's noise.  The observer records gaps and
    sums sum_j |psi_j|^2 per nudged row and each copy's member mean of
    |psi_j|^2 per step; at step 0, where the march's observer sees the
    start rows with no noise, it takes no nudged step and no shift and
    records only the gaps.  ``observer(step, c, ct)``, if given, sees the
    packed plain rows ``c`` (M) and nudged rows ``ct`` (k M) at step 0 and
    after every nudged step.
    """
    if len(xi_tilde0s) == 0:
        raise ConfigError("need at least one nudged start", field="xi_tilde0s")
    p = np_.base
    grid = p.grid()
    b = basis.project_to(grid)
    mask = grid.mode_mask(np_.shells_controlled).astype(np.float64)
    system_n = integ.step_system(grid, p, p.delta * np_.beta * mask)
    mask = np.concatenate([mask, mask])   # P_K on packed states
    nudge = p.delta * np_.beta * mask

    m, k = len(trajectory_ids), len(xi_tilde0s)
    ct = spectral.pack(integ.start_rows(grid, xi_tilde0s, m))
    pinv_t = forcing_mod.pinv_matrix(b).T if compute_shifts else None
    energy_t = None   # |c~|^2 of the last step: the next c_norm
    gaps = np.empty((n_steps + 1, k * m))
    shift_sq = np.zeros(k * m) if compute_shifts else None
    shift_sq_mean = np.empty((n_steps, k)) if compute_shifts else None

    def follow(step, c, noise, nscale):
        # the control references xi^n at the new level, so the plain step comes first
        nonlocal ct, energy_t, shift_sq
        c_k = np.tile(c, (k, 1))   # plain row i mod M beside each nudged row
        if step:
            plain_norm = np.sqrt(spectral.packed_norm_sq(c))
            ct, _ = integ._advance_one(
                grid, ct, np.tile(noise, (k, 1)), system_n, np.tile(nscale, k),
                rhs_extra=nudge * c_k, extra_scale=np.tile(np_.beta * p.delta * plain_norm, k),
                c_norm=np.sqrt(energy_t))
        zeta = ct - c_k
        gaps[step] = spectral.packed_norm_sq(zeta)
        if compute_shifts and step:
            zk = mask * zeta
            eta = zk @ pinv_t
            resid = np.sqrt(spectral.packed_norm_sq(eta @ b.packed - zk))
            znorm = np.sqrt(spectral.packed_norm_sq(zk))
            bad = resid > SHIFT_TOL * np.maximum(znorm, 1e-300)
            if np.any(bad & (znorm > 0)):
                raise RangeError(
                    f"controlled modes left range(sigma) at step {step}",
                    float(np.max(resid)))
            psi_sq = np_.beta ** 2 * np.sum(eta ** 2, axis=1)   # psi = -beta eta
            shift_sq += psi_sq
            shift_sq_mean[step - 1] = np.mean(psi_sq.reshape(k, m), axis=1)
        energy_t = spectral.packed_norm_sq(ct)
        if observer is not None:
            observer(step, c, ct)

    integ.march(p, basis, [xi0], seed, trajectory_ids, n_steps, follow)
    rows = [slice(j * m, (j + 1) * m) for j in range(k)]
    if not compute_shifts:
        return [CoupledPair(gaps[:, r], None, None) for r in rows]
    return [CoupledPair(gaps[:, r], p.delta * shift_sq[r], shift_sq_mean[:, j])
            for j, r in enumerate(rows)]


def kl_majorant(np_: NudgeParams, basis: ForcingBasis, gap0_sq: float) -> float:
    """Closed-form majorant shape beta (1+beta delta) |sigma^-1|^2 |zeta0|^2.

    The absolute constant and the state-dependent exponential factor of
    the full bound are dropped (the factor is O(1) at desk scale); used for
    order-of-magnitude comparisons.
    """
    b = np_.beta
    return float(b * (1.0 + b * np_.base.delta) * basis.pinv_norm() ** 2 * gap0_sq)
