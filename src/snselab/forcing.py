"""Stochastic forcing structure: directions, noise tapes, pseudo-inverse.

The forcing couples d scalar directions sigma = (sigma_1, ..., sigma_d)
to independent Brownian motions.  Every run forces the low modes
(`low_mode_basis`): equal amplitudes on the L^2-normalized real
eigenfunctions (cos and sin per wavevector) of the first few eigenvalue
shells, which makes the Gram matrix diagonal and low-mode nondegeneracy
checkable by inspection.

Noise tapes are index-addressed: the Gaussian for (trajectory, cell,
component) is a pure function of the seed, so coupled runs, restarts, and
parallel ensembles all read the same tape.  A trajectory's increment over
step n is sqrt(delta) times its cell n (`integrator.batch_increments`).
A coarser discretization of the same path, in time or in the cutoff,
steps on the march's noise summed over its step and restricted to its
modes (`integrator.ladder`), so coarse/fine couplings share one tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng, spectral
from .errors import ConfigError, StructuralError
from .spectral import SpectralField, SpectralGrid, TWO_PI_SQ


# -- noise tapes ------------------------------------------------------------

def gaussian_cells(seed: int, trajectory_ids, cells, d: int) -> np.ndarray:
    """Unit normals for tape cells, shape (n_traj, n_cells, d)."""
    return rng.standard_normals(seed, trajectory_ids, cells, d, tag=rng.Tag.NOISE)


# -- forcing basis -----------------------------------------------------------

@dataclass(frozen=True)
class ForcingBasis:
    """The d forcing directions with their Gram matrix and total variance.

    coeff_matrix holds complex coefficients, one row per direction, and
    ``packed`` the same rows in the real [Re | Im] layout of the marching
    state; the trace of the Gram matrix equals |sigma|^2 (the trace of the
    noise covariance on L^2).
    """

    grid: SpectralGrid
    coeff_matrix: np.ndarray
    gram: np.ndarray = field(init=False)
    variance: float = field(init=False)   # |sigma|^2 = Tr(Q_0)
    packed: np.ndarray = field(init=False)

    def __post_init__(self):
        c = np.asarray(self.coeff_matrix, dtype=np.complex128)
        if c.ndim != 2 or c.shape[1] != self.grid.n_half:
            raise StructuralError("coeff_matrix must be (d, n_half)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeff_matrix", c)
        packed = spectral.pack(c)
        packed.flags.writeable = False
        object.__setattr__(self, "packed", packed)
        gram = TWO_PI_SQ * 2.0 * (c @ c.conj().T).real
        gram.flags.writeable = False
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "variance", float(np.sum(spectral.packed_norm_sq(packed))))

    @property
    def d(self) -> int:
        return self.coeff_matrix.shape[0]

    def directions(self) -> list[SpectralField]:
        return [SpectralField(self.grid, row) for row in self.coeff_matrix]

    def pinv_norm(self) -> float:
        """Operator norm of the pseudo-inverse on the range of sigma."""
        ev = np.linalg.eigvalsh(self.gram)
        pos = ev[ev > 1e-12 * max(ev.max(), 1.0)]
        if pos.size == 0:
            raise StructuralError("forcing basis has rank zero")
        return float(1.0 / np.sqrt(pos.min()))

    def project_to(self, grid: SpectralGrid) -> "ForcingBasis":
        """P_N sigma on another grid (directions re-indexed, high modes cut)."""
        if grid == self.grid:
            return self
        mat = spectral.embed_coeffs(self.grid, grid, self.coeff_matrix)
        return ForcingBasis(grid, mat)


def low_mode_basis(grid: SpectralGrid, shells: int, variance: float = 0.5) -> ForcingBasis:
    """Forcing on the normalized real eigenfunctions of the first shells.

    Directions are cos and sin per canonical wavevector with |k|^2 within
    ``shells`` eigenvalue shells, and the total variance |sigma|^2 is split
    evenly among them; a variance of 0 gives the unforced scheme, with
    every direction zero.
    """
    if shells < 1:
        raise ConfigError(f"need >= 1 forcing shell, got {shells!r}", field="shells")
    if not (variance >= 0 and math.isfinite(variance)):
        raise ConfigError(f"must be finite and >= 0, got {variance!r}", field="variance")
    mask = grid.mode_mask(shells)
    idx = np.flatnonzero(mask)
    d = 2 * idx.size
    q = np.sqrt(variance / d)
    rows = np.zeros((d, grid.n_half), dtype=np.complex128)
    # normalized eigenfunctions: cos -> 1/(2 sqrt(2) pi), sin -> -i like it
    base = 1.0 / (2.0 * np.sqrt(2.0) * np.pi)
    rows[0::2][np.arange(idx.size), idx] = q * base
    rows[1::2][np.arange(idx.size), idx] = -1j * q * base
    return ForcingBasis(grid, rows)


def pinv_matrix(basis: ForcingBasis) -> np.ndarray:
    """Real matrix applying sigma^{-1} to packed coefficients in one matmul.

    Returns P with eta = spectral.pack(f) @ P.T; used by couplings that
    evaluate the shift every step for whole ensembles.
    """
    return np.linalg.pinv(basis.gram, rcond=1e-12) @ (TWO_PI_SQ * 2.0 * basis.packed)
