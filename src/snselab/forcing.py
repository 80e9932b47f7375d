"""Stochastic forcing structure: directions, noise tapes, pseudo-inverse.

The forcing couples d scalar directions sigma = (sigma_1, ..., sigma_d)
to independent Brownian motions.  The canonical preset places amplitudes
on the L^2-normalized real eigenfunctions (cos and sin per wavevector) of
the first few eigenvalue shells, which makes the Gram matrix diagonal and
low-mode nondegeneracy checkable by inspection.

Noise tapes are index-addressed: the Gaussian for (trajectory, cell,
component) is a pure function of the seed, so coupled runs, restarts, and
parallel ensembles all read the same tape.  A stream's coarse increment
over step n is *defined* as the sum of its fine_factor sub-increments,
making coarse/fine couplings exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng, spectral
from .errors import RangeError, StructuralError
from .spectral import SpectralField, SpectralGrid, TWO_PI_SQ


# -- noise streams -----------------------------------------------------------

@dataclass(frozen=True)
class NoiseStream:
    """Descriptor of one trajectory's Brownian increment tape.

    fine_factor R is the number of sub-steps per coarse step; sub-increment
    (n, j) lives on tape cell n*R + j.
    """

    seed: int
    trajectory_id: int
    fine_factor: int = 1

    def __post_init__(self):
        if self.fine_factor < 1:
            raise ValueError("fine_factor must be >= 1")


def gaussian_cells(seed: int, trajectory_ids, cells, d: int) -> np.ndarray:
    """Unit normals for tape cells, shape (n_traj, n_cells, d)."""
    return rng.standard_normals(seed, trajectory_ids, cells, d, tag=rng.Tag.NOISE)


def sum_fine(fine_increments: np.ndarray, axis: int = 0) -> np.ndarray:
    """The one summation used to aggregate sub-increments everywhere.

    Keeping a single code path (reduction over a fixed leading axis) makes
    'coarse equals the sum of its fines' an exact identity rather than a
    floating-point coincidence.
    """
    return np.add.reduce(np.moveaxis(fine_increments, axis, 0), axis=0)


def sample_increment(stream: NoiseStream, n: int, level, *, d: int,
                     delta: float) -> np.ndarray:
    """Brownian increment of coarse step n (0-based) at the requested level.

    level is "coarse" or ("fine", j) with 0 <= j < fine_factor; ``delta``
    is the coarse step size.  Fine increments are sqrt(delta/R) times unit
    normals; the coarse increment is their sum.
    """
    r = stream.fine_factor
    if level == "coarse":
        fines = fine_increments(stream, n, n + 1, d=d, delta=delta)[0]
        return sum_fine(fines, axis=0)
    kind, j = level
    if kind != "fine" or not (0 <= j < r):
        raise ValueError(f"bad level {level!r} for fine_factor {r}")
    cell = n * r + j
    g = gaussian_cells(stream.seed, [stream.trajectory_id], [cell], d)[0, 0]
    return np.sqrt(delta / r) * g


def fine_increments(stream: NoiseStream, n0: int, n1: int, *, d: int,
                    delta: float) -> np.ndarray:
    """All fine increments for coarse steps [n0, n1), shape (n1-n0, R, d)."""
    r = stream.fine_factor
    cells = np.arange(n0 * r, n1 * r)
    g = gaussian_cells(stream.seed, [stream.trajectory_id], cells, d)[0]
    return np.sqrt(delta / r) * g.reshape(n1 - n0, r, d)


# -- forcing basis -----------------------------------------------------------

@dataclass(frozen=True)
class ForcingBasis:
    """The d forcing directions with Gram and norm metadata.

    coeff_matrix holds complex coefficients, one row per direction, and
    ``packed`` the same rows in the real [Re | Im] layout of the marching
    state; the trace of the Gram matrix equals |sigma|^2 (the trace of the
    noise covariance on L^2).
    """

    grid: SpectralGrid
    coeff_matrix: np.ndarray
    labels: tuple = ()
    gram: np.ndarray = field(init=False)
    norms: dict = field(init=False)
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
        norms = {s: float(np.sum(spectral.sobolev_norm_sq(self.grid, c, s)))
                 for s in (0.0, 1.0, 2.0)}
        object.__setattr__(self, "norms", norms)

    @property
    def d(self) -> int:
        return self.coeff_matrix.shape[0]

    @property
    def variance(self) -> float:
        """|sigma|^2 = Tr(Q_0)."""
        return self.norms[0.0]

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
        return ForcingBasis(grid, mat, self.labels)


def low_mode_basis(grid: SpectralGrid, shells: int, variance: float = 0.5,
                   amplitudes=None) -> ForcingBasis:
    """Forcing on the normalized real eigenfunctions of the first shells.

    Directions are cos and sin per canonical wavevector with |k|^2 within
    ``shells`` eigenvalue shells.  With no explicit amplitude list the
    total variance |sigma|^2 is split evenly.
    """
    mask = grid.mode_mask(shells)
    idx = np.flatnonzero(mask)
    d = 2 * idx.size
    if amplitudes is None:
        q = np.full(d, np.sqrt(variance / d))
    else:
        q = np.asarray(amplitudes, dtype=np.float64)
        if q.shape != (d,):
            raise StructuralError(
                f"expected {d} amplitudes (cos and sin per mode), got {q.shape}")
    rows = np.zeros((d, grid.n_half), dtype=np.complex128)
    labels = []
    # normalized eigenfunctions: cos -> 1/(2 sqrt(2) pi), sin -> -i like it
    base = 1.0 / (2.0 * np.sqrt(2.0) * np.pi)
    for j, i in enumerate(idx):
        rows[2 * j, i] = q[2 * j] * base
        rows[2 * j + 1, i] = -1j * q[2 * j + 1] * base
        labels.append((int(grid.kx[i]), int(grid.ky[i]), "cos"))
        labels.append((int(grid.kx[i]), int(grid.ky[i]), "sin"))
    return ForcingBasis(grid, rows, tuple(labels))


def basis_from_fields(fields: list[SpectralField]) -> ForcingBasis:
    if not fields:
        raise StructuralError("at least one forcing direction required")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise StructuralError("forcing directions live on different grids")
    return ForcingBasis(grid, np.stack([f.coeffs for f in fields]))


def apply_forcing(basis: ForcingBasis, eta: np.ndarray) -> np.ndarray:
    """sum_k eta_k sigma_k as complex coefficients; eta may be batched (..., d)."""
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape[-1] != basis.d:
        raise StructuralError(
            f"coefficient vector has length {eta.shape[-1]}, expected {basis.d}")
    return eta @ basis.coeff_matrix


def apply(basis: ForcingBasis, eta: np.ndarray) -> SpectralField:
    """Field-level forcing application (single coefficient vector)."""
    return SpectralField(basis.grid, apply_forcing(basis, eta))


@dataclass(frozen=True)
class NondegeneracyReport:
    satisfied: bool
    witness: tuple
    residuals: np.ndarray
    shell_condition: bool | None = None
    lambda_next: int | None = None
    threshold: float | None = None


def check_nondegeneracy(basis: ForcingBasis, K: int, tol: float = 1e-10) -> NondegeneracyReport:
    """Decide whether span(sigma) contains every mode of the first K shells.

    Each normalized real eigenfunction within the cutoff is fit by least
    squares against the directions; a residual above ``tol`` marks the
    mode as uncovered and lands in the witness list.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    grid = basis.grid
    mask = grid.mode_mask(K)
    idx = np.flatnonzero(mask)
    targets = np.zeros((2 * idx.size, grid.n_half), dtype=np.complex128)
    names = []
    base = 1.0 / (2.0 * np.sqrt(2.0) * np.pi)
    for j, i in enumerate(idx):
        targets[2 * j, i] = base
        targets[2 * j + 1, i] = -1j * base
        names.append((int(grid.kx[i]), int(grid.ky[i]), "cos"))
        names.append((int(grid.kx[i]), int(grid.ky[i]), "sin"))
    # packed vectors scaled so that their Euclidean norm is the L^2 norm
    l2 = 2.0 * np.pi * np.sqrt(2.0)
    dmat = l2 * basis.packed                # (d, 2 n_half)
    tmat = l2 * spectral.pack(targets)      # (t, 2 n_half)
    sol, *_ = np.linalg.lstsq(dmat.T, tmat.T, rcond=None)
    resid = np.linalg.norm(dmat.T @ sol - tmat.T, axis=0)
    uncovered = tuple(n for n, r in zip(names, resid) if r > tol)
    return NondegeneracyReport(satisfied=len(uncovered) == 0,
                               witness=uncovered, residuals=resid)


def nondegeneracy_report(basis: ForcingBasis, K: int, nu: float, delta0: float,
                         margin: float = 1.0, tol: float = 1e-10) -> NondegeneracyReport:
    """Structural range condition plus the eigenvalue inequality.

    The eigenvalue side checks lambda_{K+1} >= (margin/nu) * max(1/delta0,
    delta0^2 |sigma|^4 / nu^3, |sigma|^4 / nu^5); the absolute constant in
    front is not pinned by theory, so ``margin`` is the user's choice.
    """
    rep = check_nondegeneracy(basis, K, tol)
    lam_next = int(spectral.eigenvalue_shells(K + 1)[K])
    s2 = basis.variance
    threshold = (margin / nu) * max(1.0 / delta0,
                                    delta0 ** 2 * s2 ** 2 / nu ** 3,
                                    s2 ** 2 / nu ** 5)
    return NondegeneracyReport(satisfied=rep.satisfied, witness=rep.witness,
                               residuals=rep.residuals,
                               shell_condition=bool(lam_next >= threshold),
                               lambda_next=lam_next, threshold=threshold)


def pseudo_inverse_apply(basis: ForcingBasis, f: SpectralField | np.ndarray,
                         tol: float = 1e-8) -> np.ndarray:
    """Minimum-norm eta with sum eta_k sigma_k = f, via the Gram system.

    Raises RangeError when f is not within the numerical range of sigma
    (reconstruction residual above tol * |f|).
    """
    coeffs = f.coeffs if isinstance(f, SpectralField) else np.asarray(f)
    b = TWO_PI_SQ * 2.0 * (basis.coeff_matrix @ np.conj(coeffs)).real
    eta = np.linalg.pinv(basis.gram, rcond=1e-12) @ b
    recon = apply_forcing(basis, eta)
    fnorm = float(spectral.norm_l2(coeffs))
    residual = float(spectral.norm_l2(recon - coeffs))
    if fnorm > 0 and residual > tol * fnorm:
        raise RangeError(
            f"field outside range of forcing (residual {residual:.3e} > "
            f"{tol:.1e} * |f|)", residual)
    return eta


def pinv_matrix(basis: ForcingBasis) -> np.ndarray:
    """Real matrix applying sigma^{-1} to packed coefficients in one matmul.

    Returns P with eta = spectral.pack(f) @ P.T; used by couplings that
    evaluate the shift every step for whole ensembles.
    """
    return np.linalg.pinv(basis.gram, rcond=1e-12) @ (TWO_PI_SQ * 2.0 * basis.packed)
