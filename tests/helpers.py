"""Field-level operations, diagnostics, observable constructors, the
summed-tape reference, the transport references and the reference Philox
cipher that only the tests use.  The package marches
packed coefficient arrays; these wrap its kernels for single
`SpectralField`s, or check a result against its definition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from snselab import measures, spectral
from snselab.errors import RangeError, StructuralError
from snselab.experiments import ObservableSpec
from snselab.forcing import ForcingBasis
from snselab.integrator import SchemeParams, batch_increments
from snselab.spectral import TWO_PI_SQ, SpectralField, SpectralGrid


class GridMismatchError(StructuralError):
    """Operands live on different spectral grids."""


# -- the reference cipher -------------------------------------------------------

_U64 = np.uint64
_M0 = _U64(0xD2E7470EE14C6C93)
_M1 = _U64(0xCA5A826395121157)
_W0 = _U64(0x9E3779B97F4A7C15)
_W1 = _U64(0xBB67AE8584CAA73B)
_MASK32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)
_ROUNDS = 10


def _mulhilo(a, b):
    """Full 128-bit product of uint64 operands as (hi, lo) words."""
    lo = a * b
    ah, al = a >> _S32, a & _MASK32
    bh, bl = b >> _S32, b & _MASK32
    t = ah * bl + ((al * bl) >> _S32)
    u = al * bh + (t & _MASK32)
    hi = ah * bh + (t >> _S32) + (u >> _S32)
    return hi, lo


def _rounds(c0, c1, c2, c3, k0, k1):
    """Philox-4x64-10 on counter words c0..c3 under key words k0, k1: uint64
    arrays or scalars that broadcast, so a constant word is never materialized."""
    with np.errstate(over="ignore"):
        for _ in range(_ROUNDS):
            hi0, lo0 = _mulhilo(_M0, c0)
            hi1, lo1 = _mulhilo(_M1, c2)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
    return c0, c1, c2, c3


def philox4x64(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Apply the Philox-4x64-10 bijection (Salmon, Moraes, Dror and Shaw,
    SC'11) to an array of counter blocks: the vectorized reference that the
    tape's words, from numpy's C Philox, are tested against.

    Parameters
    ----------
    counter : uint64 array, shape (..., 4)
    key : uint64 array broadcastable to (..., 2)

    Returns
    -------
    uint64 array of shape (..., 4) with the cipher output.
    """
    counter = np.asarray(counter, dtype=_U64)
    key = np.asarray(key, dtype=_U64)
    words = _rounds(*(counter[..., i] for i in range(4)), key[..., 0], key[..., 1])
    return np.stack(words, axis=-1)


# -- node samples and coefficient kernels ---------------------------------------

def to_nodes(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Samples of the fields with complex ``coeffs`` (..., n_half) at the
    lattice nodes x_j = 2pi (j, pad j mod n) / n, j < n = ``grid.n_nodes``,
    shape (..., n); the Fourier sum is taken at the nodes' coordinates."""
    n = grid.n_nodes
    j = np.arange(n)
    x1, x2 = 2.0 * np.pi * j / n, 2.0 * np.pi * (grid.pad * j % n) / n
    e_mat = np.exp(1j * (grid.kx[:, None] * x1 + grid.ky[:, None] * x2))
    return spectral.pack(coeffs) @ np.concatenate([2.0 * e_mat.real, -2.0 * e_mat.imag])


def from_nodes(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """The grid's lattice-rule analysis of node samples back to the active modes."""
    return spectral.unpack(values @ grid._anal)


def project_coeffs(grid: SpectralGrid, coeffs: np.ndarray, m_shells: int) -> np.ndarray:
    return np.where(grid.mode_mask(m_shells), coeffs, 0.0)


def advect_coeffs(grid: SpectralGrid, source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """P_N( (K * source) . grad(target) ) of complex coefficients, exact at
    the lattice nodes."""
    uv = spectral.velocity_values(grid, spectral.pack(source))
    return spectral.unpack(spectral.advect_frozen(grid, uv, grid._anal, spectral.pack(target)))


# -- spectral fields ----------------------------------------------------------

@dataclass(frozen=True)
class VelocityField:
    """Divergence-free velocity recovered from a vorticity field."""

    u1: SpectralField
    u2: SpectralField

    @property
    def grid(self) -> SpectralGrid:
        return self.u1.grid


def _same_grid(*fields: SpectralField) -> SpectralGrid:
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError(f"grids differ: {f.grid} vs {g}")
    return g


def project(f: SpectralField, m_shells: int) -> SpectralField:
    """P_M f: zero every mode beyond the first M eigenvalue shells."""
    if m_shells >= f.grid.shells:
        return SpectralField(f.grid, f.coeffs)
    return SpectralField(f.grid, project_coeffs(f.grid, f.coeffs, m_shells))


def biot_savart(xi: SpectralField) -> VelocityField:
    """Velocity with div u = 0 and curl u = xi (both spectral identities):
    u_hat(k) = (i ky, -i kx) xi_hat(k) / |k|^2."""
    g = xi.grid
    return VelocityField(SpectralField(g, g.ik_perp1 * xi.coeffs),
                         SpectralField(g, g.ik_perp2 * xi.coeffs))


def advect(source: SpectralField, target: SpectralField) -> SpectralField:
    """Dealiased bilinear advection P_N((K * source) . grad target)."""
    g = _same_grid(source, target)
    return SpectralField(g, advect_coeffs(g, source.coeffs, target.coeffs))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm; s=0 is |f|, s=1 is |grad f|."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return float(np.sqrt(spectral.sobolev_norm_sq(f.grid, f.coeffs, s)))


def inner(f: SpectralField, g: SpectralField) -> float:
    _same_grid(f, g)
    return float(spectral.inner_product(f.coeffs, g.coeffs))


def axpy(a: float, f: SpectralField, g: SpectralField) -> SpectralField:
    """a*f + g."""
    grid = _same_grid(f, g)
    return SpectralField(grid, a * f.coeffs + g.coeffs)


def scale(a: float, f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, a * f.coeffs)


def divergence_defect(u: VelocityField) -> float:
    """max_k |k . u_hat(k)|, zero to rounding for Biot-Savart output."""
    g = u.grid
    d = g.kx * u.u1.coeffs + g.ky * u.u2.coeffs
    return float(np.max(np.abs(d))) if d.size else 0.0


def curl_defect(xi: SpectralField, u: VelocityField) -> float:
    """max_k |i k^perp . u_hat - xi_hat|: residual of grad-perp . u = xi."""
    g = xi.grid
    r = 1j * (g.kx * u.u2.coeffs - g.ky * u.u1.coeffs) - xi.coeffs
    return float(np.max(np.abs(r)))


# -- forcing and noise tapes ----------------------------------------------------

def apply_forcing(basis: ForcingBasis, eta: np.ndarray) -> np.ndarray:
    """sum_k eta_k sigma_k as complex coefficients; eta may be batched (..., d)."""
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape[-1] != basis.d:
        raise StructuralError(
            f"coefficient vector has length {eta.shape[-1]}, expected {basis.d}")
    return eta @ basis.coeff_matrix


def summed_increments(seed: int, trajectory_ids, r: int, d: int, delta: float):
    """Increments of steps ``delta``, step n the sum of the r tape cells
    n r .. n r + r - 1 of steps delta / r, added in order before the noise
    map: the lone-march reference that a rung of stride r in
    `integrator.ladder`, which sums the mapped noise, matches up to rounding."""
    fine = batch_increments(seed, trajectory_ids, d, delta / r)

    def provider(n0: int, n1: int) -> np.ndarray:
        cells = fine(n0 * r, n1 * r)
        return np.add.reduce(cells.reshape(n1 - n0, r, *cells.shape[1:]), axis=1)

    return provider


def apply(basis: ForcingBasis, eta: np.ndarray) -> SpectralField:
    """Field-level forcing application (single coefficient vector)."""
    return SpectralField(basis.grid, apply_forcing(basis, eta))


@dataclass(frozen=True)
class NondegeneracyReport:
    satisfied: bool
    witness: tuple
    residuals: np.ndarray


def check_nondegeneracy(basis: ForcingBasis, K: int, tol: float = 1e-10) -> NondegeneracyReport:
    """Decide whether span(sigma) contains every mode of the first K shells.

    Each normalized real eigenfunction within the cutoff is fit by least
    squares against the directions; a residual above ``tol`` marks the
    mode as uncovered and lands in the witness list.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    grid = basis.grid
    idx = np.flatnonzero(grid.mode_mask(K))
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


# -- scheme and coupling diagnostics --------------------------------------------

def step_residual(grid, c_prev, c_new, noise_coeffs, p: SchemeParams) -> np.ndarray:
    """L^2 residual of the implicit step system at c_new."""
    diag = 1.0 + p.delta * p.nu * grid.lam
    adv = advect_coeffs(grid, c_prev, c_new)
    rhs = c_prev + (noise_coeffs if noise_coeffs is not None else 0.0)
    return spectral.norm_l2(diag * c_new + p.delta * adv - rhs)


def tv_bound(cost, a: float = 1.0) -> float:
    """2^((1-a)/(1+a)) (E (integral |phi|^2)^a)^(1/(1+a)) for a in (0, 1], from
    a `coupling.GirsanovCost`."""
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1]")
    kl = np.atleast_1d(cost.kl_bound)
    return float(2.0 ** ((1.0 - a) / (1.0 + a)) * np.mean(kl ** a) ** (1.0 / (1.0 + a)))


# -- ensembles, distances and transport references ------------------------------

def packed_rows(fields: list[SpectralField]) -> np.ndarray:
    """Packed rows (M, 2 n_half) of fields that live on one grid: an
    ensemble as `measures` reads it."""
    if not fields:
        raise StructuralError("empty ensemble")
    _same_grid(*fields)
    return spectral.pack(np.stack([f.coeffs for f in fields]))


def rho(f: SpectralField, g: SpectralField, dp: measures.DistanceParams) -> float:
    """The clamped distance min(1, |f - g|^s / eps) of two fields."""
    _same_grid(f, g)
    return float(measures.rho_from_dist(spectral.norm_l2(f.coeffs - g.coeffs), dp))


def complex_transport(a: np.ndarray, b: np.ndarray, cost: str,
                      dp: measures.DistanceParams) -> tuple[float, float]:
    """(exact, coupled bound) of the complex members ``a`` and ``b``
    (M, n_half), with every separation and norm taken of complex
    coefficients: the reference that `measures` on packed rows must match
    bit for bit."""
    na, nb = spectral.norm_l2_sq(a), spectral.norm_l2_sq(b)
    dist = np.sqrt(spectral.norm_l2_sq(a[:, None, :] - b[None, :, :]))
    cmat = measures._price(dist, na[:, None], nb[None, :], cost, dp)
    rows, cols = measures.linear_sum_assignment(cmat)
    pairs = measures._price(np.sqrt(spectral.norm_l2_sq(a - b)), na, nb, cost, dp)
    return float(cmat[rows, cols].mean()), float(np.mean(pairs))


def transport_lp(cost: np.ndarray, wa, wb) -> float:
    """Least cost of moving the weights ``wa`` onto ``wb`` under the cost
    matrix ``cost``, by the primal transportation LP (scipy's HiGHS): the
    reference for weights and sizes that an assignment cannot take."""
    from scipy.optimize import linprog

    na, nb = cost.shape
    a_eq = np.zeros((na + nb - 1, na * nb))
    b_eq = np.empty(na + nb - 1)
    for i in range(na):
        a_eq[i, i * nb:(i + 1) * nb] = 1.0
        b_eq[i] = wa[i]
    for j in range(nb - 1):  # last column constraint is redundant
        a_eq[na + j, j::nb] = 1.0
        b_eq[na + j] = wb[j]
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise StructuralError(f"transport LP failed: {res.message}")
    return float(res.fun)


# -- observables --------------------------------------------------------------------

def clipped_energy(radius: float = 3.0) -> ObservableSpec:
    return ObservableSpec("clipped-norm", radius=radius)


def smoothed_energy(radius: float = 3.0) -> ObservableSpec:
    return ObservableSpec("smoothed-energy", radius=radius)


def low_mode_re(kx: int = 1, ky: int = 0) -> ObservableSpec:
    return ObservableSpec("low-mode-coefficient", mode=(kx, ky))
