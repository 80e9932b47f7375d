"""Mean-free scalar fields on the 2-torus as truncated Fourier series.

Conventions
-----------
The torus is [0, 2pi)^2 and coefficients follow

    xi(x) = sum_k  xi_hat(k) exp(i k.x),
    xi_hat(k) = (2pi)^-2 integral exp(-i k.x) xi(x) dx,

so that |xi|^2 = (2pi)^2 sum_k |xi_hat(k)|^2.  Fields are real-valued and
mean-free; only one representative of each conjugate pair is stored (the
half-spectrum with ky > 0, or ky = 0 and kx > 0, in lexicographic (kx, ky)
order), and the k = 0 coefficient does not exist at all.  Hermitian
symmetry and the mean-free constraint are therefore structural and cannot
be violated by any coefficient operation.

Truncation is radial and shell-indexed: cutoff N keeps every wavevector
whose Laplacian eigenvalue |k|^2 lies within the first N *distinct*
eigenvalues, ties entering wholesale.  This makes the Poincare inequality
|grad (I - P_M) f|^2 >= lambda_{M+1} |(I - P_M) f|^2 hold by construction,
with lambda_{M+1} the (M+1)-th distinct eigenvalue.

The quadratic advection term is evaluated pseudospectrally on a padded
grid with at least 3*max|k| + 1 points per dimension, which makes the
truncated product equal to the exact Galerkin bilinear form (no aliasing,
not merely filtered).

Transforms between coefficients and padded-grid samples are carried out
as dense DFT matrix products.  At these truncation sizes (tens of active
modes, a few hundred grid points) one BLAS gemm per transform is several
times faster than batched small FFTs, and the result is the same Fourier
sum evaluated to rounding; the test suite checks it against numpy's FFT.
The padded size is the smallest 2-3-5-smooth length above the alias-free
minimum (`smooth_length`): a fast FFT length, found without importing an
FFT library.

The transforms act on a real *packed* layout: a coefficient vector c of
length n_half is held as the real vector rc = [Re c | Im c] of length
2 n_half, and every dense DFT matrix maps rc to grid samples or grid
samples back to rc with one real gemm.  The time-marching kernels keep
their state in this layout from the noise tape to the recorded diagnostics
(`velocity_values`, `advect_frozen`, `packed_norm_sq`); `pack` and `unpack`
convert exactly, in both directions, where complex arrays enter or leave:
`SpectralField`, the recorded states of a run, observers and checkpoints.

All coefficient routines accept arrays with arbitrary leading batch axes,
``(..., n_half)`` complex or ``(..., 2 n_half)`` packed; `SpectralField`
wraps the single-field case.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import rng
from .errors import GridMismatchError, StructuralError

TWO_PI_SQ = 4.0 * np.pi ** 2

_MAGIC = b"SNSEFLD1"


def smooth_length(n: int) -> int:
    """Smallest m >= n whose only prime factors are 2, 3 and 5; for n >= 1
    the same as ``scipy.fft.next_fast_len(n, real=True)``."""
    m = max(int(n), 1)
    # 30**bits holds every power of 2, 3 and 5 that can divide m
    while m // math.gcd(m, 30 ** m.bit_length()) != 1:
        m += 1
    return m


@lru_cache(maxsize=None)
def eigenvalue_shells(count: int) -> np.ndarray:
    """First ``count`` distinct eigenvalues of -Laplace on the torus.

    These are the distinct values of kx^2 + ky^2 over nonzero integer
    wavevectors, in increasing order: 1, 2, 4, 5, 8, ...
    """
    if count < 1:
        raise ValueError("shell count must be >= 1")
    bound = 4
    while True:
        r = np.arange(-bound, bound + 1)
        lam = (r[:, None] ** 2 + r[None, :] ** 2).ravel()
        vals = np.unique(lam[(lam > 0) & (lam <= bound * bound)])
        if vals.size >= count:
            out = vals[:count].astype(np.int64)
            out.flags.writeable = False  # cached, shared between callers
            return out
        bound *= 2


class SpectralGrid:
    """Shell-truncated spectral grid with padded transform bookkeeping.

    Parameters
    ----------
    shells : int
        Number of distinct eigenvalue shells retained (the cutoff N).
    pad : int, optional
        Points per dimension of the padded grid used for products.
        Defaults to the smallest 2-3-5-smooth length >= 3*max|k| + 1.
    """

    def __init__(self, shells: int, pad: int | None = None):
        lams = eigenvalue_shells(shells + 1)
        self.shells = int(shells)
        self.lambda_cut = int(lams[shells - 1])
        self.lambda_next = int(lams[shells])

        m = int(np.floor(np.sqrt(self.lambda_cut)))
        ks = np.arange(-m, m + 1)
        kxg, kyg = np.meshgrid(ks, ks, indexing="ij")
        lam = kxg ** 2 + kyg ** 2
        half = (lam > 0) & (lam <= self.lambda_cut) & (
            (kyg > 0) | ((kyg == 0) & (kxg > 0)))
        kx, ky = kxg[half], kyg[half]
        order = np.lexsort((ky, kx))  # lexicographic by (kx, ky)
        self.kx = kx[order].astype(np.int64)
        self.ky = ky[order].astype(np.int64)
        self.lam = (self.kx ** 2 + self.ky ** 2).astype(np.float64)
        self.lam_packed = np.concatenate([self.lam, self.lam])  # [Re | Im] halves
        self.n_half = self.kx.size
        self.n_modes = 2 * self.n_half
        self.max_wavenumber = int(max(self.kx.max(), self.ky.max()))

        min_pad = 3 * self.max_wavenumber + 1
        self.pad = int(pad) if pad is not None else smooth_length(min_pad)
        if self.pad < min_pad:
            raise ValueError(
                f"pad={self.pad} is below the alias-free minimum {min_pad}")

        # Biot-Savart symbol: u_hat = (i ky, -i kx) xi_hat / |k|^2, the unique
        # divergence-free velocity with grad-perp . u = xi (stream function
        # psi_hat = -xi_hat/|k|^2, u = grad-perp psi)
        self.ik_perp1 = 1j * self.ky / self.lam
        self.ik_perp2 = -1j * self.kx / self.lam
        self.ikx = 1j * self.kx.astype(np.float64)
        self.iky = 1j * self.ky.astype(np.float64)

        for arr in (self.kx, self.ky, self.lam, self.lam_packed, self.ik_perp1,
                    self.ik_perp2, self.ikx, self.iky):
            arr.flags.writeable = False

        self._index = {(int(a), int(b)): i
                       for i, (a, b) in enumerate(zip(self.kx, self.ky))}
        self._build_transforms()

    def _build_transforms(self):
        """Dense DFT matrices evaluating the truncated Fourier sums.

        With packed coefficients split as rc = [Re c | Im c], samples of a
        field with per-mode multiplier m are rc @ block(m), where

            block(m) = [  2 Re(m E) ]        E[k, x] = exp(i k . x_j),
                       [ -2 Im(m E) ]

        because every stored mode carries its implicit conjugate partner.
        The analysis map back to coefficients is the plain DFT sum with
        the 1/P^2 quadrature weight.
        """
        p = self.pad
        x = 2.0 * np.pi * np.arange(p) / p
        phase = (self.kx[:, None, None] * x[None, :, None]
                 + self.ky[:, None, None] * x[None, None, :])
        e_mat = np.exp(1j * phase.reshape(self.n_half, p * p))

        def block(mult):
            w = mult[:, None] * e_mat
            return np.concatenate([2.0 * w.real, -2.0 * w.imag], axis=0)

        one = np.ones(self.n_half)
        self._synth = np.ascontiguousarray(block(one))
        self._synth_grad = np.ascontiguousarray(
            np.concatenate([block(self.ikx), block(self.iky)], axis=1))
        self._synth_vel = np.ascontiguousarray(
            np.concatenate([block(self.ik_perp1), block(self.ik_perp2)], axis=1))
        self._anal = np.ascontiguousarray(
            np.concatenate([e_mat.real.T, -e_mat.imag.T], axis=1) / (p * p))
        for arr in (self._synth, self._synth_grad, self._synth_vel, self._anal):
            arr.flags.writeable = False

    @cached_property
    def _synth_grad32(self) -> np.ndarray:
        """Float32 copy of the gradient synthesis, made on first use (see
        `advect_frozen`)."""
        out = self._synth_grad.astype(np.float32)
        out.flags.writeable = False
        return out

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, SpectralGrid)
                and other.shells == self.shells and other.pad == self.pad)

    def __hash__(self):
        return hash((self.shells, self.pad))

    def __repr__(self):
        return (f"SpectralGrid(shells={self.shells}, lambda_cut={self.lambda_cut}, "
                f"n_half={self.n_half}, pad={self.pad})")

    # -- mode bookkeeping --------------------------------------------------

    def shell_cutoff(self, m_shells: int) -> int:
        """Eigenvalue cutoff of the first ``m_shells`` shells."""
        if m_shells >= self.shells:
            return self.lambda_cut
        return int(eigenvalue_shells(m_shells)[-1])

    def mode_mask(self, m_shells: int) -> np.ndarray:
        """Boolean mask of stored modes inside the first ``m_shells`` shells."""
        return self.lam <= self.shell_cutoff(m_shells)

    def index_of(self, kx: int, ky: int) -> tuple[int, bool]:
        """Half-spectrum index of wavevector (kx, ky).

        Returns ``(index, conjugated)`` where ``conjugated`` is True when
        (kx, ky) is represented through its conjugate partner (-kx, -ky).
        """
        if (kx, ky) in self._index:
            return self._index[(kx, ky)], False
        if (-kx, -ky) in self._index:
            return self._index[(-kx, -ky)], True
        raise KeyError(f"wavevector ({kx}, {ky}) not active at shells={self.shells}")

    # -- transforms --------------------------------------------------------

    def to_real_flat(self, coeffs: np.ndarray) -> np.ndarray:
        """Samples on the padded grid as a flat (..., pad*pad) array."""
        return pack(coeffs) @ self._synth

    def to_real(self, coeffs: np.ndarray) -> np.ndarray:
        """Real-space samples on the padded grid, shape (..., pad, pad)."""
        flat = self.to_real_flat(coeffs)
        return flat.reshape(coeffs.shape[:-1] + (self.pad, self.pad))

    def from_real_flat(self, values: np.ndarray) -> np.ndarray:
        return unpack(values @ self._anal)

    def from_real(self, values: np.ndarray) -> np.ndarray:
        """Project padded-grid samples back onto the active modes."""
        return self.from_real_flat(values.reshape(values.shape[:-2] + (-1,)))


@lru_cache(maxsize=None)
def _cached_grid(shells: int) -> SpectralGrid:
    return SpectralGrid(shells)


def make_grid(shells: int) -> SpectralGrid:
    """Shared grid instance for a given shell count."""
    return _cached_grid(shells)


@dataclass(frozen=True)
class SpectralField:
    """A mean-free real scalar field held as half-spectrum Fourier coefficients."""

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n_half,):
            raise StructuralError(
                f"coefficient vector has shape {c.shape}, expected ({self.grid.n_half},)")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def l2_norm(self) -> float:
        return float(norm_l2(self.coeffs))

    def values(self) -> np.ndarray:
        """Real-space samples on the padded grid."""
        return self.grid.to_real(self.coeffs)


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


# -- coefficient-level kernels (batched over leading axes) -----------------

def pack(coeffs: np.ndarray) -> np.ndarray:
    """Complex coefficients (..., n_half) as packed reals [Re c | Im c].

    The result is always C-contiguous, so the reductions over its last
    axis add in the same order whatever the layout of ``coeffs``.
    """
    c = np.asarray(coeffs)
    n = c.shape[-1]
    out = np.empty(c.shape[:-1] + (2 * n,))
    out[..., :n] = c.real
    out[..., n:] = c.imag
    return out


def unpack(rc: np.ndarray) -> np.ndarray:
    """Packed reals (..., 2 n_half) back to complex coefficients, bit for bit."""
    n = rc.shape[-1] // 2
    out = np.empty(rc.shape[:-1] + (n,), dtype=np.complex128)
    out.real = rc[..., :n]
    out.imag = rc[..., n:]
    return out


def packed_norm_sq(rc: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """|f|^2 from packed coefficients, or sum_k w_k |f_hat(k)|^2 with the
    same normalization for a packed weight (``grid.lam_packed`` gives
    |grad f|^2).  `norm_l2_sq`, `sobolev_norm_sq` and the per-step norms of
    a march all reduce to this one sum, so a recorded energy equals
    `norm_l2_sq` of the recorded state bit for bit.  The sum is one
    ``np.vecdot`` ufunc call, a BLAS dot per row; OpenBLAS splits a dot
    over threads only above 10,000 entries, far above any packed row, so
    the sum does not depend on the thread count."""
    wrc = rc if weight is None else weight * rc
    return TWO_PI_SQ * 2.0 * np.vecdot(wrc, rc)


def norm_l2_sq(coeffs: np.ndarray) -> np.ndarray:
    """|f|^2 = (2pi)^2 sum over full spectrum of |f_hat|^2."""
    return packed_norm_sq(pack(coeffs))


def norm_l2(coeffs: np.ndarray) -> np.ndarray:
    return np.sqrt(norm_l2_sq(coeffs))


def sobolev_norm_sq(grid: SpectralGrid, coeffs: np.ndarray, s: float) -> np.ndarray:
    return packed_norm_sq(pack(coeffs), grid.lam_packed ** s if s != 0.0 else None)


def inner_product(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """L^2 inner product of real fields from complex coefficients."""
    return TWO_PI_SQ * 2.0 * np.sum(f * np.conj(g), axis=-1).real


def project_coeffs(grid: SpectralGrid, coeffs: np.ndarray, m_shells: int) -> np.ndarray:
    return np.where(grid.mode_mask(m_shells), coeffs, 0.0)


def velocity_coeffs(grid: SpectralGrid, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Biot-Savart: u_hat(k) = (i ky, -i kx) xi_hat(k) / |k|^2."""
    return grid.ik_perp1 * xi, grid.ik_perp2 * xi


def velocity_values(grid: SpectralGrid, xi: np.ndarray) -> np.ndarray:
    """Velocity of packed xi on the padded grid, flat (..., 2 pad^2) = [u1 | u2]
    (the frozen factor of the semi-implicit solve, one gemm for both)."""
    return xi @ grid._synth_vel


def advect_frozen(grid: SpectralGrid, uv: np.ndarray, analysis: np.ndarray,
                  target: np.ndarray) -> np.ndarray:
    """Galerkin projection of u . grad(target) for a precomputed velocity.

    ``uv`` comes from `velocity_values`, ``target`` is packed and so is the
    result.  ``analysis`` is ``grid._anal``, or a copy with a per-mode
    factor folded into its columns, which then multiplies the result.  A
    float32 ``target`` takes a float32 copy of the gradient synthesis, and
    ``uv`` and ``analysis`` must then be float32 as well: every gemm and
    product of the call runs in single precision.
    """
    g = target @ (grid._synth_grad if target.dtype == np.float64 else grid._synth_grad32)
    g *= uv
    p2 = grid.pad * grid.pad
    return (g[..., :p2] + g[..., p2:]) @ analysis


def advect_coeffs(grid: SpectralGrid, source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """P_N( (K * source) . grad(target) ) of complex coefficients, exact on
    the padded grid."""
    uv = velocity_values(grid, pack(source))
    return unpack(advect_frozen(grid, uv, grid._anal, pack(target)))


@lru_cache(maxsize=None)
def _mode_map(src: SpectralGrid, dst: SpectralGrid) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs mapping shared wavevectors of src onto dst.

    Canonical half-spectra of any two grids select the same representative
    of each conjugate pair, so no conjugation is ever involved.
    """
    src_idx, dst_idx = [], []
    for i, (a, b) in enumerate(zip(src.kx, src.ky)):
        j = dst._index.get((int(a), int(b)))
        if j is not None:
            src_idx.append(i)
            dst_idx.append(j)
    return np.asarray(src_idx, dtype=np.intp), np.asarray(dst_idx, dtype=np.intp)


def embed_coeffs(src: SpectralGrid, dst: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Re-index coefficients onto another grid (zero-fill / truncate)."""
    si, di = _mode_map(src, dst)
    out = np.zeros(coeffs.shape[:-1] + (dst.n_half,), dtype=np.complex128)
    out[..., di] = coeffs[..., si]
    return out


# -- public field-level operations ------------------------------------------

def project(f: SpectralField, m_shells: int) -> SpectralField:
    """P_M f: zero every mode beyond the first M eigenvalue shells."""
    if m_shells >= f.grid.shells:
        return SpectralField(f.grid, f.coeffs)
    return SpectralField(f.grid, project_coeffs(f.grid, f.coeffs, m_shells))


def biot_savart(xi: SpectralField) -> VelocityField:
    """Velocity with div u = 0 and curl u = xi (both spectral identities)."""
    u1, u2 = velocity_coeffs(xi.grid, xi.coeffs)
    return VelocityField(SpectralField(xi.grid, u1), SpectralField(xi.grid, u2))


def advect(source: SpectralField, target: SpectralField) -> SpectralField:
    """Dealiased bilinear advection P_N((K * source) . grad target)."""
    g = _same_grid(source, target)
    return SpectralField(g, advect_coeffs(g, source.coeffs, target.coeffs))


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Homogeneous Sobolev norm; s=0 is |f|, s=1 is |grad f|."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return float(np.sqrt(sobolev_norm_sq(f.grid, f.coeffs, s)))


def inner(f: SpectralField, g: SpectralField) -> float:
    _same_grid(f, g)
    return float(inner_product(f.coeffs, g.coeffs))


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


# -- constructors ------------------------------------------------------------

def zero_field(grid: SpectralGrid) -> SpectralField:
    return SpectralField(grid, np.zeros(grid.n_half, dtype=np.complex128))


def field_from_modes(grid: SpectralGrid, modes: dict[tuple[int, int], complex]) -> SpectralField:
    """Field from a {(kx, ky): coefficient} mapping.

    Wavevectors may be given in either half; the conjugate pair is implied.
    """
    c = np.zeros(grid.n_half, dtype=np.complex128)
    for (a, b), val in modes.items():
        i, conj = grid.index_of(int(a), int(b))
        c[i] += np.conj(val) if conj else val
    return SpectralField(grid, c)


def harmonic_field(grid: SpectralGrid, kx: int, ky: int, kind: str = "cos",
                   amplitude: float = 1.0, normalized: bool = False) -> SpectralField:
    """amplitude * cos(k.x) or sin(k.x); L^2-normalized eigenfunction if asked."""
    scale_ = amplitude / (np.sqrt(2.0) * 2.0 * np.pi) if normalized else amplitude / 2.0
    coeff = scale_ if kind == "cos" else -1j * scale_
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    return field_from_modes(grid, {(kx, ky): coeff})


def random_field(grid: SpectralGrid, seed: int, stream_id: int = 0,
                 rms: float = 1.0, spectral_slope: float = 0.0,
                 cell: int = 0, phase_only: bool = False) -> SpectralField:
    """Deterministic random field with |xi_hat(k)| ~ |k|^slope envelope.

    ``rms`` fixes the resulting L^2 norm exactly (zero field if rms == 0).
    With ``phase_only`` the moduli follow the envelope exactly and only the
    phases are random, which pins the energy in every shell (useful when a
    study's result should not wobble with the draw of the initial data).
    """
    if phase_only:
        u = rng.uniforms(seed, [stream_id], [cell], grid.n_half,
                         tag=rng.Tag.INITIAL)[0, 0]
        c = np.exp(2j * np.pi * u) * grid.lam ** (spectral_slope / 2.0)
    else:
        z = rng.standard_normals(seed, [stream_id], [cell], 2 * grid.n_half,
                                 tag=rng.Tag.INITIAL)[0, 0]
        c = (z[:grid.n_half] + 1j * z[grid.n_half:]) * grid.lam ** (spectral_slope / 2.0)
    n = norm_l2(c)
    if n > 0 and rms > 0:
        c *= rms / n
    else:
        c[:] = 0.0
    return SpectralField(grid, c)


# -- checkpoint format --------------------------------------------------------

def save_field(f: SpectralField, path) -> None:
    """Write the binary checkpoint: magic, cutoff, shell count, then
    little-endian (re, im) float64 pairs in lexicographic (kx, ky) order
    over the stored half-spectrum.  Round trips are bit-exact.

    Under the radial shell truncation the cutoff and the eigenvalue-shell
    count coincide; both u32 fields record ``grid.shells``.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", f.grid.shells, f.grid.shells))
        inter = np.empty(2 * f.grid.n_half, dtype="<f8")
        inter[0::2] = f.coeffs.real
        inter[1::2] = f.coeffs.imag
        fh.write(inter.tobytes())


def load_field(path) -> SpectralField:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise StructuralError(f"bad checkpoint magic {magic!r}")
        shells, shell_count = struct.unpack("<II", fh.read(8))
        if shells != shell_count:
            raise StructuralError(
                f"inconsistent header: cutoff {shells} vs shell count {shell_count}")
        grid = make_grid(shells)
        raw = fh.read()
    flat = np.frombuffer(raw, dtype="<f8")
    if flat.size != 2 * grid.n_half:
        raise StructuralError(
            f"checkpoint holds {flat.size // 2} coefficients, expected {grid.n_half}")
    return SpectralField(grid, flat.view("<c16"))   # (re, im) pairs, bit for bit
