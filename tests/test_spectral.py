import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from snselab import spectral
from snselab.errors import StructuralError
from snselab.spectral import (SpectralField, SpectralGrid, eigenvalue_shells,
                              harmonic_field, load_field, make_grid, random_field,
                              save_field, zero_field)

from helpers import (GridMismatchError, advect, axpy, biot_savart, curl_defect,
                     divergence_defect, from_nodes, inner, project, scale, sobolev_norm,
                     to_nodes)

G16 = make_grid(16)


def test_eigenvalue_shells_sequence():
    assert list(eigenvalue_shells(16)) == [1, 2, 4, 5, 8, 9, 10, 13,
                                           16, 17, 18, 20, 25, 26, 29, 32]


def test_eigenvalue_shells_are_the_distinct_sums_of_two_squares():
    # every value up to 40^2 is a^2 + b^2 with |a|, |b| <= 40
    brute = sorted({a * a + b * b for a in range(-40, 41) for b in range(-40, 41)} - {0})
    assert brute[299] <= 40 ** 2
    for count in range(1, 301):
        shells = eigenvalue_shells(count)
        assert shells.dtype == np.int64 and not shells.flags.writeable
        assert shells.tolist() == brute[:count]
    with pytest.raises(ValueError):
        shells[0] = 0


def test_grid_counts():
    # mode multiplicities of the first shells: 4+4+4+8+... = 100 at 16 shells
    assert G16.n_modes == 100
    assert G16.lambda_next == 34
    assert G16.pad >= 3 * G16.max_wavenumber + 1


def test_lattice_rule_is_exact_for_every_product():
    # certificate: with T the active modes and their conjugates, no nonzero
    # h in (T + T - T) or (T - T) has h.(1, pad) = 0 mod n_nodes, so the
    # rule integrates every frequency a projected product or a node
    # sample's analysis reaches; every smaller count from 2 n_half fails
    for s in range(1, 41):
        g = SpectralGrid(s)
        m = g.max_wavenumber
        assert g.pad == 3 * m + 1
        assert 2 * g.n_half <= g.n_nodes <= g.pad ** 2, s
        tx = np.concatenate([g.kx, -g.kx])
        ty = np.concatenate([g.ky, -g.ky])
        sums = np.zeros((4 * m + 1, 4 * m + 1), dtype=bool)   # T + T
        sums[(tx[:, None] + tx).ravel() + 2 * m, (ty[:, None] + ty).ravel() + 2 * m] = True
        sx, sy = np.nonzero(sums)
        sx, sy = sx - 2 * m, sy - 2 * m
        reach = np.zeros((6 * m + 1, 6 * m + 1), dtype=bool)
        reach[(sx[:, None] - tx).ravel() + 3 * m, (sy[:, None] - ty).ravel() + 3 * m] = True
        reach[(tx[:, None] - tx).ravel() + 3 * m, (ty[:, None] - ty).ravel() + 3 * m] = True
        reach[3 * m, 3 * m] = False
        hx, hy = np.nonzero(reach)
        image = (hx - 3 * m) + g.pad * (hy - 3 * m)
        assert np.all(image % g.n_nodes != 0), s
        for n in range(2 * g.n_half, g.n_nodes):
            assert np.any(image % n == 0), (s, n)


def test_node_counts():
    # 64 nodes per product on the old 2-3-5-smooth box at 3-5 shells,
    # 225 at 10, 256 at 16 and 1296 at 54
    for shells, n_nodes in [(3, 25), (4, 46), (5, 49), (10, 124), (16, 233), (54, 1003)]:
        assert SpectralGrid(shells).n_nodes == n_nodes, shells


def test_mean_free_is_structural():
    with pytest.raises(KeyError):
        G16.index_of(0, 0)


# -- transforms -----------------------------------------------------------------

def test_roundtrip_against_fft_oracle():
    c = np.stack([random_field(G16, seed=s, rms=2.0).coeffs for s in (3, 4, 5)])
    nodes = to_nodes(G16, c)
    # oracle: inverse FFT of the scattered spectra on an alias-free box of its
    # own; the means of products of two and of three fields over its nodes
    # and over the lattice are both the exact integrals
    box = _grid_values(G16, c, 1.0)
    for idx in [(0, 1), (1, 1), (0, 1, 2), (0, 0, 2)]:
        want = np.mean(np.prod(box[list(idx)], axis=0))
        got = np.mean(np.prod(nodes[list(idx)], axis=0))
        assert abs(got - want) <= 1e-13 * np.mean(np.prod(np.abs(box[list(idx)]), axis=0))
    back = from_nodes(G16, nodes)
    assert np.max(np.abs(back - c)) <= 1e-13 * np.max(np.abs(c))
    # the velocity synthesis is the Fourier sum at the nodes' coordinates
    uv = spectral.velocity_values(G16, spectral.pack(c))
    want = np.concatenate([to_nodes(G16, G16.ik_perp1 * c), to_nodes(G16, G16.ik_perp2 * c)],
                          axis=-1)
    assert np.max(np.abs(uv - want)) <= 1e-13 * np.max(np.abs(want))


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(arrays(np.float64,
              st.tuples(st.integers(0, 3), st.integers(0, 6).map(lambda n: 2 * n)),
              elements=_ANY_FLOAT))
def test_pack_unpack_round_trip_bit_exact(rc):
    c = spectral.unpack(rc)
    assert c.shape == rc.shape[:-1] + (rc.shape[-1] // 2,)
    assert spectral.pack(c).tobytes() == rc.tobytes()
    assert spectral.unpack(spectral.pack(c)).tobytes() == c.tobytes()


def _grid_values(grid, coeffs, mult):
    """Samples of the field with coefficients mult * coeffs by numpy's FFT, on
    the alias-free box of 3 max|k| + 1 points a side."""
    p = 3 * grid.max_wavenumber + 1
    spec = np.zeros(coeffs.shape[:-1] + (p, p), dtype=np.complex128)
    spec[..., grid.kx % p, grid.ky % p] = mult * coeffs
    spec[..., -grid.kx % p, -grid.ky % p] = np.conj(mult * coeffs)
    return np.fft.ifft2(spec).real * p * p


@pytest.mark.parametrize("shells", [4, 10, 16])
def test_packed_advect_frozen_matches_complex_fft(shells):
    grid = make_grid(shells)
    src = np.stack([random_field(grid, seed=s, rms=3.0).coeffs for s in range(3)])
    tgt = np.stack([random_field(grid, seed=s + 10, rms=1.0).coeffs for s in range(3)])
    prod = (_grid_values(grid, src, grid.ik_perp1) * _grid_values(grid, tgt, grid.ikx)
            + _grid_values(grid, src, grid.ik_perp2) * _grid_values(grid, tgt, grid.iky))
    p = 3 * grid.max_wavenumber + 1
    want = np.fft.fft2(prod)[..., grid.kx % p, grid.ky % p] / (p * p)
    uv = spectral.velocity_values(grid, spectral.pack(src))
    got = spectral.unpack(spectral.advect_frozen(grid, uv, grid._anal, spectral.pack(tgt)))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_parseval_cosine():
    f = harmonic_field(G16, 1, 0, "cos")
    assert f.l2_norm() ** 2 == pytest.approx(2 * np.pi ** 2, rel=1e-13)


def test_h1_ratio_is_eigenvalue():
    f = harmonic_field(G16, 3, 4, "cos")
    ratio = sobolev_norm(f, 1.0) ** 2 / f.l2_norm() ** 2
    assert ratio == pytest.approx(25.0, rel=1e-13)


def test_zero_field_norms():
    z = zero_field(G16)
    for s in (0.0, 0.5, 1.0, 2.0):
        assert sobolev_norm(z, s) == 0.0


# -- projection ------------------------------------------------------------------

def test_project_keeps_lowest_mode():
    f = harmonic_field(G16, 1, 0, "cos")
    assert np.array_equal(project(f, 1).coeffs, f.coeffs)


def test_project_kills_high_mode():
    f = harmonic_field(G16, 5, 2, "cos")  # |k|^2 = 29, shell 15
    assert project(f, 1).l2_norm() == 0.0


def test_project_identity_bitwise():
    f = random_field(G16, seed=5)
    assert np.array_equal(project(f, 16).coeffs, f.coeffs)
    assert np.array_equal(project(f, 40).coeffs, f.coeffs)


@given(st.integers(0, 10 ** 6), st.integers(1, 15))
def test_poincare_on_tail(seed, m):
    f = random_field(G16, seed=seed)
    tail = SpectralField(G16, f.coeffs - project(f, m).coeffs)
    lam_next = float(eigenvalue_shells(m + 1)[m])
    lhs = sobolev_norm(tail, 1.0) ** 2
    rhs = lam_next * tail.l2_norm() ** 2
    assert lhs >= rhs * (1 - 1e-12)


# -- Biot-Savart -------------------------------------------------------------------

def test_biot_savart_single_mode():
    # xi_hat((1,0)) = 1 (plus conjugate): u1_hat = 0 and u2_hat = -i, the
    # unique amplitude with d/dx u2 = xi (grad-perp . u = xi identity)
    f = spectral.field_from_modes(G16, {(1, 0): 1.0})
    u = biot_savart(f)
    i10 = G16.index_of(1, 0)[0]
    assert u.u1.coeffs[i10] == 0
    assert u.u2.coeffs[i10] == pytest.approx(-1j)


def test_biot_savart_zero():
    u = biot_savart(zero_field(G16))
    assert u.u1.l2_norm() == 0.0 and u.u2.l2_norm() == 0.0


@given(st.integers(0, 10 ** 6))
def test_biot_savart_roundtrip_and_divergence(seed):
    f = random_field(G16, seed=seed, rms=3.0)
    u = biot_savart(f)
    umax = max(np.max(np.abs(u.u1.coeffs)), np.max(np.abs(u.u2.coeffs)))
    assert divergence_defect(u) <= 1e-13 * umax
    assert curl_defect(f, u) <= 1e-12 * np.max(np.abs(f.coeffs))


# -- advection ----------------------------------------------------------------------

def _advect_oracle(grid, src, tgt):
    """O(N^4) direct convolution over all full-spectrum mode pairs."""
    def full(f):
        d = {}
        for i in range(grid.n_half):
            k = (int(grid.kx[i]), int(grid.ky[i]))
            d[k] = f.coeffs[i]
            d[(-k[0], -k[1])] = np.conj(f.coeffs[i])
        return d

    fs, ft = full(src), full(tgt)
    out = {}
    for (px, py), cp in fs.items():
        lam_p = px * px + py * py
        up = (1j * py * cp / lam_p, -1j * px * cp / lam_p)
        for (qx, qy), cq in ft.items():
            kx, ky = px + qx, py + qy
            if (kx, ky) == (0, 0) or kx * kx + ky * ky > grid.lambda_cut:
                continue
            term = (up[0] * (1j * qx) + up[1] * (1j * qy)) * cq
            out[(kx, ky)] = out.get((kx, ky), 0.0) + term
    coeffs = np.zeros(grid.n_half, dtype=np.complex128)
    for (kx, ky), val in out.items():
        i, conj = grid.index_of(kx, ky)
        if not conj:
            coeffs[i] = val
    return SpectralField(grid, coeffs)


def test_advect_single_mode_vanishes():
    f = harmonic_field(G16, 2, 1, "sin")
    assert advect(f, f).l2_norm() <= 1e-15 * f.l2_norm()


@pytest.mark.parametrize("shells", [3, 4, 6, 10, 12, 16])
def test_advect_matches_convolution_oracle(shells):
    grid = make_grid(shells)
    assert grid.n_nodes < grid.pad ** 2   # a lattice, not the pad x pad box
    for seed in range(3):
        src = random_field(grid, seed=seed, rms=1.5)
        tgt = random_field(grid, seed=seed + 100, rms=0.8)
        got = advect(src, tgt)
        want = _advect_oracle(grid, src, tgt)
        scale_ = max(np.max(np.abs(want.coeffs)), 1e-30)
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * scale_


def test_advect_two_mode_against_oracle():
    grid = make_grid(4)
    src = spectral.field_from_modes(grid, {(1, 0): 0.7 + 0.2j, (1, 1): -0.3j})
    tgt = spectral.field_from_modes(grid, {(0, 1): 0.5, (2, 0): 0.1 + 0.1j})
    got = advect(src, tgt)
    want = _advect_oracle(grid, src, tgt)
    assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12


@pytest.mark.parametrize("shells", [3, 4, 8, 10, 12, 16])
def test_advect_energy_orthogonality(shells):
    # (B(xi, xi), xi) = 0 to rounding: 100 random fields per cutoff
    grid = make_grid(shells)
    assert grid.n_nodes < grid.pad ** 2
    for seed in range(100):
        f = random_field(grid, seed=seed, rms=1.0 + (seed % 5))
        val = inner(advect(f, f), f)
        bound = 16 * np.finfo(np.float64).eps * f.l2_norm() ** 2 * sobolev_norm(f, 1.0)
        assert abs(val) <= bound


def test_float32_advect_frozen_matches_convolution_oracle():
    # a float32 sweep's product at 16 shells (233 lattice nodes): the triad
    # sum and the energy orthogonality, to float32 rounding
    grid = G16
    assert grid.n_nodes < grid.pad ** 2
    eps32 = np.finfo(np.float32).eps
    for seed in range(3):
        src = random_field(grid, seed=seed, rms=1.5)
        tgt = random_field(grid, seed=seed + 100, rms=0.8)
        uv = spectral.velocity_values(grid, spectral.pack(src.coeffs)).astype(np.float32)
        anal32 = grid._anal.astype(np.float32)
        got = spectral.advect_frozen(grid, uv, anal32, spectral.pack(tgt.coeffs).astype(np.float32))
        assert got.dtype == np.float32
        want = _advect_oracle(grid, src, tgt).coeffs
        diff = spectral.unpack(got.astype(np.float64)) - want
        assert np.max(np.abs(diff)) <= 64 * eps32 * np.max(np.abs(want))
        own = spectral.advect_frozen(grid, uv, anal32, spectral.pack(src.coeffs).astype(np.float32))
        val = spectral.inner_product(spectral.unpack(own.astype(np.float64)), src.coeffs)
        assert abs(val) <= 16 * eps32 * src.l2_norm() ** 2 * sobolev_norm(src, 1.0)


def test_advect_result_mean_free_and_truncated():
    f = random_field(G16, seed=9, rms=2.0)
    g = advect(f, f)
    assert g.coeffs.shape == (G16.n_half,)  # structurally mean-free
    assert np.all(np.isfinite(g.coeffs.view(np.float64)))


# -- linear algebra primitives ----------------------------------------------------------

def test_inner_is_norm_squared():
    f = random_field(G16, seed=11, rms=1.7)
    assert inner(f, f) == pytest.approx(f.l2_norm() ** 2, rel=1e-13)


def test_axpy_zero_coefficient():
    f = random_field(G16, seed=1)
    g = random_field(G16, seed=2)
    assert np.array_equal(axpy(0.0, f, g).coeffs, g.coeffs)


def test_fourier_modes_orthogonal():
    f = harmonic_field(G16, 1, 0, "cos")
    g = harmonic_field(G16, 2, 0, "cos")
    assert inner(f, g) == 0.0


def test_scale_scales_norm():
    f = random_field(G16, seed=13)
    assert scale(-2.0, f).l2_norm() == pytest.approx(2.0 * f.l2_norm(), rel=1e-13)


def test_grid_mismatch_raises():
    f = random_field(make_grid(4), seed=1)
    g = random_field(G16, seed=1)
    with pytest.raises(GridMismatchError):
        inner(f, g)


def test_embed_roundtrip():
    small = make_grid(4)
    f = random_field(small, seed=21)
    up = spectral.embed_coeffs(small, G16, f.coeffs)
    down = spectral.embed_coeffs(G16, small, up)
    assert np.array_equal(down, f.coeffs)


# -- checkpoint format ---------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    f = random_field(G16, seed=33, rms=2.2)
    path = tmp_path / "field.fld"
    save_field(f, path)
    g = load_field(path)
    assert g.grid == f.grid
    assert np.array_equal(g.coeffs, f.coeffs)


def test_checkpoint_roundtrip_keeps_signed_zeros(tmp_path):
    # -0.0 real parts beside nonzero imaginary parts come back as -0.0
    c = random_field(G16, seed=33, rms=2.2).coeffs.copy()
    c.real[:3] = -0.0
    path = tmp_path / "field.fld"
    save_field(SpectralField(G16, c), path)
    assert load_field(path).coeffs.tobytes() == c.tobytes()


def test_checkpoint_corrupt_magic(tmp_path):
    f = random_field(G16, seed=34)
    path = tmp_path / "field.fld"
    save_field(f, path)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTAFLD0"
    path.write_bytes(bytes(raw))
    with pytest.raises(StructuralError):
        load_field(path)


def test_checkpoint_truncated(tmp_path):
    f = random_field(G16, seed=35)
    path = tmp_path / "field.fld"
    save_field(f, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(StructuralError):
        load_field(path)
