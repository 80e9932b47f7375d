"""Counter-based Gaussian generation for reproducible parallel simulation.

Every random number in the package is a pure function of a 128-bit key
``(seed, trajectory_id)`` and a 256-bit counter ``(cell, block, tag, 0)``.
There is no sequential generator state, so ensembles can be evaluated in
any order, in any batch composition, on any number of threads, and the
resulting numbers are identical bit for bit.

The block cipher is Philox-4x64 with 10 rounds, the same keyed generator
exposed by :class:`numpy.random.Philox`; the vectorized implementation
here is tested against numpy's output.  Uniform variates take the top 53
bits of each 64-bit word, and standard normals are produced by the
inverse-CDF transform, so exactly one word is consumed per normal and the
counter layout is static.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = ["philox4x64", "uniforms", "standard_normals", "Tag"]

_U64 = np.uint64
_M0 = _U64(0xD2E7470EE14C6C93)
_M1 = _U64(0xCA5A826395121157)
_W0 = _U64(0x9E3779B97F4A7C15)
_W1 = _U64(0xBB67AE8584CAA73B)
_MASK32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)
_ROUNDS = 10

# 2**-53; (word >> 11) + 0.5 scaled by this lands in (0, 1) exclusive.
_INV53 = 1.0 / 9007199254740992.0


class Tag:
    """Counter-stream tags keeping independent purposes disjoint."""

    NOISE = 0          # Brownian increment cells
    INITIAL = 1        # random initial data
    SAMPLES = 2        # auxiliary sampling (metric certification, ...)
    BOOTSTRAP = 3      # resampling indices in rate fits


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
    """Apply the Philox-4x64-10 bijection to an array of counter blocks.

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


def _blocks(seed: int, stream_ids, cells, n_words: int, tag: int) -> np.ndarray:
    """Raw uint64 words for every (stream, cell) pair.

    Returns shape (n_streams, n_cells, n_words); ``stream_ids`` and
    ``cells`` are 1-d integer arrays; block b is the cipher of counter
    (cell, b, tag, 0) under key (seed, stream).
    """
    stream_ids = np.asarray(stream_ids, dtype=_U64)
    cells = np.asarray(cells, dtype=_U64)
    n_blocks = -(-n_words // 4)
    words = np.stack(_rounds(cells[None, :, None],
                             np.arange(n_blocks, dtype=_U64)[None, None, :],
                             _U64(tag), _U64(0), _U64(seed), stream_ids[:, None, None]),
                     axis=-1)
    return words.reshape(stream_ids.size, cells.size, n_blocks * 4)[..., :n_words]


def uniforms(seed: int, stream_ids, cells, n: int, tag: int = Tag.SAMPLES) -> np.ndarray:
    """Deterministic uniforms in (0, 1), shape (n_streams, n_cells, n)."""
    words = _blocks(seed, stream_ids, cells, n, tag)
    return ((words >> _U64(11)).astype(np.float64) + 0.5) * _INV53


def standard_normals(seed: int, stream_ids, cells, n: int,
                     tag: int = Tag.NOISE) -> np.ndarray:
    """Deterministic standard normals, shape (n_streams, n_cells, n)."""
    return ndtri(uniforms(seed, stream_ids, cells, n, tag))
