"""Counter-based Gaussian generation for reproducible parallel simulation.

Every random number in the package is a pure function of a 128-bit key
``(seed, trajectory_id)`` and a 256-bit counter ``(cell, block, tag, 0)``.
There is no sequential generator state, so ensembles can be evaluated in
any order, in any batch composition, on any number of threads, and the
resulting numbers are identical bit for bit.

The block cipher is Philox-4x64 with 10 rounds (Salmon, Moraes, Dror and
Shaw, SC'11).  The tape words come from numpy's C implementation,
:class:`numpy.random.Philox`, set to each block's counter; the vectorized
`philox4x64` here is the reference they are tested against.  Uniform
variates take the top 53 bits of each 64-bit word, and standard normals
are produced by the inverse-CDF transform, so exactly one word is
consumed per normal and the counter layout is static.
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
_MASK64 = (1 << 64) - 1
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

    The words come from numpy's C Philox-4x64-10, which encrypts counters
    c + 1, c + 2, ... of a state set to counter c, so one ``random_raw``
    read from counter (cell_0 + b 2^64 + tag 2^128 - 1) mod 2^256 gives
    block b of a run of consecutive cells cell_0, cell_0 + 1, ...  There
    is one read per (stream, block, run).
    """
    stream_ids = np.asarray(stream_ids, dtype=_U64).reshape(-1)
    cells = np.asarray(cells, dtype=_U64).reshape(-1)
    n_blocks = -(-n_words // 4)
    out = np.empty((stream_ids.size, cells.size, n_blocks, 4), dtype=_U64)
    # a run ends where the next cell is not one more (a wrap to 0 ends it too)
    ends = np.flatnonzero((cells[1:] <= cells[:-1]) | (cells[1:] - cells[:-1] != 1)) + 1
    bounds = [0, *ends.tolist(), cells.size] if cells.size else []
    # (block, first, end, the counter words of the read); a negative counter
    # (cell 0, block 0, tag 0) shifts to words 2^64 - 1, as mod 2^256
    reads = [(b, i0, i1, [((c0 + (b << 64) + (tag << 128) - 1) >> 64 * w) & _MASK64
                          for w in range(4)])
             for b in range(n_blocks)
             for i0, i1, c0 in zip(bounds[:-1], bounds[1:], cells[bounds[:-1]].tolist())]
    gen = np.random.Philox(key=0)
    state = gen.state
    for s, stream in enumerate(stream_ids.tolist()):
        state["state"]["key"][:] = (seed, stream)
        for b, i0, i1, counter in reads:
            state["state"]["counter"][:] = counter
            state["buffer_pos"] = 4    # an empty buffer: the next read encrypts
            gen.state = state
            out[s, i0:i1, b] = gen.random_raw(4 * (i1 - i0)).reshape(-1, 4)
    return out.reshape(stream_ids.size, cells.size, n_blocks * 4)[..., :n_words]


def uniforms(seed: int, stream_ids, cells, n: int, tag: int = Tag.SAMPLES) -> np.ndarray:
    """Deterministic uniforms in (0, 1), shape (n_streams, n_cells, n).

    In place after the one conversion, so a draw holds its words and its
    uniforms and nothing more."""
    words = _blocks(seed, stream_ids, cells, n, tag)
    words >>= _U64(11)
    u = words.astype(np.float64)
    u += 0.5
    u *= _INV53
    return u


def standard_normals(seed: int, stream_ids, cells, n: int,
                     tag: int = Tag.NOISE) -> np.ndarray:
    """Deterministic standard normals, shape (n_streams, n_cells, n)."""
    u = uniforms(seed, stream_ids, cells, n, tag)
    return ndtri(u, out=u)
