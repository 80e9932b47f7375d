"""Counter-based Gaussian generation for reproducible parallel simulation.

Every random number in the package is a pure function of a 128-bit key
``(seed, trajectory_id)`` and a 256-bit counter ``(cell, block, tag, 0)``.
There is no sequential generator state, so ensembles can be evaluated in
any order, in any batch composition, on any number of threads, and the
resulting numbers are identical bit for bit.

The block cipher is Philox-4x64 with 10 rounds (Salmon, Moraes, Dror and
Shaw, SC'11).  The tape words come from numpy's C implementation,
:class:`numpy.random.Philox`, set to each block's counter.  Uniform
variates take the top 53 bits of each 64-bit word, and standard normals
are produced by the inverse-CDF transform, so exactly one word is
consumed per normal and the counter layout is static.

The inverse normal CDF is Cephes' ``ndtri`` (S. L. Moshier, *Methods and
Programs for Mathematical Functions*, 1989), the algorithm behind
``scipy.special.ndtri``, written as numpy passes over blocks of a draw.
For e^-2 < u <= 1 - e^-2 it is sqrt(2 pi) (y + y^3 P0(y^2) / Q0(y^2))
with y = u - 0.5.  In the tails it is x - log(x) / x - z P(z) / Q(z),
negated below u = 1/2, with x = sqrt(-2 log min(u, 1 - u)) and z = 1 / x;
P1/Q1 serve x < 8 and P2/Q2 the rest (u < e^-32: the smallest tape
uniform, 2^-54, maps to -8.29).  The rationals are evaluated in Cephes'
Horner order, so central normals equal scipy's bit for bit.  Tail normals
take their logs from ``np.log``, which can differ from the C library's
``log`` in the last bit (numpy's AVX-512 log does for a few arguments):
then of 384 million tape normals (seeds 5 to 104), 23,742 differ from
scipy's, 1 tail normal in 4,400, none by more than 6 ulp.  Every
operation is elementwise, so no value depends on where a block ends, and
the normals do not depend on the thread count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["uniforms", "standard_normals", "Tag"]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

# 2**-53; (word >> 11) + 0.5 scaled by this lands in (0, 1], and 1.0 (the
# top word's, whose sum rounds up to 2**53) is clamped to 1 - 2**-53
_INV53 = 1.0 / 9007199254740992.0
_U_MAX = 1.0 - _INV53

# values converted per pass; a block and its scratch stay in L2
_BLOCK = 1 << 15

# Cephes ndtri: P0/Q0 on the centre, P1/Q1 and P2/Q2 on the tails; each
# Q has a leading coefficient 1 (Cephes' p1evl)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189      # e^-2
_CENTRE_HI = 1.0 - _EXP_M2


class Tag:
    """Counter-stream tags keeping independent purposes disjoint."""

    NOISE = 0          # Brownian increment cells
    INITIAL = 1        # random initial data
    SAMPLES = 2        # auxiliary sampling (metric certification, ...)
    BOOTSTRAP = 3      # resampling indices in rate fits


def _blocks(seed: int, stream_ids, cells, n_words: int, tag: int) -> np.ndarray:
    """Raw uint64 words for every (stream, cell) pair.

    Returns a C-contiguous array of shape (n_streams, n_cells, n_words);
    ``stream_ids`` and ``cells`` are 1-d integer arrays; words 4b .. 4b + 3
    of a cell are the cipher of counter (cell, b, tag, 0) under key
    (seed, stream).

    The words come from numpy's C Philox-4x64-10, which encrypts counters
    c + 1, c + 2, ... of a state set to counter c, so one ``random_raw``
    read from counter (cell_0 + b 2^64 + tag 2^128 - 1) mod 2^256 gives
    block b of a run of consecutive cells cell_0, cell_0 + 1, ...  There
    is one read per (stream, block, run).
    """
    stream_ids = np.asarray(stream_ids, dtype=_U64).reshape(-1)
    cells = np.asarray(cells, dtype=_U64).reshape(-1)
    n_blocks = -(-n_words // 4)
    out = np.empty((stream_ids.size, cells.size, n_words), dtype=_U64)
    # a run ends where the next cell is not one more (a wrap to 0 ends it too)
    ends = np.flatnonzero((cells[1:] <= cells[:-1]) | (cells[1:] - cells[:-1] != 1)) + 1
    bounds = [0, *ends.tolist(), cells.size] if cells.size else []
    # (first word of the block, its width, first cell, end, the counter words of
    # the read); a negative counter (cell 0, block 0, tag 0) shifts to words
    # 2^64 - 1, as mod 2^256
    reads = [(4 * b, min(4, n_words - 4 * b), i0, i1,
              [((c0 + (b << 64) + (tag << 128) - 1) >> 64 * w) & _MASK64 for w in range(4)])
             for b in range(n_blocks)
             for i0, i1, c0 in zip(bounds[:-1], bounds[1:], cells[bounds[:-1]].tolist())]
    gen = np.random.Philox(key=0)
    # a state of plain ints, which the setter reads faster than arrays;
    # buffer_pos 4 is an empty buffer, so the next read encrypts
    state = {"bit_generator": "Philox", "state": {}, "buffer": [0] * 4, "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for s, stream in enumerate(stream_ids.tolist()):
        state["state"]["key"] = [seed, stream]
        for w0, width, i0, i1, counter in reads:
            state["state"]["counter"] = counter
            gen.state = state
            words = gen.random_raw(4 * (i1 - i0)).reshape(-1, 4)
            out[s, i0:i1, w0:w0 + width] = words[:, :width]
    return out


def _polevl(x: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    """Cephes' polevl: the polynomial `coefs` (highest power first) at `x`,
    one multiply and one add per step, into `out`."""
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    """Cephes' p1evl: `_polevl` with a leading coefficient 1 not stored."""
    np.add(x, coefs[0], out=out)
    for c in coefs[1:]:
        out *= x
        out += c
    return out


def _ndtri(u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Cephes' inverse normal CDF of the 1-d block `u` in (0, 1), in place;
    `scratch` is (4, len(u)) or larger."""
    n = u.size
    tail = np.flatnonzero((u <= _EXP_M2) | (u > _CENTRE_HI))
    ut = u[tail]
    # the centre, over the whole block (the tails' values are replaced below)
    y, y2, q = scratch[0, :n], scratch[1, :n], scratch[2, :n]
    np.subtract(u, 0.5, out=y)
    np.multiply(y, y, out=y2)
    _polevl(y2, _P0, u)
    u *= y2
    _p1evl(y2, _Q0, q)
    u /= q
    u *= y
    u += y
    u *= _S2PI
    if tail.size:
        u[tail] = _tails(ut, scratch[:, :tail.size])
    return u


def _tails(ut: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Cephes' inverse normal CDF of gathered tail uniforms `ut`
    (u <= e^-2 or u > 1 - e^-2) into `scratch[0]`."""
    x, w, p, q = scratch
    np.subtract(1.0, ut, out=w)
    np.minimum(w, ut, out=w)
    np.log(w, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    np.log(x, out=w)
    w /= x
    np.subtract(x, w, out=w)            # x - log(x) / x
    big = np.flatnonzero(x >= 8.0)      # u < e^-32
    np.divide(1.0, x, out=x)            # z = 1 / x
    _polevl(x, _P1, p)
    _p1evl(x, _Q1, q)
    if big.size:
        z = x[big]
        p[big] = _polevl(z, _P2, np.empty_like(z))
        q[big] = _p1evl(z, _Q2, np.empty_like(z))
    x *= p
    x /= q
    np.subtract(w, x, out=x)
    np.subtract(ut, 0.5, out=w)
    return np.copysign(x, w, out=x)


def _tape(words: np.ndarray, normals: bool) -> np.ndarray:
    """The uniforms, or with `normals` the standard normals, of C-contiguous
    tape `words`, written over the words' own buffer block by block."""
    values = words.view(np.float64)
    flat_w, flat_v = words.reshape(-1), values.reshape(-1)
    scratch = np.empty((4, min(_BLOCK, flat_w.size))) if normals else None
    for a in range(0, flat_w.size, _BLOCK):
        w, v = flat_w[a:a + _BLOCK], flat_v[a:a + _BLOCK]
        w >>= _U64(11)
        np.add(w, 0.5, out=v)
        v *= _INV53
        np.minimum(v, _U_MAX, out=v)
        if normals:
            _ndtri(v, scratch)
    return values


def uniforms(seed: int, stream_ids, cells, n: int, tag: int = Tag.SAMPLES) -> np.ndarray:
    """Deterministic uniforms in (0, 1), shape (n_streams, n_cells, n).

    Converted in place, so a draw holds its words and nothing more."""
    return _tape(_blocks(seed, stream_ids, cells, n, tag), normals=False)


def standard_normals(seed: int, stream_ids, cells, n: int,
                     tag: int = Tag.NOISE) -> np.ndarray:
    """Deterministic standard normals, shape (n_streams, n_cells, n);
    like `uniforms`, in place over the draw's words."""
    return _tape(_blocks(seed, stream_ids, cells, n, tag), normals=True)
