import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.random import Philox
from scipy.special import ndtri

from helpers import philox4x64
from snselab import integrator, rng

# a tail normal takes two logs from np.log, which differs from the C library's
# log in the last bit for a few arguments; of 384 million tape normals none
# was more than 6 ulp from scipy's
TAIL_ULPS = 8


@pytest.mark.parametrize("trial", range(8))
def test_philox_matches_numpy(trial):
    # numpy's Philox pre-increments the first counter word before generating
    g = np.random.default_rng(trial)
    key = g.integers(0, 2 ** 63, size=2, dtype=np.uint64)
    ctr = g.integers(0, 2 ** 63, size=4, dtype=np.uint64)
    ref = np.asarray(Philox(key=int(key[0]) + (int(key[1]) << 64),
                            counter=[int(c) for c in ctr]).random_raw(4),
                     dtype=np.uint64)
    bumped = ctr.copy()
    bumped[0] += np.uint64(1)
    mine = philox4x64(bumped[None, :], key[None, :])[0]
    assert np.array_equal(ref, mine)


def test_blocks_are_the_cipher_of_their_counters():
    # _blocks keeps its constant counter and key words scalar; the cipher of
    # the full counter and key arrays gives the same words
    streams, cells, n, blocks = np.array([0, 3, 9]), np.array([2, 5]), 7, 2
    counter = np.zeros((3, 2, blocks, 4), dtype=np.uint64)
    counter[..., 0] = cells[None, :, None]
    counter[..., 1] = np.arange(blocks)[None, None, :]
    counter[..., 2] = rng.Tag.BOOTSTRAP
    key = np.zeros((3, 2, blocks, 2), dtype=np.uint64)
    key[..., 0] = 11
    key[..., 1] = streams[:, None, None]
    want = philox4x64(counter, key).reshape(3, 2, 4 * blocks)[..., :n]
    assert np.array_equal(rng._blocks(11, streams, cells, n, rng.Tag.BOOTSTRAP), want)


@pytest.mark.parametrize("seed, streams, cells, n, tag", [
    # cell 0 borrows from the block word of the counter before encrypting
    (20260809, [0, 1, 127], np.arange(0, 300), 20, rng.Tag.NOISE),
    (5, [4], [7, 8, 9, 3, 4, 0, 2], 56, rng.Tag.INITIAL),   # four runs of cells
    (2 ** 64 - 1, [2 ** 64 - 1], [2 ** 64 - 2, 2 ** 64 - 1, 0], 7, rng.Tag.BOOTSTRAP),
    (1, [3], [], 4, rng.Tag.NOISE),
])
def test_block_words_are_the_reference_cipher(seed, streams, cells, n, tag):
    cells = np.asarray(cells, dtype=np.uint64)
    blocks = -(-n // 4)
    counter = np.zeros((len(streams), cells.size, blocks, 4), dtype=np.uint64)
    counter[..., 0] = cells[None, :, None]
    counter[..., 1] = np.arange(blocks)[None, None, :]
    counter[..., 2] = tag
    key = np.zeros((len(streams), cells.size, blocks, 2), dtype=np.uint64)
    key[..., 0] = seed
    key[..., 1] = np.asarray(streams, dtype=np.uint64)[:, None, None]
    want = philox4x64(counter, key).reshape(len(streams), cells.size, 4 * blocks)[..., :n]
    assert np.array_equal(rng._blocks(seed, streams, cells, n, tag), want)


def test_pure_function_of_key_and_counter():
    a = rng.standard_normals(7, [3], [11], 8)
    b = rng.standard_normals(7, [3], [11], 8)
    assert np.array_equal(a, b)


def test_batch_composition_irrelevant():
    solo = rng.standard_normals(5, [2], [4], 6)[0, 0]
    batch = rng.standard_normals(5, [0, 1, 2, 3], [3, 4, 5], 6)[2, 1]
    assert np.array_equal(solo, batch)


def test_tags_and_keys_decorrelate():
    base = rng.standard_normals(5, [0], [0], 4, tag=rng.Tag.NOISE)
    assert not np.array_equal(base, rng.standard_normals(5, [0], [0], 4,
                                                         tag=rng.Tag.INITIAL))
    assert not np.array_equal(base, rng.standard_normals(6, [0], [0], 4,
                                                         tag=rng.Tag.NOISE))
    assert not np.array_equal(base, rng.standard_normals(5, [1], [0], 4,
                                                         tag=rng.Tag.NOISE))


def test_uniforms_open_interval():
    u = rng.uniforms(1, np.arange(4), np.arange(256), 16)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_top_word_is_below_one(monkeypatch):
    # (2^53 - 1 + 0.5) 2^-53 rounds to 1.0; the tape clamps it to 1 - 2^-53,
    # and k = 2^53 - 2 still gives 1 - 2^-52
    words = np.array([2 ** 64 - 1, 2 ** 64 - 2 ** 11 - 1, 0], dtype=np.uint64)
    monkeypatch.setattr(rng, "_blocks", lambda *a: words.reshape(1, 1, 3).copy())
    u = rng.uniforms(0, [0], [0], 3)[0, 0]
    assert u.tolist() == [1.0 - 2.0 ** -53, 1.0 - 2.0 ** -52, 2.0 ** -54]
    z = rng.standard_normals(0, [0], [0], 3)[0, 0]
    assert np.all(np.isfinite(z)) and np.array_equal(z, ndtri(u))


def _ulps(a, b):
    return np.abs(a.view(np.int64) - b.view(np.int64))


def _assert_matches_ndtri(u, z):
    """Central normals equal scipy's bit for bit, tail normals to TAIL_ULPS."""
    want = ndtri(u)
    centre = (u > rng._EXP_M2) & (u <= rng._CENTRE_HI)
    assert np.array_equal(z[centre], want[centre])
    assert np.all(_ulps(z[~centre], want[~centre]) <= TAIL_ULPS)


@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=200))
def test_tape_is_the_uniform_map_and_scipy_ndtri(words):
    words = np.array(words, dtype=np.uint64)
    k = (words >> np.uint64(11)).astype(np.float64)
    want_u = np.minimum((k + 0.5) * 2.0 ** -53, 1.0 - 2.0 ** -53)
    u = rng._tape(words.copy(), normals=False)
    assert np.array_equal(u, want_u)
    _assert_matches_ndtri(u, rng._tape(words.copy(), normals=True))


def test_draw_matches_scipy_ndtri():
    # hypothesis favours extreme words, so most of its uniforms are tails
    u = rng.uniforms(11, np.arange(16), np.arange(400), 20, tag=rng.Tag.NOISE)
    _assert_matches_ndtri(u, rng.standard_normals(11, np.arange(16), np.arange(400), 20))


def test_ndtri_at_region_edges():
    e2, hi = rng._EXP_M2, rng._CENTRE_HI
    u = np.array([2.0 ** -54, 1e-15, 1.0 - 2.0 ** -53, 0.5,
                  np.nextafter(e2, 0.0), e2, np.nextafter(e2, 1.0),
                  np.nextafter(hi, 0.0), hi, np.nextafter(hi, 1.0)])
    z = rng._ndtri(u.copy(), np.empty((4, u.size)))
    _assert_matches_ndtri(u, z)
    assert z[0] < -8.0 and z[3] == 0.0


def test_draw_does_not_depend_on_blocks_or_pieces(monkeypatch):
    # 80,000 normals span three blocks; pieces of the same cells start
    # inside a block, one of them at a tail value
    seed, streams, cells, n = 3, [0, 5], np.arange(2000), 20
    whole = rng.standard_normals(seed, streams, cells, n)
    assert whole.size > 2 * rng._BLOCK
    tail = np.flatnonzero(np.abs(whole[0, :, 0]) > 1.2)
    cut = int(tail[tail > 900][0])
    pieces = [rng.standard_normals(seed, streams, cells[a:b], n)
              for a, b in ((0, 7), (7, cut), (cut, cells.size))]
    assert np.array_equal(np.concatenate(pieces, axis=1), whole)
    # blocks of any size, down to one value, give the same values
    for block in (1, 7, 333):
        monkeypatch.setattr(rng, "_BLOCK", block)
        assert np.array_equal(rng.standard_normals(seed, streams, cells[:25], n),
                              whole[:, :25])


def test_draw_holds_its_words_and_block_scratch():
    # the words become the normals in place; the rest is a block's scratch
    # and temporaries and one read's words, a few blocks' worth in all
    rng.standard_normals(9, [0], [0], 4)      # numpy's one-off allocations
    tracemalloc.start()
    try:
        z = rng.standard_normals(9, np.arange(256), np.arange(256), 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = 12 * 8 * rng._BLOCK
    assert z.nbytes > 2 * scratch
    assert peak <= z.nbytes + scratch
    assert peak <= integrator.DRAW_BYTES * z.size + scratch


def test_normal_moments():
    z = rng.standard_normals(42, np.arange(8), np.arange(8192), 16).ravel()
    assert z.size > 10 ** 6
    assert abs(z.mean()) <= 4e-3
    assert 0.99 <= z.var() <= 1.01
