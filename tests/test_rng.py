import numpy as np
import pytest
from numpy.random import Philox

from snselab import rng


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
    mine = rng.philox4x64(bumped[None, :], key[None, :])[0]
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
    want = rng.philox4x64(counter, key).reshape(3, 2, 4 * blocks)[..., :n]
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
    want = rng.philox4x64(counter, key).reshape(len(streams), cells.size, 4 * blocks)[..., :n]
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


def test_normal_moments():
    z = rng.standard_normals(42, np.arange(8), np.arange(8192), 16).ravel()
    assert z.size > 10 ** 6
    assert abs(z.mean()) <= 4e-3
    assert 0.99 <= z.var() <= 1.01
