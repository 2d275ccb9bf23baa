"""``substreams`` against numpy's own SeedSequence and ``substream``.

The keys are numpy's SeedSequence hash recomputed over columns, so these
tests are where a change in numpy's algorithm would show.
"""

import numpy as np
import pytest

from mlmpipe.rng import substream, substreams

SEEDS = [0, 1, 2 ** 32 + 5, 2 ** 70 + 3]
EPOCHS = [0, 2 ** 33]
INDICES = np.array([0, 1, 7, 2 ** 31, 2 ** 32 - 1], dtype=np.int64)


def draws(rng):
    return (rng.integers(0, 1 << 40, size=5).tolist(),
            rng.choice(50, size=10, replace=False).tolist(),
            rng.permutation(20).tolist(),
            rng.random(3).tolist())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("epoch", EPOCHS)
def test_keys_equal_seed_sequence(seed, epoch):
    for i, rng in zip(INDICES.tolist(), substreams(seed, (epoch,), INDICES)):
        want = np.random.SeedSequence(seed, spawn_key=(epoch, i)).generate_state(2, np.uint64)
        assert rng.bit_generator.state["state"]["key"].tolist() == want.tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("epoch", EPOCHS)
def test_draws_equal_substream(seed, epoch):
    got = [draws(rng) for rng in substreams(seed, (epoch,), INDICES)]
    assert got == [draws(substream(seed, epoch, i)) for i in INDICES.tolist()]


@pytest.mark.parametrize("path", [(), (3, 4), (2 ** 64 + 9,)])
def test_any_path_length(path):
    got = [draws(rng) for rng in substreams(11, path, INDICES)]
    assert got == [draws(substream(11, *path, i)) for i in INDICES.tolist()]


def test_empty_indices():
    assert substreams(5, (0,), np.empty(0, dtype=np.int64)) == []


@pytest.mark.parametrize("bad", [2 ** 32, -1])
def test_index_outside_one_word_raises(bad):
    with pytest.raises(ValueError):
        substreams(5, (0,), np.array([3, bad], dtype=np.int64))

