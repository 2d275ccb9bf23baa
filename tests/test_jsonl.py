import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmpipe.masking import BLOCK_EXAMPLES
from mlmpipe.jsonl import example_lines
from mlmpipe.masking import MaskedBlock

ids = st.integers(min_value=0, max_value=10 ** 9)


@st.composite
def blocks(draw):
    """A block of 1 to BLOCK_EXAMPLES rows of one length, each with 0-6 targets."""
    n_rows = draw(st.integers(min_value=1, max_value=BLOCK_EXAMPLES))
    L = draw(st.integers(min_value=1, max_value=8))
    seq = draw(st.lists(st.lists(ids, min_size=L, max_size=L),
                        min_size=n_rows, max_size=n_rows))
    targets = draw(st.lists(st.lists(st.tuples(ids, ids), max_size=6),
                            min_size=n_rows, max_size=n_rows))
    dup = draw(st.lists(st.integers(min_value=0, max_value=5), min_size=n_rows,
                        max_size=n_rows))
    src = draw(st.lists(ids, min_size=n_rows, max_size=n_rows))
    return seq, targets, dup, src


def make_block(seq, targets, dup, src):
    flat = [pair for row in targets for pair in row]
    L = len(seq[0]) if seq else 1
    corrupted_ids = np.array(seq, dtype=np.int64).reshape(len(seq), L)
    # example_lines writes no corrupted flags
    return MaskedBlock(original_ids=corrupted_ids, corrupted_ids=corrupted_ids,
                       corrupted=np.zeros(corrupted_ids.shape, bool),
                       target_counts=np.array([len(row) for row in targets], dtype=np.int64),
                       target_positions=np.array([p for p, _ in flat], dtype=np.int64),
                       target_originals=np.array([o for _, o in flat], dtype=np.int64),
                       duplicate_index=np.array(dup, dtype=np.int64),
                       source_sequence=np.array(src, dtype=np.int64))


def json_lines(seq, targets, dup, src):
    return "".join(json.dumps({"seq": s, "targets": [[p, o] for p, o in t], "dup": d,
                               "src": r}, separators=(",", ":")) + "\n"
                   for s, t, d, r in zip(seq, targets, dup, src)).encode()


@given(blocks())
@settings(max_examples=150, deadline=None)
def test_matches_json_dumps(case):
    assert example_lines(make_block(*case)) == json_lines(*case)


@pytest.mark.parametrize("case", [
    # one row, no targets, every number a single digit
    ([[0, 1, 2]], [[]], [0], [0]),
    # rows with and without targets, a duplicate, ids of every width up to 10**9
    ([[7, 10 ** 9, 99], [100, 5, 0]], [[(2, 99), (0, 7)], []], [0, 1], [12, 12]),
    # the widest number is a source index
    ([[1, 2]], [[(1, 2)]], [3], [10 ** 9]),
])
def test_edge_blocks(case):
    assert example_lines(make_block(*case)) == json_lines(*case)


def test_empty_block():
    assert example_lines(make_block([], [], [], [])) == b""


def test_rejects_negative_numbers():
    with pytest.raises(ValueError):
        example_lines(make_block([[1, -2]], [[]], [0], [0]))
