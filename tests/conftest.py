import numpy as np
import pytest

from mlmpipe.corpus import (PackedDataset, TokenSequence, Vocab, Window, load_tokens,
                            pack_sequences)
from mlmpipe.masking import MaskPlan, materialize

# specials: pad=0, sep=1, mask=2; ordinary tokens start at 3
VOCAB = Vocab(size=100, mask_id=2, pad_id=0, sep_id=1)


@pytest.fixture
def vocab():
    return VOCAB


def make_window(ids, word_starts=None):
    ids = np.asarray(ids, dtype=np.int64)
    if word_starts is None:
        word_starts = np.ones(len(ids), dtype=bool)
    return Window(ids=ids, word_starts=np.asarray(word_starts, dtype=bool))


def full_window(L=128, vocab=VOCAB, rng=None):
    """A window with no pad/sep: every position maskable."""
    rng = rng or np.random.default_rng(0)
    ids = rng.integers(3, vocab.size, size=L)
    return make_window(ids)


def random_docs(n_docs, doc_len, vocab=VOCAB, seed=0):
    rng = np.random.default_rng(seed)
    docs = []
    for d in range(n_docs):
        n = int(rng.integers(doc_len // 2, doc_len * 2))
        ids = rng.integers(3, vocab.size, size=n)
        ws = rng.random(n) < 0.7
        ws[0] = True
        docs.append(TokenSequence(ids=ids, word_starts=ws))
    return docs


def load_lines(tmp_path, lines, vocab=VOCAB):
    """``load_tokens`` on a file in `tmp_path` holding `lines`, one per line."""
    path = tmp_path / "lines.jsonl"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return load_tokens(path, vocab)


def packed(windows, vocab=VOCAB):
    """A packed dataset of the given windows, which share one length."""
    return PackedDataset(ids=np.stack([w.ids for w in windows]),
                         word_starts=np.stack([w.word_starts for w in windows]), vocab=vocab)


def packed_dataset(n_docs=50, doc_len=100, seq_len=128, vocab=VOCAB, seed=0):
    return pack_sequences(random_docs(n_docs, doc_len, vocab, seed), seq_len, vocab)


def mean_run_length(counts):
    """The count-weighted mean of a run length -> count tally."""
    total = sum(counts.values())
    return sum(n * c for n, c in counts.items()) / total if total else 0.0


def materialize_one(window, plan, vocab=VOCAB):
    """One plan applied to its window, as a one-row block."""
    return materialize(window.ids[np.newaxis], [plan], vocab)


def mask_plan(positions, predictions=(), src=0):
    """An all-MASK plan over `positions` with (position, original id) targets."""
    positions = np.asarray(positions, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64).reshape(-1, 2)
    return MaskPlan(positions=positions, kinds=np.zeros(len(positions), dtype=np.uint8),
                    replacements=np.empty(0, dtype=np.int64),
                    pred_positions=predictions[:, 0].copy(),
                    pred_originals=predictions[:, 1].copy(), source_sequence=src)
