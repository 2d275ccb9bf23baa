import numpy as np
import pytest

from mlmpipe.corpus import (PackedDataset, TokenSequence, Vocab, Window, load_tokens,
                            pack_sequences)
from mlmpipe.masking import UNIT_STRATEGIES, MaskPlan, PlanBlock, materialize
from mlmpipe.pmi import segment_block

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


def rates(corruption, prediction=None):
    """MaskingConfig keywords for the two rates; one rate sets both."""
    return {"corruption_rate": corruption,
            "prediction_rate": corruption if prediction is None else prediction}


def window_units(window, config, pmi_vocab=None, vocab=VOCAB):
    """The window's ``segment_block`` unit array under a unit strategy, else None."""
    if config.strategy not in UNIT_STRATEGIES:
        return None
    return segment_block(window.ids[np.newaxis], window.word_starts[np.newaxis], vocab,
                         config.strategy, pmi_vocab)[0]


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


def padded_windows(maskable, L, seed=0):
    """A packed dataset whose window i holds maskable[i] ordinary ids, then pad."""
    ids = np.random.default_rng(seed).integers(3, VOCAB.size, size=(len(maskable), L))
    ids[np.arange(L) >= np.asarray(maskable)[:, np.newaxis]] = VOCAB.pad_id
    return PackedDataset(ids=ids, word_starts=np.ones(ids.shape, dtype=bool), vocab=VOCAB)


def packed_dataset(n_docs=50, doc_len=100, seq_len=128, vocab=VOCAB, seed=0):
    return pack_sequences(random_docs(n_docs, doc_len, vocab, seed), seq_len, vocab)


def mean_run_length(counts):
    """The count-weighted mean of a run length -> count tally."""
    total = sum(counts.values())
    return sum(n * c for n, c in counts.items()) / total if total else 0.0


def plan_block(plans):
    """MaskPlans as the one PlanBlock that holds them, in order."""
    def joined(arrays, dtype):
        return np.concatenate([np.asarray(a, dtype=dtype) for a in arrays] or
                              [np.empty(0, dtype=dtype)])

    return PlanBlock(counts=np.array([len(p.positions) for p in plans], dtype=np.int64),
                     positions=joined([p.positions for p in plans], np.int64),
                     kinds=joined([p.kinds for p in plans], np.uint8),
                     replacements=joined([p.replacements for p in plans], np.int64),
                     target_counts=np.array([len(p.pred_positions) for p in plans],
                                            dtype=np.int64),
                     pred_positions=joined([p.pred_positions for p in plans], np.int64),
                     pred_originals=joined([p.pred_originals for p in plans], np.int64),
                     duplicate_index=np.array([p.duplicate_index for p in plans],
                                              dtype=np.int64),
                     source_sequence=np.array([p.source_sequence for p in plans],
                                              dtype=np.int64))


def all_plans(blocks):
    """Every plan of an iterable of PlanBlocks, as MaskPlans in order."""
    return [plan for block in blocks for plan in block.plans()]


def materialize_one(window, plan, vocab=VOCAB):
    """One plan applied to its window, as a one-row block."""
    return materialize(window.ids[np.newaxis], plan_block([plan]), vocab)


def one_row(sampler, allowed, budget, rng, *args, length=None):
    """A block sampler run on a one-row block whose allowed positions are
    ``allowed``: the picked positions, ascending. ``args`` go before the
    generators (the span sampler's mean span); ``length`` defaults to one
    past the last allowed position."""
    allowed = np.asarray(allowed, dtype=np.int64)
    if length is None:
        length = int(allowed[-1]) + 1 if len(allowed) else 0
    mask = np.zeros((1, length), dtype=bool)
    mask[0, allowed] = True
    return sampler(mask, np.array([budget], dtype=np.int64), *args, [rng]).nonzero()[1]


def mask_plan(positions, predictions=(), src=0):
    """An all-MASK plan over `positions` with (position, original id) targets."""
    positions = np.asarray(positions, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64).reshape(-1, 2)
    return MaskPlan(positions=positions, kinds=np.zeros(len(positions), dtype=np.uint8),
                    replacements=np.empty(0, dtype=np.int64),
                    pred_positions=predictions[:, 0].copy(),
                    pred_originals=predictions[:, 1].copy(), source_sequence=src)
