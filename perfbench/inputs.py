"""Seeded synthetic inputs for the mlmpipe benchmark.

One corpus is drawn per seed and written in the three formats the CLI reads:

* the raw document corpus (canonical JSONL, ``pack`` and ``pmi-build`` input);
* the packed corpus (the ``save_packed`` JSONL layout, ``mask``/``stats`` input),
  packed here by the benchmark's own reference packing;
* a ranked PMI vocabulary TSV (the ``PmiVocabulary.save_tsv`` layout).

Nothing here imports mlmpipe: the inputs never depend on the code under test.
Every array is drawn in one vectorized pass from ``numpy.random.default_rng``
keyed by the seed, so the same seed gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEQ_LEN = 128
VOCAB_SIZE = 1000
PAD_ID, SEP_ID, MASK_ID = 0, 1, 2
FIRST_ORDINARY = 3            # ordinary token ids are 3..999
VOCAB_FLAGS = ["--vocab-size", str(VOCAB_SIZE), "--mask-id", str(MASK_ID),
               "--pad-id", str(PAD_ID), "--sep-id", str(SEP_ID)]

WINDOWS = 10_000
TAIL_PAD = 64                 # pad positions in the last window
DOC_LEN = (50, 400)           # inclusive document length range
WORD_START_SHARE = 0.70
ZIPF_S = 1.1                  # token-id Zipf exponent
PHRASES = 10_000              # planted 2-5-token phrases; also the TSV size
PHRASE_LEN = (2, 5)
PHRASE_ZIPF_S = 1.0           # phrase popularity Zipf exponent
PHRASE_ITEM_SHARE = 0.17      # share of stream items that are planted phrases


@dataclass
class Corpus:
    """Documents as one flat array plus document lengths, and the PMI vocabulary."""

    ids: np.ndarray            # int64, all documents concatenated
    word_starts: np.ndarray    # bool, same length
    doc_lens: np.ndarray       # int64, one entry per document
    phrases: list[np.ndarray]  # rank-ordered PMI vocabulary n-grams
    scores: np.ndarray         # descending PMI scores, one per phrase

    @property
    def doc_tokens(self) -> int:
        return int(len(self.ids))


def _zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return p / p.sum()


def _phrase_inventory(rng: np.random.Generator, ordinary: np.ndarray) -> list[np.ndarray]:
    """PHRASES distinct n-grams of ordinary ids, lengths uniform in PHRASE_LEN.

    Phrase ids are uniform, not Zipf: n-grams of frequent ids would also
    match by chance all over the free text and swamp the planted share.
    """
    lo, hi = PHRASE_LEN
    lens = rng.integers(lo, hi + 1, size=2 * PHRASES)
    flat = rng.choice(ordinary, size=int(lens.sum()))
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    # 10 bits per id (ids < 1024) plus the length keys each n-gram uniquely
    seen: set[int] = set()
    phrases: list[np.ndarray] = []
    for start, n in zip(starts.tolist(), lens.tolist()):
        gram = flat[start:start + n]
        key = int(np.dot(gram, 1024 ** np.arange(n))) * 8 + n
        if key in seen:
            continue
        seen.add(key)
        phrases.append(gram)
        if len(phrases) == PHRASES:
            return phrases
    raise RuntimeError("phrase inventory: too many duplicate draws")


def generate(seed: int, index: int = 0, windows: int = WINDOWS) -> Corpus:
    """Draw corpus number `index` and its PMI vocabulary for `seed`.

    Documents fill exactly `windows` packed windows of SEQ_LEN, the last one
    with TAIL_PAD pad positions (or fewer for tiny corpora).
    """
    rng = np.random.default_rng([seed, index, windows])
    ordinary = np.arange(FIRST_ORDINARY, VOCAB_SIZE, dtype=np.int64)
    token_probs = _zipf_probs(len(ordinary), ZIPF_S)[rng.permutation(len(ordinary))]
    phrases = _phrase_inventory(rng, ordinary)
    phrase_lens = np.array([len(p) for p in phrases], dtype=np.int64)
    phrase_flat = np.concatenate(phrases)
    phrase_starts = np.concatenate([[0], np.cumsum(phrase_lens)[:-1]])

    # document lengths: packed length (docs + separators) = windows*L - pad
    pad = min(TAIL_PAD, SEQ_LEN // 2)
    target = windows * SEQ_LEN - pad
    lo, hi = DOC_LEN
    lens = rng.integers(lo, hi + 1, size=target // lo + 1)
    packed_end = np.cumsum(lens + 1) - 1          # packed length after each doc
    n_docs = max(1, int(np.searchsorted(packed_end, target, side="right")))
    lens = lens[:n_docs]
    short = target - (int(lens.sum()) + n_docs - 1)
    if short > 0:                                  # spread the remainder, +1 each
        room = np.flatnonzero(lens < hi)
        lens[rng.choice(room, size=short, replace=short > len(room))] += 1
    elif short < 0:                                # single oversized doc
        lens[0] += short
    total = int(lens.sum())

    # token stream: items are planted phrases or single Zipf tokens
    n_items = total                               # upper bound on items needed
    is_phrase = rng.random(n_items) < PHRASE_ITEM_SHARE
    phrase_idx = rng.choice(PHRASES, size=n_items, p=_zipf_probs(PHRASES, PHRASE_ZIPF_S))
    single = rng.choice(ordinary, size=n_items, p=token_probs)
    item_lens = np.where(is_phrase, phrase_lens[phrase_idx], 1)
    n_items = int(np.searchsorted(np.cumsum(item_lens), total)) + 1
    is_phrase, phrase_idx = is_phrase[:n_items], phrase_idx[:n_items]
    single, item_lens = single[:n_items], item_lens[:n_items]
    item_of = np.repeat(np.arange(n_items), item_lens)
    offset = np.arange(len(item_of)) - np.repeat(np.cumsum(item_lens) - item_lens, item_lens)
    from_phrase = phrase_flat[np.minimum(phrase_starts[phrase_idx[item_of]] + offset,
                                         len(phrase_flat) - 1)]
    ids = np.where(is_phrase[item_of], from_phrase, single[item_of])[:total]

    word_starts = rng.random(total) < WORD_START_SHARE
    word_starts[np.concatenate([[0], np.cumsum(lens)[:-1]])] = True

    scores = np.sort(rng.uniform(0.5, 9.0, size=PHRASES))[::-1]
    return Corpus(ids=ids.astype(np.int64), word_starts=word_starts,
                  doc_lens=lens.astype(np.int64), phrases=phrases, scores=scores)


def pack(corpus: Corpus) -> tuple[np.ndarray, np.ndarray]:
    """Reference packing: sep-joined documents cut into SEQ_LEN windows.

    Returns (ids, word_starts) of shape (windows, SEQ_LEN); the final window
    is right-padded; separators and pads count as word starts.
    """
    n_docs = len(corpus.doc_lens)
    doc_starts = np.concatenate([[0], np.cumsum(corpus.doc_lens)[:-1]])
    packed_len = corpus.doc_tokens + n_docs - 1
    windows = -(-packed_len // SEQ_LEN)
    ids = np.full(windows * SEQ_LEN, PAD_ID, dtype=np.int64)
    ws = np.ones(windows * SEQ_LEN, dtype=bool)
    doc_of = np.repeat(np.arange(n_docs), corpus.doc_lens)
    dest = np.arange(corpus.doc_tokens) + doc_of        # shift by preceding seps
    ids[dest] = corpus.ids
    ws[dest] = corpus.word_starts
    ids[doc_starts[1:] + np.arange(n_docs - 1)] = SEP_ID
    return ids.reshape(windows, SEQ_LEN), ws.reshape(windows, SEQ_LEN)


def _int_list(values: list) -> str:
    return ",".join(map(str, values))


def write_raw(corpus: Corpus, path: Path) -> None:
    """Canonical JSONL documents: {"ids": [...], "word_starts": [true, ...]}."""
    ids = corpus.ids.tolist()
    ws = np.where(corpus.word_starts, "true", "false").tolist()
    bounds = np.concatenate([[0], np.cumsum(corpus.doc_lens)]).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for a, b in zip(bounds[:-1], bounds[1:]):
            fh.write('{"ids":[' + _int_list(ids[a:b]) + '],"word_starts":['
                     + ",".join(ws[a:b]) + "]}\n")


def write_packed(ids: np.ndarray, word_starts: np.ndarray, path: Path) -> None:
    """The save_packed layout: a metadata header line, then one window per line."""
    meta = {"_config": {"generator": "perfbench"}, "seq_len": SEQ_LEN,
            "vocab": {"size": VOCAB_SIZE, "mask_id": MASK_ID,
                      "pad_id": PAD_ID, "sep_id": SEP_ID}}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, separators=(",", ":")) + "\n")
        for row_ids, row_ws in zip(ids.tolist(), word_starts.astype(np.int8).tolist()):
            fh.write('{"ids":[' + _int_list(row_ids) + '],"word_starts":['
                     + _int_list(row_ws) + "]}\n")


def write_tsv(corpus: Corpus, path: Path) -> None:
    """Rank-ordered PMI vocabulary: ``id1 id2 ... idN<TAB>score``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('# {"generator":"perfbench"}\n')
        for gram, score in zip(corpus.phrases, corpus.scores.tolist()):
            fh.write(" ".join(map(str, gram.tolist())) + f"\t{score:.9g}\n")


def gram_keys(ids: np.ndarray, n: int) -> np.ndarray:
    """Key of the n-gram starting at each position (10 bits per id)."""
    keys = np.zeros(len(ids) - n + 1, dtype=np.int64)
    for j in range(n):
        keys |= ids[j:len(ids) - n + 1 + j] << (10 * j)
    return keys


def matched_token_share(ids: np.ndarray, word_starts: np.ndarray,
                        phrases: list[np.ndarray]) -> tuple[float, float]:
    """Share of maskable tokens inside greedy PMI units, and mean unit length.

    Mirrors PMI segmentation: within each run of non-special positions of a
    window, take the longest vocabulary n-gram at the current position, else
    a whole-word unit. Returns (matched share, mean length of all units).
    """
    windows, seq_len = ids.shape
    flat = ids.reshape(-1)
    col = np.tile(np.arange(seq_len), windows)
    special = (flat == PAD_ID) | (flat == SEP_ID)
    best = np.zeros(len(flat), dtype=np.int64)
    for n in range(PHRASE_LEN[0], PHRASE_LEN[1] + 1):
        vocab_keys = np.unique([int(np.dot(g, 1024 ** np.arange(n)))
                                for g in phrases if len(g) == n])
        keys = gram_keys(flat, n)
        hit = np.isin(keys, vocab_keys) & (col[:len(keys)] + n <= seq_len)
        best[:len(keys)][hit] = n      # grams hold no specials: runs never crossed
    # unit boundary after each position when no match: next word start,
    # special position, or window end
    stop = word_starts.reshape(-1) | special
    stop = np.append(stop[1:], True) | np.append(col[1:] == 0, True)
    next_stop = np.minimum.accumulate(np.where(stop, np.arange(len(flat)), len(flat))[::-1])[::-1] + 1
    best_l, next_l, special_l = best.tolist(), next_stop.tolist(), special.tolist()
    matched = units = 0
    pos, end = 0, len(flat)
    while pos < end:
        if special_l[pos]:
            pos += 1
            continue
        units += 1
        if best_l[pos]:
            matched += best_l[pos]
            pos += best_l[pos]
        else:
            pos = next_l[pos]
    maskable = int((~special).sum())
    return matched / maskable, maskable / units
