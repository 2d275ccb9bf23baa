"""PMI n-gram mining and unit segmentation.

Counts are exact maximum-likelihood slot counts (an n-gram slot is any
position where an n-gram of that length fits, never crossing a document
separator or padding). Multi-token PMI is the minimum over all contiguous
binary segmentations, which penalizes n-grams that decompose into
independent halves.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .corpus import PackedDataset, TokenSequence, Vocab, text_lines
from .errors import ConfigError, DataError, UndefinedScoreError

Gram = tuple[int, ...]


@dataclass
class NgramCounts:
    """Exact contiguous n-gram counts plus per-length slot totals.

    ``counts`` may hold only the n-grams that reached a minimum count (see
    ``count_ngrams``); ``slots`` always counts every slot.
    """

    counts: Counter
    slots: dict[int, int]
    n_max: int

    @property
    def total_unigrams(self) -> int:
        return self.slots.get(1, 0)

    def merge(self, other: "NgramCounts") -> "NgramCounts":
        """Combine shard counts; associative and commutative."""
        if self.n_max != other.n_max:
            raise ConfigError(f"cannot merge counts with n_max {self.n_max} != {other.n_max}")
        merged = Counter(self.counts)
        merged.update(other.counts)
        slots = dict(self.slots)
        for n, s in other.slots.items():
            slots[n] = slots.get(n, 0) + s
        return NgramCounts(counts=merged, slots=slots, n_max=self.n_max)


@dataclass
class PmiVocabulary:
    """Ranked n-gram -> PMI score map; insertion order is rank order."""

    entries: dict[Gram, float]
    n_max: int
    size_cap: int
    _bigram_index: dict[tuple[int, int], tuple[int, ...]] | None = field(
        default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def bigram_index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Leading bigram -> lengths of the entries starting with it, longest first."""
        if self._bigram_index is None:
            lengths: dict[tuple[int, int], set[int]] = {}
            for gram in self.entries:
                if len(gram) >= 2:
                    lengths.setdefault(gram[:2], set()).add(len(gram))
            self._bigram_index = {key: tuple(sorted(ns, reverse=True))
                                  for key, ns in lengths.items()}
        return self._bigram_index

    def candidates(self, ids: list[int]) -> list[tuple[int, ...] | None]:
        """For each start in ``ids`` but the last, the lengths of the entries
        that share the leading bigram there (longest first), or None."""
        return list(map(self.bigram_index.get, zip(ids, ids[1:])))

    def match_lengths(self, ids: list[int], pos: int, end: int,
                      lengths: tuple[int, ...]) -> Iterator[int]:
        """Yield each candidate length n, longest first, such that pos + n <= end
        and ids[pos:pos+n] is an entry.

        ``lengths`` is ``candidates(ids)[pos]``. Longer candidates are confirmed
        by exact membership in ``entries``; a length-2 candidate needs no check,
        as its index key is the entry itself.
        """
        entries = self.entries
        for n in lengths:
            if n <= end - pos and (n == 2 or tuple(ids[pos:pos + n]) in entries):
                yield n

    def save_tsv(self, path: str | os.PathLike, header: str | None = None) -> None:
        """Write rank-ordered TSV: ``id1 id2 ... idN<TAB>score``."""
        with open(path, "w", encoding="utf-8") as fh:
            if header is not None:
                fh.write(f"# {header}\n")
            for gram, score in self.entries.items():
                fh.write(" ".join(str(t) for t in gram) + f"\t{score:.9g}\n")

    @classmethod
    def load_tsv(cls, path: str | os.PathLike) -> "PmiVocabulary":
        entries: dict[Gram, float] = {}
        for lineno, line in text_lines(path):
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise DataError(f"PMI TSV line {lineno}: expected 'ids<TAB>score', "
                                f"got {len(fields) - 1} tabs")
            try:
                gram = tuple(int(t) for t in fields[0].split())
                score = float(fields[1])
            except ValueError as exc:
                raise DataError(f"PMI TSV line {lineno}: {exc}") from exc
            if not gram:
                raise DataError(f"PMI TSV line {lineno}: empty n-gram")
            entries[gram] = score
        n_max = max((len(g) for g in entries), default=2)
        return cls(entries=entries, n_max=n_max, size_cap=max(len(entries), 1))


# n-gram keys are rank_{n-1} * width + token rank, held in int64
_KEY_LIMIT = 2 ** 63
# n-grams turned into tuples at a time by count_ngrams
_CHUNK = 1 << 14


def _flatten(data: PackedDataset | Iterable[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """All token ids as one int64 array, plus each position's room: how many
    positions from it to the end of its run, itself included.

    A run is a document, or in packed data a stretch of a window between
    sep/pad positions, which themselves have room 0.
    """
    if isinstance(data, PackedDataset):
        ids = data.ids.ravel()
        idx = np.arange(len(ids))
        special = (ids == data.vocab.pad_id) | (ids == data.vocab.sep_id)
        # a run ends at its window's end or at the nearest sep/pad at or after it
        next_special = np.minimum.accumulate(np.where(special, idx, len(ids))[::-1])[::-1]
        run_end = np.minimum(idx - idx % data.seq_len + data.seq_len, next_special)
    else:
        seqs = list(data)
        lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
        ids = np.concatenate([seq.ids for seq in seqs]) if seqs else np.empty(0, dtype=np.int64)
        idx = np.arange(len(ids))
        run_end = np.repeat(np.cumsum(lengths), lengths)
    return ids, run_end - idx


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense rank of each key, the size of each rank's group, and one index
    into ``keys`` per group."""
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return ranks, np.diff(starts, append=len(keys)), order[starts]


def count_ngrams(data: PackedDataset | Iterable[TokenSequence], n_max: int,
                 min_count: int = 1) -> NgramCounts:
    """Exact counts of the contiguous n-grams of length 1..n_max that occur at
    least ``min_count`` times; ``slots`` always counts every slot.

    Each level ranks the n-grams starting at every position by chaining the
    rank of the (n-1)-gram there with the rank of the token that extends it.
    An n-gram is kept only if its two (n-1)-gram sub-grams were, so positions
    whose sub-grams fell below ``min_count`` are not ranked again. Every
    contiguous sub-gram of a kept n-gram is kept, which is all ``pmi_score``
    reads. Merging pruned counts would be wrong: shards count with the
    default of 1.

    Ranking keeps one start position and one count per kept n-gram, in
    chunks. Tuples are built only once the per-position arrays are freed,
    shortest n-grams first and a chunk at a time, so the peak is the count
    table plus little more.
    """
    if n_max < 2:
        raise ConfigError(f"n_max must be >= 2, got {n_max}")
    ids, room = _flatten(data)
    slots = {n: int(np.count_nonzero(room >= n)) for n in range(1, n_max + 1)}
    pos = np.flatnonzero(room >= 1)
    rank = np.zeros(len(ids), dtype=np.int64)  # rank of the n-gram at each position
    kept = np.zeros(len(ids) + 1, dtype=bool)  # one spare slot for kept[pos + 1]
    # (n, starts, counts) for a chunk of kept n-grams: one start position and
    # the count of each
    chunks: list[tuple[int, np.ndarray, np.ndarray]] = []
    pos_type = np.min_scalar_type(len(ids))
    for n in range(1, n_max + 1):
        if n == 1:
            keys = ids[pos]
        else:
            if groups * width >= _KEY_LIMIT:
                raise DataError(f"{groups} distinct {n - 1}-grams over {width} tokens "
                                "overflow the int64 n-gram keys")
            pos = pos[(room[pos] >= n) & kept[pos] & kept[pos + 1]]
            keys = rank[pos] * width + tok_rank[pos + n - 1]
        ranks, sizes, members = _group(keys)
        rank[pos] = ranks
        groups = len(sizes)
        if n == 1:
            tok_rank, width = rank.copy(), groups
            # one Python int per distinct token, shared by every tuple built below
            tokens = np.array(ids[pos[members]].tolist(), dtype=object)
        frequent = sizes >= min_count
        kept[:] = False
        kept[pos] = frequent[ranks]
        starts, sizes = pos[members[frequent]], sizes[frequent]
        count_type = np.min_scalar_type(sizes.max(initial=0))
        chunks.extend((n, starts[lo:lo + _CHUNK].astype(pos_type),
                       sizes[lo:lo + _CHUNK].astype(count_type))
                      for lo in range(0, len(starts), _CHUNK))
    del ids, room, pos, rank, kept, keys, ranks, sizes, members, frequent, starts
    tok_rank = tok_rank.astype(np.min_scalar_type(width))

    counts: Counter = Counter()
    chunks.reverse()
    while chunks:            # shortest n-grams first; each chunk is freed once used
        n, starts, sizes = chunks.pop()
        columns = [tokens[tok_rank[starts + k]].tolist() for k in range(n)]
        # dict.update takes the pairs in C; Counter.update would add one by one
        dict.update(counts, zip(zip(*columns), sizes.tolist()))
    return NgramCounts(counts=counts, slots=slots, n_max=n_max)


def count_ngrams_sharded(shards: Iterable[Iterable[TokenSequence]], n_max: int) -> NgramCounts:
    """Count each shard independently and merge; equals unsharded counting."""
    result = NgramCounts(counts=Counter(), slots={}, n_max=n_max)
    for shard in shards:
        result = result.merge(count_ngrams(shard, n_max))
    return result


def _prob(gram: Gram, counts: NgramCounts) -> float:
    c = counts.counts.get(gram, 0)
    if c == 0:
        raise UndefinedScoreError(f"zero count for segment {gram}")
    return c / counts.slots[len(gram)]


def pmi_score(gram: Gram, counts: NgramCounts) -> float:
    """PMI in nats; for n > 2, the minimum over binary segmentations."""
    n = len(gram)
    if n < 2:
        raise ConfigError(f"PMI requires an n-gram of length >= 2, got {gram}")
    p_full = _prob(gram, counts)
    best = math.inf
    for k in range(1, n):
        split = math.log(p_full / (_prob(gram[:k], counts) * _prob(gram[k:], counts)))
        best = min(best, split)
    return best


def build_vocab(counts: NgramCounts, size_cap: int, min_count: int) -> PmiVocabulary:
    """Rank n-grams (count >= min_count) by PMI and keep the top size_cap.

    Ties break by higher count, then lexicographic token-id order, so caps
    are monotone: the top-k list is a prefix of the top-(k+1) list.
    """
    if size_cap < 1:
        raise ConfigError(f"size_cap must be >= 1, got {size_cap}")
    scored = [
        (pmi_score(gram, counts), c, gram)
        for gram, c in counts.counts.items()
        if len(gram) >= 2 and c >= min_count
    ]
    scored.sort(key=lambda t: (-t[0], -t[1], t[2]))
    entries = {gram: score for score, _, gram in scored[:size_cap]}
    return PmiVocabulary(entries=entries, n_max=counts.n_max, size_cap=size_cap)


def segment_units(window: TokenSequence, vocab: Vocab, mode: str,
                  pmi_vocab: PmiVocabulary | None = None) -> list[tuple[int, int]]:
    """Partition a window's maskable positions into atomic units.

    Returns half-open (start, end) ranges. single_token: one unit per
    position. whole_word: maximal runs starting at word boundaries. pmi:
    greedy leftmost-longest match against the PMI vocabulary, falling back
    to whole-word units. Pad/sep positions never appear in a unit.
    """
    if mode not in ("single_token", "whole_word", "pmi"):
        raise ConfigError(f"unknown segmentation mode {mode!r}")
    if mode == "pmi" and pmi_vocab is None:
        raise ConfigError("pmi segmentation requires a PMI vocabulary")
    ids = window.ids.tolist()
    word_starts = window.word_starts.tolist()
    # one slot per position (the last never starts a bigram); all None
    # outside pmi mode
    if mode == "pmi":
        candidates = pmi_vocab.candidates(ids) + [None]
    else:
        candidates = [None] * len(ids)
    special = ((window.ids == vocab.pad_id) | (window.ids == vocab.sep_id)).tolist()
    units: list[tuple[int, int]] = []
    L = len(ids)
    seg_start = None
    for i in range(L + 1):
        if i < L and not special[i]:
            if seg_start is None:
                seg_start = i
            continue
        if seg_start is None:
            continue
        units.extend(_segment_run(ids, word_starts, seg_start, i, mode,
                                  pmi_vocab, candidates))
        seg_start = None
    return units


def _segment_run(ids: list[int], word_starts: list[bool], start: int, end: int,
                 mode: str, pmi_vocab: PmiVocabulary | None,
                 candidates: list[tuple[int, ...] | None]) -> list[tuple[int, int]]:
    if mode == "single_token":
        return [(i, i + 1) for i in range(start, end)]
    units: list[tuple[int, int]] = []
    pos = start
    while pos < end:
        if candidates[pos] is not None:
            n = next(pmi_vocab.match_lengths(ids, pos, end, candidates[pos]), 0)
            if n:
                units.append((pos, pos + n))
                pos += n
                continue
        # whole-word unit: run until the next word start (or run end)
        nxt = pos + 1
        while nxt < end and not word_starts[nxt]:
            nxt += 1
        units.append((pos, nxt))
        pos = nxt
    return units
