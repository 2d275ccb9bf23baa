"""PMI n-gram mining and unit segmentation.

Counts are exact maximum-likelihood slot counts (an n-gram slot is any
position where an n-gram of that length fits, never crossing a document
separator or padding). Multi-token PMI is the minimum over all contiguous
binary segmentations, which penalizes n-grams that decompose into
independent halves.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import PackedDataset, TokenSequence, Vocab, Window
from .errors import ConfigError, DataError, UndefinedScoreError

Gram = tuple[int, ...]


@dataclass
class NgramCounts:
    """Exact contiguous n-gram counts plus per-length slot totals."""

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

    def save_tsv(self, target, header: str | None = None) -> None:
        """Write rank-ordered TSV: ``id1 id2 ... idN<TAB>score``."""
        own = isinstance(target, (str, Path))
        fh = open(target, "w", encoding="utf-8") if own else target
        try:
            if header is not None:
                fh.write(f"# {header}\n")
            for gram, score in self.entries.items():
                fh.write(" ".join(str(t) for t in gram) + f"\t{score:.9g}\n")
        finally:
            if own:
                fh.close()

    @classmethod
    def load_tsv(cls, source) -> "PmiVocabulary":
        own = isinstance(source, (str, Path))
        fh = open(source, "r", encoding="utf-8") if own else source
        try:
            entries: dict[Gram, float] = {}
            for lineno, line in enumerate(fh, start=1):
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
        finally:
            if own:
                fh.close()


def _iter_segments(data: PackedDataset | Iterable[TokenSequence]) -> Iterable[Sequence[int]]:
    """Maximal runs of ordinary tokens; sep/pad break runs in packed data."""
    if isinstance(data, PackedDataset):
        pad, sep = data.vocab.pad_id, data.vocab.sep_id
        for win in data.sequences:
            ids = win.ids
            breaks = (ids == pad) | (ids == sep)
            start = None
            for i in range(len(ids)):
                if breaks[i]:
                    if start is not None:
                        yield ids[start:i].tolist()
                        start = None
                elif start is None:
                    start = i
            if start is not None:
                yield ids[start:].tolist()
    else:
        for doc in data:
            yield list(doc.ids)


def count_ngrams(data: PackedDataset | Iterable[TokenSequence], n_max: int) -> NgramCounts:
    """Exact counts of all contiguous n-grams of length 1..n_max."""
    if n_max < 2:
        raise ConfigError(f"n_max must be >= 2, got {n_max}")
    counts: Counter = Counter()
    slots = {n: 0 for n in range(1, n_max + 1)}
    for seg in _iter_segments(data):
        s = len(seg)
        for n in range(1, n_max + 1):
            if s < n:
                break
            slots[n] += s - n + 1
            if n == 1:
                counts.update((t,) for t in seg)
            else:
                counts.update(zip(*(seg[i:] for i in range(n))))
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


def segment_units(window: Window, vocab: Vocab, mode: str,
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
