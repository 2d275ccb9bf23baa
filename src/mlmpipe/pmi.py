"""PMI n-gram mining and unit segmentation.

Counts are exact maximum-likelihood slot counts (an n-gram slot is any
position where an n-gram of that length fits, never crossing a document
separator or padding). Multi-token PMI is the minimum over all contiguous
binary segmentations, which penalizes n-grams that decompose into
independent halves.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import InitVar, dataclass, field
from typing import Iterable

import numpy as np

from .corpus import PackedDataset, TokenSequence, Vocab, text_lines
from .errors import ConfigError, DataError, UndefinedScoreError

Gram = tuple[int, ...]


@dataclass
class NgramCounts:
    """Exact contiguous n-gram counts plus per-length slot totals.

    ``counts`` may hold only the n-grams that reached a minimum count (see
    ``count_ngrams``); ``slots`` always counts every slot, and a length
    missing from it has no slots.
    """

    counts: Counter
    slots: dict[int, int]
    n_max: int

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
    _index: tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]] | None = field(
        default=None, repr=False, compare=False)
    # accepted and ignored: nothing reads either value, but the benchmark's
    # self-test still passes both
    n_max: InitVar[int | None] = None
    size_cap: InitVar[int | None] = None

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def index(self) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """The matcher's array index, built on first use: the sorted distinct
        token ids of the entries of length >= 2, and for each length n >= 2
        the sorted keys of every entry prefix of length n with a flag saying
        whether that prefix is itself an entry.

        A prefix's key is ``rank * width + code``: the dense rank of its
        (n-1)-prefix among the keys of level n-1 (for n = 2, the code of its
        first token), times the number of distinct tokens, plus the code (the
        position in the token array) of its last token. Entries holding an id
        beyond int64 are left out, as no window holds such an id.
        """
        if self._index is None:
            grams = [g for g in self.entries if len(g) >= 2]
            try:
                flat = np.fromiter(itertools.chain.from_iterable(grams), dtype=np.int64)
            except OverflowError:
                grams = [g for g in grams if all(t in _INT64 for t in g)]
                flat = np.fromiter(itertools.chain.from_iterable(grams), dtype=np.int64)
            lengths = np.fromiter(map(len, grams), dtype=np.int64, count=len(grams))
            starts = np.cumsum(lengths) - lengths
            code, _, members = _group(flat)
            tokens, width = flat[members], len(members)
            # rank of each live entry's prefix at the current level
            live, rank, groups = np.arange(len(grams)), code[starts], width
            levels = []
            for n in range(2, int(lengths.max(initial=1)) + 1):
                if groups * width >= _KEY_LIMIT:
                    raise DataError(f"{groups} distinct {n - 1}-token PMI prefixes over "
                                    f"{width} tokens overflow the int64 n-gram keys")
                longer = lengths[live] >= n
                live, rank = live[longer], rank[longer]
                keys = rank * width + code[starts[live] + n - 1]
                rank, _, members = _group(keys)
                is_entry = np.zeros(len(members), dtype=bool)
                is_entry[rank[lengths[live] == n]] = True
                levels.append((keys[members], is_entry))
                groups = len(members)
            self._index = (tokens, levels)
        return self._index

    def occurrences(self, ids: np.ndarray, room: np.ndarray | None = None) -> np.ndarray:
        """Every occurrence of an entry of length >= 2 in a (rows x L) id
        matrix, as an int64 (occurrences x 3) array of (row, start, length)
        sorted by row, start and length.

        ``room`` (rows x L) caps the length of a match at each position; it
        must not exceed the room to the row's end, which is the default.
        Level n keeps the positions whose (n-1)-token prefix is indexed and
        looks up their n-token prefixes with one ``searchsorted``.
        """
        tokens, levels = self.index
        L = ids.shape[1]
        flat = ids.ravel()
        room = (np.broadcast_to(np.arange(L, 0, -1), ids.shape) if room is None
                else room).ravel()
        code, known = _lookup(tokens, flat)
        pos = np.flatnonzero(known & (room >= 2))
        rank = code[pos]
        found_pos, found_len = [_NO_POS], [_NO_POS]
        for n, (keys, is_entry) in enumerate(levels, start=2):
            fits = room[pos] >= n
            pos, rank = pos[fits], rank[fits]
            last = pos + n - 1
            fits = known[last]
            pos, rank, last = pos[fits], rank[fits], last[fits]
            at, hit = _lookup(keys, rank * len(tokens) + code[last])
            pos, rank = pos[hit], at[hit]
            entry = is_entry[rank]
            found_pos.append(pos[entry])
            found_len.append(np.full(np.count_nonzero(entry), n, dtype=np.int64))
            if not len(pos):
                break
        pos, length = np.concatenate(found_pos), np.concatenate(found_len)
        order = np.lexsort((length, pos))
        row, start = divmod(pos[order], L)
        return np.stack([row, start, length[order]], axis=1)

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
        lines: list[int] = []   # the line of each entry, in rank order
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
            if not math.isfinite(score):
                raise DataError(f"PMI TSV line {lineno}: score {fields[1]} is not finite")
            if not gram:
                raise DataError(f"PMI TSV line {lineno}: empty n-gram")
            if min(gram) < 0 or max(gram) not in _INT64:
                raise DataError(f"PMI TSV line {lineno}: token ids must be non-negative "
                                "and fit in int64")
            entries[gram] = score
            if len(entries) == len(lines):   # gram was there already
                raise DataError(f"PMI TSV line {lineno}: n-gram {' '.join(map(str, gram))} "
                                f"repeats line {lines[list(entries).index(gram)]}")
            lines.append(lineno)
        return cls(entries=entries)


# n-gram keys are rank_{n-1} * width + token rank, held in int64
_KEY_LIMIT = 2 ** 63
_INT64 = range(-2 ** 63, 2 ** 63)
_NO_POS = np.empty(0, dtype=np.int64)
# n-grams turned into tuples at a time by count_ngrams
_CHUNK = 1 << 14


def _flatten(data: PackedDataset | Iterable[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """All token ids as one int64 array, plus each position's room: how many
    positions from it to the end of its run, itself included.

    A run is a document, or in packed data a stretch of a window between
    sep/pad positions (see ``_run_room``).
    """
    if isinstance(data, PackedDataset):
        return data.ids.ravel(), _run_room(data.ids, data.vocab)
    seqs = list(data)
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    ids = np.concatenate([seq.ids for seq in seqs]) if seqs else np.empty(0, dtype=np.int64)
    return ids, np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))


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


def _lookup(keys: np.ndarray, needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each needle's index in the sorted array ``keys`` (clipped to its last
    element) and whether the needle is there. The needles are searched in
    sorted order, for which ``searchsorted`` runs several times faster."""
    at = np.zeros(len(needles), dtype=np.int64)
    if len(keys):
        order = np.argsort(needles)
        at[order] = np.searchsorted(keys, needles[order])
        np.minimum(at, len(keys) - 1, out=at)
    return at, (keys[at] == needles) if len(keys) else np.zeros(len(needles), dtype=bool)


def count_ngrams(data: PackedDataset | Iterable[TokenSequence], n_max: int,
                 min_count: int = 1) -> NgramCounts:
    """Exact counts of the contiguous n-grams of length 1..n_max that occur at
    least ``min_count`` times; ``slots`` always counts every slot. No
    n-gram is longer than the longest run, so counting stops there whatever
    ``n_max`` is.

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
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    ids, room = _flatten(data)
    # at_least[n] positions have room for an n-gram, for n up to the longest run
    at_least = np.cumsum(np.bincount(room)[::-1])[::-1].tolist()
    slots = dict(enumerate(at_least[1:n_max + 1], start=1))
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
        if not len(starts):   # no n-gram kept, so no longer one either
            break
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
    return PmiVocabulary(entries=entries)


def segment_units(window: TokenSequence, vocab: Vocab, mode: str,
                  pmi_vocab: PmiVocabulary | None = None) -> list[tuple[int, int]]:
    """Partition a window's maskable positions into atomic units.

    Returns half-open (start, end) ranges. whole_word: maximal runs
    starting at word boundaries. pmi: greedy leftmost-longest match against
    the PMI vocabulary, falling back to whole-word units. Pad/sep positions
    never appear in a unit.
    """
    units = segment_block(window.ids[np.newaxis], window.word_starts[np.newaxis],
                          vocab, mode, pmi_vocab)[0]
    return list(map(tuple, units.tolist()))


def _next_at_or_after(stop: np.ndarray) -> np.ndarray:
    """For each index, the smallest index at or after it where ``stop`` holds;
    ``stop[-1]`` must hold."""
    idx = np.arange(len(stop))
    return np.minimum.accumulate(np.where(stop, idx, len(stop) - 1)[::-1])[::-1]


def _run_room(ids: np.ndarray, vocab: Vocab) -> np.ndarray:
    """The room of each position of a (rows x L) id matrix, flattened: how
    many positions from it to the end of its run, itself included. A run
    stops at sep/pad or at the row's end; sep/pad positions have room 0."""
    rows, L = ids.shape
    special = ((ids == vocab.pad_id) | (ids == vocab.sep_id)).ravel()
    stop = np.ones(rows * L + 1, dtype=bool)   # each row start, and one past the end
    stop[:-1] = special
    stop[::L] = True
    room = _next_at_or_after(stop)[1:] - np.arange(rows * L)
    room[special] = 0
    return room


def segment_block(ids: np.ndarray, word_starts: np.ndarray, vocab: Vocab, mode: str,
                  pmi_vocab: PmiVocabulary | None = None) -> list[np.ndarray]:
    """``segment_units`` for each row of (rows x L) id and word-start
    matrices: one int64 (units x 2) array of (start, end) ranges per row,
    each a view into one array of the block's units.

    Each maskable position p gets the end of the unit that would start at
    it: p plus the longest entry that fits in p's run (pmi), or else the
    next word start or run end. The unit starts are the positions reached
    from the run starts by following those ends; they are marked in
    ceil(log2 L) rounds of pointer doubling.
    """
    if mode not in ("whole_word", "pmi"):
        raise ConfigError(f"unknown segmentation mode {mode!r}")
    if mode == "pmi" and pmi_vocab is None:
        raise ConfigError("pmi segmentation requires a PMI vocabulary")
    rows, L = ids.shape
    size = rows * L
    if size == 0:
        return [np.empty((0, 2), dtype=np.int64) for _ in range(rows)]
    room = _run_room(ids, vocab)
    # a unit runs to the next word start or run end strictly after it
    ends = np.ones(size + 1, dtype=bool)
    ends[:size] = word_starts.ravel()
    ends = np.minimum(_next_at_or_after(ends)[1:], np.arange(size) + room)
    if mode == "pmi":
        occ = pmi_vocab.occurrences(ids, room.reshape(rows, L))
        pos = occ[:, 0] * L + occ[:, 1]
        # occurrences are sorted by position and length: the last is the longest
        longest = np.ones(len(pos), dtype=bool)
        longest[:-1] = pos[1:] != pos[:-1]
        ends[pos[longest]] = pos[longest] + occ[longest, 2]
    # sep/pad positions step to a sentinel past the end; a run starts
    # where the position before it is sep/pad or ends its run
    step = np.append(np.where(room > 0, ends, size), size)
    reached = np.append((room > 0) & (np.append(0, room[:-1]) <= 1), False)
    for _ in range((L - 1).bit_length()):
        reached[step[reached]] = True
        step = step[step]
    starts = np.flatnonzero(reached[:size] & (room > 0))
    ends = ends[starts]
    row = starts // L
    units = np.stack([starts, ends], axis=1) - (row * L)[:, np.newaxis]
    bounds = np.searchsorted(row, np.arange(rows + 1)).tolist()
    return [units[a:b] for a, b in zip(bounds, bounds[1:])]
