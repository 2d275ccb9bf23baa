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
import operator
import os
from collections import Counter
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator

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
        code, known = sorted_lookup(tokens, flat)
        pos = np.flatnonzero(known & (room >= 2))
        rank = code[pos]
        found_pos, found_len = [_NO_POS], [_NO_POS]
        for n, (keys, is_entry) in enumerate(levels, start=2):
            fits = room[pos] >= n
            pos, rank = pos[fits], rank[fits]
            last = pos + n - 1
            fits = known[last]
            pos, rank, last = pos[fits], rank[fits], last[fits]
            at, hit = sorted_lookup(keys, rank * len(tokens) + code[last])
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
_SLOT = np.zeros(1, dtype=np.int64)
# tokens per chunk that count_ngrams reads at a time
_CHUNK_TOKENS = 1 << 16
# n-grams turned into tuples at a time by count_ngrams
_TUPLE_BLOCK = 1 << 14
# the dtypes a position's rank may take, narrowest first
_RANK_TYPES = (np.int8, np.int16, np.int32, np.int64)


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


def sorted_lookup(keys: np.ndarray, needles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each needle's index in the sorted array ``keys`` (clipped to its last
    element) and whether the needle is there. The needles are searched in
    sorted order, for which ``searchsorted`` runs several times faster."""
    at = np.zeros(len(needles), dtype=np.int64)
    if len(keys):
        order = np.argsort(needles)
        at[order] = np.searchsorted(keys, needles[order])
        np.minimum(at, len(keys) - 1, out=at)
    return at, (keys[at] == needles) if len(keys) else np.zeros(len(needles), dtype=bool)


def _chunks(data: PackedDataset | list[TokenSequence]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The corpus in chunks of whole documents (window rows of a
    ``PackedDataset``): a chunk ends with the document that brings it to
    ``_CHUNK_TOKENS`` tokens, so a longer document makes a longer chunk. Each
    chunk is its token ids and each position's room, with one slot of room 0
    after each document or row.

    A position's room is how many positions from it to the end of its run,
    itself included. A run is a document, or in packed data a stretch of a
    row between sep/pad positions (see ``_run_room``); sep/pad positions and
    the added slots have room 0, so no run crosses a chunk.
    """
    if isinstance(data, PackedDataset):
        rows = max(1, _CHUNK_TOKENS // data.seq_len)
        for lo in range(0, len(data), rows):
            ids = data.ids[lo:lo + rows]
            room = _run_room(ids, data.vocab).reshape(ids.shape)
            yield np.pad(ids, ((0, 0), (0, 1))).ravel(), np.pad(room, ((0, 0), (0, 1))).ravel()
        return
    start, size = 0, 0
    for end, seq in enumerate(data, start=1):
        size += len(seq)
        if size >= _CHUNK_TOKENS or end == len(data):
            docs = data[start:end]
            lengths = np.fromiter((len(d) + 1 for d in docs), dtype=np.int64, count=len(docs))
            ids = np.concatenate([part for d in docs for part in (d.ids, _SLOT)])
            yield ids, np.repeat(np.cumsum(lengths), lengths) - np.arange(1, len(ids) + 1)
            start, size = end, 0


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct keys and how often each occurs."""
    keys = np.sort(keys)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.diff(starts, append=len(keys))


class _KeyTable:
    """Sorted distinct int64 keys and how often each occurs, built a chunk of
    keys at a time. Chunks wait until they hold as many keys as the table;
    then one sort reduces them and one sorted merge folds them in. So each
    merge, whose time is linear in the table, is spread over at least as many
    keys, and the peak is about twice the table plus one chunk."""

    def __init__(self) -> None:
        self.keys = self.counts = np.zeros(0, dtype=np.int64)
        self._pending: list[np.ndarray] = []
        self._size = 0

    def add(self, keys: np.ndarray) -> None:
        self._pending.append(keys)
        self._size += len(keys)
        if self._size >= len(self.keys):
            self.flush()

    def flush(self) -> tuple[np.ndarray, np.ndarray]:
        """Fold in the waiting chunks; the table's keys and counts."""
        if self._pending:
            keys, counts = _distinct(np.concatenate(self._pending))
            self._pending, self._size = [], 0
            if not len(self.keys):
                self.keys, self.counts = keys, counts
                return keys, counts
            # both sorted: where each key is or would go
            at = np.searchsorted(self.keys, keys)
            hit = self.keys[np.minimum(at, len(self.keys) - 1)] == keys
            self.counts[at[hit]] += counts[hit]
            new = ~hit
            self.keys = np.insert(self.keys, at[new], keys[new])
            self.counts = np.insert(self.counts, at[new], counts[new])
        return self.keys, self.counts


def _narrow(values: np.ndarray) -> np.ndarray:
    """Non-negative ``values`` in the narrowest unsigned dtype that holds them."""
    return values.astype(np.min_scalar_type(values.max(initial=0)))


def _rank_type(kept: int) -> type:
    """The narrowest rank dtype that holds ranks 0..kept-1 and -1."""
    for dtype in _RANK_TYPES:
        if kept <= np.iinfo(dtype).max:
            return dtype
    raise DataError(f"{kept} kept n-grams overflow the widest rank type")


def _level_keys(rank: np.ndarray, code: np.ndarray, n: int,
                width: int) -> tuple[np.ndarray, np.ndarray]:
    """The positions of a chunk where both (n-1)-gram sub-grams of an n-gram
    were kept, and each such n-gram's key: the rank of its (n-1)-prefix times
    ``width`` plus the code of its last token."""
    pos = np.flatnonzero((rank[:-1] >= 0) & (rank[1:] >= 0))
    return pos, rank[pos].astype(np.int64) * width + code[pos + n - 1].astype(np.int64)


def count_ngrams(data: PackedDataset | Iterable[TokenSequence], n_max: int,
                 min_count: int = 1) -> NgramCounts:
    """Exact counts of the contiguous n-grams of length 1..n_max that occur at
    least ``min_count`` times; ``slots`` always counts every slot. No
    n-gram is longer than the longest run, so counting stops there whatever
    ``n_max`` is.

    Counting goes level by level over chunks of whole documents (see
    ``_chunks``). Across levels each position keeps only its token's code (the
    position of the id among the distinct ids) and the rank of the kept
    (n-1)-gram starting there, or -1, both in the narrowest dtype that holds
    them. An n-gram is counted only if its two (n-1)-gram sub-grams were
    kept, so every contiguous sub-gram of a kept n-gram is kept, which is all
    ``pmi_score`` reads. Each level reads the chunks twice: once to fold each
    chunk's keys into one sorted table of distinct keys and counts, which is
    then pruned to ``min_count``, and once to write each position's new rank,
    the index of its key in that table. The peak is the per-position state
    plus about twice the table and one chunk. The tuples are built from the
    kept keys once the per-position state is freed, shortest n-grams first.
    """
    if n_max < 2:
        raise ConfigError(f"n_max must be >= 2, got {n_max}")
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    if not isinstance(data, PackedDataset):
        data = list(data)
    table, room_counts, bounds = _KeyTable(), np.zeros(0, dtype=np.int64), [0]
    for ids, room in _chunks(data):
        table.add(ids[room > 0])
        chunk_counts = np.bincount(room)
        if len(chunk_counts) > len(room_counts):
            room_counts, chunk_counts = chunk_counts, room_counts
        room_counts[:len(chunk_counts)] += chunk_counts
        bounds.append(bounds[-1] + len(ids))
    # at_least[n] positions have room for an n-gram, for n up to the longest run
    at_least = np.cumsum(room_counts[::-1])[::-1].tolist()
    slots = dict(enumerate(at_least[1:n_max + 1], start=1))
    tokens, counts = table.flush()
    width, kept = len(tokens), counts >= min_count
    # the kept n-grams of each level: sorted keys (the codes, at level 1) and
    # counts, each in the narrowest dtype that holds it
    levels = [(_narrow(np.flatnonzero(kept)), _narrow(counts[kept]))]
    code = np.empty(bounds[-1], dtype=np.min_scalar_type(max(width - 1, 0)))
    rank = np.empty(bounds[-1], dtype=_rank_type(len(levels[0][0])))
    unigram_rank = np.where(kept, np.cumsum(kept) - 1, -1)
    chunks = list(zip(bounds, bounds[1:]))
    for (lo, hi), (ids, room) in zip(chunks, _chunks(data)):
        code[lo:hi] = sorted_lookup(tokens, ids)[0]
        inside = room > 0
        rank[lo:hi] = -1
        rank[lo:hi][inside] = unigram_rank[code[lo:hi][inside]]
    del table, unigram_rank
    for n in range(2, n_max + 1):
        groups = len(levels[-1][0])
        if groups * width >= _KEY_LIMIT:
            raise DataError(f"{groups} distinct {n - 1}-grams over {width} tokens "
                            "overflow the int64 n-gram keys")
        table = _KeyTable()
        for lo, hi in chunks:
            table.add(_level_keys(rank[lo:hi], code[lo:hi], n, width)[1])
        keys, counts = table.flush()
        kept = counts >= min_count
        keys, counts = keys[kept], counts[kept]
        levels.append((_narrow(keys), _narrow(counts)))
        del table, kept   # the table before pruning
        if n == n_max or not len(keys):   # no n-gram kept, so no longer one either
            break
        # widened, never narrowed: the ranks of level n-1 are read below
        rank = rank.astype(np.promote_types(rank.dtype, _rank_type(len(keys))), copy=False)
        live = []         # the chunks that still hold a kept n-gram
        for lo, hi in chunks:
            pos, chunk_keys = _level_keys(rank[lo:hi], code[lo:hi], n, width)
            at, hit = sorted_lookup(keys, chunk_keys)
            rank[lo:hi] = -1
            rank[lo + pos[hit]] = at[hit]
            if hit.any():
                live.append((lo, hi))
        chunks = live
    del code, rank

    ngrams: Counter = Counter()
    # one Python int and one 1-tuple per distinct token, shared by every tuple
    singles = list(zip(tokens.tolist()))
    # a level-1 key is a code, so its prefix is 0: the one empty 0-gram
    previous: list[Gram] = [()]
    levels.reverse()
    while levels:         # shortest n-grams first; each level is freed once used
        keys, counts = levels.pop()
        grams: list[Gram] = []
        for lo in range(0, len(keys), _TUPLE_BLOCK):
            # int64, as width need not fit the keys' narrow dtype
            prefix, last = divmod(keys[lo:lo + _TUPLE_BLOCK].astype(np.int64), width)
            block = list(map(operator.add, map(previous.__getitem__, prefix.tolist()),
                             map(singles.__getitem__, last.tolist())))
            grams.extend(block)
            # dict.update takes the pairs in C; Counter.update would add one by one
            dict.update(ngrams, zip(block, counts[lo:lo + _TUPLE_BLOCK].tolist()))
        previous = grams
    return NgramCounts(counts=ngrams, slots=slots, n_max=n_max)


def count_ngrams_sharded(shards: Iterable[Iterable[TokenSequence]], n_max: int) -> NgramCounts:
    """Counts over the documents of every shard. An n-gram never crosses a
    document, so these equal unsharded counting by construction."""
    return count_ngrams(itertools.chain.from_iterable(shards), n_max)


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
