"""Scorers, and reductions over masked blocks: masking statistics,
perplexity, and pseudo-log-likelihood scoring.

The reductions take the blocks they reduce; the caller drives the stream
and formats the result. Floating-point aggregation uses a fixed
left-to-right reduction order so results are bit-stable across runs.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
from collections import Counter
from dataclasses import dataclass
from statistics import pstdev
from typing import Iterable, Protocol, Sequence

import numpy as np

from .corpus import PackedDataset, Vocab
from .errors import ConfigError, DataError, IntegrityError
from .masking import BLOCK_EXAMPLES, MaskedBlock
from .pmi import PmiVocabulary


class Scorer(Protocol):
    """One float64 log p(original id | corrupted row) per block target, in order."""

    def log_probs(self, block: MaskedBlock) -> np.ndarray: ...


@dataclass
class TokenScorer:
    """Context-free scoring: a target with original id t scores ``logp[t]``.
    An id beyond the table or with a NaN entry has no count. A table of
    zeros is the oracle."""

    logp: np.ndarray    # float64, indexed by token id

    def log_probs(self, block: MaskedBlock) -> np.ndarray:
        targets = block.target_originals
        inside = targets < len(self.logp)
        values = np.full(len(targets), math.nan)
        values[inside] = self.logp[targets[inside]]
        missing = np.isnan(values)
        if missing.any():
            raise DataError(f"scorer has no count for token {targets[missing][0]}")
        return values


@dataclass
class UniformScorer:
    """Probability 1/V for every target, with no table; perplexity equals V."""

    vocab_size: int

    def log_probs(self, block: MaskedBlock) -> np.ndarray:
        return np.full(len(block.target_originals), -math.log(self.vocab_size))


def uniform(vocab_size: int) -> UniformScorer:
    """Probability 1/V for every token, for any V."""
    if vocab_size < 1:
        raise ConfigError(f"vocab_size must be positive, got {vocab_size}")
    return UniformScorer(vocab_size)


def unigram(counts: Sequence[int]) -> TokenScorer:
    """Maximum-likelihood unigram model from counts indexed by token id."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        raise DataError("unigram scorer needs a non-empty corpus")
    # one math.log per id, as np.log may differ in the last place
    return TokenScorer(np.array([math.log(c / total) if c else math.nan
                                 for c in counts.tolist()]))


class ExternScorer:
    """Line-delimited JSON over a subprocess's stdio, one request per row with targets.

    Request:  {"qid": n, "seq": [...corrupted ids...], "queries": [[pos, orig], ...]}
    Response: {"qid": n, "logp": [...]} with one JSON number per query, in order.
    """

    CLOSE_TIMEOUT_S = 10

    def __init__(self, argv: Sequence[str]):
        self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._qid = 0

    def log_probs(self, block: MaskedBlock) -> np.ndarray:
        queries = np.stack([block.target_positions, block.target_originals], axis=1).tolist()
        ends = np.cumsum(block.target_counts).tolist()
        values: list[float] = []
        for row, start, end in zip(block.corrupted_ids.tolist(), [0] + ends, ends):
            if start < end:
                values += self._request(row, queries[start:end])
        return np.array(values, dtype=np.float64)

    def _request(self, seq: list[int], queries: list[list[int]]) -> list[float]:
        self._qid += 1
        req = {"qid": self._qid, "seq": seq, "queries": queries}
        self._proc.stdin.write(json.dumps(req, separators=(",", ":")).encode() + b"\n")
        self._proc.stdin.flush()
        raw = self._proc.stdout.readline()
        if not raw:
            raise DataError("external scorer closed its output stream")
        try:
            line = raw.decode("utf-8")
            resp = json.loads(line)
        except ValueError as exc:   # not UTF-8 (which JSON text is), or not JSON
            raise DataError(f"external scorer sent invalid JSON: {raw!r}") from exc
        if not isinstance(resp, dict):
            raise DataError(f"external scorer sent a non-object response: {line!r}")
        if resp.get("qid") != self._qid:
            raise IntegrityError(f"external scorer answered qid {resp.get('qid')}, "
                                 f"expected {self._qid}")
        logp = resp.get("logp")
        if not isinstance(logp, list):
            raise DataError(f"external scorer sent 'logp' that is not a list: {line!r}")
        if len(logp) != len(queries):
            raise DataError("external scorer response length mismatch")
        # type() rather than isinstance(): JSON true/false load as bool, an int subclass
        if not set(map(type, logp)) <= {int, float}:
            raise DataError(f"external scorer sent a 'logp' entry that is not a number: "
                            f"{line!r}")
        try:
            values = [float(v) for v in logp]
        except OverflowError:   # an integer beyond any float
            values = [math.inf]
        # json.loads reads NaN, Infinity and -Infinity as floats
        if not all(map(math.isfinite, values)):
            raise DataError(f"external scorer sent a 'logp' entry that is not finite: {line!r}")
        return values

    def close(self) -> None:
        """Close the child's input, drain and close its output, and reap it;
        kill it if it is still running after CLOSE_TIMEOUT_S seconds."""
        try:
            self._proc.communicate(timeout=self.CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def make_scorer(spec: str, ds: PackedDataset | None = None,
                vocab_size: int | None = None) -> Scorer:
    """Build a scorer from a CLI spec: uniform | unigram | extern:<cmd>."""
    if spec == "uniform":
        if vocab_size is None:
            raise ConfigError("uniform scorer needs a vocabulary size")
        return uniform(vocab_size)
    if spec == "unigram":
        if ds is None:
            raise ConfigError("unigram scorer needs a corpus")
        # a table as long as the corpus's largest id, not the vocabulary
        ids = ds.ids.ravel()
        return unigram(np.bincount(ids[(ids != ds.vocab.pad_id) & (ids != ds.vocab.sep_id)]))
    if spec.startswith("extern:"):
        try:
            argv = shlex.split(spec[len("extern:"):])
        except ValueError as exc:
            raise ConfigError(f"cannot parse scorer {spec!r}: {exc}") from exc
        if not argv:
            raise ConfigError(f"scorer {spec!r} names no command")
        return ExternScorer(argv)
    raise ConfigError(f"unknown scorer {spec!r}")


# ---------------------------------------------------------------------------
# masking statistics


@dataclass
class LengthCoverage:
    fully_masked_count: int
    occurrence_count: int

    @property
    def probability(self) -> float:
        return (self.fully_masked_count / self.occurrence_count
                if self.occurrence_count else 0.0)


def _vocab_occurrences(ids: np.ndarray, pmi_vocab: PmiVocabulary) -> np.ndarray:
    """All (row, start, length) occurrences of vocabulary n-grams in a
    (rows x L) block of windows, as an (occurrences x 3) array.

    Overlapping occurrences all count, and matches may cross sep/pad.
    """
    return pmi_vocab.occurrences(ids)


def _tally(counts: Counter, values: np.ndarray) -> None:
    """Add the number of times each non-negative int in `values` occurs."""
    tally = np.bincount(values)
    present = np.flatnonzero(tally)
    counts.update(dict(zip(present.tolist(), tally[present].tolist())))


def pmi_coverage(blocks: Iterable[MaskedBlock],
                 pmi_vocab: PmiVocabulary) -> dict[int, LengthCoverage]:
    """How often vocabulary n-grams are fully corrupted, by n-gram length;
    lengths that never occur are absent.

    Every occurrence (including overlapping ones) in a row's
    ``original_ids`` is counted once per row; duplicated sequences therefore
    contribute once per duplicate. Rows come in non-empty blocks, such as
    those of ``generate_blocks``, and each run of a block's rows of one
    window looks its window up once. An occurrence (start, n) is fully
    corrupted when the prefix sums ``cs`` of the row's ``corrupted`` flags
    give ``cs[start + n] - cs[start] == n``.
    """
    occurring, covered = Counter(), Counter()   # by n-gram length
    for block in blocks:
        source = block.source_sequence
        # run r holds the consecutive rows of one window
        first = np.append(True, source[1:] != source[:-1])
        run = np.cumsum(first) - 1
        occ = _vocab_occurrences(block.original_ids[first], pmi_vocab)
        cs = np.zeros((len(source), block.corrupted.shape[1] + 1), dtype=np.int64)
        np.cumsum(block.corrupted, axis=1, out=cs[:, 1:])
        # pair each row with every occurrence of its window; occurrences
        # are sorted by run, and run r's start at first_occ[r]
        per_run = np.bincount(occ[:, 0], minlength=run[-1] + 1)
        first_occ = np.cumsum(per_run) - per_run
        take = per_run[run]
        row = np.repeat(np.arange(len(source)), take)
        at = np.arange(len(row)) + np.repeat(first_occ[run] - (np.cumsum(take) - take), take)
        start, n = occ[at, 1], occ[at, 2]
        full = cs[row, start + n] - cs[row, start] == n
        _tally(occurring, n)
        _tally(covered, n[full])
    return {n: LengthCoverage(covered[n], occurring[n]) for n in sorted(occurring)}


def span_histogram(blocks: Iterable[MaskedBlock]) -> Counter:
    """Tally contiguous runs of corrupted positions: run length -> count.

    In a block's ``corrupted`` rows framed by zero columns, ``np.diff`` is
    +1 where a run starts and -1 just past its end.
    """
    counts: Counter = Counter()
    for block in blocks:
        framed = np.pad(block.corrupted, ((0, 0), (1, 1))).view(np.int8)
        edges = np.diff(framed, axis=1)
        _tally(counts, np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1))
    return counts


# ---------------------------------------------------------------------------
# scoring metrics


def _log_probs(scorer: Scorer, block: MaskedBlock) -> list[float]:
    """The scorer's values for a block; DataError on the first one above 0."""
    values = scorer.log_probs(block)
    positive = np.flatnonzero(values > 0.0)
    if len(positive):
        raise DataError(f"scorer returned log-probability {values[positive[0]]} > 0")
    return values.tolist()


def masked_perplexity(blocks: Iterable[MaskedBlock], scorer: Scorer) -> float:
    """exp(-mean log p) over every target of the blocks, such as one epoch of
    ``generate_blocks``."""
    total, count = 0.0, 0
    for block in blocks:
        for v in _log_probs(scorer, block):
            total += v
            count += 1
    if count == 0:
        raise DataError("no predictions generated; cannot compute perplexity")
    return math.exp(-total / count)


def pll_score(sentence: Sequence[int] | np.ndarray, scorer: Scorer, vocab: Vocab) -> float:
    """Pseudo log-likelihood of a sentence of token ids: mask each position
    individually and sum. Row i masks position i and predicts it; rows go
    BLOCK_EXAMPLES at a time."""
    ids = np.asarray(sentence, dtype=np.int64)
    total = 0.0
    for start in range(0, len(ids), BLOCK_EXAMPLES):
        at = np.arange(start, min(start + BLOCK_EXAMPLES, len(ids)))
        diagonal = at[:, None] == np.arange(len(ids))
        block = MaskedBlock(np.broadcast_to(ids, diagonal.shape),
                            np.where(diagonal, vocab.mask_id, ids), diagonal,
                            target_counts=np.ones_like(at), target_positions=at,
                            target_originals=ids[at], duplicate_index=np.zeros_like(at),
                            source_sequence=np.zeros_like(at))
        for v in _log_probs(scorer, block):
            total += v
    return total


def minimal_pair_accuracy(pairs: Sequence[tuple], scorer: Scorer, vocab: Vocab) -> float:
    """Fraction of (good, bad) pairs where good scores higher; ties = 0.5."""
    if not pairs:
        raise ConfigError("minimal_pair_accuracy needs a non-empty pair list")
    score = 0.0
    for good, bad in pairs:
        g = pll_score(good, scorer, vocab)
        b = pll_score(bad, scorer, vocab)
        if g > b:
            score += 1.0
        elif g == b:
            score += 0.5
    return score / len(pairs)


def normalized_performance(values: dict[float, float], baseline_rate: float
                           ) -> dict[float, float]:
    """(x - x_baseline) / sigma with population sigma across all rates."""
    if baseline_rate not in values:
        raise ConfigError(f"baseline rate {baseline_rate} missing from values")
    if len(values) < 2:
        raise ConfigError("normalized performance needs at least 2 values")
    sigma = pstdev(values.values())
    if sigma == 0.0:
        raise DataError("all values identical; normalized performance undefined")
    base = values[baseline_rate]
    return {rate: (v - base) / sigma for rate, v in values.items()}


def relative_metric(values: dict[float, float], baseline_rate: float
                    ) -> dict[float, float]:
    """Pointwise subtraction of the baseline value."""
    if baseline_rate not in values:
        raise ConfigError(f"baseline rate {baseline_rate} missing from values")
    base = values[baseline_rate]
    return {rate: v - base for rate, v in values.items()}
