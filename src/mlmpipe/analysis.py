"""Masking statistics, perplexity, and pseudo-log-likelihood scoring.

Floating-point aggregation uses a fixed left-to-right reduction order so
results are bit-stable across runs.
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

from .corpus import PackedDataset, TokenSequence, Vocab
from .errors import ConfigError, DataError, IntegrityError
from .masking import BLOCK_EXAMPLES, MaskedBlock, MaskingConfig, MaskPlan, generate_blocks
from .pmi import PmiVocabulary


class Scorer(Protocol):
    """One float64 log p(original id | corrupted row) per block target, in order."""

    def log_probs(self, block: MaskedBlock) -> np.ndarray: ...


@dataclass
class TokenScorer:
    """Context-free scoring: a target with original id t scores ``logp[t]``,
    and a NaN entry is an id without a count. A table of zeros is the oracle."""

    logp: np.ndarray    # float64, indexed by token id

    def log_probs(self, block: MaskedBlock) -> np.ndarray:
        values = self.logp[block.target_originals]
        if np.isnan(values).any():
            missing = block.target_originals[np.isnan(values)][0]
            raise DataError(f"scorer has no count for token {missing}")
        return values


def uniform(vocab_size: int) -> TokenScorer:
    """Probability 1/V for every token; perplexity equals V."""
    if vocab_size < 1:
        raise ConfigError(f"vocab_size must be positive, got {vocab_size}")
    return TokenScorer(np.full(vocab_size, -math.log(vocab_size)))


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
        counts = np.bincount(ds.ids.ravel(), minlength=max(ds.vocab.size, vocab_size or 0))
        counts[[ds.vocab.pad_id, ds.vocab.sep_id]] = 0
        return unigram(counts)
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


@dataclass
class CoverageReport:
    by_length: dict[int, LengthCoverage]
    masking_rate: float
    strategy: str

    @property
    def overall_probability(self) -> float:
        covered = sum(v.fully_masked_count for v in self.by_length.values())
        total = sum(v.occurrence_count for v in self.by_length.values())
        return covered / total if total else 0.0


@dataclass
class SpanLengthHistogram:
    counts: Counter
    mean_length: float


def _vocab_occurrences(ids: np.ndarray, pmi_vocab: PmiVocabulary) -> np.ndarray:
    """All (row, start, length) occurrences of vocabulary n-grams in a
    (rows x L) block of windows, as an (occurrences x 3) array.

    Overlapping occurrences all count, and matches may cross sep/pad.
    """
    return pmi_vocab.occurrences(ids)


def _corrupted_rows(corrupted: list[np.ndarray], width: int) -> np.ndarray:
    """A (plans x width) 0/1 matrix of the plans' corrupted positions."""
    counts = np.fromiter(map(len, corrupted), dtype=np.int64, count=len(corrupted))
    positions = np.concatenate(corrupted)
    if positions.size and not 0 <= positions.min() <= positions.max() < width:
        raise IntegrityError(f"plan position outside window of length {width}")
    rows = np.zeros((len(corrupted), width), dtype=np.int8)
    rows[np.repeat(np.arange(len(corrupted)), counts), positions] = 1
    return rows


def pmi_coverage(blocks: Iterable[Sequence[MaskPlan]], pmi_vocab: PmiVocabulary,
                 ds: PackedDataset, masking_rate: float = float("nan"),
                 strategy: str = "") -> CoverageReport:
    """How often vocabulary n-grams are fully corrupted, by length.

    Every occurrence (including overlapping ones) is counted once per
    plan; duplicated sequences therefore contribute once per duplicate.
    Plans come in non-empty blocks, such as the lists of ``generate_plans``,
    and each run of a block's plans of one window looks its window up once.
    An occurrence (start, n) is fully corrupted when the prefix sums ``cs``
    of the plan's corrupted row give ``cs[start + n] - cs[start] == n``.
    """
    L = ds.seq_len
    occurring = np.zeros(L + 1, dtype=np.int64)   # by n-gram length
    covered = np.zeros(L + 1, dtype=np.int64)
    for block in blocks:
        source = np.array([p.source_sequence for p in block], dtype=np.int64)
        outside = (source < 0) | (source >= len(ds))
        if outside.any():
            raise IntegrityError(
                f"plan references sequence {source[outside.argmax()]} but dataset "
                f"has {len(ds)} windows")
        # run r holds the consecutive plans of one window
        first = np.append(True, source[1:] != source[:-1])
        run = np.cumsum(first) - 1
        occ = _vocab_occurrences(ds.ids[source[first]], pmi_vocab)
        cs = np.zeros((len(block), L + 1), dtype=np.int64)
        np.cumsum(_corrupted_rows([p.corrupted_positions for p in block], L),
                  axis=1, out=cs[:, 1:])
        # pair each plan with every occurrence of its window; occurrences
        # are sorted by run, and run r's start at first_occ[r]
        per_run = np.bincount(occ[:, 0], minlength=run[-1] + 1)
        first_occ = np.cumsum(per_run) - per_run
        take = per_run[run]
        plan = np.repeat(np.arange(len(block)), take)
        at = np.arange(len(plan)) + np.repeat(first_occ[run] - (np.cumsum(take) - take), take)
        start, n = occ[at, 1], occ[at, 2]
        full = cs[plan, start + n] - cs[plan, start] == n
        occurring += np.bincount(n, minlength=L + 1)
        covered += np.bincount(n[full], minlength=L + 1)
    lengths = np.flatnonzero(occurring)
    by_length = {n: LengthCoverage(c, o) for n, c, o in zip(
        lengths.tolist(), covered[lengths].tolist(), occurring[lengths].tolist())}
    return CoverageReport(by_length=by_length, masking_rate=masking_rate,
                          strategy=strategy)


def span_histogram(blocks: Iterable[Sequence[MaskPlan]]) -> SpanLengthHistogram:
    """Tally contiguous runs of corrupted positions by length.

    Plans come in non-empty blocks, such as the lists of ``generate_plans``.
    In a block's corrupted rows, each ending in an uncorrupted column,
    ``np.diff`` is +1 where a run starts and -1 just past its end.
    """
    counts: Counter = Counter()
    for block in blocks:
        corrupted = [p.corrupted_positions for p in block]
        width = 2 + max(int(c.max(initial=-1)) for c in corrupted)
        edges = np.diff(_corrupted_rows(corrupted, width), axis=1, prepend=0)
        tally = np.bincount(np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1))
        lengths = np.flatnonzero(tally)
        counts.update(dict(zip(lengths.tolist(), tally[lengths].tolist())))
    total = sum(counts.values())
    mean = (sum(length * c for length, c in counts.items()) / total) if total else 0.0
    return SpanLengthHistogram(counts=counts, mean_length=mean)


# ---------------------------------------------------------------------------
# scoring metrics


def masked_perplexity(ds: PackedDataset, config: MaskingConfig, scorer: Scorer,
                      pmi_vocab: PmiVocabulary | None = None,
                      epoch: int = 0) -> float:
    """exp(-mean log p) over every prediction in one epoch."""
    total, count = 0.0, 0
    for block in generate_blocks(ds, config, pmi_vocab, epoch):
        for v in scorer.log_probs(block).tolist():
            if v > 0.0:
                raise DataError(f"scorer returned log-probability {v} > 0")
            total += v
            count += 1
    if count == 0:
        raise DataError("no predictions generated; cannot compute perplexity")
    return math.exp(-total / count)


def pll_score(sentence: TokenSequence | Sequence[int], scorer: Scorer,
              vocab: Vocab) -> float:
    """Pseudo log-likelihood: mask each position individually and sum. Row
    i masks position i and predicts it; rows go BLOCK_EXAMPLES at a time."""
    ids = np.asarray(getattr(sentence, "ids", sentence), dtype=np.int64)
    total = 0.0
    for start in range(0, len(ids), BLOCK_EXAMPLES):
        at = np.arange(start, min(start + BLOCK_EXAMPLES, len(ids)))
        rows = np.where(at[:, None] == np.arange(len(ids)), vocab.mask_id, ids)
        block = MaskedBlock(rows, target_counts=np.ones_like(at), target_positions=at,
                            target_originals=ids[at], duplicate_index=np.zeros_like(at),
                            source_sequence=np.zeros_like(at))
        for v in scorer.log_probs(block).tolist():
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
