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
from itertools import compress
from statistics import pstdev
from typing import Iterable, Protocol, Sequence

import numpy as np

from .corpus import PackedDataset, TokenSequence, Vocab
from .errors import ConfigError, DataError, IntegrityError
from .masking import MaskingConfig, MaskPlan, generate_blocks
from .pmi import PmiVocabulary

Query = tuple[int, int]  # (position, original id)


class Scorer(Protocol):
    """Provides log p(original id at position | corrupted window)."""

    def log_prob(self, corrupted_ids: Sequence[int], queries: Sequence[Query]
                 ) -> list[float]: ...


class UniformScorer:
    """Assigns probability 1/V to every token; perplexity equals V."""

    def __init__(self, vocab_size: int):
        if vocab_size < 1:
            raise ConfigError(f"vocab_size must be positive, got {vocab_size}")
        self._logp = -math.log(vocab_size)

    def log_prob(self, corrupted_ids, queries):
        return [self._logp] * len(queries)


class UnigramScorer:
    """Maximum-likelihood unigram model; ignores the corrupted context."""

    def __init__(self, counts: dict[int, int]):
        self.counts = counts
        self.total = sum(counts.values())
        if self.total == 0:
            raise DataError("unigram scorer needs a non-empty corpus")

    @classmethod
    def from_dataset(cls, ds: PackedDataset) -> "UnigramScorer":
        counts = np.bincount(ds.ids.ravel(), minlength=ds.vocab.size)
        counts[[ds.vocab.pad_id, ds.vocab.sep_id]] = 0
        seen = np.flatnonzero(counts)
        return cls(dict(zip(seen.tolist(), counts[seen].tolist())))

    def log_prob(self, corrupted_ids, queries):
        out = []
        for _, orig in queries:
            c = self.counts.get(orig, 0)
            if c == 0:
                raise DataError(f"unigram scorer has no count for token {orig}")
            out.append(math.log(c / self.total))
        return out


class OracleScorer:
    """Probability 1 on the truth; useful for contract tests."""

    def log_prob(self, corrupted_ids, queries):
        return [0.0] * len(queries)


class ExternScorer:
    """Line-delimited JSON scorer over a subprocess's stdio.

    Request:  {"qid": n, "seq": [...corrupted ids...], "queries": [[pos, orig], ...]}
    Response: {"qid": n, "logp": [...]} with one JSON number per query, in order.
    """

    CLOSE_TIMEOUT_S = 10

    def __init__(self, command: str):
        self._proc = subprocess.Popen(
            shlex.split(command), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1)
        self._qid = 0

    def log_prob(self, corrupted_ids, queries):
        self._qid += 1
        req = {"qid": self._qid, "seq": [int(t) for t in corrupted_ids],
               "queries": [[int(p), int(o)] for p, o in queries]}
        self._proc.stdin.write(json.dumps(req, separators=(",", ":")) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise DataError("external scorer closed its output stream")
        try:
            resp = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"external scorer sent invalid JSON: {line!r}") from exc
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
        return UniformScorer(vocab_size)
    if spec == "unigram":
        if ds is None:
            raise ConfigError("unigram scorer needs a corpus")
        return UnigramScorer.from_dataset(ds)
    if spec.startswith("extern:"):
        return ExternScorer(spec[len("extern:"):])
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


def _vocab_occurrences(window, pmi_vocab: PmiVocabulary) -> list[tuple[int, int]]:
    """All (start, length) occurrences of vocabulary n-grams in a window.

    Overlapping occurrences all count, and matches may cross sep/pad.
    """
    ids = window.ids.tolist()
    candidates = pmi_vocab.candidates(ids)
    occ: list[tuple[int, int]] = []
    for start in compress(range(len(candidates)), candidates):
        matched = list(pmi_vocab.match_lengths(ids, start, len(ids), candidates[start]))
        occ.extend((start, n) for n in reversed(matched))
    return occ


def pmi_coverage(plans: Iterable[MaskPlan], pmi_vocab: PmiVocabulary,
                 ds: PackedDataset, masking_rate: float = float("nan"),
                 strategy: str = "") -> CoverageReport:
    """How often vocabulary n-grams are fully corrupted, by length.

    Every occurrence (including overlapping ones) is counted once per
    plan; duplicated sequences therefore contribute once per duplicate.
    """
    # only the current window's occurrences are kept: a window's
    # duplicates are adjacent in the plan stream
    occ_source, occ = None, []
    by_length: dict[int, LengthCoverage] = {}
    for plan in plans:
        if not 0 <= plan.source_sequence < len(ds):
            raise IntegrityError(
                f"plan references sequence {plan.source_sequence} but dataset "
                f"has {len(ds)} windows")
        if plan.source_sequence != occ_source:
            occ_source = plan.source_sequence
            occ = _vocab_occurrences(ds[occ_source], pmi_vocab)
        corrupted = set(plan.corrupted_positions.tolist())
        for start, n in occ:
            cell = by_length.setdefault(n, LengthCoverage(0, 0))
            cell.occurrence_count += 1
            if corrupted.issuperset(range(start, start + n)):
                cell.fully_masked_count += 1
    return CoverageReport(by_length=by_length, masking_rate=masking_rate,
                          strategy=strategy)


def span_histogram(plans: Iterable[MaskPlan]) -> SpanLengthHistogram:
    """Tally contiguous runs of corrupted positions by length."""
    counts: Counter = Counter()
    for plan in plans:
        positions = plan.corrupted_positions
        if len(positions):
            breaks = np.flatnonzero(np.diff(positions) != 1) + 1
            counts.update(np.diff(breaks, prepend=0, append=len(positions)).tolist())
    total = sum(counts.values())
    mean = (sum(length * c for length, c in counts.items()) / total) if total else 0.0
    return SpanLengthHistogram(counts=counts, mean_length=mean)


# ---------------------------------------------------------------------------
# scoring metrics


def masked_perplexity(ds: PackedDataset, config: MaskingConfig, scorer: Scorer,
                      pmi_vocab: PmiVocabulary | None = None,
                      epoch: int = 0) -> float:
    """exp(-mean log p) over every prediction in one epoch."""
    total = 0.0
    count = 0
    for block in generate_blocks(ds, config, pmi_vocab, epoch):
        targets = list(zip(block.target_positions.tolist(), block.target_originals.tolist()))
        ends = np.cumsum(block.target_counts).tolist()
        for row, start, end in zip(block.corrupted_ids.tolist(), [0] + ends, ends):
            if start == end:
                continue
            for v in scorer.log_prob(row, targets[start:end]):
                if v > 0.0:
                    raise DataError(f"scorer returned log-probability {v} > 0")
                total += v
                count += 1
    if count == 0:
        raise DataError("no predictions generated; cannot compute perplexity")
    return math.exp(-total / count)


def pll_score(sentence: TokenSequence | Sequence[int], scorer: Scorer,
              vocab: Vocab) -> float:
    """Pseudo log-likelihood: mask each position individually and sum."""
    ids = sentence.ids.tolist() if isinstance(sentence, TokenSequence) else list(sentence)
    total = 0.0
    for i, orig in enumerate(ids):
        corrupted = list(ids)
        corrupted[i] = vocab.mask_id
        total += scorer.log_prob(corrupted, [(i, orig)])[0]
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
