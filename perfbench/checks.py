"""Invariant checks on mlmpipe outputs.

The checks compare outputs against laws that hold for any correct RNG
stream, never against golden bytes, so a change of the sampling stream
passes as long as budgets, disjointness, policy counts and provenance hold.
Each check raises CheckError on the first violation it finds.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import (FIRST_ORDINARY, MASK_ID, PAD_ID, PHRASE_LEN, SEP_ID, VOCAB_SIZE, Corpus,
                    gram_keys)

_EPS = 1e-9                    # the program's guard against float round-down


class CheckError(Exception):
    """An output violates an invariant."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def exact_count(rate: float, n: np.ndarray) -> np.ndarray:
    return np.floor(rate * n + _EPS).astype(np.int64)


def largest_remainder(total: int, proportions: tuple[float, ...]) -> list[int]:
    """Largest-remainder apportionment; remainder ties go to the earlier part."""
    quotas = [total * p for p in proportions]
    counts = [int(math.floor(q + _EPS)) for q in quotas]
    order = sorted(range(len(quotas)),
                   key=lambda i: (-(quotas[i] - math.floor(quotas[i] + _EPS)), i))
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


@dataclass(frozen=True)
class MaskSpec:
    """What one `mask` invocation was asked to do."""

    corruption_rate: float
    prediction_rate: float
    policy: tuple[float, float, float]
    epochs: int

    @property
    def duplicates(self) -> int:
        if self.prediction_rate <= self.corruption_rate:
            return 1
        return int(math.ceil(self.prediction_rate / self.corruption_rate - _EPS))


def _read_lines(path: Path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def check_mask(path: Path, packed: np.ndarray, spec: MaskSpec) -> dict[str, float]:
    """Check a `mask` output against the packed windows it was made from.

    Per example: exactly floor(m_corr * n) targets; targets sorted, on
    maskable positions and equal to the source ids; the policy's
    largest-remainder split of [MASK] / random / same; nothing outside the
    targets changed. Per epoch: every (window, duplicate) exactly once, and
    the duplicates of a window pairwise disjoint. Returns realized counts.
    """
    _require(spec.prediction_rate >= spec.corruption_rate,
             "checker covers prediction rate >= corruption rate only")
    windows, seq_len = packed.shape
    k = spec.duplicates
    lines = _read_lines(path)
    _require(lines and "_config" in json.loads(lines[0]), "missing provenance header")
    records = [json.loads(line) for line in lines[1:]]
    n_ex = len(records)
    _require(n_ex == windows * k * spec.epochs,
             f"{n_ex} examples, expected {windows} windows x {k} duplicates "
             f"x {spec.epochs} epochs")
    seqs = [r["seq"] for r in records]
    _require(all(len(s) == seq_len for s in seqs), f"an example is not length {seq_len}")
    seq = np.array(seqs, dtype=np.int64)
    src = np.array([r["src"] for r in records], dtype=np.int64)
    dup = np.array([r["dup"] for r in records], dtype=np.int64)
    _require(((src >= 0) & (src < windows)).all(), "source index out of range")
    _require(((dup >= 0) & (dup < k)).all(), "duplicate index out of range")

    targets = [r["targets"] for r in records]
    t_count = np.array([len(t) for t in targets], dtype=np.int64)
    flat = [pair for t in targets for pair in t]
    _require(all(len(p) == 2 for p in flat), "a target is not a (position, id) pair")
    t_arr = np.array(flat, dtype=np.int64).reshape(-1, 2)
    t_pos, t_orig = t_arr[:, 0], t_arr[:, 1]
    t_ex = np.repeat(np.arange(n_ex), t_count)
    _require(((t_pos >= 0) & (t_pos < seq_len)).all(), "target position out of range")

    source = packed[src]
    maskable = ((packed != PAD_ID) & (packed != SEP_ID)).sum(axis=1)
    budget = exact_count(spec.corruption_rate, maskable)[src]
    bad = np.flatnonzero(t_count != budget)
    _require(len(bad) == 0, f"example {bad[:1]} has {t_count[bad[:1]]} targets, "
                            f"expected floor(m*n) = {budget[bad[:1]]}")
    same_ex = t_ex[1:] == t_ex[:-1]
    _require((t_pos[1:][same_ex] > t_pos[:-1][same_ex]).all(),
             "targets not strictly increasing")
    src_at = source[t_ex, t_pos]
    _require((src_at == t_orig).all(), "a target id differs from the source id")
    _require(((src_at != PAD_ID) & (src_at != SEP_ID)).all(), "a target on pad/sep")

    touched = np.zeros(seq.shape, dtype=bool)
    touched[t_ex, t_pos] = True
    changed = seq != source
    _require(not (changed & ~touched).any(), "a position outside the targets changed")
    is_mask = (seq == MASK_ID) & touched
    is_rand = changed & ~is_mask
    is_same = touched & ~changed
    _require(((seq[is_rand] >= 0) & (seq[is_rand] < VOCAB_SIZE)).all()
             and not np.isin(seq[is_rand], (PAD_ID, SEP_ID)).any(),
             "a random replacement is special or outside the vocabulary")
    n_mask, n_rand, n_same = is_mask.sum(1), is_rand.sum(1), is_same.sum(1)
    split = {t: largest_remainder(t, spec.policy) for t in np.unique(t_count).tolist()}
    want = np.array([split[t] for t in t_count.tolist()], dtype=np.int64).reshape(-1, 3)
    # a random draw may equal the original id and then reads as "same"
    _require((n_mask == want[:, 0]).all(), "[MASK] count off the policy split")
    _require(((n_rand <= want[:, 1]) & (n_rand + n_same == want[:, 1] + want[:, 2])).all(),
             "random/same counts off the policy split")

    epoch = np.arange(n_ex) // (windows * k)
    slot = np.sort((epoch * windows + src) * k + dup)
    _require((slot == np.arange(n_ex)).all(),
             "a (window, duplicate) is missing or repeated within an epoch")
    if k > 1:
        order = np.argsort((epoch * windows + src) * k + dup, kind="stable")
        per_window = touched[order].reshape(-1, k, seq_len).sum(axis=1)
        _require(per_window.max() <= 1, "duplicates of a window overlap")

    corrupted = is_mask | is_rand
    runs = (corrupted & ~np.pad(corrupted, ((0, 0), (1, 0)))[:, :-1]).sum()
    return {"examples": n_ex, "windows": windows * spec.epochs,
            "predicted": int(t_count.sum()), "corrupted": int(corrupted.sum()),
            "mask": int(n_mask.sum()), "random": int(n_rand.sum()),
            "same": int(n_same.sum()), "runs": int(runs)}


def check_coverage(path: Path, strategy: str, mask_rate: float) -> dict[int, float]:
    """`stats coverage` CSV: one row per n-gram length, probabilities in [0, 1]."""
    lines = _read_lines(path)
    _require(len(lines) >= 3 and lines[0].startswith("# "), "missing provenance header")
    json.loads(lines[0][2:])
    _require(lines[1] == "strategy,masking_rate,ngram_len,coverage", "bad CSV header")
    coverage: dict[int, float] = {}
    for row in lines[2:]:
        cells = row.split(",")
        _require(len(cells) == 4, f"bad CSV row {row!r}")
        _require(cells[0] == strategy and float(cells[1]) == mask_rate,
                 f"row {row!r} is not for {strategy} at {mask_rate}")
        n, p = int(cells[2]), float(cells[3])
        _require(PHRASE_LEN[0] <= n <= PHRASE_LEN[1] and n not in coverage,
                 f"bad or repeated n-gram length {n}")
        _require(0.0 <= p <= 1.0, f"coverage {p} outside [0, 1]")
        coverage[n] = p
    return coverage


def check_pack(path: Path, ref_ids: np.ndarray, ref_ws: np.ndarray) -> int:
    """`pack` output equals the reference packing, window for window."""
    lines = _read_lines(path)
    _require(lines, "empty packed output")
    meta = json.loads(lines[0])
    _require(meta.get("seq_len") == ref_ids.shape[1]
             and meta.get("vocab") == {"size": VOCAB_SIZE, "mask_id": MASK_ID,
                                       "pad_id": PAD_ID, "sep_id": SEP_ID},
             "packed header has the wrong shape or vocabulary")
    _require(len(lines) - 1 == len(ref_ids),
             f"{len(lines) - 1} windows, expected {len(ref_ids)}")
    recs = [json.loads(line) for line in lines[1:]]
    ids = np.array([r["ids"] for r in recs], dtype=np.int64)
    ws = np.array([r["word_starts"] for r in recs], dtype=np.int64)
    _require(ids.shape == ref_ids.shape and (ids == ref_ids).all(),
             "packed ids differ from the reference packing")
    _require((ws == ref_ws).all(), "packed word starts differ from the reference packing")
    return len(ref_ids)


def _doc_gram_counts(corpus: Corpus, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct n-gram keys within documents, with their counts."""
    keys = gram_keys(corpus.ids, n)
    doc_end = np.repeat(np.cumsum(corpus.doc_lens), corpus.doc_lens)
    inside = np.arange(len(keys)) + n <= doc_end[:len(keys)]
    return np.unique(keys[inside], return_counts=True)


def check_pmi_build(path: Path, corpus: Corpus, size_cap: int, n_max: int,
                    min_count: int) -> int:
    """`pmi-build` TSV: ranked, capped, n in [2, n_max], each gram seen >= min_count."""
    lines = _read_lines(path)
    _require(lines and lines[0].startswith("# "), "missing provenance header")
    json.loads(lines[0][2:])
    entries = lines[1:]
    _require(0 < len(entries) <= size_cap, f"{len(entries)} entries, cap {size_cap}")
    grams: list[list[int]] = []
    scores: list[float] = []
    for row in entries:
        gram_part, score_part = row.split("\t")
        grams.append([int(t) for t in gram_part.split()])
        scores.append(float(score_part))
    s = np.array(scores)
    _require(np.isfinite(s).all() and (np.diff(s) <= 0).all(), "entries not ranked by score")
    _require(all(2 <= len(g) <= n_max for g in grams), f"an n-gram outside [2, {n_max}]")
    _require(all(FIRST_ORDINARY <= t < VOCAB_SIZE for g in grams for t in g),
             "an n-gram holds a special or out-of-vocabulary id")
    _require(len({tuple(g) for g in grams}) == len(grams), "a repeated n-gram")
    for n in range(2, n_max + 1):
        mine = [g for g in grams if len(g) == n]
        if not mine:
            continue
        keys, counts = _doc_gram_counts(corpus, n)
        want = gram_keys(np.array(mine, dtype=np.int64).reshape(-1), n)[::n]
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        _require(((keys[at] == want) & (counts[at] >= min_count)).all(),
                 f"a {n}-gram occurs fewer than {min_count} times")
    return len(entries)
