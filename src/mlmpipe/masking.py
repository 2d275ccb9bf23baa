"""Mask planning: strategies, decoupled corruption/prediction, policies.

A plan records which positions of one example get corrupted and which
positions are prediction targets; the two sets coincide unless the
corruption and prediction rates are decoupled. Budgets are exact:
floor(rate * number of maskable positions), never a per-token coin flip (a
Bernoulli variant of the replacement policy is available behind
``policy_sampling``).

Plans are made a block of windows at a time, stage by stage: each stage
runs over every row of the block, with only the calls on each window's own
generator in a Python loop, in the order and with the sizes that planning
one window at a time makes them.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus import PackedDataset, TokenSequence, Vocab, epoch_stream
from .errors import ConfigError, DataError, InfeasibleError, IntegrityError
from .pmi import PmiVocabulary, segment_block

_EPS = 1e-9

STRATEGIES = ("uniform", "whole_word", "span", "pmi")
# strategies that mask whole units; each is also its segmentation mode
UNIT_STRATEGIES = ("whole_word", "pmi")

# windows planned, then materialized or tallied, as one block; bounds the
# arrays of a block, so memory does not grow with the corpus
BLOCK_EXAMPLES = 64


class ActionKind(enum.Enum):
    MASK = "mask"
    RANDOM = "random"
    SAME = "same"


# codes of MaskPlan.kinds, in ActionKind order
MASK, RANDOM, SAME = 0, 1, 2
_KINDS = tuple(ActionKind)
_NO_IDS = np.empty(0, dtype=np.int64)
_NO_IDS.setflags(write=False)


@dataclass(slots=True)
class MaskAction:
    position: int
    kind: ActionKind
    replacement: int | None = None


@dataclass
class MaskPlan:
    """One example's corruption and prediction targets, as arrays.

    ``positions`` (int64, ascending) are the positions the plan touches and
    ``kinds`` (uint8 codes MASK/RANDOM/SAME, one per position) say how:
    MASK writes the mask id, RANDOM writes the next entry of
    ``replacements`` (one per RANDOM position, in position order) and SAME
    keeps the token. ``pred_positions`` (ascending) and ``pred_originals``
    are the prediction targets and the ids they must recover.
    """

    positions: np.ndarray
    kinds: np.ndarray
    replacements: np.ndarray
    pred_positions: np.ndarray
    pred_originals: np.ndarray
    duplicate_index: int = 0
    source_sequence: int = 0

    @property
    def corrupted_positions(self) -> np.ndarray:
        """Positions whose input identity is destroyed (mask or random)."""
        return self.positions[self.kinds != SAME]

    @property
    def predictions(self) -> list[tuple[int, int]]:
        """(position, original id) pairs; a read-only view built on each call."""
        return list(zip(self.pred_positions.tolist(), self.pred_originals.tolist()))

    @property
    def actions(self) -> list[MaskAction]:
        """One MaskAction per position; a read-only view built on each call."""
        repl = iter(self.replacements.tolist())
        return [MaskAction(q, _KINDS[k], next(repl) if k == RANDOM else None)
                for q, k in zip(self.positions.tolist(), self.kinds.tolist())]


@dataclass
class PlanBlock:
    """The plans of consecutive examples as flat arrays, offset-indexed.

    Plan i owns the next ``counts[i]`` entries of ``positions`` and
    ``kinds`` and the next ``target_counts[i]`` entries of
    ``pred_positions`` and ``pred_originals``, each ascending within the
    plan, with the fields of ``MaskPlan``. ``replacements`` holds one id per
    RANDOM kind, in the order of ``kinds``. ``duplicate_index`` and
    ``source_sequence`` hold one entry per plan.
    """

    counts: np.ndarray
    positions: np.ndarray
    kinds: np.ndarray
    replacements: np.ndarray
    target_counts: np.ndarray
    pred_positions: np.ndarray
    pred_originals: np.ndarray
    duplicate_index: np.ndarray
    source_sequence: np.ndarray

    def __len__(self) -> int:
        return len(self.counts)

    def plans(self) -> list[MaskPlan]:
        """One MaskPlan per plan, of views into the block's arrays."""
        def split(values: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
            return np.split(values, np.cumsum(counts)[:-1]) if len(counts) else []

        of_plan = np.repeat(np.arange(len(self)), self.counts)
        n_random = np.bincount(of_plan[self.kinds == RANDOM], minlength=len(self))
        return [MaskPlan(*fields, duplicate_index=d, source_sequence=s)
                for *fields, d, s in zip(
                    split(self.positions, self.counts), split(self.kinds, self.counts),
                    split(self.replacements, n_random),
                    split(self.pred_positions, self.target_counts),
                    split(self.pred_originals, self.target_counts),
                    self.duplicate_index.tolist(), self.source_sequence.tolist())]


@dataclass
class MaskedBlock:
    """Consecutive materialized examples as arrays, one row per example.

    ``original_ids`` holds each row's window before corruption, and
    ``corrupted`` is True where ``corrupted_ids`` destroyed its identity (MASK
    or RANDOM). ``target_positions`` and ``target_originals`` hold every
    row's targets in row order, ``target_counts[i]`` of them for row i.
    """

    original_ids: np.ndarray       # (rows, L)
    corrupted_ids: np.ndarray      # (rows, L)
    corrupted: np.ndarray          # (rows, L) bool
    target_counts: np.ndarray
    target_positions: np.ndarray
    target_originals: np.ndarray
    duplicate_index: np.ndarray
    source_sequence: np.ndarray


@dataclass
class MaskingConfig:
    """The checked masking configuration; the planner reads no other copy."""

    strategy: str = "uniform"
    corruption_rate: float = 0.15
    prediction_rate: float = 0.15
    policy: tuple[float, float, float] = (1.0, 0.0, 0.0)
    extra_same: float = 0.0
    mean_span: float = 3.0
    seed: int = 0
    policy_sampling: str = "exact"

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        for name in ("corruption_rate", "prediction_rate", "extra_same"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}={v} outside [0, 1]")
        # negated comparisons, so that NaN fails them too
        if len(self.policy) != 3 or not all(p >= 0 for p in self.policy):
            raise ConfigError(f"policy must be 3 non-negative proportions, got {self.policy}")
        if not abs(sum(self.policy) - 1.0) <= _EPS:
            raise ConfigError(f"policy proportions must sum to 1, got {self.policy}")
        if not self.mean_span > 0:
            raise ConfigError(f"mean_span must be positive, got {self.mean_span}")
        if self.policy_sampling not in ("exact", "bernoulli"):
            raise ConfigError(f"unknown policy_sampling {self.policy_sampling!r}")
        if self.corruption_rate == 0.0 and self.prediction_rate > 0.0:
            raise ConfigError("prediction_rate > 0 requires corruption_rate > 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def exact_count(rate: float, n: int) -> int:
    """floor(rate * n), guarded against float round-down artifacts."""
    return int(math.floor(rate * n + _EPS))


def _exact_counts(rate: float, n: np.ndarray) -> np.ndarray:
    """``exact_count`` of each entry of n; the same float64 steps, so the same
    counts."""
    return np.floor(rate * n + _EPS).astype(np.int64)


def effective_rates(config: MaskingConfig) -> tuple[float, float]:
    """Effective corruption/prediction rates under the replacement policy.

    Same-token predictions count toward neither rate; random replacements
    count toward both; extra same-token predictions toward neither. Each
    rate scales its own budget, so decoupled m_corr and m_pred give two
    different rates.
    """
    p_mask, p_rand, _ = config.policy
    return (config.corruption_rate * (p_mask + p_rand),
            config.prediction_rate * (p_mask + p_rand))


# ---------------------------------------------------------------------------
# position samplers
#
# Each takes a (rows x L) bool matrix of the allowed positions, one budget
# per row and one generator per row, and returns a (rows x L) bool matrix
# with exactly budgets[r] allowed positions picked in row r. A row with a
# zero budget makes no generator call.


def _check_budgets(allowed: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Each row's count of allowed positions; InfeasibleError for the first
    row whose budget exceeds it."""
    n = np.count_nonzero(allowed, axis=1)
    over = budgets > n
    if over.any():
        r = over.argmax()
        raise InfeasibleError(f"budget {budgets[r]} exceeds {n[r]} maskable positions")
    return n


def _allowed_ranks(allowed: np.ndarray,
                   budgets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat indices of the allowed positions, row by row, each row's
    count of them and where its run of them starts, after ``_check_budgets``."""
    n = _check_budgets(allowed, budgets)
    return np.flatnonzero(allowed), n, np.cumsum(n) - n


def _draws(rngs: Sequence[np.random.Generator], rows: np.ndarray, sizes: np.ndarray,
           sizes_drawn: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """For each listed row, ``choice(sizes[r], sizes_drawn[r], replace=False)``
    on its own generator, shifted by ``starts[r]``; all of them concatenated.
    ``choice`` over an array draws exactly these indices into it."""
    return np.concatenate([
        rngs[r].choice(m, size=k, replace=False) + s
        for r, m, k, s in zip(rows.tolist(), sizes[rows].tolist(),
                              sizes_drawn[rows].tolist(), starts[rows].tolist())])


def sample_uniform(allowed: np.ndarray, budgets: np.ndarray,
                   rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Exactly budgets[r] allowed positions of row r, uniformly without
    replacement: one ``choice`` over the row's allowed positions."""
    flat, n, start = _allowed_ranks(allowed, budgets)
    picks = np.zeros(allowed.shape, dtype=bool)
    rows = np.flatnonzero(budgets)
    if len(rows):
        picks.ravel()[flat[_draws(rngs, rows, n, budgets, start)]] = True
    return picks


def _sorted_within(values: np.ndarray, counts: np.ndarray, bound: int) -> np.ndarray:
    """Each row's run of ``counts[r]`` values, all below ``bound``, sorted in
    place of the run."""
    offset = np.repeat(np.arange(len(counts)) * bound, counts)
    return np.sort(values + offset) - offset


def sample_span(allowed: np.ndarray, budgets: np.ndarray, mean_span: float,
                rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """T5-style noise spans with the given target mean length.

    Span lengths are a uniform composition of the budget; gaps a uniform
    composition of the remainder (interior gaps >= 1 where feasible). For
    very high budgets the span count is reduced to the largest feasible
    value, so realized spans get longer than the target mean. A row draws
    the cut points of its lengths (when it has more than one span), then
    those of its gaps; the layout of every row is one array pass.
    """
    flat, n, start = _allowed_ranks(allowed, budgets)
    picks = np.zeros(allowed.shape, dtype=bool)
    rows = np.flatnonzero(budgets)
    if not len(rows):
        return picks
    budget = budgets[rows]
    remainder = n[rows] - budget
    # a quotient beyond the budget (inf for a tiny mean_span) is capped below
    with np.errstate(over="ignore"):
        spans = np.maximum(1, np.round(np.minimum(budget / mean_span, budget)).astype(np.int64))
    # all spans + 1 gaps must be >= 1; reduce the span count when the
    # remainder cannot supply that many gaps
    spans = np.maximum(1, np.minimum(np.minimum(spans, budget), remainder - 1))
    # a single span whose remainder is too small for interior gaps: its
    # gaps are a composition of remainder + 2 into 2, each end less 1
    single = remainder < spans + 1
    length_cuts, gap_cuts = [], []
    for r, b, s, g, one in zip(rows.tolist(), budget.tolist(), spans.tolist(),
                               remainder.tolist(), single.tolist()):
        rng = rngs[r]
        if s > 1:
            length_cuts.append(rng.choice(b - 1, size=s - 1, replace=False))
        gap_cuts.append(rng.choice(g + 1, size=1, replace=False) if one
                        else rng.choice(g - 1, size=s, replace=False))
    # span i of a row starts after the gaps before it, at the allowed rank
    # of its i-th sorted gap cut + 1 (the cut itself for a single span)
    bound = allowed.shape[1] + 1
    offsets = _sorted_within(np.concatenate(gap_cuts), spans, bound) + 1
    offsets[np.cumsum(spans)[single] - 1] -= 1
    # a row's k-th pick lies in the span whose start, its sorted length cut
    # + 1, is the last at or below k; it is offset by that span's gaps
    first = np.cumsum(budget) - budget
    new_span = np.zeros(int(budget.sum()), dtype=np.int64)
    new_span[first] = 1
    several = spans > 1
    if several.any():
        cuts = _sorted_within(np.concatenate(length_cuts), spans[several] - 1, bound)
        new_span[np.repeat(first[several], spans[several] - 1) + cuts + 1] = 1
    rank = np.arange(len(new_span)) - np.repeat(first, budget)
    rank += offsets[new_span.cumsum() - 1]
    picks.ravel()[flat[np.repeat(start[rows], budget) + rank]] = True
    return picks


def sample_units(units: np.ndarray, allowed: np.ndarray, budgets: np.ndarray,
                 rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Mask whole units; fill any leftover budget with single positions.

    ``units`` are disjoint, non-empty half-open (start, end) ranges of the
    raveled block, ordered by start, none crossing a row: ``segment_block``'s
    units shifted by row * L. A unit is usable when every position of it is
    allowed. Each row's usable units are drawn in a uniformly random order
    (one ``permutation``) and accepted only when they fit the remaining
    budget in full; any budget left after them goes to a uniform draw (one
    ``choice``) from the allowed positions that no accepted unit covers.
    """
    R, L = allowed.shape
    _check_budgets(allowed, budgets)
    rows = np.flatnonzero(budgets)
    if not len(rows):
        return np.zeros((R, L), dtype=bool)
    budget = budgets[rows]
    # the disallowed positions before each bound: a unit is usable when as
    # many lie before its end as before its start
    barred = np.zeros(R * L + 1, dtype=np.int64)
    np.cumsum(~allowed.ravel(), out=barred[1:])
    unit_row = units[:, 0] // L
    usable = (barred[units[:, 1]] == barred[units[:, 0]]) & (budgets[unit_row] > 0)
    units = units[usable]
    count = np.bincount(unit_row[usable], minlength=R)[rows]
    first = np.cumsum(count) - count
    order = units[np.concatenate([rngs[r].permutation(m) + s for r, m, s in zip(
        rows.tolist(), count.tolist(), first.tolist())])]
    length = order[:, 1] - order[:, 0]
    row = np.repeat(np.arange(len(rows)), count)     # into ``rows``
    rank = np.arange(len(order)) - first[row]
    # the units before the first that overflows its row's budget all fit
    total = np.cumsum(length)
    total -= np.concatenate(([0], total))[first][row]
    taken = total <= budget[row]
    remaining = budget - np.bincount(row[taken], weights=length[taken],
                                     minlength=len(rows)).astype(np.int64)
    # first fit over the units after that one, while budget remains: only
    # units no longer than a row's remaining budget can ever fit, and each
    # round takes the first such unit of every row still short
    fits = np.flatnonzero((rank > np.bincount(row[taken], minlength=len(rows))[row])
                          & (length <= remaining[row]))
    fit_row = row[fits]
    while len(fits):
        head = np.concatenate(([True], fit_row[1:] != fit_row[:-1]))
        taken[fits[head]] = True
        remaining[fit_row[head]] -= length[fits[head]]
        fits, fit_row = fits[~head], fit_row[~head]
        left = length[fits] <= remaining[fit_row]
        fits, fit_row = fits[left], fit_row[left]
    # +1 at each taken start and -1 at its end: the running sum is 1 inside
    # a taken unit
    inside = np.zeros(R * L + 1, dtype=np.int8)
    inside[order[taken, 0]] = 1
    inside[order[taken, 1]] -= 1
    picks = inside[:-1].cumsum(dtype=np.int8).view(bool).reshape(R, L)
    short = np.flatnonzero(remaining)
    if len(short):
        leftover = allowed & ~picks
        n_left = np.count_nonzero(leftover, axis=1)
        need = np.zeros(R, dtype=np.int64)
        need[rows] = remaining
        picks.ravel()[np.flatnonzero(leftover)[_draws(
            rngs, rows[short], n_left, need, np.cumsum(n_left) - n_left)]] = True
    return picks


Sampler = Callable[[np.ndarray, np.ndarray, Sequence[np.random.Generator]], np.ndarray]


def make_sampler(config: MaskingConfig, units: np.ndarray | None) -> Sampler:
    """Bind a strategy to a block, returning f(allowed, budgets, rngs). Unit
    strategies take the block's units as ``sample_units`` reads them;
    uniform and span take None."""
    if config.strategy == "uniform":
        return sample_uniform
    if config.strategy == "span":
        return lambda allowed, budgets, rngs: sample_span(
            allowed, budgets, config.mean_span, rngs)
    return lambda allowed, budgets, rngs: sample_units(units, allowed, budgets, rngs)


# ---------------------------------------------------------------------------
# planning


def _maskable(rows: np.ndarray, vocab: Vocab) -> np.ndarray:
    """Positions eligible for corruption (neither pad nor sep), per row."""
    return (rows != vocab.pad_id) & (rows != vocab.sep_id)


def _check_room(n: np.ndarray, c: np.ndarray, k: int, e: np.ndarray) -> None:
    """InfeasibleError for the first row whose k disjoint duplicates of c
    corrupted positions, or whose e extra same-token predictions beside c
    corrupted ones, do not fit its n maskable positions; a row that fails
    both reports its duplicates, which are planned first."""
    over = (k * c > n) | (e > n - c)
    if over.any():
        r = over.argmax()
        if k * c[r] > n[r]:
            raise InfeasibleError(
                f"disjoint duplicates infeasible: {k} x {c[r]} corrupted positions "
                f"> {n[r]} maskable positions")
        raise InfeasibleError(
            f"{e[r]} extra same-token predictions requested but only "
            f"{n[r] - c[r]} untouched positions remain")


def _predicted(picks: np.ndarray, budget: np.ndarray, c: np.ndarray,
               rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """The picks each row predicts: all c of them, or a uniform subset of
    budget[r] (one ``choice``) where the budget is smaller."""
    rows = np.flatnonzero(budget < c)
    if not len(rows):
        return picks
    predicted = picks.copy()
    predicted[rows] = False
    predicted.ravel()[np.flatnonzero(picks)[_draws(rngs, rows, c, budget,
                                                   np.cumsum(c) - c)]] = True
    return predicted


def plan_decoupled(rows: np.ndarray, vocab: Vocab, sampler: Sampler, config: MaskingConfig,
                   rngs: Sequence[np.random.Generator],
                   source_sequence: np.ndarray) -> PlanBlock:
    """All-MASK plans for a block of windows under decoupled rates.

    With c = floor(m_corr * n) and p = floor(m_pred * n), m_corr and m_pred
    the config's rates and n a row's maskable positions: equal rates give
    one plan predicting all c corrupted positions; a lower prediction rate
    one plan predicting a uniform subset of p of them. A higher prediction
    rate gives k = ceil(m_pred/m_corr) duplicate plans with pairwise
    disjoint corruption sets; each predicts everything it corrupts, except
    the last, which predicts a uniform subset of min(c, p - (k-1)*c) of its
    positions. For each duplicate in turn, every row is sampled, then every
    row draws its subset. A row's k plans are adjacent, in duplicate order.
    """
    m_corr, m_pred = config.corruption_rate, config.prediction_rate
    R, L = rows.shape
    maskable = _maskable(rows, vocab)
    n = np.count_nonzero(maskable, axis=1)
    c = _exact_counts(m_corr, n)
    p = _exact_counts(m_pred, n)
    k = 1 if m_pred <= m_corr else int(math.ceil(m_pred / m_corr - _EPS))
    _check_room(n, c, k, _exact_counts(config.extra_same, n))
    corrupted = np.empty((R, k, L), dtype=bool)
    predicted = np.empty((R, k, L), dtype=bool)
    free = maskable                     # maskable and not yet corrupted
    for d in range(k):
        picks = sampler(free, c, rngs)
        corrupted[:, d] = picks
        predicted[:, d] = _predicted(picks, c if d < k - 1 else p - d * c, c, rngs)
        free = free & ~picks
    _, positions = corrupted.reshape(R * k, L).nonzero()
    plan, pred_positions = predicted.reshape(R * k, L).nonzero()
    return PlanBlock(counts=np.repeat(c, k), positions=positions,
                     kinds=np.zeros(len(positions), dtype=np.uint8), replacements=_NO_IDS,
                     target_counts=np.bincount(plan, minlength=R * k),
                     pred_positions=pred_positions,
                     pred_originals=rows[plan // k, pred_positions],
                     duplicate_index=np.tile(np.arange(k), R),
                     source_sequence=np.repeat(source_sequence, k))


def largest_remainder(total: int, proportions: tuple[float, ...]) -> list[int]:
    """Apportion `total` into integer counts matching the proportions.

    Leftover seats go to the largest fractional remainders; remainder ties
    break by position order, keeping the result deterministic.
    """
    quotas = [total * p for p in proportions]
    counts = [int(math.floor(q + _EPS)) for q in quotas]
    short = total - sum(counts)
    order = sorted(range(len(quotas)),
                   key=lambda i: (-(quotas[i] - math.floor(quotas[i] + _EPS)), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


@functools.lru_cache(maxsize=4096)
def _apportioned(n_act: int, policy: tuple[float, float, float]) -> tuple[int, ...]:
    """``largest_remainder(n_act, policy)``, shared."""
    return tuple(largest_remainder(n_act, policy))


@functools.lru_cache(maxsize=64)
def _special_thresholds(special_ids: tuple[int, ...]) -> np.ndarray:
    """s_i - i for the sorted special ids s_0 < s_1 < s_2: a draw d over the
    non-special ids maps to d plus the number of thresholds at or below d.
    Read-only, as it is shared."""
    thresholds = np.sort(np.array(special_ids, dtype=np.int64)) - np.arange(len(special_ids))
    thresholds.setflags(write=False)
    return thresholds


def _random_replacements(draws: np.ndarray, vocab: Vocab) -> np.ndarray:
    """Uniform draws over range(vocab.size - 3) as ids of the vocabulary
    excluding mask/pad/sep."""
    return draws + _special_thresholds(vocab.special_ids).searchsorted(draws, "right")


def apply_policy(plans: PlanBlock, config: MaskingConfig, vocab: Vocab,
                 rngs: Sequence[np.random.Generator], rows: np.ndarray) -> PlanBlock:
    """Partition each plan's mask actions into mask/random/same replacements.

    ``rngs[i]`` and ``rows[i]`` are plan i's generator and window. Counts
    follow exact largest-remainder apportionment of config.policy (or
    per-token draws under policy_sampling="bernoulli"). The drawn kinds go
    to the plan's positions in a random permutation order, and random
    replacements are handed out in that same order. extra_same adds
    same-token predictions on previously untouched maskable positions; those
    join the prediction set but are never corrupted. Each plan in turn makes
    its generator calls (Bernoulli kinds, ``permutation``, ``integers``,
    the extra ``choice``); the rest is array work over the block.
    """
    if plans.kinds.any():
        raise DataError("apply_policy requires all-mask plans")
    P, L = rows.shape
    n_act = plans.counts
    policy = tuple(config.policy)
    bernoulli = config.policy_sampling == "bernoulli"
    split = np.array([_apportioned(m, policy) for m in n_act.tolist()],
                     dtype=np.int64).reshape(P, 3)
    extra = room = np.zeros(P, dtype=np.int64)
    if config.extra_same > 0:
        maskable = _maskable(rows, vocab)
        n = np.count_nonzero(maskable, axis=1)
        extra = _exact_counts(config.extra_same, n)
        room = n - n_act
        _check_room(n, n_act, 1, extra)
    probs = np.asarray(policy) / sum(policy)
    drawn, perms, draws, chosen = [], [], [], []
    for rng, m, n_random, e, free in zip(rngs, n_act.tolist(), split[:, 1].tolist(),
                                         extra.tolist(), room.tolist()):
        if bernoulli:
            drawn.append(rng.choice(3, size=m, p=probs).astype(np.uint8))
            n_random = int(np.count_nonzero(drawn[-1] == RANDOM))
        perms.append(rng.permutation(m))
        if n_random:
            draws.append(rng.integers(0, vocab.size - 3, size=n_random))
        if e:
            chosen.append(rng.choice(free, size=e, replace=False))
    start = np.repeat(np.cumsum(n_act) - n_act, n_act)
    # the permutation sends the j-th drawn kind of a plan to its perm[j]-th position
    at = np.concatenate(perms) + start
    if bernoulli:
        drawn = np.concatenate(drawn)
    else:
        j = np.arange(len(at)) - start
        drawn = ((j >= np.repeat(split[:, 0], n_act)).astype(np.uint8)
                 + (j >= np.repeat(split[:, 0] + split[:, 1], n_act)))
    kinds = np.empty(len(at), dtype=np.uint8)
    kinds[at] = drawn
    # each RANDOM position takes the next draw of its plan, in permutation order
    replacement = np.empty(len(at), dtype=np.int64)
    if draws:
        replacement[at[drawn == RANDOM]] = _random_replacements(np.concatenate(draws), vocab)
    replacements = replacement[kinds == RANDOM]
    if not chosen:
        return replace(plans, kinds=kinds, replacements=replacements)
    # the extra positions join each plan's positions and targets on (plans x L)
    # grids, which come back in (plan, position) order; 255 marks no position
    grid = np.full(P * L, 255, dtype=np.uint8)
    grid[np.repeat(np.arange(P) * L, n_act) + plans.positions] = kinds
    untouched = np.flatnonzero(maskable.ravel() & (grid == 255))
    some = extra > 0
    added = untouched[np.concatenate(chosen)
                      + np.repeat((np.cumsum(room) - room)[some], extra[some])]
    grid[added] = SAME
    touched = np.flatnonzero(grid != 255)
    targets = np.zeros(P * L, dtype=bool)
    targets[np.repeat(np.arange(P) * L, plans.target_counts) + plans.pred_positions] = True
    targets[added] = True
    targets = np.flatnonzero(targets)
    return replace(
        plans, counts=np.bincount(touched // L, minlength=P), positions=touched % L,
        kinds=grid[touched], replacements=replacements,
        target_counts=np.bincount(targets // L, minlength=P), pred_positions=targets % L,
        pred_originals=rows.ravel()[targets])


def materialize(rows: np.ndarray, plans: PlanBlock, vocab: Vocab) -> MaskedBlock:
    """Apply plan i of the block to a copy of rows[i], its window's ids, all
    at once. ``rows`` becomes the block's ``original_ids`` and is never
    written (it may be read-only). A position outside the window, a special
    token under a plan position, a replacement count that does not match
    the RANDOM kinds, a target whose original id differs from the window, a
    plan count that differs from the row count, or arrays that do not match
    their counts raise IntegrityError.
    """
    n_rows, L = rows.shape
    if len(plans) != n_rows:
        raise IntegrityError(f"block has {n_rows} rows but {len(plans)} plans")
    positions, kinds = plans.positions, plans.kinds
    target_positions, target_originals = plans.pred_positions, plans.pred_originals
    if (plans.counts.sum() != len(positions) or len(kinds) != len(positions)
            or plans.target_counts.sum() != len(target_positions)
            or len(target_originals) != len(target_positions)
            or not len(plans.duplicate_index) == len(plans.source_sequence) == n_rows):
        raise IntegrityError("plan arrays do not match their counts")
    row_of = np.arange(n_rows)
    outside = (positions < 0) | (positions >= L)
    if outside.any():
        raise IntegrityError(f"plan position {positions[outside.argmax()]} outside window "
                             f"of length {L}")
    flat = np.repeat(row_of * L, plans.counts) + positions
    held = np.take(rows, flat)
    special = (held == vocab.mask_id) | (held == vocab.pad_id) | (held == vocab.sep_id)
    if special.any():
        raise IntegrityError("plan touches special token at position "
                             f"{positions[special.argmax()]}")
    is_random = kinds == RANDOM
    if (kinds > SAME).any() or np.count_nonzero(is_random) != len(plans.replacements):
        raise IntegrityError("plan kinds and replacements do not line up")

    outside = (target_positions < 0) | (target_positions >= L)
    if outside.any():
        raise IntegrityError(f"prediction position {target_positions[outside.argmax()]} "
                             f"outside window of length {L}")
    truth = np.take(rows, np.repeat(row_of * L, plans.target_counts) + target_positions)
    wrong = truth != target_originals
    if wrong.any():
        i = wrong.argmax()
        raise IntegrityError(f"prediction at {target_positions[i]} expects id "
                             f"{target_originals[i]} but window holds {truth[i]}")

    values = np.where(kinds == MASK, vocab.mask_id, held)
    values[is_random] = plans.replacements
    corrupted_ids = rows.copy()
    np.put(corrupted_ids, flat, values)
    corrupted = np.zeros(rows.shape, dtype=bool)
    np.put(corrupted, flat[kinds != SAME], True)
    return MaskedBlock(original_ids=rows, corrupted_ids=corrupted_ids, corrupted=corrupted,
                       target_counts=plans.target_counts,
                       target_positions=target_positions, target_originals=target_originals,
                       duplicate_index=plans.duplicate_index,
                       source_sequence=plans.source_sequence)


# ---------------------------------------------------------------------------
# streaming drivers


def _plan_block(rows: np.ndarray, vocab: Vocab, config: MaskingConfig,
                rngs: Sequence[np.random.Generator], units: Sequence[np.ndarray] | None,
                source_sequence: np.ndarray) -> PlanBlock:
    """Every plan of a block of windows: sampling, decoupling, policy.
    ``units`` holds each row's ``segment_block`` unit array under a unit
    strategy, else None."""
    if units is not None:
        L = rows.shape[1]
        shift = np.repeat(np.arange(len(units)) * L, [len(u) for u in units])
        units = np.concatenate(units).reshape(-1, 2) + shift[:, np.newaxis]
    plans = plan_decoupled(rows, vocab, make_sampler(config, units), config, rngs,
                           source_sequence)
    if config.policy != (1.0, 0.0, 0.0) or config.extra_same > 0.0 \
            or config.policy_sampling == "bernoulli":
        k = len(plans) // len(rows)
        plans = apply_policy(plans, config, vocab, [rng for rng in rngs for _ in range(k)],
                             np.repeat(rows, k, axis=0))
    return plans


def plan_window(window: TokenSequence, vocab: Vocab, config: MaskingConfig,
                rng: np.random.Generator, units: np.ndarray | None,
                source_sequence: int = 0) -> list[MaskPlan]:
    """All plans for one window, as a one-row block's MaskPlans. ``units``
    is the window's ``segment_block`` unit array under a unit strategy, else
    None."""
    units = None if units is None else [np.asarray(units, dtype=np.int64).reshape(-1, 2)]
    return _plan_block(window.ids[np.newaxis], vocab, config, [rng], units,
                       np.array([source_sequence], dtype=np.int64)).plans()


def generate_plans(ds: PackedDataset, config: MaskingConfig,
                   pmi_vocab: PmiVocabulary | None = None,
                   epoch: int = 0) -> Iterator[PlanBlock]:
    """One epoch's plans in seeded stream order, one PlanBlock per block of
    BLOCK_EXAMPLES windows; ``generate_blocks`` materializes each. A
    window's duplicates are adjacent, and unit strategies segment a block's
    windows in one ``segment_block`` call."""
    stream = epoch_stream(ds, config.seed, epoch)
    while block := list(itertools.islice(stream, BLOCK_EXAMPLES)):
        idx, rngs = zip(*block)
        idx = np.array(idx, dtype=np.int64)
        rows = ds.ids[idx]
        units = None
        if config.strategy in UNIT_STRATEGIES:
            units = segment_block(rows, ds.word_starts[idx], ds.vocab, config.strategy,
                                  pmi_vocab)
        yield _plan_block(rows, ds.vocab, config, rngs, units, idx)


def generate_blocks(ds: PackedDataset, config: MaskingConfig,
                    pmi_vocab: PmiVocabulary | None = None,
                    epoch: int = 0) -> Iterator[MaskedBlock]:
    """One epoch's examples in stream order, each ``generate_plans`` block
    materialized; the CLI's `mask`, `stats` and `ppl` all read them."""
    for plans in generate_plans(ds, config, pmi_vocab, epoch):
        yield materialize(ds.ids[plans.source_sequence], plans, ds.vocab)
