"""Mask planning: strategies, decoupled corruption/prediction, policies.

A MaskPlan records which positions get corrupted and which positions are
prediction targets; the two sets coincide unless the corruption and
prediction rates are decoupled. Budgets are exact: floor(rate * number of
maskable positions), never a per-token coin flip (a Bernoulli variant of
the replacement policy is available behind ``policy_sampling``).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
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


def sample_uniform(allowed: np.ndarray, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly `budget` positions uniformly without replacement."""
    if budget > len(allowed):
        raise InfeasibleError(f"budget {budget} exceeds {len(allowed)} maskable positions")
    if budget == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(allowed, size=budget, replace=False))


def _composition(total: int, parts: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random composition of `total` into `parts` parts >= 1."""
    sizes = np.empty(parts, dtype=np.int64)
    sizes[-1] = total
    if parts > 1:
        # the sorted cut points, then each part as the difference of its bounds
        cuts = rng.choice(total - 1, size=parts - 1, replace=False)
        cuts.sort()
        sizes[:-1] = cuts + 1
        sizes[1:] -= sizes[:-1]
    return sizes


def sample_span(allowed: np.ndarray, budget: int, mean_span: float,
                rng: np.random.Generator) -> np.ndarray:
    """T5-style noise spans with the given target mean length.

    Span lengths are a uniform composition of the budget; gaps a uniform
    composition of the remainder (interior gaps >= 1 where feasible). For
    very high budgets the span count is reduced to the largest feasible
    value, so realized spans get longer than the target mean.
    """
    n = len(allowed)
    if budget > n:
        raise InfeasibleError(f"budget {budget} exceeds {n} maskable positions")
    if budget == 0:
        return np.empty(0, dtype=np.int64)
    # a quotient beyond the budget (inf for a tiny mean_span) is capped below
    num_spans = max(1, int(round(min(budget / mean_span, budget))))
    remainder = n - budget
    # all num_spans + 1 gaps must be >= 1; reduce the span count when the
    # remainder cannot supply that many gaps
    num_spans = max(1, min(num_spans, budget, remainder - 1))
    lengths = _composition(budget, num_spans, rng)
    if remainder >= num_spans + 1:
        gaps = _composition(remainder, num_spans + 1, rng)
    else:
        # single span, remainder too small for interior gaps: ends may be 0
        gaps = _composition(remainder + 2, 2, rng)
        gaps[0] -= 1
        gaps[-1] -= 1
    # span i starts after the gaps before it and the spans before it, so
    # the k-th pick is allowed[k + the gaps before its span]
    return allowed[np.repeat(np.cumsum(gaps[:-1]), lengths) + np.arange(budget)]


def sample_units(units: np.ndarray | Sequence[tuple[int, int]], allowed: np.ndarray,
                 budget: int, rng: np.random.Generator) -> np.ndarray:
    """Mask whole units; fill any leftover budget with single positions.

    ``units`` are disjoint, non-empty half-open (start, end) ranges, as
    ``segment_block`` returns them, and ``allowed`` holds distinct positions
    in ascending order. A unit is usable when every position of it is
    allowed. Usable units are drawn in a uniformly random order and accepted
    only when they fit the remaining budget in full; any budget left after
    them goes to a uniform draw from the allowed positions that no accepted
    unit covers.
    """
    n = len(allowed)
    if budget > n:
        raise InfeasibleError(f"budget {budget} exceeds {n} maskable positions")
    if budget == 0:
        return np.empty(0, dtype=np.int64)
    units = np.asarray(units, dtype=np.int64).reshape(-1, 2)
    lengths = units[:, 1] - units[:, 0]
    # the positions below each bound that are not allowed: a unit is usable
    # when as many lie below its end as below its start
    gaps = units - allowed.searchsorted(units)
    usable = (gaps[:, 0] == gaps[:, 1]).nonzero()[0]
    order = usable[rng.permutation(len(usable))]
    # the units before the first that overflows the budget all fit
    total = lengths[order].cumsum()
    fit = int(total.searchsorted(budget, "right"))
    remaining = budget - int(total[fit - 1]) if fit else budget
    taken = units[order[:fit]]
    if remaining and fit < len(order):
        rest = order[fit + 1:]
        more = []
        for j, length in zip(rest.tolist(), lengths[rest].tolist()):
            if length <= remaining:
                more.append(j)
                remaining -= length
                if remaining == 0:
                    break
        taken = np.concatenate([taken, units[more]])
    # +1 at each taken start and -1 at its end: the running sum is 1 inside
    # a taken unit, so the picked positions come out in ascending order
    size = int(allowed[-1]) + 1
    inside = np.zeros(size + 1, dtype=np.int8)
    inside[taken[:, 0]] = 1
    inside[taken[:, 1]] -= 1
    in_unit = inside[:size].cumsum(dtype=np.int8).view(bool)
    picked = in_unit.nonzero()[0]
    if remaining:
        leftover = allowed[~in_unit[allowed]]
        fill = rng.choice(leftover, size=remaining, replace=False)
        picked = np.sort(np.concatenate([picked, fill]))
    return picked


Sampler = Callable[[np.ndarray, int, np.random.Generator], np.ndarray]


def make_sampler(config: MaskingConfig, units: np.ndarray | None) -> Sampler:
    """Bind a strategy to a window, returning f(allowed, budget, rng). Unit
    strategies take the window's ``segment_block`` unit array as ``units``;
    uniform and span take None."""
    if config.strategy == "uniform":
        return sample_uniform
    if config.strategy == "span":
        return lambda allowed, budget, rng: sample_span(
            allowed, budget, config.mean_span, rng)
    return lambda allowed, budget, rng: sample_units(units, allowed, budget, rng)


# ---------------------------------------------------------------------------
# planning


def plan_decoupled(window: TokenSequence, vocab: Vocab, sampler: Sampler,
                   config: MaskingConfig, rng: np.random.Generator,
                   source_sequence: int = 0) -> list[MaskPlan]:
    """Plans for one window under decoupled corruption/prediction rates.

    With c = floor(m_corr * n) and p = floor(m_pred * n), m_corr and m_pred
    the config's rates and n the maskable positions: equal rates give one
    plan predicting all c corrupted positions; a lower prediction rate one
    plan predicting a uniform subset of p of them. A higher prediction rate
    gives k = ceil(m_pred/m_corr) duplicate plans with pairwise disjoint
    corruption sets; each predicts everything it corrupts, except the last,
    which predicts a uniform subset of min(c, p - (k-1)*c) of its positions.
    """
    m_corr, m_pred = config.corruption_rate, config.prediction_rate
    maskable = window.maskable_positions(vocab)
    n = len(maskable)
    c = exact_count(m_corr, n)
    p = exact_count(m_pred, n)
    ids = window.ids

    # every sampler returns ascending positions, so only a subset drawn by
    # rng.choice needs sorting
    def make_plan(positions: np.ndarray, budget: int, dup: int) -> MaskPlan:
        predictions = (np.sort(rng.choice(positions, size=budget, replace=False))
                       if budget < len(positions) else positions)
        return MaskPlan(positions=positions, kinds=np.zeros(len(positions), dtype=np.uint8),
                        replacements=_NO_IDS, pred_positions=predictions,
                        pred_originals=ids[predictions], duplicate_index=dup,
                        source_sequence=source_sequence)

    if m_pred <= m_corr:
        return [make_plan(sampler(maskable, c, rng), p, 0)]
    k = int(math.ceil(m_pred / m_corr - _EPS))
    if k * c > n:
        raise InfeasibleError(
            f"disjoint duplicates infeasible: {k} x {c} corrupted positions "
            f"> {n} maskable positions")
    plans: list[MaskPlan] = []
    free = np.zeros(len(ids), dtype=bool)      # maskable and not yet corrupted
    free[maskable] = True
    remaining = maskable
    for d in range(k):
        positions = sampler(remaining, c, rng)
        plans.append(make_plan(positions, c if d < k - 1 else p - d * c, d))
        free[positions] = False
        remaining = np.flatnonzero(free)
    return plans


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
def _exact_kinds(n_act: int, policy: tuple[float, float, float]) -> np.ndarray:
    """The kind codes of n_act actions under exact apportionment, MASK codes
    first, then RANDOM, then SAME; read-only, as it is shared."""
    kinds = np.repeat(np.arange(3, dtype=np.uint8), largest_remainder(n_act, policy))
    kinds.setflags(write=False)
    return kinds


@functools.lru_cache(maxsize=64)
def _special_thresholds(special_ids: tuple[int, ...]) -> np.ndarray:
    """s_i - i for the sorted special ids s_0 < s_1 < s_2: a draw d over the
    non-special ids maps to d plus the number of thresholds at or below d.
    Read-only, as it is shared."""
    thresholds = np.sort(np.array(special_ids, dtype=np.int64)) - np.arange(len(special_ids))
    thresholds.setflags(write=False)
    return thresholds


def _random_replacements(count: int, vocab: Vocab, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws over the vocabulary excluding mask/pad/sep ids."""
    draws = rng.integers(0, vocab.size - 3, size=count)
    return draws + _special_thresholds(vocab.special_ids).searchsorted(draws, "right")


def apply_policy(plan: MaskPlan, config: MaskingConfig, vocab: Vocab,
                 rng: np.random.Generator, window: TokenSequence) -> MaskPlan:
    """Partition a plan's mask actions into mask/random/same replacements.

    Counts follow exact largest-remainder apportionment of config.policy
    (or per-token draws under policy_sampling="bernoulli"). The drawn kinds
    go to the plan's positions in a random permutation order, and random
    replacements are handed out in that same order. extra_same adds
    same-token predictions on previously untouched maskable positions; those
    join the prediction set but are never corrupted. The plan's positions
    and predictions must be ascending, as ``plan_decoupled`` makes them.
    """
    if plan.kinds.any():
        raise DataError("apply_policy requires an all-mask plan")
    n_act = len(plan.positions)
    if config.policy_sampling == "exact":
        drawn = _exact_kinds(n_act, tuple(config.policy))
    else:
        drawn = rng.choice(3, size=n_act,
                           p=np.asarray(config.policy) / sum(config.policy)).astype(np.uint8)
    perm = rng.permutation(n_act)
    positions = plan.positions
    kinds = np.empty(n_act, dtype=np.uint8)
    kinds[perm] = drawn
    # the positions that draw RANDOM, in permutation order; each takes the
    # next replacement
    random_at = perm[drawn == RANDOM]
    draws = _random_replacements(len(random_at), vocab, rng) if len(random_at) else _NO_IDS
    # extra positions are SAME and plan positions ascend, so the RANDOM
    # positions keep their relative order under the sort below
    replacements = draws[np.argsort(random_at)]
    pred_positions, pred_originals = plan.pred_positions, plan.pred_originals
    maskable = window.maskable_positions(vocab) if config.extra_same > 0 else _NO_IDS
    e = exact_count(config.extra_same, len(maskable))
    if e:
        free = np.zeros(len(window.ids), dtype=bool)
        free[maskable] = True
        free[positions] = False
        candidates = np.flatnonzero(free)
        if e > len(candidates):
            raise InfeasibleError(
                f"{e} extra same-token predictions requested but only "
                f"{len(candidates)} untouched positions remain")
        chosen = rng.choice(candidates, size=e, replace=False)
        positions = np.concatenate([positions, chosen])
        kinds = np.concatenate([kinds, np.full(e, SAME, dtype=np.uint8)])
        pred_positions = np.concatenate([pred_positions, chosen])
        pred_originals = np.concatenate([pred_originals, window.ids[chosen]])
        order = np.argsort(pred_positions)
        pred_positions, pred_originals = pred_positions[order], pred_originals[order]
        order = np.argsort(positions)
        positions, kinds = positions[order], kinds[order]
    return MaskPlan(positions=positions, kinds=kinds, replacements=replacements,
                    pred_positions=pred_positions, pred_originals=pred_originals,
                    duplicate_index=plan.duplicate_index,
                    source_sequence=plan.source_sequence)


_EMPTY_PLAN = MaskPlan(positions=_NO_IDS, kinds=np.empty(0, dtype=np.uint8),
                       replacements=_NO_IDS, pred_positions=_NO_IDS, pred_originals=_NO_IDS)


def materialize(rows: np.ndarray, plans: Sequence[MaskPlan], vocab: Vocab) -> MaskedBlock:
    """Apply plans[i] to a copy of rows[i], its window's ids, all at once.
    ``rows`` becomes the block's ``original_ids`` and is never written (it
    may be read-only). A position outside the window, a special token under
    a plan position, a replacement count that does not match the RANDOM
    kinds, a target whose original id differs from the window, or a plan
    count that differs from the row count raises IntegrityError.
    """
    n_rows, L = rows.shape
    if len(plans) != n_rows:
        raise IntegrityError(f"block has {n_rows} rows but {len(plans)} plans")
    # a block without plans concatenates one empty plan, so that its arrays
    # keep their dtypes
    parts = plans or [_EMPTY_PLAN]
    row_of = np.arange(n_rows)
    counts = np.fromiter(map(len, (p.positions for p in plans)), dtype=np.int64, count=n_rows)
    positions = np.concatenate([p.positions for p in parts])
    kinds = np.concatenate([p.kinds for p in parts])
    outside = (positions < 0) | (positions >= L)
    if outside.any():
        raise IntegrityError(f"plan position {positions[outside.argmax()]} outside window "
                             f"of length {L}")
    flat = np.repeat(row_of * L, counts) + positions
    held = np.take(rows, flat)
    special = (held == vocab.mask_id) | (held == vocab.pad_id) | (held == vocab.sep_id)
    if special.any():
        raise IntegrityError("plan touches special token at position "
                             f"{positions[special.argmax()]}")
    is_random = kinds == RANDOM
    n_random = np.bincount(np.repeat(row_of, counts)[is_random], minlength=n_rows)
    replacements = np.concatenate([p.replacements for p in parts])
    if (kinds > SAME).any() or not np.array_equal(
            n_random, [len(p.replacements) for p in plans]):
        raise IntegrityError("plan kinds and replacements do not line up")

    target_counts = np.fromiter(map(len, (p.pred_positions for p in plans)),
                                dtype=np.int64, count=n_rows)
    target_positions = np.concatenate([p.pred_positions for p in parts])
    target_originals = np.concatenate([p.pred_originals for p in parts])
    outside = (target_positions < 0) | (target_positions >= L)
    if outside.any():
        raise IntegrityError(f"prediction position {target_positions[outside.argmax()]} "
                             f"outside window of length {L}")
    truth = np.take(rows, np.repeat(row_of * L, target_counts) + target_positions)
    wrong = truth != target_originals
    if wrong.any():
        i = wrong.argmax()
        raise IntegrityError(f"prediction at {target_positions[i]} expects id "
                             f"{target_originals[i]} but window holds {truth[i]}")

    values = np.where(kinds == MASK, vocab.mask_id, held)
    values[is_random] = replacements
    corrupted_ids = rows.copy()
    np.put(corrupted_ids, flat, values)
    corrupted = np.zeros(rows.shape, dtype=bool)
    np.put(corrupted, flat[kinds != SAME], True)
    return MaskedBlock(original_ids=rows, corrupted_ids=corrupted_ids, corrupted=corrupted,
                       target_counts=target_counts,
                       target_positions=target_positions, target_originals=target_originals,
                       duplicate_index=np.fromiter((p.duplicate_index for p in plans),
                                                   dtype=np.int64, count=n_rows),
                       source_sequence=np.fromiter((p.source_sequence for p in plans),
                                                   dtype=np.int64, count=n_rows))


# ---------------------------------------------------------------------------
# streaming drivers


def plan_window(window: TokenSequence, vocab: Vocab, config: MaskingConfig,
                rng: np.random.Generator, units: np.ndarray | None,
                source_sequence: int = 0) -> list[MaskPlan]:
    """All plans for one window: strategy sampling, decoupling, policy.
    ``units`` is as for ``make_sampler``."""
    plans = plan_decoupled(window, vocab, make_sampler(config, units), config, rng,
                           source_sequence)
    if config.policy != (1.0, 0.0, 0.0) or config.extra_same > 0.0 \
            or config.policy_sampling == "bernoulli":
        plans = [apply_policy(p, config, vocab, rng, window) for p in plans]
    return plans


def generate_plans(ds: PackedDataset, config: MaskingConfig,
                   pmi_vocab: PmiVocabulary | None = None,
                   epoch: int = 0) -> Iterator[list[MaskPlan]]:
    """One epoch's MaskPlans in seeded stream order, one non-empty list per
    block of BLOCK_EXAMPLES windows; ``generate_blocks`` materializes each
    list. A window's duplicates are adjacent, and unit strategies segment a
    block's windows in one ``segment_block`` call."""
    stream = epoch_stream(ds, config.seed, epoch)
    while block := list(itertools.islice(stream, BLOCK_EXAMPLES)):
        if config.strategy in UNIT_STRATEGIES:
            rows = [idx for idx, _ in block]
            units = segment_block(ds.ids[rows], ds.word_starts[rows], ds.vocab,
                                  config.strategy, pmi_vocab)
        else:
            units = [None] * len(block)
        plans = [plan for (idx, rng), window_units in zip(block, units)
                 for plan in plan_window(ds[idx], ds.vocab, config, rng, window_units,
                                         source_sequence=idx)]
        if plans:
            yield plans


def generate_blocks(ds: PackedDataset, config: MaskingConfig,
                    pmi_vocab: PmiVocabulary | None = None,
                    epoch: int = 0) -> Iterator[MaskedBlock]:
    """One epoch's examples in stream order, each ``generate_plans`` list
    materialized as one block; the CLI's `mask`, `stats` and `ppl` all read
    them."""
    for plans in generate_plans(ds, config, pmi_vocab, epoch):
        yield materialize(ds.ids[[p.source_sequence for p in plans]], plans, ds.vocab)
