"""The per-window planner that the block planner in ``mlmpipe.masking``
replaced, kept as its oracle: one window at a time, with each sampling law,
the decoupling and the policy as they were. The block planner must make the
same generator calls on each window's generator, in the same order and with
the same sizes, and so return the same plans.
"""

import math
from typing import Callable, Sequence

import numpy as np

from mlmpipe.corpus import TokenSequence, Vocab
from mlmpipe.errors import DataError, InfeasibleError
from mlmpipe.masking import (_EPS, RANDOM, SAME, MaskingConfig, MaskPlan, exact_count,
                             largest_remainder)

_NO_IDS = np.empty(0, dtype=np.int64)


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


def _exact_kinds(n_act: int, policy: tuple[float, float, float]) -> np.ndarray:
    """The kind codes of n_act actions under exact apportionment, MASK codes
    first, then RANDOM, then SAME."""
    return np.repeat(np.arange(3, dtype=np.uint8), largest_remainder(n_act, policy))


def _random_replacements(count: int, vocab: Vocab, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws over the vocabulary excluding mask/pad/sep ids."""
    draws = rng.integers(0, vocab.size - 3, size=count)
    thresholds = np.sort(np.array(vocab.special_ids, dtype=np.int64)) - np.arange(3)
    return draws + thresholds.searchsorted(draws, "right")


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


