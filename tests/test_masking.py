import dataclasses
import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmpipe import masking
from mlmpipe.corpus import Vocab, epoch_stream
from mlmpipe.errors import ConfigError, DataError, InfeasibleError, IntegrityError
from mlmpipe.masking import (MASK, RANDOM, SAME, ActionKind, MaskAction, MaskingConfig,
                             MaskPlan, apply_policy, effective_rates, exact_count,
                             generate_blocks, generate_plans, largest_remainder,
                             make_sampler, materialize,
                             plan_decoupled, plan_window, sample_span,
                             sample_uniform, sample_units)
from mlmpipe.pmi import PmiVocabulary, segment_units
from mlmpipe.rng import substream

from conftest import (VOCAB, full_window, make_window, mask_plan, materialize_one, packed,
                      packed_dataset, rates, window_units)


def rng_for(i=0):
    return substream(1234, 0, i)


class TestConfig:
    def test_policy_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            MaskingConfig(policy=(0.5, 0.2, 0.2))

    def test_rate_range(self):
        with pytest.raises(ConfigError):
            MaskingConfig(**rates(1.5))

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            MaskingConfig(strategy="stripes")

    def test_zero_corruption_with_prediction(self):
        with pytest.raises(ConfigError):
            MaskingConfig(**rates(0.0, 0.2))

    def test_coupled_rates_default(self):
        cfg = MaskingConfig()
        assert cfg.corruption_rate == cfg.prediction_rate == 0.15


class TestSampleUniform:
    def test_budget_from_rate(self):
        # L=128, m=0.15 -> floor(0.15*128) = 19
        assert exact_count(0.15, 128) == 19
        win = full_window()
        positions = sample_uniform(win.maskable_positions(VOCAB), 19, rng_for())
        assert len(positions) == 19
        assert len(set(positions.tolist())) == 19

    def test_zero_budget(self):
        win = full_window()
        assert len(sample_uniform(win.maskable_positions(VOCAB), 0, rng_for())) == 0

    def test_infeasible_budget(self):
        win = full_window(L=8)
        with pytest.raises(InfeasibleError):
            sample_uniform(win.maskable_positions(VOCAB), 9, rng_for())

    def test_hypergeometric_pair_probability(self):
        # P(two fixed positions both masked) = k(k-1)/(n(n-1))
        n, k, trials = 128, 51, 40_000
        allowed = np.arange(n)
        hits = 0
        for i in range(trials):
            picked = sample_uniform(allowed, k, rng_for(i))
            s = set(picked.tolist())
            if 10 in s and 11 in s:
                hits += 1
        expected = k * (k - 1) / (n * (n - 1))
        assert hits / trials == pytest.approx(expected, rel=0.05)


class TestSampleSpan:
    def test_mean_span_band(self):
        # budget 19 in round(19/3)=6 spans -> mean 19/6 by construction
        allowed = np.arange(128)
        lengths = []
        for i in range(2000):
            picked = sample_span(allowed, 19, 3.0, rng_for(i))
            assert len(picked) == 19
            runs = np.split(picked, np.where(np.diff(picked) != 1)[0] + 1)
            lengths.extend(len(r) for r in runs)
        mean = sum(lengths) / len(lengths)
        assert 2.7 <= mean <= 3.5

    def test_zero_budget(self):
        assert len(sample_span(np.arange(128), 0, 3.0, rng_for())) == 0

    def test_feasibility_reduction_single_span(self):
        # L=10, budget=9: gaps infeasible for >1 span -> one span of 9
        picked = sample_span(np.arange(10), 9, 3.0, rng_for())
        assert len(picked) == 9
        assert np.all(np.diff(picked) == 1)

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            sample_span(np.arange(10), 11, 3.0, rng_for())

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=500))
    @settings(max_examples=80, deadline=None)
    def test_exact_budget_any_rate(self, budget, salt):
        allowed = np.arange(64)
        picked = sample_span(allowed, budget, 3.0, rng_for(salt))
        assert len(picked) == budget
        assert len(set(picked.tolist())) == budget


    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0.0, max_value=1.0),
           st.sampled_from([1.0, 3.0, 8.0]), st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=150, deadline=None)
    def test_picks_equal_loop_reference(self, n, rate, mean_span, seed):
        # same generator calls, same picks as the span-by-span copy loop
        allowed = np.sort(np.random.default_rng(seed).choice(3 * n, size=n, replace=False))
        budget = int(rate * n)
        assert np.array_equal(sample_span(allowed, budget, mean_span, rng_for(seed)),
                              reference_sample_span(allowed, budget, mean_span, rng_for(seed)))


def reference_composition(total, parts, rng):
    if parts == 1:
        return np.array([total], dtype=np.int64)
    cuts = np.sort(rng.choice(total - 1, size=parts - 1, replace=False)) + 1
    return np.diff(np.concatenate([[0], cuts, [total]]))


def reference_sample_span(allowed, budget, mean_span, rng):
    """sample_span with its compositions built by concatenate/diff and its
    spans copied one at a time."""
    n = len(allowed)
    if budget == 0:
        return np.empty(0, dtype=np.int64)
    remainder = n - budget
    num_spans = max(1, min(max(1, int(round(budget / mean_span))), budget, remainder - 1))
    lengths = reference_composition(budget, num_spans, rng)
    if remainder >= num_spans + 1:
        gaps = reference_composition(remainder, num_spans + 1, rng)
    else:
        gaps = reference_composition(remainder + 2, 2, rng)
        gaps[0] -= 1
        gaps[-1] -= 1
    picked = np.empty(budget, dtype=np.int64)
    idx, out = int(gaps[0]), 0
    for i, length in enumerate(lengths.tolist()):
        picked[out:out + length] = allowed[idx:idx + length]
        out += length
        idx += length + int(gaps[i + 1])
    return picked


def oracle_sample_units(units, allowed, budget, rng):
    """The set-based unit sampler that the array sampler replaced, kept as
    its oracle: ``sample_units`` must make the same generator calls and
    return the same picks."""
    n = len(allowed)
    if budget > n:
        raise InfeasibleError(f"budget {budget} exceeds {n} maskable positions")
    if budget == 0:
        return np.empty(0, dtype=np.int64)
    allowed_set = set(allowed.tolist())
    usable = [u for u in units
              if (u[0] in allowed_set if u[1] - u[0] == 1
                  else allowed_set.issuperset(range(u[0], u[1])))]
    picked = []
    remaining = budget
    for j in rng.permutation(len(usable)):
        if remaining == 0:
            break
        start, end = usable[int(j)]
        if end - start <= remaining:
            picked.extend(range(start, end))
            remaining -= end - start
    if remaining > 0:
        leftover = np.array(sorted(allowed_set - set(picked)), dtype=np.int64)
        picked.extend(int(p) for p in rng.choice(leftover, size=remaining, replace=False))
    return np.sort(np.array(picked, dtype=np.int64))


def generator_state(rng):
    """Where a generator stands in its stream, as nested plain values."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return np.asarray(value).tolist()
    return plain(rng.bit_generator.state)


@st.composite
def unit_cases(draw):
    """(units, allowed, budget, seed): a partition of 0..L-1 into units with
    some units left out, a subset of the positions allowed (units may
    straddle disallowed ones), and a budget from 0 to one past the number
    of allowed positions."""
    L = draw(st.integers(1, 40))
    cuts = draw(st.sets(st.integers(1, L - 1), max_size=L)) if L > 1 else set()
    bounds = [0, *sorted(cuts), L]
    units = list(zip(bounds, bounds[1:]))
    if draw(st.booleans()):
        # multi-token units only, so budget is often left for the fill
        units = [(s, e) for s, e in units if e - s >= 2]
    keep = draw(st.lists(st.booleans(), min_size=len(units), max_size=len(units)))
    units = [u for u, k in zip(units, keep) if k]
    if draw(st.booleans()):
        allowed = np.arange(L)
    else:
        mask = draw(st.lists(st.booleans(), min_size=L, max_size=L))
        allowed = np.flatnonzero(mask)
    budget = draw(st.integers(0, len(allowed) + 1))
    return units, allowed, budget, draw(st.integers(0, 2 ** 32))


def check_against_oracle(units, allowed, budget, seed):
    array_units = np.array(units, dtype=np.int64).reshape(-1, 2)
    got_rng, want_rng = rng_for(seed), rng_for(seed)
    if budget > len(allowed):
        with pytest.raises(InfeasibleError):
            sample_units(array_units, allowed, budget, got_rng)
        with pytest.raises(InfeasibleError):
            oracle_sample_units(units, allowed, budget, want_rng)
        return
    got = sample_units(array_units, allowed, budget, got_rng)
    want = oracle_sample_units(units, allowed, budget, want_rng)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    assert generator_state(got_rng) == generator_state(want_rng)


class TestSampleUnitsOracle:
    @given(unit_cases())
    @settings(max_examples=400, deadline=None)
    def test_equals_set_oracle(self, case):
        check_against_oracle(*case)

    @pytest.mark.parametrize("budget", [0, 1, 5, 9, 10, 11])
    def test_budget_bounds(self, budget):
        # budget 0, the whole allowed set and one past it; units of 2 and 3
        # with a disallowed position inside one of them
        units = [(0, 2), (2, 5), (5, 7), (8, 11), (11, 12)]
        allowed = np.array([0, 1, 2, 3, 4, 5, 6, 8, 9, 11])
        check_against_oracle(units, allowed, budget, 7)

    def test_multi_token_units_leave_a_fill(self):
        # 2-token units and an odd budget: the last position comes from the fill
        units = [(0, 2), (2, 4), (4, 6)]
        for seed in range(20):
            check_against_oracle(units, np.arange(6), 3, seed)
        picked = sample_units(np.array(units), np.arange(6), 3, rng_for())
        assert len(picked) == 3 and np.all(np.diff(picked) > 0)


class TestSampleUnits:
    def test_unit_atomicity(self):
        units = [(2, 4), (5, 7)]
        for i in range(50):
            picked = set(sample_units(units, np.arange(10), 2, rng_for(i)).tolist())
            # a selected 2-token unit is fully masked or a single-fill happened
            for s, e in units:
                inside = picked & set(range(s, e))
                if inside and len(inside) < e - s:
                    # partial overlap can only come from single-position fill
                    assert len(picked) == 2
        # with budget 4 both units fit exactly; fills are impossible
        picked = set(sample_units(units, np.arange(10), 4, rng_for()).tolist())
        for s, e in units:
            inside = picked & set(range(s, e))
            assert inside in (set(), set(range(s, e))) or len(picked) == 4

    def test_fallback_single_position(self):
        # budget 1 with only 2-token units -> one uniformly chosen single
        units = [(0, 2), (2, 4)]
        picked = sample_units(units, np.arange(4), 1, rng_for())
        assert len(picked) == 1

    def test_budget_exactness_whole_words(self):
        # words of lengths 1, 2, 3 and budget 3 -> selected multiset sums to 3
        units = [(0, 1), (1, 3), (3, 6)]
        for i in range(100):
            picked = sample_units(units, np.arange(6), 3, rng_for(i))
            assert len(picked) == 3

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            sample_units([(0, 2)], np.arange(2), 3, rng_for())


class TestPlanDecoupled:
    def test_coupled_predicts_all(self):
        win = full_window()
        plans = plan_decoupled(win, VOCAB, sample_uniform, MaskingConfig(**rates(0.15)),
                               rng_for())
        assert len(plans) == 1
        assert len(plans[0].positions) == 19
        assert plans[0].pred_positions.tolist() == plans[0].positions.tolist()

    def test_lower_prediction_rate(self):
        # mask 40% (51), predict on 20% (25)
        win = full_window()
        plans = plan_decoupled(win, VOCAB, sample_uniform, MaskingConfig(**rates(0.40, 0.20)),
                               rng_for())
        assert len(plans) == 1
        assert len(plans[0].positions) == 51
        assert len(plans[0].pred_positions) == 25
        positions = set(plans[0].positions.tolist())
        assert all(p in positions for p in plans[0].pred_positions.tolist())

    def test_duplicates_disjoint(self):
        # corruption 0.20, prediction 0.40 -> 2 plans of 25, disjoint
        win = full_window()
        plans = plan_decoupled(win, VOCAB, sample_uniform, MaskingConfig(**rates(0.20, 0.40)),
                               rng_for())
        assert len(plans) == 2
        sets = [set(p.positions.tolist()) for p in plans]
        assert all(len(s) == 25 for s in sets)
        assert not sets[0] & sets[1]
        assert [p.duplicate_index for p in plans] == [0, 1]
        for p in plans:
            assert len(p.pred_positions) == 25

    def test_ceil_of_exact_ratio(self):
        # 0.40 / 0.20 must give k=2, not 3 (float division artifact)
        win = full_window()
        plans = plan_decoupled(win, VOCAB, sample_uniform, MaskingConfig(**rates(0.20, 0.40)),
                               rng_for())
        assert len(plans) == 2

    def test_infeasible_disjointness(self):
        # 0.40, 0.90 -> k=3, 3*51=153 > 128
        win = full_window()
        with pytest.raises(InfeasibleError):
            plan_decoupled(win, VOCAB, sample_uniform, MaskingConfig(**rates(0.40, 0.90)),
                           rng_for())


class TestLargestRemainder:
    def test_eighty_ten_ten_on_51(self):
        assert largest_remainder(51, (0.8, 0.1, 0.1)) == [41, 5, 5]

    def test_all_mask(self):
        assert largest_remainder(51, (1.0, 0.0, 0.0)) == [51, 0, 0]

    @given(st.integers(min_value=0, max_value=500),
           st.tuples(st.floats(0.01, 1), st.floats(0.01, 1), st.floats(0.01, 1)))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_total(self, total, weights):
        s = sum(weights)
        props = tuple(w / s for w in weights)
        counts = largest_remainder(total, props)
        assert sum(counts) == total
        assert all(c >= 0 for c in counts)


def policy_config(policy, extra_same=0.0, sampling="exact"):
    return MaskingConfig(policy=policy, extra_same=extra_same, policy_sampling=sampling)


class TestApplyPolicy:
    def _plan(self, win, budget=51):
        return plan_decoupled(win, VOCAB, sample_uniform, MaskingConfig(**rates(budget / 128)),
                              rng_for())[0]

    def test_exact_apportionment(self):
        win = full_window()
        plan = apply_policy(self._plan(win), policy_config((0.8, 0.1, 0.1)), VOCAB,
                            rng_for(1), win)
        kinds = plan.kinds.tolist()
        assert kinds.count(MASK) == 41
        assert kinds.count(RANDOM) == 5
        assert kinds.count(SAME) == 5

    def test_identity_policy(self):
        win = full_window()
        before = self._plan(win)
        after = apply_policy(before, policy_config((1.0, 0.0, 0.0)), VOCAB, rng_for(1), win)
        assert after.positions.tolist() == before.positions.tolist()
        assert all(k == MASK for k in after.kinds.tolist())

    def test_extra_same_predictions(self):
        # m=0.40 with extra_same=0.05 -> 51 corrupted + 6 same = 57 predictions
        win = full_window()
        plan = apply_policy(self._plan(win), policy_config((1.0, 0.0, 0.0), 0.05), VOCAB,
                            rng_for(1), win)
        assert len(plan.pred_positions) == 57
        assert len(plan.corrupted_positions) == 51

    def test_random_replacements_avoid_specials(self):
        win = full_window()
        plan = apply_policy(self._plan(win), policy_config((0.0, 1.0, 0.0)), VOCAB,
                            rng_for(1), win)
        assert len(plan.replacements) == len(plan.positions)
        for kind, replacement in zip(plan.kinds.tolist(), plan.replacements.tolist()):
            assert kind == RANDOM
            assert replacement not in VOCAB.special_ids
            assert 0 <= replacement < VOCAB.size

    def test_replacement_distribution_uniform(self):
        # over many draws every non-special id appears
        win = full_window()
        seen = set()
        for i in range(200):
            plan = apply_policy(self._plan(win), policy_config((0.0, 1.0, 0.0)), VOCAB,
                                rng_for(i), win)
            seen.update(plan.replacements.tolist())
        assert seen == set(range(VOCAB.size)) - set(VOCAB.special_ids)

    def test_requires_all_mask_plan(self):
        win = full_window()
        plan = apply_policy(self._plan(win), policy_config((0.8, 0.1, 0.1)), VOCAB,
                            rng_for(1), win)
        with pytest.raises(DataError):
            apply_policy(plan, policy_config((0.8, 0.1, 0.1)), VOCAB, rng_for(2), win)

    def test_extra_same_infeasible(self):
        win = full_window(L=10)
        plan = plan_decoupled(win, VOCAB, sample_uniform, MaskingConfig(**rates(0.9)),
                              rng_for())[0]
        with pytest.raises(InfeasibleError):
            apply_policy(plan, policy_config((1.0, 0.0, 0.0), 0.5), VOCAB, rng_for(1), win)

    def test_bernoulli_sampling_counts_vary(self):
        win = full_window()
        counts = set()
        for i in range(30):
            config = policy_config((0.8, 0.1, 0.1), sampling="bernoulli")
            plan = apply_policy(self._plan(win), config, VOCAB, rng_for(i), win)
            counts.add(plan.kinds.tolist().count(MASK))
        assert len(counts) > 1


# specials in the middle and at both ends of the vocabulary
SCATTERED = Vocab(size=1000, mask_id=999, pad_id=0, sep_id=500)


def oracle_apply_policy(plan, policy, extra_same, vocab, rng, window, sampling="exact"):
    """The policy step before its replacement map became one searchsorted
    and before it skipped sorting plans that were sorted already; kept as
    the oracle of ``apply_policy``."""
    n_act = len(plan.positions)
    if sampling == "exact":
        drawn = np.repeat(np.arange(3, dtype=np.uint8), largest_remainder(n_act, policy))
    else:
        drawn = rng.choice(3, size=n_act, p=np.asarray(policy) / sum(policy)).astype(np.uint8)
    perm = rng.permutation(n_act)
    positions = plan.positions
    kinds = np.empty(n_act, dtype=np.uint8)
    kinds[perm] = drawn
    repl = np.zeros(n_act, dtype=np.int64)
    random_at = perm[drawn == RANDOM]
    if len(random_at):
        draws = rng.integers(0, vocab.size - 3, size=len(random_at))
        for s in sorted(vocab.special_ids):
            draws[draws >= s] += 1
        repl[random_at] = draws
    pred_positions, pred_originals = plan.pred_positions, plan.pred_originals
    maskable = window.maskable_positions(vocab) if extra_same > 0 else np.empty(0, np.int64)
    e = exact_count(extra_same, len(maskable))
    if e:
        free = np.zeros(len(window.ids), dtype=bool)
        free[maskable] = True
        free[positions] = False
        chosen = rng.choice(np.flatnonzero(free), size=e, replace=False)
        positions = np.concatenate([positions, chosen])
        kinds = np.concatenate([kinds, np.full(e, SAME, dtype=np.uint8)])
        repl = np.concatenate([repl, np.zeros(e, dtype=np.int64)])
        pred_positions = np.concatenate([pred_positions, chosen])
        pred_originals = np.concatenate([pred_originals, window.ids[chosen]])
    order = np.argsort(pred_positions)
    pred_positions, pred_originals = pred_positions[order], pred_originals[order]
    order = np.argsort(positions)
    positions, kinds, repl = positions[order], kinds[order], repl[order]
    return MaskPlan(positions=positions, kinds=kinds, replacements=repl[kinds == RANDOM],
                    pred_positions=pred_positions, pred_originals=pred_originals,
                    duplicate_index=plan.duplicate_index,
                    source_sequence=plan.source_sequence)


def plan_fields(plan):
    return (plan.positions.tolist(), plan.kinds.tolist(), plan.replacements.tolist(),
            plan.pred_positions.tolist(), plan.pred_originals.tolist(),
            plan.duplicate_index, plan.source_sequence)


def block_fields(block):
    return tuple(getattr(block, f.name).tolist() for f in dataclasses.fields(block))


class AllDraws:
    """A stand-in generator whose ``integers`` returns every value of its
    range once, in order."""

    def integers(self, low, high, size):
        assert size == high - low
        return np.arange(low, high)


class TestPolicyOracle:
    @pytest.mark.parametrize("vocab", [
        SCATTERED, VOCAB, Vocab(size=12, mask_id=5, pad_id=6, sep_id=7),
        Vocab(size=9, mask_id=8, pad_id=3, sep_id=0),
    ], ids=["scattered", "first-three", "adjacent", "both-ends"])
    def test_replacement_map_on_every_draw(self, vocab):
        # each draw on and next to every threshold, against the loop that
        # shifts the draws past one special at a time
        n = vocab.size - 3
        want = np.arange(n)
        for s in sorted(vocab.special_ids):
            want[want >= s] += 1
        got = masking._random_replacements(n, vocab, AllDraws())
        assert got.tolist() == want.tolist()
        assert sorted(got.tolist()) == sorted(set(range(vocab.size)) - set(vocab.special_ids))

    @pytest.mark.parametrize("sampling", ["exact", "bernoulli"])
    @pytest.mark.parametrize("extra_same", [0.0, 0.1])
    @pytest.mark.parametrize("policy", [(0.8, 0.1, 0.1), (0.0, 1.0, 0.0), (0.5, 0.3, 0.2)])
    @pytest.mark.parametrize("rates", [(0.4, 0.4), (0.5, 0.3)])
    def test_equals_oracle(self, sampling, extra_same, policy, rates):
        config = MaskingConfig(corruption_rate=rates[0], prediction_rate=rates[1],
                               policy=policy, extra_same=extra_same, policy_sampling=sampling)
        gen = np.random.default_rng(17)
        for i in range(30):
            # ordinary ids on both sides of every special, a few pad and sep
            ids = gen.integers(1, 999, size=64)
            ids[ids == 500] = 501
            ids[gen.random(64) < 0.1] = SCATTERED.sep_id
            ids[64 - gen.integers(0, 8):] = SCATTERED.pad_id
            win = make_window(ids)
            plan = plan_decoupled(win, SCATTERED, sample_uniform, config, rng_for(i))[0]
            got_rng, want_rng = rng_for(1000 + i), rng_for(1000 + i)
            got = apply_policy(plan, config, SCATTERED, got_rng, win)
            want = oracle_apply_policy(plan, policy, extra_same, SCATTERED, want_rng, win,
                                       sampling)
            assert plan_fields(got) == plan_fields(want)
            assert generator_state(got_rng) == generator_state(want_rng)


class TestEffectiveRates:
    def test_eighty_ten_ten(self):
        cfg = MaskingConfig(**rates(0.40), policy=(0.8, 0.1, 0.1))
        corr, pred = effective_rates(cfg)
        assert corr == pytest.approx(0.36, abs=1e-12)
        assert pred == pytest.approx(0.36, abs=1e-12)

    def test_all_mask_default(self):
        cfg = MaskingConfig(**rates(0.40))
        assert effective_rates(cfg) == (0.40, 0.40)

    def test_decoupled_rates(self):
        cfg = MaskingConfig(**rates(0.2, 0.4), policy=(0.8, 0.1, 0.1))
        corr, pred = effective_rates(cfg)
        assert corr == pytest.approx(0.18, abs=1e-12)
        assert pred == pytest.approx(0.36, abs=1e-12)

    def test_five_percent_random(self):
        # 35% mask + 5% random of all tokens = policy (0.875, 0.125, 0) at m=0.40
        cfg = MaskingConfig(**rates(0.40), policy=(0.875, 0.125, 0.0))
        corr, pred = effective_rates(cfg)
        assert corr == pytest.approx(0.40, abs=1e-12)
        assert pred == pytest.approx(0.40, abs=1e-12)


class TestMaterialize:
    def test_empty_plan_identity(self):
        win = full_window()
        block = materialize_one(win, mask_plan([]))
        assert block.corrupted_ids[0].tolist() == win.ids.tolist()
        assert block.target_counts.tolist() == [0] and len(block.target_positions) == 0

    def test_mask_actions_write_mask_id(self):
        win = full_window()
        plan = plan_decoupled(win, VOCAB, sample_uniform, MaskingConfig(**rates(0.15)),
                              rng_for())[0]
        block = materialize_one(win, plan)
        positions = set(plan.positions.tolist())
        for i, (orig, got) in enumerate(zip(win.ids.tolist(), block.corrupted_ids[0].tolist())):
            if i in positions:
                assert got == VOCAB.mask_id
            else:
                assert got == orig
        assert list(zip(block.target_positions.tolist(), block.target_originals.tolist())) == \
            list(zip(plan.pred_positions.tolist(), plan.pred_originals.tolist()))

    def test_position_out_of_range(self):
        win = full_window(L=8)
        plan = mask_plan([9])
        with pytest.raises(IntegrityError):
            materialize_one(win, plan)

    def test_wrong_original_id(self):
        win = full_window()
        plan = mask_plan([], predictions=[(0, int(win.ids[0]) + 1)])
        with pytest.raises(IntegrityError):
            materialize_one(win, plan)

    def test_never_touches_special_positions(self):
        plan = mask_plan([1])
        win = make_window([5, VOCAB.sep_id, 6])
        with pytest.raises(IntegrityError):
            materialize_one(win, plan)


class TestStreamDeterminism:
    def test_identical_runs(self):
        ds = packed_dataset(n_docs=30)
        cfg = MaskingConfig(**rates(0.4), policy=(0.8, 0.1, 0.1), extra_same=0.02, seed=9)
        a = [block_fields(block) for block in generate_blocks(ds, cfg)]
        b = [block_fields(block) for block in generate_blocks(ds, cfg)]
        assert a == b

    def test_parallel_equals_serial(self):
        # consuming per-sequence substreams out of order gives identical masks
        ds = packed_dataset(n_docs=20)
        cfg = MaskingConfig(**rates(0.3), seed=5)
        serial = {p.source_sequence: p.positions.tolist()
                  for p in chain.from_iterable(generate_plans(ds, cfg))}
        scattered = {}
        for idx in reversed(range(len(ds))):
            rng = substream(cfg.seed, 0, idx)
            plan = plan_window(ds[idx], ds.vocab, cfg, rng, None,
                               source_sequence=idx)[0]
            scattered[idx] = plan.positions.tolist()
        assert serial == scattered

    @given(st.sampled_from(["uniform", "span", "whole_word", "pmi"]),
           st.sampled_from([0.0, 0.15, 0.4, 0.8]),
           st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_exact_budget_and_no_special_positions(self, strategy, m, seed):
        ds = packed_dataset(n_docs=4, seed=seed % 17)
        pv = PmiVocabulary(entries={(7, 8): 1.0, (10, 11, 12): 0.4})
        cfg = MaskingConfig(strategy=strategy, **rates(m), seed=seed)
        for plan in chain.from_iterable(generate_plans(ds, cfg, pv)):
            win = ds[plan.source_sequence]
            maskable = set(win.maskable_positions(VOCAB).tolist())
            expected = exact_count(m, len(maskable))
            positions = plan.positions.tolist()
            assert len(positions) == expected
            assert set(positions) <= maskable

    def test_unit_atomicity_in_stream(self):
        ds = packed_dataset(n_docs=10, seed=3)
        pv = PmiVocabulary(entries={(7, 8): 1.0, (9, 10): 0.8})
        cfg = MaskingConfig(strategy="pmi", **rates(0.3), seed=11)
        from mlmpipe.pmi import segment_units
        for plan in chain.from_iterable(generate_plans(ds, cfg, pv)):
            win = ds[plan.source_sequence]
            units = segment_units(win, VOCAB, "pmi", pv)
            masked = set(plan.positions.tolist())
            full_size = sum(u[1] - u[0] for u in units
                            if set(range(u[0], u[1])) <= masked)
            partial = sum(len(masked & set(range(u[0], u[1]))) for u in units
                          if 0 < len(masked & set(range(u[0], u[1]))) < u[1] - u[0])
            # everything outside fully-masked units must be single-position fill
            n = len(win.maskable_positions(VOCAB))
            assert full_size + partial == exact_count(0.3, n)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("strategy, rates, k", [
    ("uniform", rates(0.15), 1),
    ("span", rates(0.4, 0.2), 1),
    ("uniform", rates(0.1, 0.3), 3),
    ("pmi", rates(0.2, 0.8), 4),
])
def test_generate_plans_yields_window_blocks(block, strategy, rates, k, monkeypatch):
    # each list holds the plans of the next min(BLOCK_EXAMPLES, windows left)
    # windows of the stream, a window's k duplicates contiguous and in order
    monkeypatch.setattr(masking, "BLOCK_EXAMPLES", block)
    ds = packed_dataset(n_docs=80)
    pv = PmiVocabulary(entries={(7, 8): 1.0, (10, 11, 12): 0.4})
    cfg = MaskingConfig(strategy=strategy, policy=(0.8, 0.1, 0.1), seed=3, **rates)
    stream = [idx for idx, _ in epoch_stream(ds, cfg.seed, 1)]
    assert len(stream) > 64
    blocks = list(generate_plans(ds, cfg, pv, epoch=1))
    assert all(isinstance(b, list) for b in blocks)
    windows = [stream[i:i + block] for i in range(0, len(stream), block)]
    assert len(blocks) == len(windows)
    for plans, want in zip(blocks, windows):
        assert plans and len(plans) == k * len(want)
        assert [p.source_sequence for p in plans] == [w for w in want for _ in range(k)]
        assert [p.duplicate_index for p in plans] == list(range(k)) * len(want)


def test_generate_plans_yields_no_empty_list(monkeypatch):
    monkeypatch.setattr(masking, "plan_decoupled", lambda *a, **k: [])
    assert list(generate_plans(packed_dataset(n_docs=5), MaskingConfig())) == []
    assert list(generate_blocks(packed_dataset(n_docs=5), MaskingConfig())) == []


# ---------------------------------------------------------------------------
# array plans against the per-position reference they replaced


def reference_plans(window, config, rng, pmi_vocab=None):
    """Plans as (position, kind, replacement) lists and (position, original)
    lists, drawn with one MaskAction-style loop per position and, for unit
    strategies, the set-based unit oracle: the generator calls the array
    code must reproduce, in the same order and sizes."""
    if config.strategy in masking.UNIT_STRATEGIES:
        units = segment_units(window, VOCAB, config.strategy, pmi_vocab)

        def sampler(allowed, budget, rng):
            return oracle_sample_units(units, allowed, budget, rng)
    else:
        sampler = make_sampler(config, None)
    maskable = window.maskable_positions(VOCAB)
    n = len(maskable)
    c = exact_count(config.corruption_rate, n)
    p = exact_count(config.prediction_rate, n)
    ids = window.ids
    if config.prediction_rate == config.corruption_rate:
        positions = sampler(maskable, c, rng)
        raw = [(positions, positions)]
    elif config.prediction_rate < config.corruption_rate:
        positions = sampler(maskable, c, rng)
        subset = rng.choice(positions, size=p, replace=False) if p < len(positions) \
            else positions
        raw = [(positions, subset)]
    else:
        k = int(math.ceil(config.prediction_rate / config.corruption_rate - 1e-9))
        raw, remaining = [], maskable
        for d in range(k):
            positions = sampler(remaining, c, rng)
            # the last duplicate predicts only what the prediction budget leaves
            last = p - (k - 1) * c
            predicted = rng.choice(positions, size=last, replace=False) \
                if d == k - 1 and last < c else positions
            raw.append((positions, predicted))
            remaining = np.setdiff1d(remaining, positions, assume_unique=True)
    plans = []
    for positions, predicted in raw:
        actions = [[int(q), "mask", None] for q in positions]
        predictions = sorted((int(q), int(ids[q])) for q in predicted)
        if config.policy != (1.0, 0.0, 0.0) or config.extra_same > 0.0 \
                or config.policy_sampling == "bernoulli":
            if config.policy_sampling == "exact":
                counts = largest_remainder(len(actions), config.policy)
                kinds = ["mask"] * counts[0] + ["random"] * counts[1] + ["same"] * counts[2]
            else:
                draws = rng.choice(3, size=len(actions),
                                   p=np.asarray(config.policy) / sum(config.policy))
                kinds = [("mask", "random", "same")[int(d)] for d in draws]
            perm = rng.permutation(len(actions))
            actions = [[actions[int(i)][0], kind, None] for i, kind in zip(perm, kinds)]
            n_rand = sum(1 for a in actions if a[1] == "random")
            if n_rand:
                draws = rng.integers(0, VOCAB.size - 3, size=n_rand)
                for s in sorted(VOCAB.special_ids):
                    draws[draws >= s] += 1
                repls = iter(draws.tolist())
                for a in actions:
                    if a[1] == "random":
                        a[2] = next(repls)
            e = exact_count(config.extra_same, n)
            if e:
                taken = {a[0] for a in actions}
                candidates = np.array([int(q) for q in maskable if int(q) not in taken],
                                      dtype=np.int64)
                chosen = rng.choice(candidates, size=e, replace=False)
                actions.extend([int(q), "same", None] for q in chosen)
                predictions = sorted(predictions + [(int(q), int(ids[q])) for q in chosen])
            actions.sort()
        plans.append(([tuple(a) for a in actions], predictions))
    return plans


@pytest.mark.parametrize("kw", [
    dict(strategy="uniform", **rates(0.15)),
    dict(strategy="span", **rates(0.4), policy=(0.8, 0.1, 0.1)),
    dict(strategy="whole_word", **rates(0.5), policy=(0.8, 0.1, 0.1), extra_same=0.05),
    dict(strategy="uniform", **rates(0.4), policy=(0.8, 0.1, 0.1), policy_sampling="bernoulli"),
    dict(strategy="uniform", **rates(0.4, 0.2), policy=(0.6, 0.2, 0.2)),
    dict(strategy="pmi", **rates(0.2, 0.4), policy=(0.8, 0.1, 0.1)),
    dict(strategy="uniform", **rates(0.1, 0.3), extra_same=0.05),
    dict(strategy="span", **rates(0.2, 0.3), policy=(0.8, 0.1, 0.1)),
])
def test_array_plans_match_reference(kw):
    ds = packed_dataset(n_docs=12, seed=5)
    pv = PmiVocabulary(entries={(7, 8): 1.0, (10, 11, 12): 0.4})
    config = MaskingConfig(seed=3, **kw)
    for idx, win in enumerate(ds):
        got = plan_window(win, VOCAB, config, substream(3, 0, idx),
                          window_units(win, config, pv), source_sequence=idx)
        want = reference_plans(win, config, substream(3, 0, idx), pv)
        assert len(got) == len(want)
        for d, (plan, (actions, predictions)) in enumerate(zip(got, want)):
            assert plan.duplicate_index == d and plan.source_sequence == idx
            assert [(a.position, a.kind.value, a.replacement) for a in plan.actions] == actions
            assert list(zip(plan.pred_positions.tolist(),
                            plan.pred_originals.tolist())) == predictions


def policy_plan(win):
    """A plan with every kind: mask at 0-1, random at 2-3, same at 4, predicting 0-4."""
    ids = win.ids
    return MaskPlan(positions=np.arange(5), kinds=np.array([MASK, MASK, RANDOM, RANDOM, SAME],
                                                            dtype=np.uint8),
                    replacements=np.array([50, 60]), pred_positions=np.arange(5),
                    pred_originals=ids[:5].copy(), duplicate_index=1, source_sequence=7)


class TestArrayPlans:
    def test_materialize_writes_each_kind(self):
        win = full_window(L=8)
        block = materialize_one(win, policy_plan(win))
        ids = win.ids.tolist()
        assert block.corrupted_ids[0].tolist() == [VOCAB.mask_id, VOCAB.mask_id, 50, 60] + ids[4:]
        assert block.corrupted[0].tolist() == [True] * 4 + [False] * 4
        assert list(zip(block.target_positions.tolist(), block.target_originals.tolist())) == \
            list(zip(range(5), ids[:5]))
        assert (block.duplicate_index.tolist(), block.source_sequence.tolist()) == ([1], [7])

    @pytest.mark.parametrize("writable", [False, True])
    def test_materialize_leaves_rows_unwritten(self, writable):
        # a read-only view of the dataset is taken as it is, and writable rows
        # come back unchanged; either way they are the block's original_ids
        ds = packed([full_window(L=8), full_window(L=8, rng=np.random.default_rng(1))])
        rows = ds.ids[1:2].copy() if writable else ds.ids[1:2]
        before = rows.copy()
        block = materialize(rows, [policy_plan(ds[1])], VOCAB)
        assert block.original_ids is rows and np.array_equal(rows, before)
        assert block.corrupted_ids[0].tolist() == \
            [VOCAB.mask_id, VOCAB.mask_id, 50, 60] + before[0, 4:].tolist()

    def test_actions_view(self):
        win = full_window(L=8)
        plan = policy_plan(win)
        assert plan.actions == [MaskAction(0, ActionKind.MASK), MaskAction(1, ActionKind.MASK),
                                MaskAction(2, ActionKind.RANDOM, 50),
                                MaskAction(3, ActionKind.RANDOM, 60),
                                MaskAction(4, ActionKind.SAME)]
        assert plan.corrupted_positions.tolist() == [0, 1, 2, 3]
        assert plan.predictions == list(zip(range(5), win.ids[:5].tolist()))

    def test_replacements_must_match_random_kinds(self):
        win = full_window(L=8)
        plan = policy_plan(win)
        plan.replacements = np.array([50])
        with pytest.raises(IntegrityError):
            materialize_one(win, plan)

    def test_unknown_kind_code(self):
        win = full_window(L=8)
        plan = mask_plan([1])
        plan.kinds = np.array([3], dtype=np.uint8)
        with pytest.raises(IntegrityError):
            materialize_one(win, plan)

    def test_prediction_outside_window(self):
        win = full_window(L=8)
        with pytest.raises(IntegrityError):
            materialize_one(win, mask_plan([], predictions=[(8, 5)]))

    def test_block_equals_one_plan_at_a_time(self):
        ds = packed_dataset(n_docs=20)
        cfg = MaskingConfig(**rates(0.2, 0.4), policy=(0.8, 0.1, 0.1), seed=2)
        plans = list(chain.from_iterable(generate_plans(ds, cfg)))
        rows = ds.ids[[p.source_sequence for p in plans]]
        block = materialize(rows, plans, VOCAB)
        offset = 0
        for i, plan in enumerate(plans):
            one = materialize_one(ds[plan.source_sequence], plan)
            n = int(block.target_counts[i])
            assert block.corrupted_ids[i].tolist() == one.corrupted_ids[0].tolist()
            assert block.corrupted[i].tolist() == one.corrupted[0].tolist()
            assert block.target_positions[offset:offset + n].tolist() == \
                one.target_positions.tolist()
            assert block.target_originals[offset:offset + n].tolist() == \
                one.target_originals.tolist()
            assert (block.duplicate_index[i], block.source_sequence[i]) == \
                (one.duplicate_index[0], one.source_sequence[0])
            offset += n
        assert offset == len(block.target_positions)

    def test_block_rejects_before_writing(self):
        win = full_window(L=8)
        rows = np.stack([win.ids, win.ids])
        before = rows.copy()
        bad = mask_plan([], predictions=[(0, int(win.ids[0]) + 1)])
        with pytest.raises(IntegrityError):
            materialize(rows, [mask_plan([1, 2]), bad], VOCAB)
        assert np.array_equal(rows, before)

    def test_block_rejects_plan_count_mismatch(self):
        win = full_window(L=8)
        rows = np.stack([win.ids, win.ids])
        before = rows.copy()
        with pytest.raises(IntegrityError, match="block has 2 rows but 1 plans"):
            materialize(rows, [mask_plan([1, 2])], VOCAB)
        with pytest.raises(IntegrityError, match="block has 0 rows but 1 plans"):
            materialize(rows[:0], [mask_plan([])], VOCAB)
        assert np.array_equal(rows, before)

    def test_empty_block(self):
        win = full_window(L=8)
        full = materialize_one(win, mask_plan([1], predictions=[(1, int(win.ids[1]))]))
        empty = materialize(np.empty((0, 8), dtype=np.int64), [], VOCAB)
        for field in dataclasses.fields(empty):
            got, want = getattr(empty, field.name), getattr(full, field.name)
            assert got.dtype == want.dtype and got.shape == (0,) + want.shape[1:], field.name

    def test_driver_calls_materialize_through_the_module(self, monkeypatch):
        # a wrapper bound to masking.materialize, as a tracer binds one, sees
        # one call per block, and the blocks do not change
        ds = packed([full_window(rng=np.random.default_rng(i))
                     for i in range(2 * masking.BLOCK_EXAMPLES)])
        cfg = MaskingConfig(**rates(0.2, 0.4), policy=(0.8, 0.1, 0.1), seed=3)
        want = [block_fields(block) for block in generate_blocks(ds, cfg)]
        calls = []

        def counting(rows, plans, vocab):
            calls.append(len(plans))
            return materialize(rows, plans, vocab)

        monkeypatch.setattr(masking, "materialize", counting)
        got = [block_fields(block) for block in generate_blocks(ds, cfg)]
        assert calls == [2 * masking.BLOCK_EXAMPLES] * 2
        assert got == want

    @pytest.mark.parametrize("strategy", ["uniform", "span", "whole_word", "pmi"])
    def test_own_substreams_in_reverse(self, strategy):
        # a window's plans depend only on its (seed, epoch, index) substream,
        # so planning the windows in any order reproduces the stream's plans
        ds = packed_dataset(n_docs=20)
        pv = PmiVocabulary(entries={tuple(w.ids[i:i + n].tolist()): 1.0
                                    for w in ds for i, n in ((3, 2), (20, 3))})
        cfg = MaskingConfig(strategy=strategy, **rates(0.2, 0.4),
                            policy=(0.8, 0.1, 0.1), extra_same=0.05, seed=4)

        def fields(p):
            return (p.source_sequence, p.duplicate_index, p.positions.tolist(),
                    p.kinds.tolist(), p.replacements.tolist(), p.pred_positions.tolist(),
                    p.pred_originals.tolist())

        whole = [fields(p)
                 for p in chain.from_iterable(generate_plans(ds, cfg, pv, epoch=1))]
        order = [src for src, dup, *_ in whole if dup == 0]
        assert sorted(order) == list(range(len(ds)))
        planned = {idx: plan_window(ds[idx], VOCAB, cfg, substream(4, 1, idx),
                                    window_units(ds[idx], cfg, pv), source_sequence=idx)
                   for idx in reversed(order)}
        assert [fields(p) for idx in order for p in planned[idx]] == whole
        assert len(whole) == 2 * len(ds)
        assert {RANDOM, SAME} <= {k for f in whole for k in f[3]}
