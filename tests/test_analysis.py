import math
import sys
import weakref
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmpipe import analysis, masking
from mlmpipe.analysis import (ExternScorer, TokenScorer, UniformScorer, make_scorer,
                              masked_perplexity, minimal_pair_accuracy,
                              normalized_performance, pll_score, pmi_coverage,
                              relative_metric, span_histogram, uniform, unigram)
from mlmpipe.corpus import PackedDataset, TokenSequence, Vocab
from mlmpipe.errors import ConfigError, DataError
from mlmpipe.masking import (BLOCK_EXAMPLES, STRATEGIES, MaskedBlock, MaskingConfig,
                             generate_blocks, generate_plans)
from mlmpipe.pmi import PmiVocabulary

from conftest import (VOCAB, make_window, mask_plan, materialize_one, mean_run_length,
                      packed_dataset, rates)

ORACLE = TokenScorer(np.zeros(VOCAB.size), np.arange(VOCAB.size))


def block_rows(block):
    """Each row of a block that has targets, with its (position, original) targets."""
    ends = np.cumsum(block.target_counts).tolist()
    targets = list(zip(block.target_positions.tolist(), block.target_originals.tolist()))
    return [(row, targets[end - n:end])
            for row, n, end in zip(block.corrupted_ids.tolist(),
                                   block.target_counts.tolist(), ends) if n]


class SpyScorer:
    """Wraps a scorer, recording every block's size and integer dtypes, and the
    (corrupted row, targets) sequence of the rows with targets."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = []
        self.blocks = []

    def log_probs(self, block):
        self.blocks.append((len(block.corrupted_ids), {
            a.dtype.kind for a in (block.corrupted_ids, block.target_counts,
                                   block.target_positions, block.target_originals)}))
        self.rows += block_rows(block)
        values = self.inner.log_probs(block)
        assert values.dtype == np.float64 and values.shape == block.target_originals.shape
        return values


class TestMaskedPerplexity:
    def test_uniform_scorer_gives_vocab_size(self):
        ds = packed_dataset(n_docs=10)
        cfg = MaskingConfig(**rates(0.15), seed=1)
        ppl = masked_perplexity(generate_blocks(ds, cfg), uniform(100))
        assert ppl == pytest.approx(100.0, rel=1e-12)

    def test_oracle_scorer_gives_one(self):
        ds = packed_dataset(n_docs=5)
        cfg = MaskingConfig(**rates(0.15), seed=1)
        assert masked_perplexity(generate_blocks(ds, cfg), ORACLE) == pytest.approx(1.0, rel=1e-12)

    def test_unigram_matches_brute_force(self):
        # independent oracle: recompute -mean log p from the same plan stream
        ds = packed_dataset(n_docs=12)
        cfg = MaskingConfig(**rates(0.15), seed=4)
        scorer = make_scorer("unigram", ds=ds)
        ppl = masked_perplexity(generate_blocks(ds, cfg), scorer)

        counts = Counter()
        for win in ds:
            keep = win.ids[(win.ids != VOCAB.pad_id) & (win.ids != VOCAB.sep_id)]
            counts.update(int(t) for t in keep)
        total = sum(counts.values())
        logs = []
        for plan in chain.from_iterable(generate_plans(ds, cfg)):
            for orig in plan.pred_originals.tolist():
                logs.append(math.log(counts[orig] / total))
        expected = math.exp(-sum(logs) / len(logs))
        assert ppl == pytest.approx(expected, rel=1e-9)

    def test_positive_logprob_rejected(self):
        class Broken:
            def log_probs(self, block):
                return np.full(len(block.target_originals), 0.1)

        ds = packed_dataset(n_docs=3)
        with pytest.raises(DataError, match="log-probability 0.1 > 0"):
            masked_perplexity(generate_blocks(ds, MaskingConfig(**rates(0.15))), Broken())

    def test_sums_left_to_right(self):
        # a case where a compensated (math.fsum, builtin sum on Python >= 3.12)
        # or a pairwise (np.sum) sum gives other bits than adding one value
        # at a time
        ds = packed_dataset(n_docs=12)
        cfg = MaskingConfig(**rates(0.4), seed=2)
        table = -np.log1p(np.arange(VOCAB.size)) / 3
        values = [table[orig] for plan in chain.from_iterable(generate_plans(ds, cfg))
                  for orig in plan.pred_originals.tolist()]
        total = 0.0
        for v in values:
            total += v
        for other in (math.fsum(values), float(np.sum(values))):
            assert math.exp(-other / len(values)) != math.exp(-total / len(values))
        assert masked_perplexity(generate_blocks(ds, cfg), TokenScorer(table, np.arange(VOCAB.size))) == \
            math.exp(-total / len(values))


def reference_perplexity(ds, cfg, scorer, pmi_vocab=None):
    """masked_perplexity with each plan materialized and scored as a one-row block."""
    total, count = 0.0, 0
    for plan in chain.from_iterable(generate_plans(ds, cfg, pmi_vocab)):
        block = materialize_one(ds[plan.source_sequence], plan, ds.vocab)
        if len(block.target_positions):
            for v in scorer.log_probs(block).tolist():
                total += v
                count += 1
    return math.exp(-total / count)


BLOCK_DS = packed_dataset(n_docs=80, seed=6)
BLOCK_PMI = PmiVocabulary(entries={tuple(w.ids[i:i + n].tolist()): 1.0
                                   for w in BLOCK_DS for i, n in ((3, 2), (20, 3))})


@given(strategy=st.sampled_from(STRATEGIES),
       rates=st.sampled_from([rates(0.15), rates(0.2, 0.4),
                              rates(0.4, 0.2), rates(0.1, 0.3)]),
       policy=st.sampled_from([(1.0, 0.0, 0.0), (0.8, 0.1, 0.1), (0.5, 0.5, 0.0)]),
       policy_sampling=st.sampled_from(["exact", "bernoulli"]),
       extra_same=st.sampled_from([0.0, 0.05]),
       scorer=st.sampled_from(["uniform", "unigram", "oracle"]),
       seed=st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_block_driver_perplexity_equals_per_plan_reference(strategy, rates, policy,
                                                           policy_sampling, extra_same,
                                                           scorer, seed):
    # bit-equal, with the same scored rows and targets in the same order
    assert len(BLOCK_DS) > BLOCK_EXAMPLES
    cfg = MaskingConfig(strategy=strategy, policy=policy, policy_sampling=policy_sampling,
                        extra_same=extra_same, seed=seed, **rates)
    inner = {"uniform": uniform(VOCAB.size), "oracle": ORACLE,
             "unigram": make_scorer("unigram", ds=BLOCK_DS)}[scorer]
    got, want = SpyScorer(inner), SpyScorer(inner)
    assert masked_perplexity(generate_blocks(BLOCK_DS, cfg, BLOCK_PMI), got) == \
        reference_perplexity(BLOCK_DS, cfg, want, BLOCK_PMI)
    assert got.rows == want.rows
    # one call per generate_blocks block, each of integer arrays
    assert len(got.blocks) < len(want.blocks)
    assert all(kinds == {"i"} for _, kinds in got.blocks)


class TestPllScore:
    def test_oracle_is_zero(self):
        sent = TokenSequence(np.array([5, 6, 7]), np.ones(3, dtype=bool))
        assert pll_score(sent.ids, ORACLE, VOCAB) == 0.0

    def test_unigram_is_sum_of_unigram_logs(self):
        counts = {5: 3, 6: 1, 7: 6}
        scorer = unigram(list(counts.values()), np.array(list(counts)))
        sent = [5, 6, 7, 5]
        expected = sum(math.log(counts[t] / 10) for t in sent)
        assert pll_score(sent, scorer, VOCAB) == pytest.approx(expected, rel=1e-12)

    def test_one_single_mask_query_per_position(self):
        sent = [5, 6]
        spy = SpyScorer(ORACLE)
        pll_score(sent, spy, VOCAB)
        assert len(spy.rows) == 2
        for i, (corrupted, targets) in enumerate(spy.rows):
            diffs = [j for j, (a, b) in enumerate(zip(corrupted, sent)) if a != b]
            assert diffs == [i]
            assert corrupted[i] == VOCAB.mask_id
            assert targets == [(i, sent[i])]

    def test_long_sentence_is_scored_in_bounded_blocks(self):
        sent = [3 + i % 90 for i in range(2 * BLOCK_EXAMPLES + 5)]
        spy = SpyScorer(ORACLE)
        assert pll_score(sent, spy, VOCAB) == 0.0
        assert [n for n, _ in spy.blocks] == [BLOCK_EXAMPLES, BLOCK_EXAMPLES, 5]
        for i, (corrupted, targets) in enumerate(spy.rows):
            assert corrupted == sent[:i] + [VOCAB.mask_id] + sent[i + 1:]
            assert targets == [(i, sent[i])]

    def test_empty_sentence_scores_nothing(self):
        spy = SpyScorer(ORACLE)
        assert pll_score([], spy, VOCAB) == 0.0 and spy.blocks == []

    def test_positive_logprob_rejected(self):
        with pytest.raises(DataError, match=r"^scorer returned log-probability 0\.5 > 0$"):
            pll_score([5, 6, 7], TokenScorer(np.full(VOCAB.size, 0.5), np.arange(VOCAB.size)), VOCAB)

    def test_sums_left_to_right(self):
        # -1 then many tiny values: adding one at a time drops every tiny
        # value, while math.fsum keeps them
        table = np.zeros(VOCAB.size)
        table[5], table[6] = -1.0, -1e-17
        sent = [5] + [6] * (BLOCK_EXAMPLES + 50)
        total = 0.0
        for t in sent:
            total += table[t]
        assert math.fsum(table[sent]) != total
        assert pll_score(sent, TokenScorer(table, np.arange(VOCAB.size)), VOCAB) == total == -1.0


class TestMinimalPairs:
    def test_oracle_consistent(self):
        class LengthScorer:  # longer sentences score strictly higher in total
            def log_probs(self, block):
                return np.full(len(block.target_originals),
                               -1.0 / block.corrupted_ids.shape[1] ** 2)

        pairs = [([5, 6, 7], [5, 6]), ([5] * 4, [5] * 2)]
        assert minimal_pair_accuracy(pairs, LengthScorer(), VOCAB) == 1.0

    def test_inverted(self):
        class Inverted:
            def log_probs(self, block):
                return np.full(len(block.target_originals),
                               -float(block.corrupted_ids.shape[1]))

        pairs = [([5, 6, 7], [5, 6])]
        assert minimal_pair_accuracy(pairs, Inverted(), VOCAB) == 0.0

    def test_identical_pair_is_tie(self):
        pairs = [([5, 6], [5, 6])]
        assert minimal_pair_accuracy(pairs, uniform(100), VOCAB) == 0.5

    def test_empty_pairs_rejected(self):
        with pytest.raises(ConfigError):
            minimal_pair_accuracy([], ORACLE, VOCAB)


class TestMetrics:
    def test_normalized_example(self):
        values = {0.15: 84.2, 0.40: 84.5, 0.50: 84.7}
        out = normalized_performance(values, 0.15)
        mean = sum(values.values()) / 3
        sigma = math.sqrt(sum((v - mean) ** 2 for v in values.values()) / 3)
        assert out[0.15] == 0.0
        assert out[0.50] == pytest.approx((84.7 - 84.2) / sigma, rel=1e-12)
        assert out[0.50] == pytest.approx(2.43, abs=0.01)

    def test_degenerate_distribution(self):
        with pytest.raises(DataError):
            normalized_performance({0.15: 1.0, 0.4: 1.0}, 0.15)

    def test_missing_baseline(self):
        with pytest.raises(ConfigError):
            normalized_performance({0.4: 1.0, 0.5: 2.0}, 0.15)

    def test_relative_example(self):
        out = relative_metric({0.15: 88.0, 0.40: 89.8}, 0.15)
        assert out[0.15] == 0.0
        assert out[0.40] == pytest.approx(1.8, abs=1e-12)

    def test_relative_single_entry(self):
        assert relative_metric({0.15: 3.0}, 0.15) == {0.15: 0.0}

    @given(st.floats(-100, 100),
           st.lists(st.floats(-50, 50), min_size=2, max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, shift, raw):
        values = {i / 10: v for i, v in enumerate(raw)}
        shifted = {k: v + shift for k, v in values.items()}
        base = min(values)
        rel_a = relative_metric(values, base)
        rel_b = relative_metric(shifted, base)
        for k in values:
            assert rel_a[k] == pytest.approx(rel_b[k], abs=1e-6)
        try:
            norm_a = normalized_performance(values, base)
            norm_b = normalized_performance(shifted, base)
        except DataError:
            # the shift may absorb tiny spreads entirely; nothing to compare
            return
        for k in values:
            assert norm_a[k] == pytest.approx(norm_b[k], abs=1e-6)


def block_from_positions(position_sets, width, src=0):
    """A block of window ``src`` whose row i is corrupted (all [MASK]) at
    ``position_sets[i]`` and has no targets."""
    rows = len(position_sets)
    corrupted = np.zeros((rows, width), dtype=bool)
    for row, positions in enumerate(position_sets):
        corrupted[row, list(positions)] = True
    no_ids = np.empty(0, dtype=np.int64)
    return MaskedBlock(original_ids=np.full((rows, width), 5),
                       corrupted_ids=np.where(corrupted, VOCAB.mask_id, 5), corrupted=corrupted,
                       target_counts=np.zeros(rows, dtype=np.int64), target_positions=no_ids,
                       target_originals=no_ids, duplicate_index=np.zeros(rows, dtype=np.int64),
                       source_sequence=np.full(rows, src, dtype=np.int64))


class TestCoverage:
    def test_zero_rate_zero_coverage(self):
        ds = packed_dataset(n_docs=5)
        pv = PmiVocabulary(entries={(7, 8): 1.0})
        cfg = MaskingConfig(**rates(0.0), seed=0)
        report = pmi_coverage(generate_blocks(ds, cfg), pv)
        for cell in report.values():
            assert cell.fully_masked_count == 0

    def test_adjacent_pair_hypergeometric(self):
        # all 127 adjacent bigrams of a fully-maskable window are vocab entries
        rng = np.random.default_rng(0)
        from conftest import full_window, packed
        wins = [full_window(rng=np.random.default_rng(i)) for i in range(4000)]
        ds = packed(wins)
        entries = {}
        for w in wins:
            for i in range(127):
                entries[(int(w.ids[i]), int(w.ids[i + 1]))] = 1.0
        pv = PmiVocabulary(entries=entries)
        cfg = MaskingConfig(**rates(0.40), seed=2)
        report = pmi_coverage(generate_blocks(ds, cfg), pv)
        expected = 51 * 50 / (128 * 127)
        assert report[2].probability == pytest.approx(expected, rel=0.05)

    def test_keeps_one_block_of_occurrences(self, monkeypatch):
        # a generate_blocks block's occurrences are dropped once the stream moves
        # past it, and every window is looked up once, in stream order
        alive, looked_up = [], []
        real = analysis._vocab_occurrences

        def tracked(ids, pmi_vocab):
            looked_up.append(ids.copy())
            occ = real(ids, pmi_vocab)
            alive.append(weakref.ref(occ))
            return occ

        monkeypatch.setattr(analysis, "_vocab_occurrences", tracked)
        monkeypatch.setattr(masking, "BLOCK_EXAMPLES", 3)
        ds = packed_dataset(n_docs=20)
        pv = PmiVocabulary(entries={tuple(w.ids[3:5].tolist()): 1.0 for w in ds})
        held, order = [], []

        def blocks():
            for block in generate_blocks(ds, MaskingConfig(**rates(0.2, 0.4), seed=1)):
                held.append(sum(ref() is not None for ref in alive))
                order.extend(block.source_sequence[block.duplicate_index == 0].tolist())
                yield block

        report = pmi_coverage(blocks(), pv)
        # one lookup per block of 3 windows, each window with two duplicates
        assert len(held) == len(alive) == math.ceil(len(ds) / 3) > 1
        assert max(held) == 1
        assert sorted(order) == list(range(len(ds)))
        assert np.array_equal(np.concatenate(looked_up), ds.ids[order])
        assert report[2].occurrence_count >= 2 * len(ds)


class TestSpanHistogram:
    def test_single_fully_masked_window(self):
        hist = span_histogram([block_from_positions([range(128)], 128)])
        assert hist == Counter({128: 1})
        assert mean_run_length(hist) == 128.0

    def test_mean_is_count_weighted(self):
        hist = span_histogram([block_from_positions([[0, 1, 5]], 128)])
        assert hist == Counter({2: 1, 1: 1})
        assert mean_run_length(hist) == pytest.approx(1.5)

    def test_uniform_interior_run_mean(self):
        # interior runs under uniform m=0.15 have mean ~ 1/(1-m)
        from conftest import full_window, packed
        wins = [full_window(rng=np.random.default_rng(i)) for i in range(10_000)]
        ds = packed(wins)
        cfg = MaskingConfig(**rates(0.15), seed=8)
        total = 0
        n_runs = 0
        for plan in chain.from_iterable(generate_plans(ds, cfg)):
            positions = plan.corrupted_positions.tolist()
            if not positions:
                continue
            runs = []
            start = prev = positions[0]
            for p in positions[1:]:
                if p != prev + 1:
                    runs.append((start, prev))
                    start = p
                prev = p
            runs.append((start, prev))
            for s, e in runs:
                if s > 0 and e < 127:  # interior only
                    n_runs += 1
                    total += e - s + 1
        mean = total / n_runs
        assert mean == pytest.approx(1 / (1 - 0.15), rel=0.05)

    def test_span_strategy_band(self):
        from conftest import full_window, packed
        wins = [full_window(rng=np.random.default_rng(i)) for i in range(2000)]
        ds = packed(wins)
        cfg = MaskingConfig(strategy="span", **rates(0.40), mean_span=3.0, seed=8)
        hist = span_histogram(generate_blocks(ds, cfg))
        assert 2.5 <= mean_run_length(hist) <= 3.5


EXTERN_SCRIPT = r"""
import json, math, sys
for line in sys.stdin:
    req = json.loads(line)
    out = {"qid": req["qid"], "logp": [-math.log(100)] * len(req["queries"])}
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
"""

# logs every request line to argv[1] and answers -1 - (position % 5) per query
ECHO_SCRIPT = """\
import json, sys
log = open(sys.argv[1], 'a')
for line in sys.stdin:
    log.write(line)
    log.flush()
    req = json.loads(line)
    logp = [-1.0 - p % 5 for p, o in req['queries']]
    print(json.dumps({'qid': req['qid'], 'logp': logp}), flush=True)
"""


def extern(script, *args):
    return ExternScorer([sys.executable, str(script), *map(str, args)])


# rows [5, 6, 7], [8, 9, 10] and [11, 12, 13]; the middle row has no target
THREE_ROWS = MaskedBlock(original_ids=np.arange(5, 14).reshape(3, 3),
                         corrupted_ids=np.arange(5, 14).reshape(3, 3),
                         corrupted=np.zeros((3, 3), dtype=bool),
                         target_counts=np.array([2, 0, 1]),
                         target_positions=np.array([0, 2, 1]),
                         target_originals=np.array([5, 7, 12]),
                         duplicate_index=np.zeros(3, dtype=np.int64),
                         source_sequence=np.arange(3))


class TestExternScorer:
    def test_round_trip(self, tmp_path):
        script = tmp_path / "scorer.py"
        script.write_text(EXTERN_SCRIPT)
        with extern(script) as scorer:
            out = scorer.log_probs(THREE_ROWS)
        assert out.dtype == np.float64
        assert out.tolist() == pytest.approx([-math.log(100)] * 3)

    def test_one_request_per_row_with_targets(self, tmp_path):
        script = tmp_path / "echo.py"
        script.write_text(ECHO_SCRIPT)
        log = tmp_path / "requests.jsonl"
        with extern(script, log) as scorer:
            out = scorer.log_probs(THREE_ROWS)
        assert log.read_bytes() == (
            b'{"qid":1,"seq":[5,6,7],"queries":[[0,5],[2,7]]}\n'
            b'{"qid":2,"seq":[11,12,13],"queries":[[1,12]]}\n')
        assert out.tolist() == [-1.0, -3.0, -2.0]

    @pytest.mark.parametrize("response, needle", [
        ("[1, 2]", "non-object"),
        ('{"qid": 1, "logp": "x"}', "not a list"),
        ('{"qid": 1, "logp": ["x", -1.0]}', "not a number"),
        ('{"qid": 1, "logp": ["-1.5", -1.0]}', "not a number"),
        ('{"qid": 1, "logp": [true, -1.0]}', "not a number"),
        ('{"qid": 1, "logp": [null, -1.0]}', "not a number"),
    ], ids=["list", "string-logp", "string", "numeric-string", "bool", "null"])
    def test_malformed_response_is_data_error(self, tmp_path, response, needle):
        script = tmp_path / "scorer.py"
        script.write_text(f"import sys\nfor line in sys.stdin:\n"
                          f"    print({response!r}, flush=True)\n")
        with extern(script) as scorer:
            with pytest.raises(DataError, match=needle):
                scorer.log_probs(THREE_ROWS)

    def test_output_that_is_not_utf8_is_data_error(self, tmp_path):
        script = tmp_path / "scorer.py"
        script.write_text("import sys\nfor line in sys.stdin:\n"
                          "    sys.stdout.buffer.write(b'{\"qid\": 1, \"logp\": [\\xff]}\\n')\n"
                          "    sys.stdout.flush()\n")
        with extern(script) as scorer:
            with pytest.raises(DataError, match=r"invalid JSON: b.*\\xff"):
                scorer.log_probs(THREE_ROWS)

    def test_close_kills_a_child_that_keeps_running(self, tmp_path, monkeypatch):
        script = tmp_path / "stubborn.py"
        script.write_text("import time\ntime.sleep(60)\n")
        monkeypatch.setattr(ExternScorer, "CLOSE_TIMEOUT_S", 0.2)
        scorer = extern(script)
        scorer.close()
        assert scorer._proc.returncode is not None and scorer._proc.returncode < 0

    def test_block_driver_sends_the_per_plan_requests(self, tmp_path):
        # an echo scorer logs every request line; the block driver and the
        # one-row blocks of the per-plan reference send the same bytes
        script = tmp_path / "echo.py"
        script.write_text(ECHO_SCRIPT)
        cfg = MaskingConfig(strategy="span", **rates(0.2, 0.4), policy=(0.8, 0.1, 0.1),
                            extra_same=0.05, seed=5)
        results, logs = [], []
        for name, perplexity in (
                ("blocks", lambda scorer: masked_perplexity(generate_blocks(BLOCK_DS, cfg),
                                                            scorer)),
                ("reference", lambda scorer: reference_perplexity(BLOCK_DS, cfg, scorer))):
            log = tmp_path / f"{name}.jsonl"
            with extern(script, log) as scorer:
                results.append(perplexity(scorer))
            logs.append(log.read_bytes())
        assert results[0] == results[1]
        assert logs[0] == logs[1] and logs[0].count(b"\n") > BLOCK_EXAMPLES

    def test_pll_sends_one_request_per_position(self, tmp_path):
        script = tmp_path / "echo.py"
        script.write_text(ECHO_SCRIPT)
        log = tmp_path / "requests.jsonl"
        with extern(script, log) as scorer:
            assert pll_score([5, 6, 7], scorer, VOCAB) == -1.0 - 2.0 - 3.0
        assert log.read_bytes() == (
            b'{"qid":1,"seq":[2,6,7],"queries":[[0,5]]}\n'
            b'{"qid":2,"seq":[5,2,7],"queries":[[1,6]]}\n'
            b'{"qid":3,"seq":[5,6,2],"queries":[[2,7]]}\n')

    def test_make_scorer_dispatch(self, tmp_path):
        assert isinstance(make_scorer("uniform", vocab_size=10), UniformScorer)
        ds = packed_dataset(n_docs=2)
        assert isinstance(make_scorer("unigram", ds=ds), TokenScorer)
        with pytest.raises(ConfigError):
            make_scorer("nope")


class TestTokenScorer:
    def test_unigram_table_is_one_math_log_per_id(self):
        counts = [0, 3, 0, 7, 1, 10 ** 6]
        table = unigram(counts, np.arange(len(counts))).logp
        total = sum(counts)
        assert np.isnan(table[[0, 2]]).all()
        assert [table[i] for i in (1, 3, 4, 5)] == [math.log(c / total) for c in (3, 7, 1, 10 ** 6)]

    @pytest.mark.parametrize("size", [10 ** 18, 2 ** 63 - 1])
    def test_uniform_holds_no_table(self, size):
        # any size a Vocab accepts, with no entry per id
        block = materialize_one(make_window([5, 6, 7, 8, 9]), mask_plan([1, 4], [(1, 6), (4, 9)]))
        assert uniform(size).log_probs(block).tolist() == [-math.log(size)] * 2

    def test_unigram_table_is_sized_by_the_corpus(self):
        # the header declares a huge vocabulary; the table holds one entry per
        # distinct id of the corpus, and pad and sep get none
        vocab = Vocab(size=10 ** 18, mask_id=2, pad_id=0, sep_id=1)
        ds = PackedDataset(ids=np.array([[5, 6, 5, 1], [6, 5, 0, 0]]),
                           word_starts=np.ones((2, 4), dtype=bool), vocab=vocab)
        scorer = make_scorer("unigram", ds=ds, vocab_size=vocab.size)
        assert scorer.ids.tolist() == [5, 6]
        assert scorer.logp.tolist() == [math.log(3 / 5), math.log(2 / 5)]

    def test_unigram_table_does_not_follow_the_largest_id(self):
        # an id near the declared size costs one entry, like any other; a
        # target the corpus lacks still has no count
        big = 10 ** 17
        vocab = Vocab(size=10 ** 18, mask_id=2, pad_id=0, sep_id=1)
        ds = PackedDataset(ids=np.array([[5, big, 5, 1], [big, 7, 0, 0]]),
                           word_starts=np.ones((2, 4), dtype=bool), vocab=vocab)
        scorer = make_scorer("unigram", ds=ds, vocab_size=vocab.size)
        assert scorer.ids.tolist() == [5, 7, big]
        block = materialize_one(make_window([5, big, 7]), mask_plan([1, 2], [(1, big), (2, 7)]))
        assert scorer.log_probs(block).tolist() == [math.log(2 / 5), math.log(1 / 5)]
        block = materialize_one(make_window([5, big - 1]), mask_plan([1], [(1, big - 1)]))
        with pytest.raises(DataError, match=f"^scorer has no count for token {big - 1}$"):
            scorer.log_probs(block)

    def test_uniform_needs_a_positive_size(self):
        with pytest.raises(ConfigError):
            uniform(0)

    def test_unigram_needs_a_count(self):
        with pytest.raises(DataError, match="non-empty"):
            unigram([0, 0], np.arange(2))

    def test_the_first_token_without_a_count_is_named(self):
        scorer = unigram([0, 1, 0, 0, 0, 1, 1, 0, 0, 0], np.arange(10))
        block = MaskedBlock(original_ids=np.array([[5, 7, 6, 3]]),
                            corrupted_ids=np.array([[5, 2, 6, 2]]),
                            corrupted=np.array([[False, True, False, True]]),
                            target_counts=np.array([3]),
                            target_positions=np.array([2, 1, 3]),
                            target_originals=np.array([6, 7, 3]),
                            duplicate_index=np.zeros(1, dtype=np.int64),
                            source_sequence=np.zeros(1, dtype=np.int64))
        with pytest.raises(DataError, match="^scorer has no count for token 7$"):
            scorer.log_probs(block)


@given(st.lists(st.sets(st.integers(min_value=0, max_value=40), max_size=30), max_size=6),
       st.sampled_from([1, 7, 64]))
@settings(max_examples=100, deadline=None)
def test_span_histogram_counts_runs(position_sets, block):
    expected = Counter()
    for positions in position_sets:
        run = 0
        for p in range(42):
            if p in positions:
                run += 1
            elif run:
                expected[run] += 1
                run = 0
    # width 41: a run may end in the last column
    hist = span_histogram(block_from_positions(position_sets[i:i + block], 41)
                          for i in range(0, len(position_sets), block))
    assert type(hist) is Counter and hist == expected
    assert all(type(n) is int and type(c) is int for n, c in hist.items())
