"""Acceptance criteria, one test per numbered criterion.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s or in
captured output) and asserts at its stated tolerance.
"""

import json
import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mlmpipe.analysis import (TokenScorer, make_scorer, masked_perplexity,
                              minimal_pair_accuracy, normalized_performance, pll_score,
                              pmi_coverage, relative_metric, span_histogram, unigram)
from mlmpipe.cli import run
from mlmpipe.corpus import (PackedDataset, TokenSequence, Vocab, epoch_stream,
                            load_packed, pack_sequences, serialize_tokens)
from mlmpipe.errors import InfeasibleError
from mlmpipe.masking import (MaskingConfig, exact_count, effective_rates,
                             generate_blocks, generate_plans, plan_decoupled,
                             plan_window, sample_uniform)
from mlmpipe.pmi import (build_vocab, count_ngrams, count_ngrams_sharded,
                         pmi_score)
from mlmpipe.rng import substream

from conftest import VOCAB, all_plans, materialize_one, mean_run_length, rates


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def full_windows(n, L=128, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, VOCAB.size, size=(n, L))
    return PackedDataset(ids=ids, word_starts=np.ones((n, L), dtype=bool), vocab=VOCAB)


def test_criterion_1_count_exactness():
    n_windows, L = 10_000, 128
    ds = full_windows(n_windows, L, seed=1)
    start = time.perf_counter()
    ok = True
    for m in (0.15, 0.20, 0.40, 0.80):
        cfg = MaskingConfig(**rates(m), seed=11)
        expected = exact_count(m, L)
        seen = 0
        for plans in generate_plans(ds, cfg):
            seen += len(plans)
            ok = ok and (plans.counts == expected).all()
        ok = ok and seen == n_windows
    elapsed = time.perf_counter() - start
    report(1, "exact floor(m*L) corruption counts over 10k windows, 4 rates",
           ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_2_effective_rate_arithmetic():
    corr, pred = effective_rates(MaskingConfig(**rates(0.40), policy=(0.8, 0.1, 0.1)))
    ok = abs(corr - 0.36) < 1e-12 and abs(pred - 0.36) < 1e-12

    ds = full_windows(1, 128, seed=2)
    cfg = MaskingConfig(**rates(0.40), extra_same=0.05, seed=3)
    [plan] = next(generate_plans(ds, cfg)).plans()     # one window: one block of one plan
    n_pred = len(plan.pred_positions)
    ok = ok and n_pred == 57 and len(plan.corrupted_positions) == 51
    report(2, "80-10-10 at m=0.40 -> (0.36, 0.36); +5% same -> 57 predictions",
           ok, f"predictions={n_pred}, rates=({corr:.6f}, {pred:.6f})")


def test_criterion_3_decoupling():
    # 1000 windows as one block, each window on its own substream
    ds = full_windows(1000, 128, seed=4)
    plans = plan_decoupled(ds.ids, VOCAB, sample_uniform, MaskingConfig(**rates(0.20, 0.40)),
                           [substream(21, 0, idx) for idx in range(1000)],
                           np.arange(1000)).plans()
    ok = len(plans) == 2000
    for first, second in zip(plans[::2], plans[1::2]):
        sets = [set(p.positions.tolist()) for p in (first, second)]
        if any(len(s) != 25 for s in sets) or (sets[0] & sets[1]):
            ok = False
            break
    raised = False
    try:
        plan_decoupled(ds.ids[:1], VOCAB, sample_uniform, MaskingConfig(**rates(0.40, 0.90)),
                       [substream(21, 0, 0)], np.zeros(1, dtype=np.int64))
    except InfeasibleError:
        raised = True
    report(3, "(0.20, 0.40) -> 2 disjoint 25-mask plans on 1k windows; "
              "(0.40, 0.90) infeasible", ok and raised)


def test_criterion_4_hypergeometric_coverage():
    n_windows, L, rows = 100_000, 128, 10_000
    start = time.perf_counter()
    coverage = {}
    for m in (0.15, 0.40):
        k = exact_count(m, L)
        hits = 0
        # blocks of 10k windows, each window on its own substream
        for first in range(0, n_windows, rows):
            picked = sample_uniform(np.ones((rows, L), dtype=bool), np.full(rows, k),
                                    [substream(77, int(m * 100), i)
                                     for i in range(first, first + rows)])
            hits += int(np.count_nonzero(picked[:, 1:] & picked[:, :-1]))
        coverage[m] = hits / (n_windows * (L - 1))
    elapsed = time.perf_counter() - start
    closed = {m: (exact_count(m, L) * (exact_count(m, L) - 1)) / (L * (L - 1))
              for m in coverage}
    rel_ok = all(abs(coverage[m] - closed[m]) / closed[m] < 0.02 for m in coverage)
    ratio = coverage[0.40] / coverage[0.15]
    ratio_ok = abs(ratio - 7.45) <= 0.15
    report(4, "adjacent-pair coverage matches k(k-1)/(n(n-1)) within 2%; "
              "40%/15% ratio = 7.45 +/- 0.15",
           rel_ok and ratio_ok and elapsed < 60.0,
           f"ratio={ratio:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# desk corpus with planted collocations (criteria 5 and 10 share it)


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    rng = np.random.default_rng(99)
    V = VOCAB.size  # 100 ids; specials 0..2, ordinary 3..99
    base = np.arange(3, V)
    weights = 1.0 / (np.arange(1, len(base) + 1) ** 1.1)
    weights /= weights.sum()
    bigrams = [(60 + 2 * i, 61 + 2 * i) for i in range(12)]     # ids 60..83
    trigrams = [(84 + 3 * i, 85 + 3 * i, 86 + 3 * i) for i in range(3)]
    docs = []
    total_tokens = 0
    while total_tokens < 1_100_000:
        n_words = int(rng.integers(120, 220))
        toks = []
        for _ in range(n_words):
            u = rng.random()
            if u < 0.04:
                toks.extend(bigrams[int(rng.integers(len(bigrams)))])
            elif u < 0.05:
                toks.extend(trigrams[int(rng.integers(len(trigrams)))])
            else:
                toks.append(int(rng.choice(base, p=weights)))
        ws = (rng.random(len(toks)) < 0.8).tolist()
        ws[0] = True
        docs.append(TokenSequence(ids=np.array(toks, dtype=np.int64), word_starts=np.array(ws)))
        total_tokens += len(toks)
    path = tmp_path_factory.mktemp("desk") / "corpus.jsonl"
    serialize_tokens(docs, path)
    return docs, path, bigrams, trigrams


def test_criterion_5_figure7_qualitative(desk_corpus):
    docs, path, bigrams, trigrams = desk_corpus
    size_mb = path.stat().st_size / 1e6
    assert size_mb >= 5.0, f"desk corpus only {size_mb:.1f} MB"

    counts = count_ngrams(docs, n_max=3)
    pmi_vocab = build_vocab(counts, size_cap=40, min_count=50)
    planted = set(bigrams) | set(trigrams)
    assert planted <= set(pmi_vocab.entries), "mined vocab missed planted collocations"

    ds = pack_sequences(docs, 128, VOCAB)
    subset = PackedDataset(ids=ds.ids[:4000], word_starts=ds.word_starts[:4000], vocab=VOCAB)
    cov = {}
    for strategy, m in (("uniform", 0.15), ("uniform", 0.40), ("pmi", 0.15)):
        cfg = MaskingConfig(strategy=strategy, **rates(m), seed=13)
        by_length = pmi_coverage(generate_blocks(subset, cfg, pmi_vocab), pmi_vocab)
        # overall: every occurrence of every length counts once
        cov[(strategy, m)] = (sum(c.fully_masked_count for c in by_length.values())
                              / sum(c.occurrence_count for c in by_length.values()))
    ratio = cov[("uniform", 0.40)] / cov[("uniform", 0.15)]
    pmi_beats_uniform = cov[("pmi", 0.15)] > cov[("uniform", 0.15)]
    report(5, "uniform 40%/15% full-span coverage ratio in [5, 12]; "
              "PMI@15% coverage exceeds uniform@15%",
           5.0 <= ratio <= 12.0 and pmi_beats_uniform,
           f"ratio={ratio:.2f}, pmi15={cov[('pmi', 0.15)]:.4f}, "
           f"uni15={cov[('uniform', 0.15)]:.4f}, corpus={size_mb:.1f}MB")


def test_criterion_6_span_statistics():
    ds = full_windows(10_000, 128, seed=6)
    means = {}
    for m in (0.40, 0.80):
        cfg = MaskingConfig(strategy="span", **rates(m), mean_span=3.0, seed=17)
        means[m] = mean_run_length(span_histogram(generate_blocks(ds, cfg)))
    ok = 2.5 <= means[0.40] <= 3.5 and means[0.80] > 3.5
    report(6, "span strategy mean run length in [2.5, 3.5] at m=0.40 and "
              "> 3.5 at m=0.80",
           ok, f"mean@0.40={means[0.40]:.2f}, mean@0.80={means[0.80]:.2f}")


def test_criterion_7_perplexity_contracts():
    ds = full_windows(20, 128, seed=7)  # 2560 tokens <= 10k
    cfg = MaskingConfig(**rates(0.15), seed=19)
    ppl_uniform = masked_perplexity(generate_blocks(ds, cfg),
                                    make_scorer("uniform", vocab_size=VOCAB.size))
    uniform_ok = abs(ppl_uniform - VOCAB.size) / VOCAB.size < 1e-12

    ppl_unigram = masked_perplexity(generate_blocks(ds, cfg), make_scorer("unigram", ds=ds))
    # independent brute force: recount unigrams, re-walk the plan stream
    counts = Counter(int(t) for w in ds for t in w.ids
                     if int(t) not in VOCAB.special_ids)
    total = sum(counts.values())
    logs = [math.log(counts[orig] / total)
            for plan in all_plans(generate_plans(ds, cfg))
            for orig in plan.pred_originals.tolist()]
    brute = math.exp(-sum(logs) / len(logs))
    unigram_ok = abs(ppl_unigram - brute) / brute < 1e-9
    report(7, "uniform-scorer PPL = V; unigram PPL matches brute force "
              "within 1e-9",
           uniform_ok and unigram_ok,
           f"uniform={ppl_uniform:.9f}, unigram={ppl_unigram:.4f}")


def test_criterion_8_pll_contracts():
    sentences = [[10, 11, 12, 13], [20, 21], [30]]
    oracle = TokenScorer(np.zeros(VOCAB.size), np.arange(VOCAB.size))
    oracle_ok = all(pll_score(s, oracle, VOCAB) == 0.0 for s in sentences)

    # oracle-consistent scorer: good sentences use frequent tokens
    counts = np.zeros(VOCAB.size, dtype=np.int64)
    counts[10:20], counts[20:30] = 1000, 1
    scorer = unigram(counts, np.arange(VOCAB.size))
    pairs = [([10, 11], [20, 21]), ([12, 13, 14], [22, 23, 24])]
    acc = minimal_pair_accuracy(pairs, scorer, VOCAB)

    brute_ok = True
    total = int(counts.sum())
    for s in sentences[:2]:
        expected = sum(math.log(int(counts[t]) / total) for t in s)
        got = pll_score(s, scorer, VOCAB)
        if abs(got - expected) > 1e-9 * max(1.0, abs(expected)):
            brute_ok = False

    class CountingScorer:
        def __init__(self, sent):
            self.sent = sent
            self.calls = 0

        def log_probs(self, block):
            assert block.target_counts.tolist() == [1] * len(block.corrupted_ids)
            for row, pos in zip(block.corrupted_ids.tolist(), block.target_positions.tolist()):
                self.calls += 1
                diffs = [i for i, (a, b) in enumerate(zip(row, self.sent)) if a != b]
                assert diffs == [pos]
            return np.zeros(len(block.target_originals))

    query_ok = True
    for s in sentences:
        spy = CountingScorer(s)
        pll_score(s, spy, VOCAB)
        query_ok = query_ok and spy.calls == len(s)

    report(8, "oracle PLL = 0 and consistent accuracy = 1.0; unigram PLL "
              "matches brute force; n single-mask queries per length-n sentence",
           oracle_ok and acc == 1.0 and brute_ok and query_ok,
           f"accuracy={acc}")


def test_criterion_9_pmi_correctness():
    a, b = 10, 11
    doc = TokenSequence(np.array([a, b, a, b]), np.ones(4, dtype=bool))
    counts = count_ngrams([doc], n_max=2)
    toy_ok = abs(pmi_score((a, b), counts) - math.log(8 / 3)) < 1e-12

    rng = np.random.default_rng(9)
    docs = [TokenSequence(rng.integers(3, 30, size=50), np.ones(50, dtype=bool))
            for _ in range(40)]
    whole = count_ngrams(docs, n_max=3)
    sharded = count_ngrams_sharded([docs[:13], docs[13:29], docs[29:]], n_max=3)
    shard_ok = sharded.counts == whole.counts and sharded.slots == whole.slots
    report(9, "toy-corpus PMI = log(8/3) within 1e-12; sharded counting "
              "equals unsharded exactly", toy_ok and shard_ok)


def test_criterion_10_cli_determinism(desk_corpus, tmp_path):
    docs = desk_corpus[0][:1000]
    corpus_path = tmp_path / "c.jsonl"
    serialize_tokens(docs, corpus_path)
    vocab_flags = ["--vocab-size", str(VOCAB.size), "--mask-id", str(VOCAB.mask_id),
                   "--pad-id", str(VOCAB.pad_id), "--sep-id", str(VOCAB.sep_id)]

    packed = {}
    for name in ("p1.jsonl", "p2.jsonl"):
        out = tmp_path / name
        assert run(["pack", "--input", str(corpus_path), "--output", str(out),
                    "--seq-len", "128"] + vocab_flags) == 0
        packed[name] = out.read_bytes()
    pack_ok = packed["p1.jsonl"] == packed["p2.jsonl"]

    masked = {}
    for name in ("m1.jsonl", "m2.jsonl"):
        out = tmp_path / name
        assert run(["--seed", "23", "mask",
                    "--input", str(tmp_path / "p1.jsonl"), "--output", str(out),
                    "--mask-rate", "0.4", "--p-mask", "0.8", "--p-rand", "0.1",
                    "--p-same", "0.1"]) == 0
        masked[name] = out.read_bytes()

    # the same lines from plans made by an 8-worker pool, one window per
    # task, each from its own (seed, epoch, index) substream
    ds = load_packed(tmp_path / "p1.jsonl")
    cfg = MaskingConfig(**rates(0.4), policy=(0.8, 0.1, 0.1), seed=23)
    order = [idx for idx, _ in epoch_stream(ds, 23, 0)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        planned = list(pool.map(lambda idx: plan_window(
            ds[idx], ds.vocab, cfg, substream(23, 0, idx), None, source_sequence=idx),
            order))
    examples = [materialize_one(ds[plan.source_sequence], plan, ds.vocab)
                for plans in planned for plan in plans]
    lines = [json.dumps({"seq": e.corrupted_ids[0].tolist(),
                         "targets": [[p, o] for p, o in zip(e.target_positions.tolist(),
                                                            e.target_originals.tolist())],
                         "dup": int(e.duplicate_index[0]), "src": int(e.source_sequence[0])},
                        separators=(",", ":"))
             for e in examples]
    body = masked["m1.jsonl"].decode().splitlines()[1:]
    mask_ok = masked["m1.jsonl"] == masked["m2.jsonl"] and body == lines and len(lines) > 0
    report(10, "CLI pipeline byte-identical across repeat runs and equal to "
               "lines from an 8-worker pool's plans on a 1k-document corpus",
           pack_ok and mask_ok)


def test_criterion_11_throughput(tmp_path):
    ds = full_windows(10_000, 128, seed=11)
    from mlmpipe.corpus import save_packed
    packed = tmp_path / "packed.jsonl"
    save_packed(ds, packed)
    out = tmp_path / "masked.jsonl"
    start = time.perf_counter()
    rc = run(["--seed", "1", "mask", "--input", str(packed),
              "--output", str(out), "--strategy", "uniform",
              "--mask-rate", "0.15"])
    elapsed = time.perf_counter() - start
    tokens = 10_000 * 128
    rate = tokens / elapsed
    report(11, "mask sustains >= 200k tokens/s single-threaded (uniform, L=128)",
           rc == 0 and rate >= 200_000, f"{rate / 1000:.0f}k tokens/s")


def test_criterion_12_metric_arithmetic():
    values = {0.15: 84.2, 0.40: 84.5, 0.50: 84.7}
    out = normalized_performance(values, 0.15)
    mean = sum(values.values()) / len(values)
    sigma = math.sqrt(sum((v - mean) ** 2 for v in values.values()) / len(values))
    brute = {r: (v - values[0.15]) / sigma for r, v in values.items()}
    norm_ok = all(abs(out[r] - brute[r]) < 1e-9 for r in values) \
        and out[0.15] == 0.0 and abs(out[0.50] - 2.4333) < 1e-3

    rel = relative_metric({0.15: 88.0, 0.40: 89.8}, 0.15)
    rel_ok = abs(rel[0.40] - 1.8) < 1e-12
    report(12, "normalized performance matches brute-force arithmetic "
               "(~2.43 at 50%); relative metric reproduces +1.8",
           norm_ok and rel_ok, f"normalized(0.50)={out[0.50]:.4f}")
