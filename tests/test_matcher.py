"""The array n-gram index against the matchers it replaced.

Three oracles are kept here, each verbatim in behaviour:

- ``oracle_segment_units`` and ``oracle_occurrences`` build a tuple for every
  (position, length) pair and test it against the vocabulary;
- ``DictMatcher`` is the leading-bigram dict matcher that PMI segmentation
  and coverage shared before the array index (``bigram_index``,
  ``candidates``, ``match_lengths``);
- ``oracle_coverage`` is the per-occurrence set loop of ``pmi_coverage``
  over ``DictMatcher`` occurrences.

The index, the block segmenter and the block coverage driver must agree
with them exactly.
"""

from itertools import chain, compress

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlmpipe import masking, pmi
from mlmpipe.analysis import LengthCoverage, _vocab_occurrences, pmi_coverage
from mlmpipe.cli import run
from mlmpipe.corpus import PackedDataset, load_packed, serialize_tokens
from mlmpipe.errors import DataError, IntegrityError
from mlmpipe.masking import MaskingConfig, generate_plans
from mlmpipe.pmi import PmiVocabulary, segment_block, segment_units

from conftest import VOCAB, make_window, random_docs

PAD, SEP = VOCAB.pad_id, VOCAB.sep_id


def oracle_segment_units(window, vocab, mode, pmi_vocab=None):
    ids = window.ids
    word_starts = window.word_starts
    special = (ids == vocab.pad_id) | (ids == vocab.sep_id)
    max_n = max((len(g) for g in pmi_vocab.entries), default=0) if pmi_vocab else 0
    units = []
    L = len(ids)
    seg_start = None
    for i in range(L + 1):
        if i < L and not special[i]:
            if seg_start is None:
                seg_start = i
            continue
        if seg_start is None:
            continue
        end, pos = i, seg_start
        seg_start = None
        if mode == "single_token":
            units.extend((p, p + 1) for p in range(pos, end))
            continue
        while pos < end:
            if mode == "pmi" and max_n >= 2:
                matched = False
                for n in range(min(max_n, end - pos), 1, -1):
                    if tuple(int(t) for t in ids[pos:pos + n]) in pmi_vocab.entries:
                        units.append((pos, pos + n))
                        pos += n
                        matched = True
                        break
                if matched:
                    continue
            nxt = pos + 1
            while nxt < end and not word_starts[nxt]:
                nxt += 1
            units.append((pos, nxt))
            pos = nxt
    return units


def oracle_occurrences(window, pmi_vocab):
    ids = [int(t) for t in window.ids]
    L = len(ids)
    max_n = max((len(g) for g in pmi_vocab.entries), default=0)
    occ = []
    for start in range(L - 1):
        for n in range(2, min(max_n, L - start) + 1):
            if tuple(ids[start:start + n]) in pmi_vocab.entries:
                occ.append((start, n))
    return occ


class DictMatcher:
    """Leading bigram -> lengths of the entries starting with it, longest
    first; each candidate length confirmed by exact membership."""

    def __init__(self, pmi_vocab):
        self.entries = pmi_vocab.entries
        lengths = {}
        for gram in self.entries:
            if len(gram) >= 2:
                lengths.setdefault(gram[:2], set()).add(len(gram))
        self.bigram_index = {key: tuple(sorted(ns, reverse=True))
                             for key, ns in lengths.items()}

    def candidates(self, ids):
        return list(map(self.bigram_index.get, zip(ids, ids[1:])))

    def match_lengths(self, ids, pos, end, lengths):
        for n in lengths:
            if n <= end - pos and (n == 2 or tuple(ids[pos:pos + n]) in self.entries):
                yield n

    def occurrences(self, window):
        ids = window.ids.tolist()
        candidates = self.candidates(ids)
        occ = []
        for start in compress(range(len(candidates)), candidates):
            matched = list(self.match_lengths(ids, start, len(ids), candidates[start]))
            occ.extend((start, n) for n in reversed(matched))
        return occ

    def segment_units(self, window, vocab):
        ids = window.ids.tolist()
        word_starts = window.word_starts.tolist()
        candidates = self.candidates(ids) + [None]
        special = ((window.ids == vocab.pad_id) | (window.ids == vocab.sep_id)).tolist()
        units = []
        L = len(ids)
        seg_start = None
        for i in range(L + 1):
            if i < L and not special[i]:
                if seg_start is None:
                    seg_start = i
                continue
            if seg_start is None:
                continue
            pos, end = seg_start, i
            seg_start = None
            while pos < end:
                if candidates[pos] is not None:
                    n = next(self.match_lengths(ids, pos, end, candidates[pos]), 0)
                    if n:
                        units.append((pos, pos + n))
                        pos += n
                        continue
                nxt = pos + 1
                while nxt < end and not word_starts[nxt]:
                    nxt += 1
                units.append((pos, nxt))
                pos = nxt
        return units


def oracle_coverage(plans, pmi_vocab, ds):
    """pmi_coverage's per-occurrence set loop over the dict matcher."""
    matcher = DictMatcher(pmi_vocab)
    occ_source, occ = None, []
    by_length = {}
    for plan in plans:
        if not 0 <= plan.source_sequence < len(ds):
            raise IntegrityError(f"plan references sequence {plan.source_sequence}")
        if plan.source_sequence != occ_source:
            occ_source = plan.source_sequence
            occ = matcher.occurrences(ds[occ_source])
        corrupted = set(plan.corrupted_positions.tolist())
        for start, n in occ:
            cell = by_length.setdefault(n, LengthCoverage(0, 0))
            cell.occurrence_count += 1
            if corrupted.issuperset(range(start, start + n)):
                cell.fully_masked_count += 1
    return by_length


# a small alphabet (pad, sep, three ordinary ids and one id beyond the
# vocabulary) makes matches, overlaps and prefix entries common
TOKENS = st.sampled_from([PAD, SEP, 5, 6, 7, VOCAB.size + 50])
GRAMS = st.lists(st.lists(TOKENS, min_size=1, max_size=8).map(tuple), max_size=12)


def vocab_with_prefixes(grams, prefix_cuts):
    """The drawn n-grams plus a prefix of each, so prefix entries are common."""
    entries = {}
    for gram, cut in zip(grams, prefix_cuts + [0] * len(grams)):
        entries[gram] = 1.0
        if 0 < cut < len(gram):
            entries[gram[:cut]] = 0.5
    return PmiVocabulary(entries=entries)


@given(ids=st.lists(TOKENS, max_size=40),
       starts=st.lists(st.booleans(), min_size=40, max_size=40),
       rows=st.integers(1, 4),
       grams=GRAMS,
       prefix_cuts=st.lists(st.integers(0, 7), max_size=12))
@settings(max_examples=300, deadline=None)
@example(ids=[5, 6, 7, 5, 6], starts=[True] * 40, rows=1, grams=[], prefix_cuts=[])
@example(ids=[5, 6, 7, 5, 6, 7], starts=[True] * 40, rows=1,
         grams=[(5, 6, 7, 5), (6, 7)], prefix_cuts=[2, 0])
@example(ids=[5, 6, SEP, 7, 5, PAD, 6], starts=[False] * 40, rows=1,
         grams=[(6, SEP, 7), (5, PAD), (7,), (5, 6, SEP, 7, 5, PAD, 6, 6)],
         prefix_cuts=[0, 0, 0, 3])
@example(ids=[5, 6, 7, 5, 6, 7, 7, 5], starts=[True] * 40, rows=2,
         grams=[(7, 5, 6), (6, 7, 7, 5)], prefix_cuts=[0, 0])
def test_matcher_equals_tuple_scan(ids, starts, rows, grams, prefix_cuts):
    # the windows of one block are the rows of ids; a match never runs from
    # one row into the next
    L = len(ids) // rows
    matrix = np.array(ids[:rows * L], dtype=np.int64).reshape(rows, L)
    word_starts = np.array(starts[:rows * L], dtype=bool).reshape(rows, L)
    word_starts[:, :1] = True
    pv = vocab_with_prefixes(grams, prefix_cuts)
    matcher = DictMatcher(pv)
    windows = [make_window(row_ids, row_ws) for row_ids, row_ws in zip(matrix, word_starts)]
    want_units = [oracle_segment_units(w, VOCAB, "pmi", pv) for w in windows]
    assert want_units == [matcher.segment_units(w, VOCAB) for w in windows]
    assert segment_block(matrix, word_starts, VOCAB, "pmi", pv) == want_units
    assert [segment_units(w, VOCAB, "pmi", pv) for w in windows] == want_units
    for mode in ("single_token", "whole_word"):
        assert segment_block(matrix, word_starts, VOCAB, mode) == \
            [oracle_segment_units(w, VOCAB, mode) for w in windows]
    want_occ = [(r, s, n) for r, w in enumerate(windows) for s, n in oracle_occurrences(w, pv)]
    assert want_occ == [(r, s, n) for r, w in enumerate(windows)
                        for s, n in sorted(matcher.occurrences(w))]
    got = _vocab_occurrences(matrix, pv)
    assert got.dtype == np.int64 and got.shape == (len(want_occ), 3)
    assert [tuple(o) for o in got.tolist()] == want_occ


def test_pmi_mask_cli_matches_oracle_segmentation(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    serialize_tokens(random_docs(40, 80), corpus)
    flags = ["--vocab-size", str(VOCAB.size), "--mask-id", str(VOCAB.mask_id),
             "--pad-id", str(PAD), "--sep-id", str(SEP)]
    packed, tsv = tmp_path / "packed.jsonl", tmp_path / "pmi.tsv"
    assert run(["pack", "--input", str(corpus), "--output", str(packed),
                "--seq-len", "128"] + flags) == 0
    assert run(["pmi-build", "--input", str(corpus), "--output", str(tsv),
                "--vocab-size", str(VOCAB.size), "--n-max", "3",
                "--min-count", "2", "--size-cap", "200"]) == 0
    pv = PmiVocabulary.load_tsv(tsv)
    ds = load_packed(packed)
    assert any(e - s >= 2 for w in ds
               for s, e in oracle_segment_units(w, ds.vocab, "pmi", pv)
               if tuple(w.ids[s:e].tolist()) in pv.entries)

    def mask(out):
        assert run(["--seed", "13", "mask", "--input", str(packed), "--output", str(out),
                    "--strategy", "pmi", "--pmi-vocab", str(tsv),
                    "--corruption-rate", "0.2", "--prediction-rate", "0.4",
                    "--p-mask", "0.8", "--p-rand", "0.1", "--p-same", "0.1"]) == 0
        return out.read_bytes()

    def oracle_block(ids, word_starts, vocab, mode, pmi_vocab=None):
        return [oracle_segment_units(make_window(i, w), vocab, mode, pmi_vocab)
                for i, w in zip(ids, word_starts)]

    matcher = mask(tmp_path / "matcher.jsonl")
    monkeypatch.setattr(masking, "segment_block", oracle_block)
    assert mask(tmp_path / "oracle.jsonl") == matcher


# ---------------------------------------------------------------------------
# the index itself


def test_index_is_built_on_first_use(tmp_path):
    path = tmp_path / "pmi.tsv"
    path.write_text("5 6\t2.0\n5 6 7\t1.0\n")
    pv = PmiVocabulary.load_tsv(path)
    assert pv._index is None
    tokens, levels = pv.index
    assert tokens.tolist() == [5, 6, 7]
    # level 2: the prefix (5, 6) is an entry; level 3: (5, 6, 7) is too
    assert [flags.tolist() for _, flags in levels] == [[True], [True]]
    assert pv.index is pv.index


def test_ids_beyond_int64_are_left_out():
    pv = PmiVocabulary(entries={(2 ** 70, 5): 1.0, (5, 6): 1.0, (6, -2 ** 64, 7): 1.0})
    ids = np.array([[5, 6, 5, 6]])
    assert _vocab_occurrences(ids, pv).tolist() == [[0, 0, 2], [0, 2, 2]]
    assert pv.index[0].tolist() == [5, 6]


@pytest.mark.parametrize("entries, limit", [
    # 3 distinct tokens: 3 first-token groups x width 3 = 9 possible bigram keys
    ({(5, 6): 1.0, (6, 7): 1.0}, 9),
    # 2 distinct tokens (4 bigram keys) but 4 distinct 2-token prefixes x
    # width 2 = 8 possible trigram keys
    ({(5, 6, 5): 1.0, (6, 5, 6): 1.0, (5, 5, 6): 1.0, (6, 6, 5): 1.0}, 8),
])
def test_key_overflow_raises(monkeypatch, entries, limit):
    monkeypatch.setattr(pmi, "_KEY_LIMIT", limit)
    with pytest.raises(DataError, match="overflow"):
        PmiVocabulary(entries=dict(entries)).index
    monkeypatch.setattr(pmi, "_KEY_LIMIT", limit + 1)
    pv = PmiVocabulary(entries=dict(entries))
    ids = np.array([list(next(iter(entries)))])
    assert _vocab_occurrences(ids, pv)[:, 2].max() == len(next(iter(entries)))


# ---------------------------------------------------------------------------
# block coverage against the set loop


def small_dataset(seed, windows, L):
    """Windows over a five-id alphabet with sep/pad, so n-grams repeat."""
    rng = np.random.default_rng(seed)
    ids = rng.choice([5, 6, 7, 8, 9, 5, 6, SEP, PAD], size=(windows, L))
    ids[:, 0] = 5
    ws = rng.random((windows, L)) < 0.6
    ws[:, 0] = True
    return PackedDataset(ids=ids, word_starts=ws, vocab=VOCAB)


@given(seed=st.integers(0, 2 ** 16),
       windows=st.integers(1, 40),
       L=st.sampled_from([3, 16, 40]),
       strategy=st.sampled_from(["uniform", "span", "whole_word", "pmi"]),
       rates=st.sampled_from([{"m": 0.15}, {"m": 0.5}, {"m_corr": 0.2, "m_pred": 0.4},
                              {"m_corr": 0.4, "m_pred": 0.2}]),
       policy=st.sampled_from([(1.0, 0.0, 0.0), (0.8, 0.1, 0.1)]),
       extra_same=st.sampled_from([0.0, 0.1]),
       block=st.sampled_from([1, 7, 64]),
       grams=st.lists(st.lists(st.sampled_from([5, 6, 7, 8, SEP, PAD, VOCAB.size + 1]),
                               min_size=1, max_size=6).map(tuple), min_size=1, max_size=15))
@settings(max_examples=120, deadline=None)
def test_block_coverage_equals_set_loop(seed, windows, L, strategy, rates, policy,
                                        extra_same, block, grams):
    ds = small_dataset(seed, windows, L)
    pv = PmiVocabulary(entries={g: 1.0 for g in grams})
    cfg = MaskingConfig(strategy=strategy, policy=policy, extra_same=extra_same,
                        seed=seed, **rates)
    want = oracle_coverage(chain.from_iterable(generate_plans(ds, cfg, pv)), pv, ds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(masking, "BLOCK_EXAMPLES", block)
        got = pmi_coverage(generate_plans(ds, cfg, pv), pv, ds)
    assert got.by_length == want
    assert all(type(c.fully_masked_count) is int and type(c.occurrence_count) is int
               for c in got.by_length.values())


@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_coverage_with_repeated_and_disjoint_duplicates(block, monkeypatch):
    # a window planned twice, far apart, is looked up once per run of plans;
    # a window's disjoint duplicates share one generate_plans block, and blocks cut
    # anywhere else give the same counts
    ds = small_dataset(3, 30, 40)
    pv = PmiVocabulary(entries={(5, 6): 1.0, (6, 7, 8): 1.0, (7,): 1.0, (SEP, 5): 1.0})
    cfg = MaskingConfig(strategy="pmi", m_corr=0.2, m_pred=0.6, policy=(0.8, 0.1, 0.1),
                        extra_same=0.05, seed=9)
    monkeypatch.setattr(masking, "BLOCK_EXAMPLES", block)
    blocks = list(generate_plans(ds, cfg, pv))
    plans = list(chain.from_iterable(blocks))
    assert [p.duplicate_index for p in plans[:3]] == [0, 1, 2]
    assert [len(b) for b in blocks] == [3 * block] * (len(ds) // block) + \
        [3 * (len(ds) % block)] * (len(ds) % block > 0)
    blocks, plans = blocks + [plans[:5]], plans + plans[:5]
    want = oracle_coverage(plans, pv, ds)
    assert pmi_coverage(blocks, pv, ds).by_length == want
    cut = [plans[i:i + block] for i in range(0, len(plans), block)]
    assert pmi_coverage(cut, pv, ds).by_length == want

