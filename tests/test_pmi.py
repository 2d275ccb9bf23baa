import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmpipe import pmi
from mlmpipe.cli import run
from mlmpipe.corpus import PackedDataset, TokenSequence, pack_sequences, serialize_tokens
from mlmpipe.errors import ConfigError, DataError, UndefinedScoreError
from mlmpipe.pmi import (NgramCounts, PmiVocabulary, build_vocab, count_ngrams,
                         count_ngrams_sharded, pmi_score, segment_units)

from conftest import VOCAB, make_window, random_docs

A, B, C = 10, 11, 12


def doc(ids):
    return TokenSequence(ids=np.array(ids, dtype=np.int64), word_starts=np.ones(len(ids), dtype=bool))


def oracle_segments(data):
    """Maximal runs of ordinary tokens; sep/pad break runs in packed data."""
    if isinstance(data, PackedDataset):
        pad, sep = data.vocab.pad_id, data.vocab.sep_id
        for win in data:
            ids = win.ids
            breaks = (ids == pad) | (ids == sep)
            start = None
            for i in range(len(ids)):
                if breaks[i]:
                    if start is not None:
                        yield ids[start:i].tolist()
                        start = None
                elif start is None:
                    start = i
            if start is not None:
                yield ids[start:].tolist()
    else:
        for d in data:
            yield list(d.ids)


def oracle_count_ngrams(data, n_max):
    """The Counter-based counting that the array version replaced."""
    counts = Counter()
    slots = {n: 0 for n in range(1, n_max + 1)}
    for seg in oracle_segments(data):
        s = len(seg)
        for n in range(1, n_max + 1):
            if s < n:
                break
            slots[n] += s - n + 1
            if n == 1:
                counts.update((t,) for t in seg)
            else:
                counts.update(zip(*(seg[i:] for i in range(n))))
    return NgramCounts(counts=counts, slots=slots, n_max=n_max)


def assert_counts_match_oracle(data, n_max, min_count):
    got = count_ngrams(data, n_max, min_count=min_count)
    oracle = oracle_count_ngrams(data, n_max)
    assert dict(got.counts) == {g: c for g, c in oracle.counts.items() if c >= min_count}
    # a length with no slot is missing from ``slots``
    assert got.slots == {n: k for n, k in oracle.slots.items() if k}
    assert got.n_max == n_max


def brute_force_counts(tokens, n_max):
    """Independent oracle: plain sliding-window counting on one segment."""
    counts = Counter()
    slots = {}
    for n in range(1, n_max + 1):
        slots[n] = max(0, len(tokens) - n + 1)
        for i in range(slots[n]):
            counts[tuple(tokens[i:i + n])] += 1
    return counts, slots


class TestCountNgrams:
    def test_hand_enumeration(self):
        counts = count_ngrams([doc([A, B, A, B])], n_max=2)
        assert counts.counts[(A,)] == 2
        assert counts.counts[(B,)] == 2
        assert counts.counts[(A, B)] == 2
        assert counts.counts[(B, A)] == 1
        assert counts.slots.get(1, 0) == 4
        assert counts.slots[2] == 3

    def test_empty_corpus(self):
        counts = count_ngrams([], n_max=2)
        assert not counts.counts
        assert counts.slots.get(1, 0) == 0

    def test_separator_blocks_ngrams(self):
        docs = [doc([A]), doc([B])]
        ds = pack_sequences(docs, 8, VOCAB)  # A sep B pad...
        counts = count_ngrams(ds, n_max=2)
        assert counts.counts.get((A, B), 0) == 0
        assert counts.counts[(A,)] == 1 and counts.counts[(B,)] == 1

    def test_slots_stop_at_the_longest_run(self):
        counts = count_ngrams([doc(list(range(3, 40)))], n_max=10 ** 7)
        assert counts.slots == {n: 38 - n for n in range(1, 38)}

    def test_n_max_too_small(self):
        with pytest.raises(ConfigError):
            count_ngrams([], n_max=1)

    def test_matches_brute_force(self):
        tokens = [3, 4, 3, 5, 4, 3, 3, 6, 5, 4]
        counts = count_ngrams([doc(tokens)], n_max=4)
        oracle_counts, oracle_slots = brute_force_counts(tokens, 4)
        assert counts.counts == oracle_counts
        assert counts.slots == {n: k for n, k in oracle_slots.items() if k}

    @given(st.lists(st.lists(st.integers(min_value=3, max_value=8),
                             min_size=1, max_size=20),
                    min_size=1, max_size=6),
           st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_sharded_equals_unsharded(self, token_lists, n_max):
        docs = [doc(t) for t in token_lists]
        whole = count_ngrams(docs, n_max)
        for cut in range(len(docs) + 1):
            sharded = count_ngrams_sharded([docs[:cut], docs[cut:]], n_max)
            assert sharded.counts == whole.counts
            assert sharded.slots == whole.slots

    # few distinct ids so that n-grams repeat and min_count prunes some, not all
    @given(st.lists(st.lists(st.integers(min_value=3, max_value=6), max_size=12), max_size=6),
           st.integers(min_value=2, max_value=5), st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_documents_match_oracle(self, token_lists, n_max, min_count):
        assert_counts_match_oracle([doc(t) for t in token_lists], n_max, min_count)

    @given(st.lists(st.lists(st.sampled_from([VOCAB.pad_id, VOCAB.sep_id, 3, 4, 5, 6]),
                             min_size=6, max_size=6), max_size=8),
           st.integers(min_value=2, max_value=5), st.sampled_from([1, 2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_packed_matches_oracle(self, windows, n_max, min_count):
        ds = PackedDataset(ids=np.array(windows, dtype=np.int64).reshape(-1, 6),
                           word_starts=np.ones((len(windows), 6), dtype=bool), vocab=VOCAB)
        assert_counts_match_oracle(ds, n_max, min_count)

    @pytest.mark.parametrize("min_count", [1, 2, 3])
    def test_packed_corpus_matches_oracle(self, min_count):
        ds = pack_sequences(random_docs(30, 20, seed=4), 16, VOCAB)
        assert_counts_match_oracle(ds, 5, min_count)

    @pytest.mark.parametrize("min_count", [2, 3, 5])
    def test_pruned_subgrams_kept(self, min_count):
        docs = [doc(np.random.default_rng(7).integers(3, 6, size=1000).tolist())]
        kept = count_ngrams(docs, 5, min_count=min_count).counts
        assert any(len(g) == 5 for g in kept)
        assert len(kept) < len(count_ngrams(docs, 5).counts)
        for gram in kept:
            for n in range(1, len(gram)):
                for i in range(len(gram) - n + 1):
                    assert kept[gram[i:i + n]] >= kept[gram]

    def test_key_overflow_raises(self, monkeypatch):
        # 4 distinct tokens: 4 unigram groups x width 4 = 16 possible bigram keys
        monkeypatch.setattr(pmi, "_KEY_LIMIT", 16)
        with pytest.raises(DataError, match="overflow"):
            count_ngrams([doc([3, 4, 5, 6])], n_max=2)
        monkeypatch.setattr(pmi, "_KEY_LIMIT", 17)
        assert count_ngrams([doc([3, 4, 5, 6])], n_max=2).slots[2] == 3

    @given(st.lists(st.lists(st.integers(min_value=3, max_value=5), max_size=16), max_size=5),
           st.lists(st.lists(st.sampled_from([VOCAB.pad_id, VOCAB.sep_id, 3, 4, 5]),
                             min_size=3, max_size=3), max_size=8),
           st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_chunk_boundaries_match_oracle(self, token_lists, windows, min_count):
        # chunks of 1, 3 and 7 tokens: documents longer than a chunk, chunks of
        # several documents or rows, and rows that hold pad/sep
        ds = PackedDataset(ids=np.array(windows, dtype=np.int64).reshape(-1, 3),
                           word_starts=np.ones((len(windows), 3), dtype=bool), vocab=VOCAB)
        with pytest.MonkeyPatch.context() as patch:
            for chunk in (1, 3, 7):
                patch.setattr(pmi, "_CHUNK_TOKENS", chunk)
                assert_counts_match_oracle([doc(t) for t in token_lists], 5, min_count)
                assert_counts_match_oracle([], 5, min_count)
                assert_counts_match_oracle(ds, 5, min_count)

    def test_peak_memory_per_token(self):
        # about 200k Zipf-distributed tokens in documents of 50 to 400 tokens
        rng = np.random.default_rng(5)
        lengths = rng.integers(50, 400, size=900)
        weights = 1 / np.arange(1, 998) ** 1.1
        ids = rng.choice(np.arange(3, 1000), size=int(lengths.sum()), p=weights / weights.sum())
        docs = [doc(part) for part in np.split(ids, np.cumsum(lengths)[:-1])]
        tracemalloc.start()
        try:
            loaded = tracemalloc.get_traced_memory()[0]
            counts = count_ngrams(docs, 5, min_count=10)
            peak = tracemalloc.get_traced_memory()[1] - loaded
        finally:
            tracemalloc.stop()
        assert any(len(g) == 5 for g in counts.counts)
        # the per-position state, the key tables and one chunk; whole-corpus
        # int64 arrays took about 100 bytes per token
        assert peak / len(ids) <= 32

    def test_rank_type_widens_or_raises(self, monkeypatch):
        # 18 distinct tokens, so more than 127 distinct bigrams but not unigrams
        docs = [doc(np.random.default_rng(3).integers(3, 21, size=2000).tolist())]
        monkeypatch.setattr(pmi, "_RANK_TYPES", (np.int8, np.int16))
        assert_counts_match_oracle(docs, 3, 1)
        monkeypatch.setattr(pmi, "_RANK_TYPES", (np.int8,))
        with pytest.raises(DataError, match="overflow"):
            count_ngrams(docs, n_max=3)

    def test_keys_narrower_than_the_token_count(self):
        # 256 distinct tokens: the codes fit uint8, the token count does not
        ids = list(range(3, 259))
        assert_counts_match_oracle([doc(ids + ids[:40]), doc(ids[::-1])], 3, 1)

    def test_subgram_count_dominates(self):
        docs = random_docs(5, 40)
        counts = count_ngrams(docs, n_max=3)
        for gram, c in counts.counts.items():
            for n in range(1, len(gram)):
                for i in range(len(gram) - n + 1):
                    assert counts.counts[gram[i:i + n]] >= c


class TestPmiBuildCli:
    @pytest.mark.parametrize("n_max,min_count", [(2, 1), (3, 2), (5, 3)])
    def test_tsv_matches_oracle_vocab(self, tmp_path, n_max, min_count):
        docs = random_docs(40, 80, seed=2)
        corpus = tmp_path / "corpus.jsonl"
        serialize_tokens(docs, corpus)
        out = tmp_path / "pmi.tsv"
        rc = run(["pmi-build", "--input", str(corpus), "--output", str(out),
                  "--vocab-size", str(VOCAB.size), "--n-max", str(n_max),
                  "--min-count", str(min_count), "--size-cap", "200"])
        assert rc == 0
        got = out.read_bytes()
        header = got.decode().split("\n", 1)[0][2:]
        expected = tmp_path / "oracle.tsv"
        build_vocab(oracle_count_ngrams(docs, n_max), size_cap=200,
                    min_count=min_count).save_tsv(expected, header=header)
        assert len(got.splitlines()) > 1
        assert got == expected.read_bytes()


class TestPmiScore:
    def test_toy_bigram(self):
        counts = count_ngrams([doc([A, B, A, B])], n_max=2)
        # p(a,b)=2/3, p(a)=p(b)=1/2 -> log((2/3)/(1/4)) = log(8/3)
        assert pmi_score((A, B), counts) == pytest.approx(math.log(8 / 3), abs=1e-12)

    def test_bigram_matches_brute_force_exactly(self):
        docs = random_docs(20, 60)
        counts = count_ngrams(docs, n_max=2)
        all_tokens = [t for d in docs for t in d.ids]
        oracle_counts = Counter(zip(all_tokens, all_tokens[1:]))
        # oracle slot counts: doc-local bigram slots
        oracle_bigrams = Counter()
        bigram_slots = 0
        uni = Counter()
        for d in docs:
            uni.update(d.ids)
            bigram_slots += max(0, len(d.ids) - 1)
            oracle_bigrams.update(zip(d.ids, d.ids[1:]))
        total = sum(uni.values())
        for gram, c in oracle_bigrams.items():
            expected = math.log((c / bigram_slots)
                                / ((uni[gram[0]] / total) * (uni[gram[1]] / total)))
            assert pmi_score(gram, counts) == pytest.approx(expected, abs=1e-12)

    def test_independent_tokens_pmi_near_zero(self):
        import numpy as np
        rng = np.random.default_rng(3)
        tokens = rng.integers(3, 7, size=200_000).tolist()
        counts = count_ngrams([doc(tokens)], n_max=2)
        for a in range(3, 7):
            for b in range(3, 7):
                assert abs(pmi_score((a, b), counts)) < 0.05

    def test_trigram_is_min_over_splits(self):
        tokens = [A, B, C, A, B, A, C, B, C, A, B, C]
        counts = count_ngrams([doc(tokens)], n_max=3)

        def p(g):
            return counts.counts[g] / counts.slots[len(g)]

        expected = min(
            math.log(p((A, B, C)) / (p((A,)) * p((B, C)))),
            math.log(p((A, B, C)) / (p((A, B)) * p((C,)))),
        )
        assert pmi_score((A, B, C), counts) == pytest.approx(expected, abs=1e-12)

    def test_zero_count_segment(self):
        counts = count_ngrams([doc([A, B])], n_max=2)
        with pytest.raises(UndefinedScoreError):
            pmi_score((A, C), counts)


class TestBuildVocab:
    def _toy_counts(self):
        # (A,B) appears often together; (B,C) rarely
        tokens = [A, B] * 6 + [C, B, C, A, C, C]
        return count_ngrams([doc(tokens)], n_max=2)

    def test_top_entry(self):
        counts = self._toy_counts()
        best = max((g for g in counts.counts if len(g) == 2),
                   key=lambda g: pmi_score(g, counts))
        vocab = build_vocab(counts, size_cap=1, min_count=1)
        assert list(vocab.entries) == [best]

    def test_zero_cap_rejected(self):
        with pytest.raises(ConfigError):
            build_vocab(self._toy_counts(), size_cap=0, min_count=1)

    def test_min_count_above_all(self):
        vocab = build_vocab(self._toy_counts(), size_cap=10, min_count=10 ** 6)
        assert len(vocab) == 0

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_monotone_cap(self, k):
        counts = self._toy_counts()
        smaller = build_vocab(counts, size_cap=k, min_count=1)
        larger = build_vocab(counts, size_cap=k + 1, min_count=1)
        assert list(smaller.entries) == list(larger.entries)[:len(smaller)]

    def test_tsv_roundtrip(self, tmp_path):
        vocab = build_vocab(self._toy_counts(), size_cap=5, min_count=1)
        path = tmp_path / "pmi.tsv"
        vocab.save_tsv(path, header="provenance goes here")
        back = PmiVocabulary.load_tsv(path)
        assert list(back.entries) == list(vocab.entries)
        for g in vocab.entries:
            assert back.entries[g] == pytest.approx(vocab.entries[g], rel=1e-8)

    @pytest.mark.parametrize("bad", ["5 6\tabc", "5 6 0.5", "5 6\t0.5\t1", "5 x\t0.5",
                                     "\t0.5", "5 6\tnan", "5 6\tinf", "5 6\t-inf"])
    def test_malformed_tsv_names_line(self, tmp_path, bad):
        path = tmp_path / "pmi.tsv"
        path.write_text(f"# header\n7 8\t1.0\n{bad}\n")
        with pytest.raises(DataError, match="line 3"):
            PmiVocabulary.load_tsv(path)


class TestSegmentUnits:
    def test_whole_word_mode(self):
        win = make_window([5, 6, 7, 8], word_starts=[True, False, True, False])
        units = segment_units(win, VOCAB, "whole_word")
        assert units == [(0, 2), (2, 4)]

    def test_pmi_mode_matches_pair(self):
        pv = PmiVocabulary(entries={(7, 8): 1.0})
        win = make_window([5, 7, 8, 6])
        units = segment_units(win, VOCAB, "pmi", pv)
        assert (1, 3) in units

    def test_greedy_longest_leftmost(self):
        pv = PmiVocabulary(entries={(7, 8): 1.0, (8, 9): 2.0})
        win = make_window([7, 8, 9])
        units = segment_units(win, VOCAB, "pmi", pv)
        assert units == [(0, 2), (2, 3)]

    def test_longer_match_preferred(self):
        pv = PmiVocabulary(entries={(7, 8): 1.0, (7, 8, 9): 0.5})
        win = make_window([7, 8, 9])
        units = segment_units(win, VOCAB, "pmi", pv)
        assert units == [(0, 3)]

    def test_pmi_requires_vocab(self):
        with pytest.raises(ConfigError):
            segment_units(make_window([5]), VOCAB, "pmi")

    @pytest.mark.parametrize("mode", ["single_token", "span", "uniform"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ConfigError, match="unknown segmentation mode"):
            segment_units(make_window([5, 6]), VOCAB, mode)

    @given(st.lists(st.sampled_from([0, 1, 5, 6, 7, 8, 9]), min_size=1, max_size=40),
           st.sampled_from(["whole_word", "pmi"]))
    @settings(max_examples=60, deadline=None)
    def test_units_partition_maskable_positions(self, ids, mode):
        import numpy as np
        rng = np.random.default_rng(sum(ids))
        ws = rng.random(len(ids)) < 0.6
        ws[0] = True
        win = make_window(ids, word_starts=ws)
        pv = PmiVocabulary(entries={(7, 8): 1.0, (8, 9): 2.0, (5, 6, 7): 0.3})
        units = segment_units(win, VOCAB, mode, pv)
        covered = [p for s, e in units for p in range(s, e)]
        maskable = [i for i, t in enumerate(ids)
                    if t not in (VOCAB.pad_id, VOCAB.sep_id)]
        assert sorted(covered) == maskable
        assert len(covered) == len(set(covered))
