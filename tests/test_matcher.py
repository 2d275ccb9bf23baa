"""The bigram-indexed n-gram matcher against the tuple-scan loops it replaced.

``oracle_segment_units`` and ``oracle_occurrences`` are the earlier
implementations of PMI segmentation and coverage matching, kept verbatim in
behaviour: they build a tuple for every (position, length) pair and test it
against the vocabulary. The matcher must agree with them exactly.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlmpipe import masking
from mlmpipe.analysis import _vocab_occurrences
from mlmpipe.cli import run
from mlmpipe.corpus import load_packed, serialize_tokens
from mlmpipe.pmi import PmiVocabulary, segment_units

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


# a small alphabet (pad, sep and three ordinary ids) makes matches, overlaps
# and prefix entries common
TOKENS = st.sampled_from([PAD, SEP, 5, 6, 7])
GRAMS = st.lists(st.lists(TOKENS, min_size=1, max_size=8).map(tuple), max_size=12)


def vocab_with_prefixes(grams, prefix_cuts):
    """The drawn n-grams plus a prefix of each, so prefix entries are common."""
    entries = {}
    for gram, cut in zip(grams, prefix_cuts + [0] * len(grams)):
        entries[gram] = 1.0
        if 0 < cut < len(gram):
            entries[gram[:cut]] = 0.5
    return PmiVocabulary(entries=entries, n_max=8, size_cap=max(len(entries), 1))


@given(ids=st.lists(TOKENS, max_size=40),
       starts=st.lists(st.booleans(), min_size=40, max_size=40),
       grams=GRAMS,
       prefix_cuts=st.lists(st.integers(0, 7), max_size=12))
@settings(max_examples=300, deadline=None)
@example(ids=[5, 6, 7, 5, 6], starts=[True] * 40, grams=[], prefix_cuts=[])
@example(ids=[5, 6, 7, 5, 6, 7], starts=[True] * 40,
         grams=[(5, 6, 7, 5), (6, 7)], prefix_cuts=[2, 0])
@example(ids=[5, 6, SEP, 7, 5, PAD, 6], starts=[False] * 40,
         grams=[(6, SEP, 7), (5, PAD), (7,), (5, 6, SEP, 7, 5, PAD, 6, 6)],
         prefix_cuts=[0, 0, 0, 3])
def test_matcher_equals_tuple_scan(ids, starts, grams, prefix_cuts):
    word_starts = starts[:len(ids)]
    if word_starts:
        word_starts[0] = True
    win = make_window(ids, word_starts=word_starts)
    pv = vocab_with_prefixes(grams, prefix_cuts)
    assert segment_units(win, VOCAB, "pmi", pv) == oracle_segment_units(win, VOCAB, "pmi", pv)
    assert _vocab_occurrences(win, pv) == oracle_occurrences(win, pv)


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

    matcher = mask(tmp_path / "matcher.jsonl")
    monkeypatch.setattr(masking, "segment_units", oracle_segment_units)
    assert mask(tmp_path / "oracle.jsonl") == matcher
