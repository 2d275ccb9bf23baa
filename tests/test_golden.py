"""Golden digests of the v1 masking stream and of the analysis outputs.

Each case runs `mask` on one small fixed corpus and PMI vocabulary and pins
the SHA-256 of every example line (the provenance header, which names the
input paths, is left out). The analysis cases pin `stats`, `metric` and
`ppl` output in the same way: every CSV line after the `# <config>` line,
and the `ppl` JSON line without its `_config` key. The digests guard the
stream contract: refactors and speed-ups of planning must keep these bytes.
The `pmi-build` cases pin the mined TSV, every line after its `# <config>`
line, in the same way: n-gram counting and scoring must keep those bytes.
A change that alters the stream on purpose must bump ``stream_version`` in
the provenance header (a header without the field is version 1) and update
these digests in the same change.

The corpus and the vocabulary are built here from a fixed linear
congruential sequence, so neither depends on numpy's generators or on other
test helpers. The special ids are scattered (pad 0, sep 57, mask 119), so
random replacements must skip ids in the middle of the vocabulary.
"""

import hashlib
import json

import numpy as np
import pytest

from mlmpipe.analysis import pll_score
from mlmpipe.cli import _masking_config, build_parser, run
from mlmpipe.corpus import load_packed
from mlmpipe.masking import generate_blocks, generate_plans
from mlmpipe.pmi import PmiVocabulary

SIZE, PAD, SEP, MASK = 120, 0, 57, 119
VOCAB_FLAGS = ["--vocab-size", str(SIZE), "--mask-id", str(MASK),
               "--pad-id", str(PAD), "--sep-id", str(SEP)]


def lcg(seed):
    """An endless stream of 19-bit integers: the high bits of a 31-bit
    linear congruential generator, as its low bits have short periods."""
    state = seed
    while True:
        state = (1103515245 * state + 12345) % 2 ** 31
        yield state >> 12


def ordinary(k):
    """The k-th ordinary (non-special) token id."""
    return [t for t in range(SIZE) if t not in (PAD, SEP, MASK)][k % (SIZE - 3)]


def phrases():
    """40 phrases of 1 to 4 tokens; the multi-token ones are PMI entries."""
    draw = lcg(7)
    out = []
    for _ in range(40):
        n = 1 + next(draw) % 4
        out.append(tuple(ordinary(next(draw)) for _ in range(n)))
    return list(dict.fromkeys(out))


def write_inputs(tmp_path):
    draw = lcg(11)
    table = phrases()
    docs = []
    for _ in range(130):
        ids = []
        for _ in range(8 + next(draw) % 40):
            ids.extend(table[next(draw) % len(table)])
        # mostly word starts, so whole-word units of several lengths occur
        starts = [i == 0 or next(draw) % 10 < 7 for i in range(len(ids))]
        docs.append(json.dumps({"ids": ids, "word_starts": starts}, separators=(",", ":")))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(docs) + "\n")
    packed = tmp_path / "packed.jsonl"
    assert run(["pack", "--input", str(corpus), "--output", str(packed),
                "--seq-len", "64"] + VOCAB_FLAGS) == 0
    tsv = tmp_path / "pmi.tsv"
    grams = [g for g in table if len(g) >= 2]
    tsv.write_text("".join(" ".join(map(str, g)) + f"\t{5.0 - 0.1 * r:.9g}\n"
                           for r, g in enumerate(grams)))
    return packed, tsv


# 80-10-10 replacement policy
POLICY = ["--p-mask", "0.8", "--p-rand", "0.1", "--p-same", "0.1"]

# id: (mask flags, SHA-256 of the example lines)
GOLDEN = {
    "uniform-2-epochs": (
        ["--strategy", "uniform", "--mask-rate", "0.15", "--epochs", "2"],
        "4794c54fca8b92f72c546b37f41c319972d85c8d519e8081e1629c8a6febcc8f"),
    "span-0.4": (
        ["--strategy", "span", "--mask-rate", "0.4"],
        "24561b4f1c9101ed6f7688179a15b4b069677f898507cfc8653fef10aa696720"),
    "whole_word-0.3-extra-same": (
        ["--strategy", "whole_word", "--mask-rate", "0.3", "--extra-same", "0.05"],
        "43bbaa741fd7d59656ad49b0c88c02c4038aeb718ff39082d3c50ef3ea7890b3"),
    "pmi-0.2-0.4-80-10-10": (
        ["--strategy", "pmi", "--corruption-rate", "0.2", "--prediction-rate", "0.4"]
        + POLICY,
        "6bbca67150c13f00123cd6c167377918b9ed61971f72ed302e0ded6654e9bd25"),
    "pmi-0.45-0.3": (
        ["--strategy", "pmi", "--corruption-rate", "0.45", "--prediction-rate", "0.3"],
        "87755aa8d80cb9223290d0ef2343df9385bb5c563491c8e4b6677ebed378d5e8"),
    "uniform-bernoulli-80-10-10": (
        ["--strategy", "uniform", "--mask-rate", "0.4", "--policy-sampling", "bernoulli"]
        + POLICY,
        "9401800d4cd2910fbad04fa39bd4d5f6c0352caf89119cd2de2964e3cbee7a07"),
    "uniform-0.1-0.3": (
        ["--strategy", "uniform", "--corruption-rate", "0.1", "--prediction-rate", "0.3"],
        "5bd3664bac51ce76c46795da67de167d4863de024df072513ce0c81c1b6f1e34"),
}


@pytest.mark.parametrize("flags, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_mask_output_digest(tmp_path, flags, digest):
    packed, tsv = write_inputs(tmp_path)
    out = tmp_path / "masked.jsonl"
    assert run(["--seed", "5", "mask", "--input", str(packed), "--output", str(out),
                "--pmi-vocab", str(tsv)] + flags) == 0
    header, body = out.read_bytes().split(b"\n", 1)
    assert body.count(b"\n") > 100
    assert hashlib.sha256(body).hexdigest() == digest


class Recorder:
    """A scorer that keeps every block it is given and scores each target 0."""

    def __init__(self):
        self.blocks = []

    def log_probs(self, block):
        self.blocks.append(block)
        return np.zeros(len(block.target_originals))


@pytest.mark.parametrize("flags", [flags for flags, _ in GOLDEN.values()], ids=GOLDEN.keys())
def test_corrupted_flags_are_the_plans_corrupted_positions(tmp_path, flags):
    packed, tsv = write_inputs(tmp_path)
    args = build_parser().parse_args(["--seed", "5", "mask", "--input", str(packed),
                                      "--output", str(tmp_path / "unused")] + flags)
    config, ds, pmi_vocab = _masking_config(args), load_packed(packed), PmiVocabulary.load_tsv(tsv)
    for epoch in range(args.epochs):
        plans = [plan for block in generate_plans(ds, config, pmi_vocab, epoch)
                 for plan in block.plans()]
        rows = [row for block in generate_blocks(ds, config, pmi_vocab, epoch)
                for row in block.corrupted]
        assert len(rows) == len(plans) >= len(ds)
        for row, plan in zip(rows, plans):
            assert row.dtype == bool
            assert np.array_equal(row.nonzero()[0], plan.corrupted_positions)
    # pll_score's row i is corrupted at position i and nowhere else
    sentence = ds.ids[:3].ravel()
    scorer = Recorder()
    pll_score(sentence, scorer, ds.vocab)
    assert len(scorer.blocks) > 1
    assert np.array_equal(np.concatenate([b.corrupted for b in scorer.blocks]),
                          np.eye(len(sentence), dtype=bool))


@pytest.mark.parametrize("flags", [flags for flags, _ in GOLDEN.values()], ids=GOLDEN.keys())
def test_original_ids_are_the_source_windows(tmp_path, flags):
    packed, tsv = write_inputs(tmp_path)
    args = build_parser().parse_args(["--seed", "5", "mask", "--input", str(packed),
                                      "--output", str(tmp_path / "unused")] + flags)
    config, ds, pmi_vocab = _masking_config(args), load_packed(packed), PmiVocabulary.load_tsv(tsv)
    for epoch in range(args.epochs):
        for block in generate_blocks(ds, config, pmi_vocab, epoch):
            assert np.array_equal(block.original_ids, ds.ids[block.source_sequence])
    # each of pll_score's rows holds the whole sentence
    sentence = ds.ids[:3].ravel()
    scorer = Recorder()
    pll_score(sentence, scorer, ds.vocab)
    assert all((b.original_ids == sentence).all() for b in scorer.blocks)


# values file of the `metric` cases, keys out of rate order
METRIC_VALUES = '{"0.4": 85.1, "0.15": 84.2, "0.8": 83.3, "0.2": 84.9}'
DECOUPLED = ["--corruption-rate", "0.2", "--prediction-rate", "0.4"]

# id: (subcommand argv, output file or None for stdout, SHA-256 without provenance)
ANALYSIS_GOLDEN = {
    "stats-coverage-span-0.4": (
        ["stats", "coverage", "--strategy", "span", "--mask-rate", "0.4"], "out.csv",
        "cb43afe53f76b478f95c3111f32d2cf7251c78df677d8da2d07cc94cc5fb978f"),
    "stats-coverage-pmi-0.2-0.4-80-10-10": (
        ["stats", "coverage", "--strategy", "pmi"] + DECOUPLED + POLICY, "out.csv",
        "d35a6d4e04f4b4b65125a122420d77002ef4637d665a5b0b44d8e93999112fc2"),
    "stats-spans-span-0.4": (
        ["stats", "spans", "--strategy", "span", "--mask-rate", "0.4"], "out.csv",
        "8e9ef967d44ffbc303b42eca31fcb5255c750bd7e819be8c5c11e702c5852827"),
    "metric-normalize-output": (
        ["metric", "normalize", "--baseline", "0.15"], "out.csv",
        "cb528657d631986fe81cc0f0e9fcf3a3d6c781cd4c342886517420312dc1ac46"),
    "metric-relative-stdout": (
        ["metric", "relative", "--baseline", "0.15"], None,
        "d626de00648d73f9cbef034b0ce3bb935c025fea9e94eec1595eede738dbdade"),
    "ppl-unigram-pmi-0.2-0.4-80-10-10": (
        ["ppl", "--scorer", "unigram", "--strategy", "pmi"] + DECOUPLED + POLICY, None,
        "56c91459b4c968e60c23e284b354e78c43c24e16f730633aa7a2316ab0473f28"),
}


def without_provenance(output: bytes) -> bytes:
    """A CSV without its `# <config>` line, or a JSON line without "_config"."""
    if output.startswith(b"# "):
        return output.split(b"\n", 1)[1]
    record = json.loads(output)
    del record["_config"]
    return json.dumps(record).encode()


@pytest.mark.parametrize("argv, output, digest", ANALYSIS_GOLDEN.values(),
                         ids=ANALYSIS_GOLDEN.keys())
def test_analysis_output_digest(tmp_path, capsys, argv, output, digest):
    packed, tsv = write_inputs(tmp_path)
    capsys.readouterr()
    if argv[0] == "metric":
        values = tmp_path / "values.json"
        values.write_text(METRIC_VALUES)
        argv = argv + ["--values", str(values)]
    else:
        argv = argv + ["--input", str(packed), "--pmi-vocab", str(tsv)]
    if output is not None:
        argv = argv + ["--output", str(tmp_path / output)]
    assert run(["--seed", "5"] + argv) == 0
    stdout = capsys.readouterr().out.encode()
    got = stdout if output is None else (tmp_path / output).read_bytes()
    assert (output is None) == bool(stdout)
    assert hashlib.sha256(without_provenance(got)).hexdigest() == digest


# id: (pmi-build flags, SHA-256 of the TSV without its `# <config>` line)
PMI_BUILD_GOLDEN = {
    "pmi-build-5-min-count-2": (
        ["--n-max", "5", "--min-count", "2"],
        "de1c5681f80135e630db132761c1d4f24121d8723030e2920525df1bd837cdd9"),
    "pmi-build-5-min-count-1": (
        ["--n-max", "5", "--min-count", "1"],
        "0edf746602ba435b82c8b67aa7a67ea8c804e20bca356375ef94a5cbad05a1d9"),
}


@pytest.mark.parametrize("flags, digest", PMI_BUILD_GOLDEN.values(), ids=PMI_BUILD_GOLDEN.keys())
def test_pmi_build_tsv_digest(tmp_path, flags, digest):
    write_inputs(tmp_path)
    out = tmp_path / "mined.tsv"
    assert run(["pmi-build", "--input", str(tmp_path / "corpus.jsonl"), "--output", str(out),
                "--vocab-size", str(SIZE)] + flags) == 0
    tsv = out.read_bytes()
    assert tsv.count(b"\n") > 1000
    assert hashlib.sha256(without_provenance(tsv)).hexdigest() == digest
