"""Golden digests of the v1 masking stream.

Each case runs `mask` on one small fixed corpus and PMI vocabulary and pins
the SHA-256 of every example line (the provenance header, which names the
input paths, is left out). The digests guard the stream contract: refactors
and speed-ups of planning must keep these bytes. A change that alters the
stream on purpose must bump ``stream_version`` in the provenance header (a
header without the field is version 1) and update these digests in the same
change.

The corpus and the vocabulary are built here from a fixed linear
congruential sequence, so neither depends on numpy's generators or on other
test helpers. The special ids are scattered (pad 0, sep 57, mask 119), so
random replacements must skip ids in the middle of the vocabulary.
"""

import hashlib
import json

import pytest

from mlmpipe.cli import run

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
