"""CLI fuzz: mutated input files end in a documented exit code and at most
one stderr line, never a traceback.

Each case starts from a valid input file, deletes, inserts, replaces or
truncates bytes, and runs the subcommand that reads it in-process. External
scorers are left out: a scorer that never answers would hang the run.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmpipe.cli import run

from conftest import VOCAB

VOCAB_FLAGS = ["--vocab-size", str(VOCAB.size), "--mask-id", str(VOCAB.mask_id),
               "--pad-id", str(VOCAB.pad_id), "--sep-id", str(VOCAB.sep_id)]
CORPUS = "".join(json.dumps({"ids": ids, "word_starts": [i % 3 != 1 for i in range(len(ids))]},
                            separators=(",", ":")) + "\n"
                 for ids in ([5, 6, 7, 8, 5, 6, 9, 10, 5, 6, 7, 8, 11, 12],
                             [9, 10, 5, 6, 7, 8, 14, 15, 5, 6, 9, 10, 16, 5, 6, 7, 8],
                             [5, 6, 7, 8, 17, 9, 10, 18, 5, 6, 7, 8, 19]))

# input kind: argv of the subcommand that reads it, where "{in}" is the mutated
# file and "{dir}" the directory that holds the valid files
COMMANDS = {
    "corpus": ["pack", "--input", "{in}", "--output", "{dir}/out", "--seq-len", "16",
               *VOCAB_FLAGS],
    "packed": ["mask", "--input", "{in}", "--output", "{dir}/out", "--mask-rate", "0.4",
               "--p-mask", "0.8", "--p-rand", "0.1", "--p-same", "0.1"],
    "pmi": ["stats", "coverage", "--input", "{dir}/packed.jsonl", "--output", "{dir}/out",
            "--strategy", "pmi", "--mask-rate", "0.4", "--pmi-vocab", "{in}"],
    "pairs": ["pll", "--pairs", "{in}", "--scorer", "unigram", "--corpus",
              "{dir}/packed.jsonl", *VOCAB_FLAGS],
    "config": ["--config", "{in}", "stats", "spans", "--input", "{dir}/packed.jsonl",
               "--output", "{dir}/out"],
    "values": ["metric", "normalize", "--baseline", "0.15", "--values", "{in}"],
}

# bytes that steer the JSON and TSV parsers somewhere other than a syntax error
PIECES = [b"-", b"0", b"9" * 20, b"1e400", b".5", b"true", b"null", b"NaN", b'"', b",",
          b"[", b"]", b"{", b"}", b"\n", b"\t", b" ", b"\xff", b"\x00"]


def run_quietly(argv):
    """The exit code and the stderr text of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = run(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """Each input kind's valid bytes, and a directory with the valid files."""
    root = tmp_path_factory.mktemp("valid")
    (root / "corpus.jsonl").write_text(CORPUS)
    files = {"corpus": "corpus.jsonl", "packed": "packed.jsonl", "pmi": "pmi.tsv",
             "pairs": "pairs.jsonl", "config": "config.json", "values": "values.json"}
    (root / "pairs.jsonl").write_text('{"good": [5, 6, 7, 8], "bad": [5, 7, 6, 8]}\n')
    (root / "config.json").write_text('{"strategy": "span", "mask-rate": 0.4, "mean-span": 2.5}')
    (root / "values.json").write_text('{"0.15": 84.2, "0.4": 84.9, "0.8": 83.1}')
    for argv in (["pack", "--input", "{dir}/corpus.jsonl", "--output", "{dir}/packed.jsonl",
                  "--seq-len", "16", *VOCAB_FLAGS],
                 ["pmi-build", "--input", "{dir}/corpus.jsonl", "--output", "{dir}/pmi.tsv",
                  "--vocab-size", str(VOCAB.size), "--n-max", "4", "--min-count", "2"]):
        assert run([a.replace("{dir}", str(root)) for a in argv]) == 0
    # every valid input runs clean
    for kind, name in files.items():
        argv = [a.replace("{in}", str(root / name)).replace("{dir}", str(root))
                for a in COMMANDS[kind]]
        assert run_quietly(argv) == (0, "")
    return root, {kind: (root / name).read_bytes() for kind, name in files.items()}


@st.composite
def mutations(draw, data):
    """`data` after one to four deletions, insertions, replacements or truncations."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "truncate"]))
        piece = draw(st.one_of(st.sampled_from(PIECES), st.binary(min_size=1, max_size=3)))
        if op == "delete":
            del data[at:at + draw(st.integers(1, 6))]
        elif op == "insert":
            data[at:at] = piece
        elif op == "replace":
            data[at:at + len(piece)] = piece
        else:
            del data[at:]
    return bytes(data)


@pytest.mark.parametrize("kind", COMMANDS)
def test_mutated_input_ends_in_one_line(valid_inputs, kind):
    root, valid = valid_inputs

    @given(mutations(valid[kind]))
    @settings(max_examples=40, deadline=None)
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(data)
            argv = [a.replace("{in}", str(path)).replace("{dir}", str(root))
                    for a in COMMANDS[kind]]
            rc, err = run_quietly(argv)
        assert rc in (0, 1, 2, 3), (rc, err)
        assert len(err.splitlines()) <= 1 and "Traceback" not in err, err

    check()
