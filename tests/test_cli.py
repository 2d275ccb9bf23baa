import csv
import json
import math
import sys

import numpy as np
import pytest

from mlmpipe import masking
from mlmpipe.cli import run
from mlmpipe.corpus import (PackedDataset, TokenSequence, Vocab, load_packed, save_packed,
                            serialize_tokens)
from mlmpipe.masking import MaskingConfig, generate_plans
from mlmpipe.pmi import PmiVocabulary

from conftest import VOCAB, materialize_one, random_docs

VOCAB_FLAGS = ["--vocab-size", str(VOCAB.size), "--mask-id", str(VOCAB.mask_id),
               "--pad-id", str(VOCAB.pad_id), "--sep-id", str(VOCAB.sep_id)]


@pytest.fixture
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    serialize_tokens(random_docs(40, 80), path)
    return path


@pytest.fixture
def packed_path(tmp_path, corpus_path):
    out = tmp_path / "packed.jsonl"
    rc = run(["pack", "--input", str(corpus_path), "--output", str(out),
              "--seq-len", "128"] + VOCAB_FLAGS)
    assert rc == 0
    return out


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in fh if not r.startswith("#")]
    return list(csv.DictReader(rows))


class TestPack:
    def test_header_carries_config(self, packed_path):
        header = json.loads(packed_path.read_text().splitlines()[0])
        assert header["_config"]["seq_len"] == 128
        assert header["vocab"]["size"] == VOCAB.size

    def test_bad_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        rc = run(["pack", "--input", str(bad), "--output", str(tmp_path / "o"),
                  ] + VOCAB_FLAGS)
        assert rc == 2

    def test_out_of_range_id_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"ids": [VOCAB.size], "word_starts": [True]}) + "\n")
        rc = run(["pack", "--input", str(bad), "--output", str(tmp_path / "o"),
                  ] + VOCAB_FLAGS)
        assert rc == 2


class TestMask:
    def test_roundtrip_and_determinism(self, tmp_path, packed_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            rc = run(["--seed", "7", "mask", "--input", str(packed_path),
                      "--output", str(out), "--strategy", "uniform",
                      "--mask-rate", "0.4"])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        lines = outs[0].decode().splitlines()
        header = json.loads(lines[0])
        assert header["_config"]["mask_rate"] == 0.4
        rec = json.loads(lines[1])
        assert set(rec) == {"seq", "targets", "dup", "src"}
        assert len(rec["seq"]) == 128

    def test_tiny_mean_span_as_one_below_one(self, tmp_path, packed_path):
        # budget / mean_span is inf for 1e-320; capped at the budget, it plans
        # as every mean span below 1 does
        bodies = []
        for mean_span in ("1e-320", "0.5"):
            out = tmp_path / f"{mean_span}.jsonl"
            assert run(["--seed", "4", "mask", "--input", str(packed_path), "--output", str(out),
                        "--strategy", "span", "--mask-rate", "0.4",
                        "--mean-span", mean_span]) == 0
            bodies.append(out.read_bytes().split(b"\n", 1)[1])
        assert bodies[0] == bodies[1] and bodies[0].count(b"\n") > 10

    @pytest.mark.parametrize("flags", [
        ["--strategy", "uniform", "--mask-rate", "0.15"],
        ["--strategy", "span", "--mask-rate", "0.4"],
        ["--strategy", "whole_word", "--mask-rate", "0.4"],
        ["--strategy", "pmi", "--corruption-rate", "0.2", "--prediction-rate", "0.4",
         "--p-mask", "0.8", "--p-rand", "0.1", "--p-same", "0.1", "--extra-same", "0.05"],
    ], ids=["uniform", "span", "whole_word", "pmi-dup-80-10-10-extra"])
    def test_block_size_byte_identical(self, tmp_path, monkeypatch, capsys, flags):
        # several blocks at the default size, and blocks of 1 and 7 windows:
        # `mask`, both `stats` CSVs and `ppl` read the same `generate_blocks` blocks
        corpus = tmp_path / "corpus.jsonl"
        serialize_tokens(random_docs(300, 80, seed=1), corpus)
        packed = tmp_path / "packed.jsonl"
        assert run(["pack", "--input", str(corpus), "--output", str(packed)] + VOCAB_FLAGS) == 0
        assert len(packed.read_text().splitlines()) - 1 > 2 * masking.BLOCK_EXAMPLES
        tsv = tmp_path / "pmi.tsv"
        assert run(["pmi-build", "--input", str(corpus), "--output", str(tsv),
                    "--vocab-size", str(VOCAB.size), "--n-max", "3",
                    "--min-count", "2", "--size-cap", "200"]) == 0
        outs = []
        for size in (masking.BLOCK_EXAMPLES, 1, 7):
            monkeypatch.setattr(masking, "BLOCK_EXAMPLES", size)
            common = ["--input", str(packed), "--pmi-vocab", str(tsv)] + flags
            paths = [tmp_path / f"b{size}.{name}" for name in ("jsonl", "coverage", "spans")]
            assert run(["--seed", "3", "mask", "--epochs", "2",
                        "--output", str(paths[0])] + common) == 0
            for path in paths[1:]:
                assert run(["--seed", "3", "stats", path.suffix[1:],
                            "--output", str(path)] + common) == 0
            capsys.readouterr()
            assert run(["--seed", "3", "ppl"] + common) == 0
            outs.append([p.read_bytes() for p in paths] + [capsys.readouterr().out])
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][1].count(b"\n") > 2 and outs[0][2].count(b"\n") > 2
        assert "perplexity" in outs[0][3]

    @pytest.mark.parametrize("argv, config, needle", [
        # named even though argparse alone would take the 2 for the subcommand
        (["--threads", "2"], None, "unrecognized arguments: --threads"),
        (["--threads=2"], None, "unrecognized arguments: --threads=2"),
        ([], {"threads": 4}, "'threads' matches no flag"),
    ], ids=["flag", "flag-equals", "config-file"])
    def test_threads_is_usage_error(self, tmp_path, packed_path, capsys, argv, config,
                                    needle):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        out = tmp_path / "o.jsonl"
        rc = run(argv + ["mask", "--input", str(packed_path), "--output", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and needle in err
        assert not out.exists()

    def test_lines_match_library_examples(self, tmp_path):
        # the block writer against one json.dumps line per materialized plan
        corpus_path = tmp_path / "corpus.jsonl"
        serialize_tokens(random_docs(300, 80, seed=2), corpus_path)
        packed = tmp_path / "packed.jsonl"
        assert run(["pack", "--input", str(corpus_path), "--output", str(packed)]
                   + VOCAB_FLAGS) == 0
        out = tmp_path / "masked.jsonl"
        assert run(["--seed", "9", "mask", "--input", str(packed), "--output", str(out),
                    "--epochs", "2", "--corruption-rate", "0.2", "--prediction-rate", "0.4",
                    "--p-mask", "0.8", "--p-rand", "0.1", "--p-same", "0.1"]) == 0
        ds = load_packed(packed)
        assert len(ds) > 2 * masking.BLOCK_EXAMPLES
        cfg = MaskingConfig(m_corr=0.2, m_pred=0.4, policy=(0.8, 0.1, 0.1), seed=9)
        examples = [materialize_one(ds[plan.source_sequence], plan, ds.vocab)
                    for epoch in (0, 1) for plans in generate_plans(ds, cfg, epoch=epoch)
                    for plan in plans]
        expected = [json.dumps({"seq": e.corrupted_ids[0].tolist(),
                                "targets": [[p, o] for p, o in zip(e.target_positions.tolist(),
                                                                   e.target_originals.tolist())],
                                "dup": int(e.duplicate_index[0]),
                                "src": int(e.source_sequence[0])},
                               separators=(",", ":"))
                    for e in examples]
        assert out.read_text().splitlines()[1:] == expected

    def test_bad_rate_is_usage_error(self, tmp_path, packed_path, capsys):
        for flag in (["--mask-rate", "1.5"], ["--p-mask", "1.5"], ["--p-rand", "-0.1"],
                     ["--p-same", "nan"], ["--mean-span", "nan"]):
            rc = run(["mask", "--input", str(packed_path),
                      "--output", str(tmp_path / "o"), "--strategy", "span"] + flag)
            err = capsys.readouterr().err
            assert rc == 1, flag
            assert len(err.splitlines()) == 1 and "Traceback" not in err, flag

    def test_infeasible_decoupling_is_exit_3(self, tmp_path, packed_path, capsys):
        # the failed run removes the output file it created
        out = tmp_path / "o"
        rc = run(["mask", "--input", str(packed_path), "--output", str(out),
                  "--corruption-rate", "0.4", "--prediction-rate", "0.9"])
        assert rc == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_failed_run_keeps_an_output_that_existed(self, tmp_path, packed_path, capsys):
        out = tmp_path / "o"
        out.write_text("from an earlier run\n")
        rc = run(["mask", "--input", str(packed_path), "--output", str(out),
                  "--corruption-rate", "0.4", "--prediction-rate", "0.9"])
        assert rc == 3
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert out.exists()

    def test_decoupled_duplicates_adjacent(self, tmp_path, packed_path):
        out = tmp_path / "dup.jsonl"
        rc = run(["mask", "--input", str(packed_path), "--output", str(out),
                  "--corruption-rate", "0.2", "--prediction-rate", "0.4"])
        assert rc == 0
        recs = [json.loads(x) for x in out.read_text().splitlines()[1:]]
        assert [r["dup"] for r in recs[:2]] == [0, 1]
        assert recs[0]["src"] == recs[1]["src"]

    def test_config_file_equivalence(self, tmp_path, packed_path):
        out_flags = tmp_path / "flags.jsonl"
        run(["--seed", "5", "mask", "--input", str(packed_path),
             "--output", str(out_flags), "--mask-rate", "0.4",
             "--p-mask", "0.8", "--p-rand", "0.1", "--p-same", "0.1"])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "seed": 5, "mask-rate": 0.4,
            "p-mask": 0.8, "p-rand": 0.1, "p-same": 0.1}))
        out_cfg = tmp_path / "cfg.jsonl"
        run(["--config", str(cfg_path), "mask", "--input", str(packed_path),
             "--output", str(out_cfg)])
        strip = lambda b: b.decode().split("\n", 1)[1]
        assert strip(out_flags.read_bytes()) == strip(out_cfg.read_bytes())

    @pytest.mark.parametrize("cfg", [{"mask_rate": "0.4"}, {"epochs": "2"}, {"seed": 1.5},
                                     {"epochs": True}, {"seed": None},
                                     {"strategy": "bogus"}, {"pmi_vocab": 3}])
    def test_config_value_of_wrong_type(self, tmp_path, packed_path, capsys, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = run(["--config", str(cfg_path), "mask", "--input", str(packed_path),
                  "--output", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert repr(next(iter(cfg))) in err

    def test_config_null_where_default_is_none(self, tmp_path, packed_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corruption_rate": None, "prediction_rate": None,
                                        "mask_rate": 1}))
        out = tmp_path / "o.jsonl"
        rc = run(["--config", str(cfg_path), "mask", "--input", str(packed_path),
                  "--output", str(out)])
        assert rc == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["_config"]["mask_rate"] == 1.0

    def test_flags_win_over_config_file(self, tmp_path, packed_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mask-rate": 0.8}))
        out = tmp_path / "o.jsonl"
        rc = run(["--config", str(cfg_path), "mask", "--input", str(packed_path),
                  "--output", str(out), "--mask-rate", "0.15"])
        assert rc == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["_config"]["mask_rate"] == 0.15

    def test_abbreviated_flag_is_usage_error(self, tmp_path, packed_path, capsys):
        # explicit flags are known to the config file by their full spelling,
        # so an abbreviation would silently lose to the file
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mask_rate": 0.8}))
        out = tmp_path / "o.jsonl"
        rc = run(["--config", str(cfg_path), "mask", "--input", str(packed_path),
                  "--output", str(out), "--mask-r", "0.15"])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "unrecognized arguments: --mask-r" in err
        assert not out.exists()


class TestSeedAndEpochs:
    @pytest.mark.parametrize("subcommand", [["mask"], ["stats", "spans"], ["ppl"]])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_seed_is_usage_error(self, tmp_path, packed_path, capsys, subcommand,
                                          via):
        argv = ["--seed", "-1"]
        if via == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"seed": -1}))
            argv = ["--config", str(cfg)]
        out = tmp_path / "o"
        output = [] if subcommand == ["ppl"] else ["--output", str(out)]
        rc = run(argv + subcommand + ["--input", str(packed_path)] + output)
        captured = capsys.readouterr()
        assert rc == 1
        assert len(captured.err.splitlines()) == 1 and "seed" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_epochs_below_one_is_usage_error(self, tmp_path, packed_path, capsys, epochs,
                                             via):
        argv = ["mask", "--epochs", epochs]
        if via == "config":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"epochs": int(epochs)}))
            argv = ["--config", str(cfg), "mask"]
        out = tmp_path / "o.jsonl"
        rc = run(argv + ["--input", str(packed_path), "--output", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert len(err.splitlines()) == 1 and "epochs" in err
        assert not out.exists()


class TestPmiBuildAndStats:
    def test_pmi_build_tsv(self, tmp_path, corpus_path):
        out = tmp_path / "pmi.tsv"
        rc = run(["pmi-build", "--input", str(corpus_path), "--output", str(out),
                  "--vocab-size", str(VOCAB.size), "--n-max", "3",
                  "--min-count", "2", "--size-cap", "50"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ")
        body = [l for l in lines if not l.startswith("#")]
        assert 0 < len(body) <= 50
        gram, score = body[0].split("\t")
        assert all(tok.isdigit() for tok in gram.split())
        float(score)

    def test_pmi_build_n_max_beyond_the_longest_document(self, tmp_path, corpus_path):
        # no document reaches 200 tokens, and counting stops at the longest
        # one, so a huge --n-max finishes with the entries of --n-max 200
        bodies = []
        for n_max in ("200", "100000000"):
            out = tmp_path / f"pmi{n_max}.tsv"
            assert run(["pmi-build", "--input", str(corpus_path), "--output", str(out),
                        "--vocab-size", str(VOCAB.size), "--n-max", n_max,
                        "--min-count", "2", "--size-cap", "50"]) == 0
            bodies.append(out.read_text().split("\n", 1)[1])
        assert bodies[0] == bodies[1] and bodies[0].count("\n") == 50

    def test_stats_coverage_csv(self, tmp_path, corpus_path, packed_path):
        pmi_tsv = tmp_path / "pmi.tsv"
        run(["pmi-build", "--input", str(corpus_path), "--output", str(pmi_tsv),
             "--vocab-size", str(VOCAB.size), "--n-max", "2",
             "--min-count", "2", "--size-cap", "50"])
        out = tmp_path / "cov.csv"
        rc = run(["stats", "coverage", "--input", str(packed_path),
                  "--output", str(out), "--mask-rate", "0.4",
                  "--pmi-vocab", str(pmi_tsv)])
        assert rc == 0
        rows = read_csv(out)
        assert rows and set(rows[0]) == {"strategy", "masking_rate",
                                         "ngram_len", "coverage"}

    def test_stats_spans_csv(self, tmp_path, packed_path):
        out = tmp_path / "spans.csv"
        rc = run(["stats", "spans", "--input", str(packed_path),
                  "--output", str(out), "--strategy", "span",
                  "--mask-rate", "0.4"])
        assert rc == 0
        rows = read_csv(out)
        assert rows and set(rows[0]) == {"strategy", "masking_rate",
                                         "span_len", "count"}
        assert all(r["strategy"] == "span" for r in rows)

    @pytest.mark.parametrize("kind", ["coverage", "spans"])
    def test_rows_labelled_with_corruption_rate(self, tmp_path, corpus_path, packed_path,
                                                kind):
        # under decoupled rates the unused --mask-rate default must not label rows
        pmi_tsv = tmp_path / "pmi.tsv"
        assert run(["pmi-build", "--input", str(corpus_path), "--output", str(pmi_tsv),
                    "--vocab-size", str(VOCAB.size), "--n-max", "2",
                    "--min-count", "2", "--size-cap", "50"]) == 0
        out = tmp_path / f"{kind}.csv"
        rc = run(["stats", kind, "--input", str(packed_path), "--output", str(out),
                  "--strategy", "span", "--corruption-rate", "0.4",
                  "--prediction-rate", "0.4", "--pmi-vocab", str(pmi_tsv)])
        assert rc == 0
        rows = read_csv(out)
        assert rows and all(r["masking_rate"] == "0.4" for r in rows)

    @pytest.mark.parametrize("kind", ["coverage", "spans"])
    def test_failed_run_leaves_no_csv(self, tmp_path, packed_path, capsys, kind):
        # the plans fail while the stream is read, and the CSV is written after
        tsv = tmp_path / "pmi.tsv"
        tsv.write_text("5 6\t1.0\n")
        out = tmp_path / f"{kind}.csv"
        rc = run(["stats", kind, "--input", str(packed_path), "--output", str(out),
                  "--pmi-vocab", str(tsv), "--corruption-rate", "0.4",
                  "--prediction-rate", "0.9"])
        assert rc == 3 and len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_coverage_requires_pmi_vocab(self, tmp_path, packed_path, capsys):
        out = tmp_path / "o.csv"
        rc = run(["stats", "coverage", "--input", str(packed_path), "--output", str(out)])
        assert rc == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


class TestCoverageLaw:
    """Under uniform masking with an exact budget of c among N maskable
    positions, an n-gram inside the maskable set is fully masked with
    probability C(N-n, c-n) / C(N, c). PMI masking, which masks vocabulary
    n-grams as units, must fully mask them more often at every rate."""

    WINDOWS, L, SIZE = 3000, 128, 5000
    LENGTHS = (2, 3, 4, 5)

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        # no sep or pad: all N = L positions are maskable; each window holds
        # one vocabulary n-gram of each length, at disjoint offsets
        tmp = tmp_path_factory.mktemp("law")
        vocab = Vocab(size=self.SIZE, mask_id=2, pad_id=0, sep_id=1)
        rng = np.random.default_rng(29)
        ids = rng.integers(3, self.SIZE, size=(self.WINDOWS, self.L))
        word_starts = rng.random(ids.shape) < 0.7
        word_starts[:, 0] = True
        ds = PackedDataset(ids=ids, word_starts=word_starts, vocab=vocab)
        entries = {tuple(row[10 * n:11 * n].tolist()): 1.0 for row in ids for n in self.LENGTHS}
        packed, tsv = tmp / "packed.jsonl", tmp / "pmi.tsv"
        save_packed(ds, packed)
        PmiVocabulary(entries=entries).save_tsv(tsv)
        return packed, tsv

    def coverage(self, inputs, tmp_path, strategy, m):
        packed, tsv = inputs
        out = tmp_path / f"{strategy}-{m}.csv"
        assert run(["--seed", "3", "stats", "coverage", "--input", str(packed),
                    "--output", str(out), "--strategy", strategy, "--mask-rate", str(m),
                    "--pmi-vocab", str(tsv)]) == 0
        return {int(r["ngram_len"]): float(r["coverage"]) for r in read_csv(out)}

    @pytest.mark.parametrize("m", [0.15, 0.4, 0.8])
    def test_uniform_coverage_is_hypergeometric(self, inputs, tmp_path, m):
        N = self.L
        c = masking.exact_count(m, N)
        uniform = self.coverage(inputs, tmp_path, "uniform", m)
        pmi = self.coverage(inputs, tmp_path, "pmi", m)
        assert set(uniform) == set(pmi) == set(self.LENGTHS)
        for n in self.LENGTHS:
            p = math.comb(N - n, c - n) / math.comb(N, c)
            # at least one occurrence per window; chance matches add a few
            trials = self.WINDOWS
            tolerance = 4 * math.sqrt(p * (1 - p) / trials) + 1 / trials
            assert abs(uniform[n] - p) <= tolerance, (n, uniform[n], p)
            assert pmi[n] > uniform[n], (n, pmi[n], uniform[n])


MALFORMED_TSV = {"non_numeric_score": "5 6\tabc", "no_tab": "5 6 0.5",
                 "two_tabs": "5 6\t0.5\t1", "non_integer_id": "5 x\t0.5",
                 "negative_id": "-5 6\t1.0", "id_beyond_int64": "99999999999999999999999 7\t0.5"}


def assert_one_line_error(capsys, rc, needle):
    err = capsys.readouterr().err
    assert rc == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert needle in err


class TestMalformedPmiTsv:
    @pytest.mark.parametrize("bad", MALFORMED_TSV.values(), ids=MALFORMED_TSV.keys())
    @pytest.mark.parametrize("subcommand", [["mask", "--strategy", "pmi"],
                                            ["stats", "coverage"]])
    def test_exit_2_one_line(self, tmp_path, packed_path, capsys, bad, subcommand):
        tsv = tmp_path / "pmi.tsv"
        tsv.write_text(f"7 8\t1.0\n{bad}\n")
        rc = run(subcommand + ["--input", str(packed_path),
                               "--output", str(tmp_path / "o"), "--pmi-vocab", str(tsv)])
        assert_one_line_error(capsys, rc, "line 2")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", [["mask", "--strategy", "pmi"],
                                            ["stats", "coverage"]])
    def test_repeated_ngram_names_both_lines(self, tmp_path, packed_path, capsys, subcommand):
        tsv = tmp_path / "pmi.tsv"
        tsv.write_text("5 6\t1.0\n7 8\t0.5\n5 6\t2.0\n")
        rc = run(subcommand + ["--input", str(packed_path),
                               "--output", str(tmp_path / "o"), "--pmi-vocab", str(tsv)])
        assert_one_line_error(capsys, rc, "line 3: n-gram 5 6 repeats line 1")
        assert not (tmp_path / "o").exists()


BAD_UTF8 = b"\xff\xfe"


def with_bad_line(path, lineno):
    """Replace line `lineno` of `path` with bytes that are not UTF-8."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = BAD_UTF8 + b"\n"
    path.write_bytes(b"".join(lines))


class TestInvalidUtf8:
    # every reader of a text file ends in one line naming the file and line:
    # exit 2 for data files, exit 1 for the config file
    @pytest.mark.parametrize("reader", ["corpus", "packed", "pmi-tsv", "pairs", "config"])
    def test_one_line_naming_file_and_line(self, tmp_path, corpus_path, packed_path, capsys,
                                           reader):
        out = str(tmp_path / "o")
        tsv = tmp_path / "pmi.tsv"
        tsv.write_text("# header\n7 8\t1.0\n9 10\t0.5\n")
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"good": [5, 6], "bad": [5, 7]}) + "\n" * 2)
        config = tmp_path / "cfg.json"
        config.write_text('{\n"mask_rate": 0.3\n}\n')
        bad, lineno, argv, code = {
            "corpus": (corpus_path, 2, ["pack", "--input", str(corpus_path), "--output", out]
                       + VOCAB_FLAGS, 2),
            "packed": (packed_path, 3, ["mask", "--input", str(packed_path), "--output", out],
                       2),
            "pmi-tsv": (tsv, 2, ["mask", "--strategy", "pmi", "--pmi-vocab", str(tsv),
                                 "--input", str(packed_path), "--output", out], 2),
            "pairs": (pairs, 2, ["pll", "--pairs", str(pairs), "--scorer", "uniform"]
                      + VOCAB_FLAGS, 2),
            "config": (config, 2, ["--config", str(config), "mask", "--input",
                                   str(packed_path), "--output", out], 1),
        }[reader]
        with_bad_line(bad, lineno)
        rc = run(argv)
        err = capsys.readouterr().err
        assert rc == code
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert f"{bad} line {lineno}: invalid UTF-8" in err


class TestOutOfVocabularyIds:
    @pytest.mark.parametrize("bad_id", [99999, -4, "x", 2 ** 70])
    @pytest.mark.parametrize("subcommand", [["mask"], ["stats", "spans"]])
    def test_packed_window_outside_vocab(self, tmp_path, packed_path, capsys,
                                         bad_id, subcommand):
        lines = packed_path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["ids"][5] = bad_id
        lines[2] = json.dumps(rec)
        bad = tmp_path / "bad_packed.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = run(subcommand + ["--input", str(bad), "--output", str(tmp_path / "o")])
        assert_one_line_error(capsys, rc, "line 3")

    @pytest.mark.parametrize("bad_id", [VOCAB.size, 99999, -1])
    def test_pll_pair_outside_vocab(self, tmp_path, capsys, bad_id):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"good": [5, 6], "bad": [5, 7]}) + "\n"
                         + json.dumps({"good": [5, 6], "bad": [5, bad_id]}) + "\n")
        rc = run(["pll", "--pairs", str(pairs), "--scorer", "uniform"] + VOCAB_FLAGS)
        assert_one_line_error(capsys, rc, "line 2")


class TestMalformedPackedWindow:
    @pytest.mark.parametrize("subcommand", [["mask"], ["stats", "spans"]])
    def test_non_integer_values_exit_2(self, tmp_path, capsys, subcommand):
        packed = tmp_path / "packed.jsonl"
        header = {"seq_len": 4, "vocab": {"size": VOCAB.size, "mask_id": VOCAB.mask_id,
                                          "pad_id": VOCAB.pad_id, "sep_id": VOCAB.sep_id}}
        packed.write_text(json.dumps(header) + "\n"
                          + '{"ids":[5,6,4,3],"word_starts":[1,0,0,1]}\n'
                          + '{"ids":[5.5,"7",4,3],"word_starts":[1,"x",0,1]}\n')
        out = tmp_path / "o"
        rc = run(subcommand + ["--input", str(packed), "--output", str(out)])
        assert_one_line_error(capsys, rc, "line 3")
        assert not out.exists()

    def test_header_values_must_be_integers_exit_2(self, tmp_path, capsys):
        packed = tmp_path / "packed.jsonl"
        header = {"seq_len": "4", "vocab": {"size": 100.0, "mask_id": 2.0,
                                            "pad_id": VOCAB.pad_id, "sep_id": VOCAB.sep_id}}
        packed.write_text(json.dumps(header) + "\n"
                          + '{"ids":[5,6,4,3],"word_starts":[1,0,0,1]}\n')
        out = tmp_path / "o"
        rc = run(["mask", "--input", str(packed), "--output", str(out)])
        assert_one_line_error(capsys, rc, "packed dataset: bad header")
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", [["mask"], ["stats", "spans"]])
    def test_seq_len_beyond_numpy_exit_2(self, tmp_path, capsys, subcommand):
        packed = tmp_path / "packed.jsonl"
        header = {"seq_len": 10 ** 30, "vocab": {"size": VOCAB.size, "mask_id": VOCAB.mask_id,
                                                 "pad_id": VOCAB.pad_id, "sep_id": VOCAB.sep_id}}
        packed.write_text(json.dumps(header) + "\n"
                          + '{"ids":[5,6,4,3],"word_starts":[1,0,0,1]}\n')
        out = tmp_path / "o"
        rc = run(subcommand + ["--input", str(packed), "--output", str(out)])
        assert_one_line_error(capsys, rc, "packed dataset: seq_len")
        assert not out.exists()


def extern_script(tmp_path, response):
    """An external scorer that answers every request with `response`, a Python
    expression over the request `req` and its query count `n`."""
    script = tmp_path / "scorer.py"
    script.write_text("import json, sys\n"
                      "for line in sys.stdin:\n"
                      "    req = json.loads(line)\n"
                      "    n = len(req['queries'])\n"
                      f"    print(json.dumps({response}), flush=True)\n")
    return f"extern:{sys.executable} {script}"


class TestScoring:
    def test_ppl_uniform_equals_vocab_size(self, packed_path, capsys):
        rc = run(["ppl", "--input", str(packed_path), "--scorer", "uniform",
                  "--mask-rate", "0.15"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["perplexity"] == pytest.approx(VOCAB.size, rel=1e-9)

    def test_ppl_extern_scorer(self, tmp_path, packed_path, capsys):
        script = tmp_path / "scorer.py"
        script.write_text(
            "import json, math, sys\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    print(json.dumps({'qid': req['qid'],"
            " 'logp': [-math.log(50)] * len(req['queries'])}), flush=True)\n")
        rc = run(["ppl", "--input", str(packed_path),
                  "--scorer", f"extern:{sys.executable} {script}",
                  "--mask-rate", "0.15"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["perplexity"] == pytest.approx(50, rel=1e-9)

    @pytest.mark.parametrize("response", [
        "[1, 2]", "{'qid': req['qid'], 'logp': ['x'] * n}",
        "{'qid': req['qid'], 'logp': [None] * n}", "{'qid': req['qid'], 'logp': 'x'}"],
        ids=["list", "string-entries", "null-entries", "string-logp"])
    def test_ppl_extern_malformed_response(self, tmp_path, packed_path, capsys, response):
        rc = run(["ppl", "--input", str(packed_path),
                  "--scorer", extern_script(tmp_path, response), "--mask-rate", "0.15"])
        assert_one_line_error(capsys, rc, "external scorer")

    # json.dumps writes NaN, Infinity and -Infinity, which json.loads reads back
    NON_FINITE = {"nan": "float('nan')", "inf": "float('inf')", "-inf": "-float('inf')",
                  "int-beyond-float": "10 ** 400"}

    @pytest.mark.parametrize("logp", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_ppl_extern_non_finite_logp(self, tmp_path, packed_path, capsys, logp):
        scorer = extern_script(tmp_path, f"{{'qid': req['qid'], 'logp': [{logp}] * n}}")
        rc = run(["ppl", "--input", str(packed_path), "--mask-rate", "0.15", "--scorer", scorer])
        assert_one_line_error(capsys, rc, "external scorer sent a 'logp' entry that is not finite")

    @pytest.mark.parametrize("logp", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_pll_extern_non_finite_logp(self, tmp_path, capsys, logp):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"good": [5, 6], "bad": [5, 7]}) + "\n")
        scorer = extern_script(tmp_path, f"{{'qid': req['qid'], 'logp': [{logp}] * n}}")
        rc = run(["pll", "--pairs", str(pairs), "--scorer", scorer] + VOCAB_FLAGS)
        assert_one_line_error(capsys, rc, "external scorer sent a 'logp' entry that is not finite")

    def test_pll_unigram_token_beyond_the_corpus_vocabulary(self, tmp_path, packed_path,
                                                           capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"good": [5, 6], "bad": [5, VOCAB.size + 7]}) + "\n")
        flags = VOCAB_FLAGS[:1] + [str(2 * VOCAB.size)] + VOCAB_FLAGS[2:]
        rc = run(["pll", "--pairs", str(pairs), "--scorer", "unigram",
                  "--corpus", str(packed_path)] + flags)
        assert_one_line_error(capsys, rc, f"scorer has no count for token {VOCAB.size + 7}")

    # sizes a Vocab accepts, far beyond any table of one entry per id
    HUGE_SIZES = [10 ** 18, 2 ** 63 - 1]

    @pytest.mark.parametrize("size", HUGE_SIZES)
    def test_pll_uniform_needs_no_vocabulary_sized_table(self, tmp_path, capsys, size):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"good": [5, 6], "bad": [5, 6, 7]}) + "\n")
        rc = run(["pll", "--pairs", str(pairs), "--scorer", "uniform", "--vocab-size", str(size),
                  "--mask-id", "2", "--pad-id", "0", "--sep-id", "1"])
        assert rc == 0
        # -2 log V beats -3 log V
        assert json.loads(capsys.readouterr().out)["accuracy"] == 1.0

    @pytest.mark.parametrize("size", HUGE_SIZES)
    def test_ppl_unigram_table_is_sized_by_the_corpus(self, tmp_path, packed_path, capsys,
                                                      size):
        # the same windows under a header that declares a huge vocabulary
        header, body = packed_path.read_text().split("\n", 1)
        meta = json.loads(header)
        meta["vocab"]["size"] = size
        huge = tmp_path / "huge.jsonl"
        huge.write_text(json.dumps(meta) + "\n" + body)
        for seed in ("0", "3"):
            for rate in ("0.15", "1.0"):
                values = []
                for path in (packed_path, huge):
                    assert run(["--seed", seed, "ppl", "--input", str(path), "--scorer",
                                "unigram", "--mask-rate", rate]) == 0
                    values.append(json.loads(capsys.readouterr().out)["perplexity"])
                assert values[0] == values[1]

    @pytest.mark.parametrize("size", HUGE_SIZES)
    def test_pll_unigram_table_is_sized_by_the_corpus(self, tmp_path, packed_path, capsys,
                                                      size):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"good": [5, 6], "bad": [5, 7]}) + "\n")
        values = []
        for flag in (VOCAB.size, size):
            rc = run(["pll", "--pairs", str(pairs), "--scorer", "unigram", "--corpus",
                      str(packed_path), "--vocab-size", str(flag), *VOCAB_FLAGS[2:]])
            assert rc == 0
            values.append(json.loads(capsys.readouterr().out)["accuracy"])
        assert values[0] == values[1]

    def test_pll_accuracy(self, tmp_path, packed_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"good": [5, 6], "bad": [5, 6]}) + "\n")
        rc = run(["pll", "--pairs", str(pairs), "--scorer", "uniform",
                  "--corpus", str(packed_path)] + VOCAB_FLAGS)
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["accuracy"] == 0.5
        assert out["pairs"] == 1

    @pytest.mark.parametrize("bad", ['{"good": [5, 6], "bad": [5', "[5, 6]",
                                     '{"good": ["x"], "bad": [5]}',
                                     '{"good": [5.7], "bad": [5]}',
                                     '{"good": [5], "bad": ["6"]}',
                                     '{"good": [5, true], "bad": [5, 6]}',
                                     '{"good": 5, "bad": [5]}'])
    def test_pll_bad_pairs_line_is_data_error(self, tmp_path, capsys, bad):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"good": [5, 6], "bad": [5, 7]}) + "\n" + bad + "\n")
        rc = run(["pll", "--pairs", str(pairs), "--scorer", "uniform"] + VOCAB_FLAGS)
        assert_one_line_error(capsys, rc, "line 2")


class TestMetric:
    def test_normalize(self, tmp_path, capsys):
        values = tmp_path / "values.json"
        values.write_text(json.dumps({"0.15": 84.2, "0.40": 84.5, "0.50": 84.7}))
        rc = run(["metric", "normalize", "--baseline", "0.15",
                  "--values", str(values)])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        got = {float(r["masking_rate"]): float(r["normalized_value"]) for r in rows}
        assert got[0.15] == 0.0
        assert got[0.50] == pytest.approx(2.4333, abs=1e-3)

    def test_relative(self, tmp_path, capsys):
        values = tmp_path / "values.json"
        values.write_text(json.dumps({"0.15": 88.0, "0.40": 89.8}))
        rc = run(["metric", "relative", "--baseline", "0.15",
                  "--values", str(values)])
        assert rc == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        got = {float(r["masking_rate"]): float(r["relative_value"]) for r in rows}
        assert got[0.40] == pytest.approx(1.8, abs=1e-9)

    @pytest.mark.parametrize("text, keys", [
        ('{"0.15": 84.2, "0.150": 90.0, "0.4": 84.5}', "'0.15' and '0.150'"),
        ('{"0.4": 84.5, "0.15": 84.2, "0.15": 90.0}', "'0.15' and '0.15'"),
    ], ids=["two-spellings", "same-key"])
    def test_repeated_rate_is_usage_error(self, tmp_path, capsys, text, keys):
        # json.load would keep one of the two values without a word
        values = tmp_path / "values.json"
        values.write_text(text)
        rc = run(["metric", "relative", "--baseline", "0.15", "--values", str(values)])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.splitlines() == [
            f"mlmpipe: error: cannot read values file {values}: keys {keys} name the same "
            "rate 0.15"]

    def test_degenerate_is_data_error(self, tmp_path):
        values = tmp_path / "values.json"
        values.write_text(json.dumps({"0.15": 1.0, "0.40": 1.0}))
        rc = run(["metric", "normalize", "--baseline", "0.15",
                  "--values", str(values)])
        assert rc == 2


def not_utf8_scorer(tmp_path):
    script = tmp_path / "scorer.py"
    script.write_text("import sys\nfor line in sys.stdin:\n"
                      "    sys.stdout.buffer.write(b'{\"qid\": 1, \"logp\": [\\xff]}\\n')\n"
                      "    sys.stdout.flush()\n")
    return f"extern:{sys.executable} {script}"


def positive_scorer(tmp_path):
    return extern_script(tmp_path, "{'qid': req['qid'], 'logp': [0.5] * n}")


def mask_id_corpus(tmp_path):
    path = tmp_path / "mask_id.jsonl"
    serialize_tokens(random_docs(3, 20) + [TokenSequence(
        ids=np.array([5, VOCAB.mask_id, 7, 8, 9, 10, 11, 12]), word_starts=np.ones(8, bool))],
        path)
    return str(path)


def pad_id_corpus(tmp_path):
    path = tmp_path / "pad_id.jsonl"
    serialize_tokens([TokenSequence(ids=np.array([5, VOCAB.pad_id, 7, VOCAB.sep_id, 9]),
                                    word_starts=np.ones(5, bool))], path)
    return str(path)


def sep_id_corpus(tmp_path):
    path = tmp_path / "sep_id.jsonl"
    serialize_tokens(random_docs(3, 20) + [TokenSequence(
        ids=np.array([5, 6, VOCAB.sep_id, 8]), word_starts=np.ones(4, bool))], path)
    return str(path)


def mask_id_packed(tmp_path):
    path = tmp_path / "mask_id_packed.jsonl"
    ids = np.array([[5, 6, 7, 8, 9, 10, 11, 12], [5, VOCAB.mask_id, 7, 8, 9, 10, 11, 12]])
    save_packed(PackedDataset(ids=ids, word_starts=np.ones(ids.shape, bool), vocab=VOCAB), path)
    return str(path)


def huge_vocab_packed(tmp_path):
    path = tmp_path / "huge_vocab.jsonl"
    path.write_text('{"seq_len": 2, "vocab": {"size": %d, "mask_id": 2, "pad_id": 0, '
                    '"sep_id": 1}}\n{"ids": [5, 6], "word_starts": [1, 1]}\n' % 10 ** 20)
    return str(path)


def empty_corpus(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    return str(path)


def nan_score_tsv(tmp_path):
    path = tmp_path / "pmi.tsv"
    path.write_text("5 6\tnan\n7 8\tinf\n")
    return str(path)


# id: ([subcommand, flag, value, ...], expected exit code); a callable value
# makes its file in the test's directory
MALFORMED_CLI = {
    "pack-mask-id-in-corpus": (["pack", "--input", mask_id_corpus], 2),
    "pack-pad-id-in-corpus": (["pack", "--input", pad_id_corpus, "--seq-len", "4"], 2),
    "pack-sep-id-in-corpus": (["pack", "--input", sep_id_corpus], 2),
    "pmi-build-vocab-size-0": (["pmi-build", "--vocab-size", "0"], 1),
    "pmi-build-vocab-size-negative": (["pmi-build", "--vocab-size", "-3"], 1),
    "pmi-build-vocab-size-0-empty-corpus": (["pmi-build", "--vocab-size", "0",
                                             "--input", empty_corpus], 1),
    "mask-mask-id-in-window": (["mask", "--input", mask_id_packed], 2),
    "mask-vocab-size-beyond-int64": (["mask", "--input", huge_vocab_packed, "--p-mask", "0.5",
                                      "--p-rand", "0.5", "--mask-rate", "1.0"], 2),
    "pack-seq-len-beyond-memory": (["pack", "--seq-len", "1000000000000"], 1),
    "pack-seq-len-beyond-int64": (["pack", "--seq-len", "1" + "0" * 30], 1),
    "pmi-build-min-count-0": (["pmi-build", "--min-count", "0"], 1),
    "pmi-build-min-count-negative": (["pmi-build", "--min-count", "-5"], 1),
    "pmi-build-n-max-1": (["pmi-build", "--n-max", "1"], 1),
    "metric-list": (["metric", "--values", "[1, 2]"], 1),
    "metric-null": (["metric", "--values", '{"0.15": null, "0.4": 1.0}'], 1),
    "metric-nan-string": (["metric", "--values", '{"0.15": "nan", "0.4": 1.0}'], 1),
    "metric-nan-literal": (["metric", "--values", '{"0.15": NaN, "0.4": 1.0}'], 1),
    "metric-overflow": (["metric", "--values", '{"0.15": 1e400, "0.4": 1.0}'], 1),
    "metric-huge-int": (["metric", "--values", '{"0.15": 1%s, "0.4": 1.0}' % ("0" * 400)], 1),
    "metric-bool": (["metric", "--values", '{"0.15": true, "0.4": 1.0}'], 1),
    "metric-rate-inf": (["metric", "--values", '{"0.15": 1.0, "inf": 2.0}'], 1),
    "metric-rate-spelled-twice": (["metric", "--values",
                                   '{"0.15": 84.2, "0.150": 90.0, "0.4": 84.5}'], 1),
    "metric-key-twice": (["metric", "--values", '{"0.15": 84.2, "0.15": 90.0, "0.4": 84.5}'],
                         1),
    "ppl-extern-empty": (["ppl", "--scorer", "extern:"], 1),
    "ppl-extern-open-quote": (["ppl", "--scorer", 'extern:"x'], 1),
    "pll-extern-blank": (["pll", "--scorer", "extern:  "], 1),
    "pll-extern-open-quote": (["pll", "--scorer", 'extern:"x'], 1),
    "ppl-extern-not-utf8": (["ppl", "--scorer", not_utf8_scorer], 2),
    "pll-extern-not-utf8": (["pll", "--scorer", not_utf8_scorer], 2),
    "ppl-extern-positive": (["ppl", "--scorer", positive_scorer], 2),
    "pll-extern-positive": (["pll", "--scorer", positive_scorer], 2),
    "pmi-tsv-nan-score": (["mask", "--strategy", "pmi", "--pmi-vocab", nan_score_tsv], 2),
}


@pytest.mark.parametrize("argv, code", MALFORMED_CLI.values(), ids=MALFORMED_CLI.keys())
def test_malformed_input_is_one_line(tmp_path, corpus_path, packed_path, capsys, argv,
                                    code):
    # the documented exit code and one stderr line, never a traceback
    # the row's flags follow the defaults below, so they win
    subcommand, *flags = argv
    flags = [value(tmp_path) if callable(value) else value for value in flags]
    out = tmp_path / "out"
    if subcommand == "pack":
        argv = ["pack", "--input", str(corpus_path), "--output", str(out), *flags] \
            + VOCAB_FLAGS
    elif subcommand == "pmi-build":
        argv = ["pmi-build", "--input", str(corpus_path), "--output", str(out),
                "--vocab-size", str(VOCAB.size), *flags]
    elif subcommand == "metric":
        values = tmp_path / "values.json"
        values.write_text(flags[1])
        argv = ["metric", "normalize", "--baseline", "0.15", "--values", str(values)]
    elif subcommand == "ppl":
        argv = ["ppl", "--input", str(packed_path), *flags]
    elif subcommand == "mask":
        argv = ["mask", "--input", str(packed_path), "--output", str(out), *flags]
    else:
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"good": [5, 6], "bad": [5, 7]}) + "\n")
        argv = ["pll", "--pairs", str(pairs), *flags] + VOCAB_FLAGS
    rc = run(argv)
    err = capsys.readouterr().err
    assert rc == code
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("mlmpipe: error: ")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", [["mask", "--output"], ["stats", "spans", "--output"],
                                        ["ppl", "--scorer"]])
def test_mask_id_in_a_window_exits_2_at_any_rate_and_seed(tmp_path, capsys, subcommand):
    packed = mask_id_packed(tmp_path)
    for seed in ("0", "3"):
        for rate in ("0.15", "0.5", "1.0"):
            value = "uniform" if subcommand[0] == "ppl" else str(tmp_path / "out")
            rc = run(["--seed", seed, *subcommand, value, "--input", packed,
                      "--mask-rate", rate])
            assert_one_line_error(capsys, rc, "packed dataset window 1: position 1 holds the "
                                              f"mask id {VOCAB.mask_id}")
            assert not (tmp_path / "out").exists()


class TestUsage:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert run(["pack", "--input", "x"]) == 1
