"""Self-tests of the benchmark: generator determinism, reference code, and that
every output check rejects a deliberately broken output.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import inputs  # noqa: E402
import trace_child  # noqa: E402
from mlmpipe import cli, corpus, pmi  # noqa: E402

WINDOWS = 60
UNIFORM = checks.MaskSpec(0.15, 0.15, (1.0, 0.0, 0.0), epochs=2)
PMI_DUP = checks.MaskSpec(0.2, 0.4, (0.8, 0.1, 0.1), epochs=1)


@pytest.fixture(scope="module")
def case(tmp_path_factory):
    """A small seeded corpus, its files, and valid outputs of every workload."""
    d = tmp_path_factory.mktemp("case")
    c = inputs.generate(7, 0, WINDOWS)
    ids, ws = inputs.pack(c)
    inputs.write_raw(c, d / "raw.jsonl")
    inputs.write_packed(ids, ws, d / "packed.jsonl")
    inputs.write_tsv(c, d / "pmi.tsv")
    packed, tsv = str(d / "packed.jsonl"), str(d / "pmi.tsv")
    runs = {
        "uniform.jsonl": ["mask", "--input", packed, "--strategy", "uniform",
                          "--mask-rate", "0.15", "--epochs", "2"],
        "dup.jsonl": ["mask", "--input", packed, "--strategy", "pmi", "--pmi-vocab", tsv,
                      "--corruption-rate", "0.2", "--prediction-rate", "0.4",
                      "--p-mask", "0.8", "--p-rand", "0.1", "--p-same", "0.1"],
        "coverage.csv": ["stats", "coverage", "--input", packed, "--pmi-vocab", tsv,
                         "--strategy", "span", "--mask-rate", "0.4"],
        "pack.jsonl": ["pack", "--input", str(d / "raw.jsonl"), *inputs.VOCAB_FLAGS],
        "build.tsv": ["pmi-build", "--input", str(d / "raw.jsonl"), "--vocab-size", "1000",
                      "--n-max", "5", "--min-count", "10", "--size-cap", "10000"],
    }
    for out, argv in runs.items():
        assert cli.run(["--seed", "3", *argv, "--output", str(d / out)]) == 0
    return d, c, ids, ws


def _rewrite(src: Path, dst: Path, edit) -> Path:
    """Copy a JSONL output, applying `edit(records)` to the example records."""
    lines = src.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    edit(records)
    dst.write_text("\n".join([lines[0]] + [json.dumps(r) for r in records]) + "\n")
    return dst


def _first_dup_pair(records):
    for a, b in zip(records, records[1:]):
        if a["src"] == b["src"] and a["dup"] == 0 and b["dup"] == 1:
            return a, b
    raise AssertionError("no duplicate pair")


# ---------------------------------------------------------------------------
# generator and reference code


def test_generator_is_byte_identical_per_seed(tmp_path):
    def files(seed, tag):
        c = inputs.generate(seed, 0, 20)
        ids, ws = inputs.pack(c)
        inputs.write_raw(c, tmp_path / f"{tag}.raw")
        inputs.write_packed(ids, ws, tmp_path / f"{tag}.packed")
        inputs.write_tsv(c, tmp_path / f"{tag}.tsv")
        return [(tmp_path / f"{tag}.{ext}").read_bytes() for ext in ("raw", "packed", "tsv")]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_generated_corpus_shape(case):
    _, c, ids, ws = case
    assert ids.shape == (WINDOWS, inputs.SEQ_LEN)
    assert (ids[-1, -inputs.TAIL_PAD:] == inputs.PAD_ID).all()
    assert (ids == inputs.SEP_ID).sum() == len(c.doc_lens) - 1
    assert c.doc_lens.min() >= inputs.DOC_LEN[0] and c.doc_lens.max() <= inputs.DOC_LEN[1]
    assert len(c.phrases) == inputs.PHRASES
    assert (np.diff(c.scores) <= 0).all()


def test_matched_share_agrees_with_program_segmentation(case):
    _, c, ids, ws = case
    vocab = corpus.Vocab(inputs.VOCAB_SIZE, inputs.MASK_ID, inputs.PAD_ID, inputs.SEP_ID)
    entries = {tuple(int(t) for t in g): float(s) for g, s in zip(c.phrases, c.scores)}
    pv = pmi.PmiVocabulary(entries=entries, n_max=5, size_cap=len(entries))
    matched = units = maskable = 0
    for row_ids, row_ws in zip(ids, ws):
        win = corpus.Window(ids=row_ids, word_starts=row_ws)
        for s, e in pmi.segment_units(win, vocab, "pmi", pv):
            units += 1
            if tuple(int(t) for t in row_ids[s:e]) in entries:
                matched += e - s
        maskable += len(win.maskable_positions(vocab))
    share, unit_len = inputs.matched_token_share(ids, ws, c.phrases)
    assert share == pytest.approx(matched / maskable)
    assert unit_len == pytest.approx(maskable / units)


# ---------------------------------------------------------------------------
# each check accepts the real output and rejects a broken one


def test_mask_checks_accept_real_outputs(case):
    d, _, ids, _ = case
    u = checks.check_mask(d / "uniform.jsonl", ids, UNIFORM)
    assert u["examples"] == 2 * WINDOWS and u["mask"] == u["predicted"]
    p = checks.check_mask(d / "dup.jsonl", ids, PMI_DUP)
    assert p["examples"] == 2 * WINDOWS and p["random"] > 0


def _extra_mask(records):
    r = records[0]
    pos = next(i for i, t in enumerate(r["seq"])
               if i not in {p for p, _ in r["targets"]} and t > inputs.MASK_ID)
    r["seq"][pos] = inputs.MASK_ID


def _extra_target(records):
    r = records[0]
    taken = {p for p, _ in r["targets"]}
    pos = next(i for i, t in enumerate(r["seq"]) if i not in taken and t > inputs.MASK_ID)
    r["targets"] = sorted(r["targets"] + [[pos, r["seq"][pos]]])
    r["seq"][pos] = inputs.MASK_ID


def _wrong_original(records):
    records[0]["targets"][0][1] += 1


def _drop_window(records):
    del records[-1]


def _repeat_window(records):
    records[-1] = dict(records[0])


def _unmask_one(records):
    r = records[0]
    pos, orig = r["targets"][0]
    r["seq"][pos] = orig


def _overlap_duplicates(records):
    """Move one [MASK] of duplicate 1 onto a position duplicate 0 already masks."""
    a, b = _first_dup_pair(records)
    extra = next(p for p, _ in a["targets"] if p not in {q for q, _ in b["targets"]})
    drop = next(t for t in b["targets"] if b["seq"][t[0]] == inputs.MASK_ID)
    b["targets"].remove(drop)
    b["seq"][drop[0]] = drop[1]
    b["targets"] = sorted(b["targets"] + [[extra, b["seq"][extra]]])
    b["seq"][extra] = inputs.MASK_ID


def _policy_off(records):
    r = records[0]
    pos = next(p for p, o in r["targets"] if r["seq"][p] == inputs.MASK_ID)
    r["seq"][pos] = next(o for p, o in r["targets"] if o != inputs.MASK_ID)


@pytest.mark.parametrize("name, edit, reason", [
    ("uniform.jsonl", _extra_mask, "outside the targets"),
    ("uniform.jsonl", _extra_target, "floor"),
    ("uniform.jsonl", _wrong_original, "differs from the source"),
    ("uniform.jsonl", _drop_window, "examples, expected"),
    ("uniform.jsonl", _repeat_window, "missing or repeated"),
    ("uniform.jsonl", _unmask_one, "MASK. count"),
    ("dup.jsonl", _overlap_duplicates, "overlap"),
    ("dup.jsonl", _policy_off, "policy split"),
])
def test_mask_check_rejects_broken_output(case, tmp_path, name, edit, reason):
    d, _, ids, _ = case
    spec = UNIFORM if name == "uniform.jsonl" else PMI_DUP
    broken = _rewrite(d / name, tmp_path / name, edit)
    with pytest.raises(checks.CheckError, match=reason):
        checks.check_mask(broken, ids, spec)


def test_coverage_check(case, tmp_path):
    d, *_ = case
    good = checks.check_coverage(d / "coverage.csv", "span", 0.4)
    assert good and all(0.0 <= p <= 1.0 for p in good.values())
    text = (d / "coverage.csv").read_text().splitlines()
    cells = text[2].split(",")
    text[2] = ",".join(cells[:3] + ["1.5"])
    bad = tmp_path / "coverage.csv"
    bad.write_text("\n".join(text) + "\n")
    with pytest.raises(checks.CheckError):
        checks.check_coverage(bad, "span", 0.4)


def test_pack_check(case, tmp_path):
    d, _, ids, ws = case
    assert checks.check_pack(d / "pack.jsonl", ids, ws) == WINDOWS
    lines = (d / "pack.jsonl").read_text().splitlines()
    rec = json.loads(lines[5])
    rec["ids"][3], rec["ids"][4] = rec["ids"][4], rec["ids"][3] + 1
    lines[5] = json.dumps(rec)
    bad = tmp_path / "pack.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError):
        checks.check_pack(bad, ids, ws)


def _swap_first_two(rows):
    rows[0], rows[1] = rows[1], rows[0]


def _six_gram(rows):
    gram, score = rows[-1].split("\t")
    rows[-1] = gram + " 5 5 5 5\t" + score


def _rare_gram(rows):
    gram, score = rows[-1].split("\t")
    rows[-1] = "998 997 996\t" + score


@pytest.mark.parametrize("edit, kwargs, reason", [
    (_swap_first_two, {}, "ranked"), (_six_gram, {}, "outside"),
    (_rare_gram, {}, "fewer than"), (lambda rows: None, {"size_cap": 1}, "cap"),
])
def test_pmi_build_check(case, tmp_path, edit, kwargs, reason):
    d, c, *_ = case
    args = {"size_cap": 10_000, "n_max": 5, "min_count": 10}
    assert checks.check_pmi_build(d / "build.tsv", c, **args) > 1
    lines = (d / "build.tsv").read_text().splitlines()
    rows = lines[1:]
    if rows[0].split("\t")[1] == rows[1].split("\t")[1]:
        rows[0] = rows[0].split("\t")[0] + "\t0"       # make the swap visible
    edit(rows)
    bad = tmp_path / "build.tsv"
    bad.write_text("\n".join([lines[0]] + rows) + "\n")
    with pytest.raises(checks.CheckError, match=reason):
        checks.check_pmi_build(bad, c, **{**args, **kwargs})


# ---------------------------------------------------------------------------
# tracing


@pytest.fixture
def fresh_mlmpipe():
    """Re-import mlmpipe so wrapping one test's modules cannot leak into another."""
    saved = {k: v for k, v in sys.modules.items() if k == "mlmpipe" or k.startswith("mlmpipe.")}
    for k in saved:
        del sys.modules[k]
    yield
    for k in [k for k in sys.modules if k == "mlmpipe" or k.startswith("mlmpipe.")]:
        del sys.modules[k]
    sys.modules.update(saved)


def test_tracer_wraps_every_binding(fresh_mlmpipe):
    tracer = trace_child.Tracer()
    assert trace_child.install(tracer, trace_child.OBSERVERS) == []
    import mlmpipe.analysis
    import mlmpipe.cli
    import mlmpipe.corpus
    import mlmpipe.masking
    import mlmpipe.rng
    for module, attr in [(mlmpipe.cli, "substream"), (mlmpipe.corpus, "substream"),
                         (mlmpipe.rng, "substream"), (mlmpipe.masking, "segment_units"),
                         (mlmpipe.analysis, "generate_plans"), (mlmpipe.cli.masking, "plan_window")]:
        assert hasattr(getattr(module, attr), "__wrapped__"), (module.__name__, attr)


def test_tracer_reports_absent_function_and_self_time(fresh_mlmpipe, case, tmp_path):
    import mlmpipe.masking
    del mlmpipe.masking.plan_decoupled
    tracer = trace_child.Tracer()
    absent = trace_child.install(tracer, trace_child.OBSERVERS)
    assert absent == ["mlmpipe.masking.plan_decoupled"]
    d, *_ = case
    root = tracer.open(tracer.nid(trace_child.ROOT))
    import mlmpipe.cli
    mlmpipe.masking.plan_decoupled = lambda *a, **k: []   # the program still runs
    rc = mlmpipe.cli.run(["mask", "--input", str(d / "packed.jsonl"),
                          "--output", str(tmp_path / "out.jsonl")])
    tracer.close(root)
    assert rc == 0
    spans = tracer.summary()
    assert spans["masking.plan_window"]["calls"] == WINDOWS
    assert spans["rng.substream"]["calls"] == WINDOWS + 1
    total = spans[trace_child.ROOT]["total_s"]
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(total, rel=1e-6)
