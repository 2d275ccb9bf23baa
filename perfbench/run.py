"""mlmpipe benchmark: run one workload of the CLI end to end and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload mask-uniform --seed 1 --seconds 10 --trace 0

Each CLI invocation is a fresh child process (``python3 -m mlmpipe.cli``
with ``src/`` on the path) on a fresh input drawn from the seed; every
output is checked against invariants. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run. The last line
of standard output is the JSON result; a fuller record, with machine info
and the source revision, goes to ``.perfbench_out/results/``. README.md in
this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

HERE = Path(__file__).resolve().parent
DEADLINE_S = 165          # the whole run, children included, ends before this
SETUP_REPS = (3, 9)       # fresh processes per run for setup_s (min, max); median reported
SETUP_BUDGET_S = 2.5      # keep starting set-up processes until this much time is spent
PROBE_WINDOWS = 100       # tiny input run twice per run to compare output digests

# per-layer metrics of the traced run: span name -> fields reported for it
LAYER_SPANS = {
    "corpus.load_packed": ("self_s",),
    "corpus.load_tokens": ("self_s",),
    "corpus.pack_sequences": ("self_s",),
    "corpus.save_packed": ("self_s",),
    "rng.substream": ("calls", "self_s"),
    "pmi.load_tsv": ("self_s",),
    "pmi.segment_units": ("calls", "self_s", "p50_us", "p99_us"),
    "pmi.count_ngrams": ("self_s",),
    "pmi.build_vocab": ("self_s",),
    "masking.plan_window": ("calls", "self_s", "p50_us", "p99_us"),
    "masking.sample": ("calls", "self_s"),
    "masking.plan_decoupled": ("self_s",),
    "masking.materialize": ("calls", "self_s"),
    "masking.apply_policy": ("calls", "self_s"),
    "analysis.pmi_coverage": ("calls", "self_s"),
    "cli.run": ("self_s",),
}
FIELD_UNITS = {"calls": "count", "self_s": "s", "p50_us": "us", "p99_us": "us"}
LAYER_COUNTS = {
    "corpus.windows": "count", "corpus.sep_pad_share": "share",
    "pmi.vocab_entries": "count", "pmi.distinct_ngrams": "count",
    "pmi.matched_token_share": "share", "pmi.mean_unit_len": "tokens",
    "masking.plans_per_window": "ratio", "masking.corrupted": "count",
    "masking.predicted": "count", "masking.random": "count", "masking.same": "count",
    "masking.mean_run_len": "tokens", "analysis.occurrences": "count",
    "cli.output_bytes": "bytes", "cli.output_lines": "count",
    "trace.overhead_share": "share", "trace.absent_functions": "count",
}


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Input:
    """One seeded corpus, written in the formats a workload needs."""

    dir: Path
    corpus: inputs.Corpus
    ids: np.ndarray
    word_starts: np.ndarray

    @property
    def raw(self) -> Path:
        return self.dir / "raw.jsonl"

    @property
    def packed(self) -> Path:
        return self.dir / "packed.jsonl"

    @property
    def tsv(self) -> Path:
        return self.dir / "pmi.tsv"


@dataclass
class Command:
    """One CLI invocation of a workload, with the check of its output."""

    argv: list[str]
    output: Path
    check: Callable[[Input], dict]    # raises on a violation, else realized counts


class Workload:
    name = ""
    uses_raw = False          # reads the raw corpus (else the packed one)
    uses_vocab = False        # loads the PMI TSV
    observe_plans = False     # writes no examples: count plans in the traced run
    epochs = 1

    def commands(self, inp: Input, seed: int) -> list[Command]:
        raise NotImplementedError

    def tokens(self, inp: Input) -> int:
        """Source tokens of one unit: windows x L x epochs."""
        return int(inp.ids.size) * self.epochs

    def setup_code(self, inp: Input) -> list[str]:
        """A fresh process that starts, imports mlmpipe and loads the inputs."""
        code = ["import sys", "import mlmpipe.cli", "from mlmpipe import corpus, pmi",
                "corpus.load_packed(sys.argv[1])"]
        if self.uses_vocab:
            code.append("pmi.PmiVocabulary.load_tsv(sys.argv[2])")
        return ["-c", "; ".join(code), str(inp.packed), str(inp.tsv)]


class MaskWorkload(Workload):
    def __init__(self, name: str, spec: checks.MaskSpec, flags: list[str], uses_vocab: bool):
        self.name, self.spec, self.flags, self.uses_vocab = name, spec, flags, uses_vocab
        self.epochs = spec.epochs

    def commands(self, inp, seed):
        out = inp.dir / "masked.jsonl"
        vocab = ["--pmi-vocab", str(inp.tsv)] if self.uses_vocab else []
        argv = ["--seed", str(seed), "mask", "--input", str(inp.packed), "--output", str(out),
                "--epochs", str(self.epochs), *self.flags, *vocab]
        return [Command(argv, out, lambda i: checks.check_mask(out, i.ids, self.spec))]


class CoverageWorkload(Workload):
    name, uses_vocab, observe_plans = "stats-coverage", True, True
    strategy, rate = "span", 0.4

    def commands(self, inp, seed):
        out = inp.dir / "coverage.csv"
        argv = ["--seed", str(seed), "stats", "coverage", "--input", str(inp.packed),
                "--pmi-vocab", str(inp.tsv), "--strategy", self.strategy,
                "--mask-rate", str(self.rate), "--output", str(out)]
        return [Command(argv, out,
                        lambda i: {"lengths": len(checks.check_coverage(
                            out, self.strategy, self.rate))})]


class PrepWorkload(Workload):
    name, uses_raw = "prep", True
    n_max, min_count, size_cap = 5, 10, 10_000

    def commands(self, inp, seed):
        packed, tsv = inp.dir / "packed_out.jsonl", inp.dir / "pmi_out.tsv"
        pack = ["pack", "--input", str(inp.raw), "--output", str(packed),
                "--seq-len", str(inputs.SEQ_LEN), *inputs.VOCAB_FLAGS]
        build = ["pmi-build", "--input", str(inp.raw), "--vocab-size", str(inputs.VOCAB_SIZE),
                 "--n-max", str(self.n_max), "--min-count", str(self.min_count),
                 "--size-cap", str(self.size_cap), "--output", str(tsv)]
        return [
            Command(pack, packed,
                    lambda i: {"windows": checks.check_pack(packed, i.ids, i.word_starts)}),
            Command(build, tsv,
                    lambda i: {"entries": checks.check_pmi_build(
                        tsv, i.corpus, self.size_cap, self.n_max, self.min_count)}),
        ]

    def tokens(self, inp):
        return inp.corpus.doc_tokens

    def setup_code(self, inp):
        return ["-c", "import mlmpipe.cli"]


WORKLOADS = {w.name: w for w in [
    MaskWorkload("mask-uniform", checks.MaskSpec(0.15, 0.15, (1.0, 0.0, 0.0), epochs=2),
                 ["--strategy", "uniform", "--mask-rate", "0.15"], uses_vocab=False),
    MaskWorkload("mask-pmi-dup", checks.MaskSpec(0.2, 0.4, (0.8, 0.1, 0.1), epochs=1),
                 ["--strategy", "pmi", "--corruption-rate", "0.2", "--prediction-rate", "0.4",
                  "--p-mask", "0.8", "--p-rand", "0.1", "--p-same", "0.1"], uses_vocab=True),
    CoverageWorkload(),
    PrepWorkload(),
]}


# ---------------------------------------------------------------------------
# child processes


class Children:
    """Runs child processes one at a time through the spawner helper."""

    def __init__(self, root: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = deadline
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def run(self, args: list[str], cwd: Path) -> tuple[int, float, float, str]:
        """(exit code, wall seconds, peak RSS MB, last stderr line) of one child."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -1, 0.0, 0.0, "benchmark deadline reached"
        req = {"args": [sys.executable, *args], "cwd": str(cwd), "env": self.env,
               "timeout": remaining}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        lines = (cwd / "stderr.txt").read_text(errors="replace").strip().splitlines()
        return reply["rc"], reply["wall_s"], reply["rss_mb"], lines[-1] if lines else ""

    def expired(self) -> bool:
        return time.monotonic() > self.deadline - 5

    def stop(self) -> None:
        """End the spawner; on SIGTERM it kills and reaps a child left running."""
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.spawner.send_signal(signal.SIGTERM)
            self.spawner.wait()
        self.spawner.stdout.close()


# ---------------------------------------------------------------------------
# the run


@dataclass
class Unit:
    """One pass of a workload's commands over one input."""

    wall_s: float = 0.0
    rss_mb: float = 0.0
    tokens: int = 0
    ok: bool = True
    counts: dict = field(default_factory=dict)
    digests: list = field(default_factory=list)
    output_bytes: int = 0
    output_lines: int = 0


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, root: Path, work: Path):
        self.w, self.seed, self.seconds, self.work = workload, seed, seconds, work
        self.children = Children(root, time.monotonic() + DEADLINE_S)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.log: list[dict] = []
        self.top_self: list[tuple[float, str]] = []    # traced self-time ranking

    def make_input(self, index: int, windows: int = inputs.WINDOWS) -> Input:
        d = self.work / f"in{index}-{windows}"
        d.mkdir(parents=True)
        corpus = inputs.generate(self.seed, index, windows)
        ids, ws = inputs.pack(corpus)
        inp = Input(d, corpus, ids, ws)
        if self.w.uses_raw:
            inputs.write_raw(corpus, inp.raw)
        else:
            inputs.write_packed(ids, ws, inp.packed)
            inputs.write_tsv(corpus, inp.tsv)
        return inp

    def run_unit(self, inp: Input, tag: str, traced: bool = False) -> tuple[Unit, list[dict]]:
        """Run every command of the workload on `inp`, checking each output."""
        unit, summaries = Unit(tokens=self.w.tokens(inp)), []
        for n, cmd in enumerate(self.w.commands(inp, self.seed)):
            if traced:
                summary = inp.dir / f"trace{n}.json"
                flags = ["--plans"] if self.w.observe_plans else []
                args = [str(HERE / "trace_child.py"), str(summary), *flags, "--", *cmd.argv]
            else:
                args = ["-m", "mlmpipe.cli", *cmd.argv]
            rc, wall, rss, err = self.children.run(args, inp.dir)
            unit.wall_s += wall
            unit.rss_mb = max(unit.rss_mb, rss)
            self.attempted += 1
            problem = f"exit code {rc}: {err}" if rc != 0 else ""
            if not problem:
                try:
                    for key, value in cmd.check(inp).items():
                        unit.counts[key] = unit.counts.get(key, 0) + value
                    unit.digests.append(checks.digest(cmd.output))
                    unit.output_bytes += cmd.output.stat().st_size
                    with open(cmd.output, "rb") as fh:
                        unit.output_lines += sum(1 for _ in fh)
                    if traced:
                        summaries.append(json.loads(summary.read_text()))
                except Exception as exc:   # any malformed output is a failed operation
                    problem = f"check failed: {type(exc).__name__}: {exc}"
            self.log.append({"unit": tag, "argv": cmd.argv[:4], "rc": rc, "wall_s": wall,
                             "rss_mb": rss, "traced": traced, "problem": problem})
            if problem:
                unit.ok = False
                self.failed += 1
                self.errors.append(f"{tag} {' '.join(cmd.argv[:3])}: {problem}")
        return unit, summaries

    def probe(self) -> None:
        """Run a tiny input twice; identical code must give identical bytes."""
        inp = self.make_input(0, PROBE_WINDOWS)
        first, _ = self.run_unit(inp, "probe-1")
        second, _ = self.run_unit(inp, "probe-2")
        if first.ok and second.ok and first.digests != second.digests:
            self.failed += 1
            self.errors.append("probe: repeated runs gave different output digests")
        shutil.rmtree(inp.dir)

    def setup_times(self, inp: Input) -> list[float]:
        times: list[float] = []
        low, high = SETUP_REPS
        while len(times) < low or (len(times) < high and sum(times) < SETUP_BUDGET_S):
            rc, wall, _, err = self.children.run(self.w.setup_code(inp), inp.dir)
            if rc != 0:
                self.errors.append(f"setup: exit code {rc}: {err}")
                break
            times.append(wall)
        return times

    def end_to_end(self) -> dict:
        self.probe()
        inp = self.make_input(0)
        setup = self.setup_times(inp)
        units: list[Unit] = []
        while True:
            unit, _ = self.run_unit(inp, f"unit-{len(units)}")
            units.append(unit)
            shutil.rmtree(inp.dir)
            if not unit.ok or self.children.expired() \
                    or self.measured_enough(sum(u.wall_s for u in units), unit.wall_s):
                break
            inp = self.make_input(len(units))
        good = [u for u in units if u.ok]
        return {
            "tokens_per_s": (sum(u.tokens for u in good) / sum(u.wall_s for u in good), "tok/s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(u.rss_mb for u in units), "MB"),
            "success_rate": (1.0 - self.failed / max(self.attempted, 1), "share"),
        } if good and len(setup) >= SETUP_REPS[0] else {}

    def measured_enough(self, measured: float, last_unit: float) -> bool:
        """Stop at --seconds, or early when another unit would overshoot it by half."""
        return measured >= self.seconds or measured + last_unit > 1.5 * self.seconds

    def per_layer(self) -> dict:
        self.probe()
        plain_wall = traced_wall = 0.0
        units, traces = [], []
        while True:
            index = len(units)
            inp = self.make_input(index)
            if index == 0:
                share, unit_len = inputs.matched_token_share(
                    inp.ids, inp.word_starts, inp.corpus.phrases)
                special = (inp.ids == inputs.PAD_ID) | (inp.ids == inputs.SEP_ID)
                props = {"corpus.windows": len(inp.ids),
                         "corpus.sep_pad_share": float(special.mean()),
                         "pmi.matched_token_share": share, "pmi.mean_unit_len": unit_len}
            plain, _ = self.run_unit(inp, f"plain-{index}")
            traced, summaries = self.run_unit(inp, f"traced-{index}", traced=True)
            shutil.rmtree(inp.dir)
            if not (plain.ok and traced.ok):
                break
            if plain.digests != traced.digests:
                self.failed += 1
                self.errors.append(f"unit {index}: traced and untraced outputs differ")
                break
            units.append(plain)
            traces.append(summaries)
            plain_wall += plain.wall_s
            traced_wall += traced.wall_s
            if self.children.expired() or self.measured_enough(
                    plain_wall + traced_wall, plain.wall_s + traced.wall_s):
                break
        if not units:
            return {}
        return self._layer_metrics(units, traces, props, traced_wall / plain_wall - 1.0)

    def _layer_metrics(self, units, traces, props, overhead) -> dict:
        per_unit = []
        for summaries in traces:
            spans: dict[str, dict] = {}
            counters: dict[str, float] = {}
            for s in summaries:
                for name, v in s["spans"].items():
                    acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0,
                                                  "p50_us": 0.0, "p99_us": 0.0})
                    acc["calls"] += v["calls"]
                    acc["self_s"] += v["self_s"]
                    acc["p50_us"] = max(acc["p50_us"], v["p50_us"])
                    acc["p99_us"] = max(acc["p99_us"], v["p99_us"])
                for key, value in s["counters"].items():
                    counters[key] = counters.get(key, 0) + value
            per_unit.append((spans, counters))
        absent = sorted({a for summaries in traces for s in summaries for a in s["absent"]})
        if absent:
            self.errors.append("absent layers (reported as zero): " + ", ".join(absent))

        def mean(values):
            return float(np.mean(list(values)))

        metrics = {}
        for span, fields in LAYER_SPANS.items():
            for f in fields:
                values = [spans.get(span, {}).get(f, 0.0) for spans, _ in per_unit]
                value = statistics.median(values) if f.endswith("_us") else mean(values)
                metrics[f"{span}.{f}"] = (value, FIELD_UNITS[f])

        def counter(key):
            return mean(c.get(key, 0) for _, c in per_unit)

        if self.w.observe_plans:     # counts from the traced plans
            windows = counter("plans.windows")
            realized = {"examples": counter("plans.plans"), "corrupted": counter("plans.corrupted"),
                        "predicted": counter("plans.predicted"), "random": counter("plans.random"),
                        "same": counter("plans.same"), "runs": counter("plans.runs")}
        else:                        # counts read from the written examples
            windows = mean(u.counts.get("windows", 0) for u in units)
            realized = {k: mean(u.counts.get(k, 0) for u in units)
                        for k in ("examples", "corrupted", "predicted", "random", "same", "runs")}
        values = dict(props)
        values.update({
            "pmi.vocab_entries": counter("pmi.vocab_entries"),
            "pmi.distinct_ngrams": counter("pmi.distinct_ngrams"),
            "masking.plans_per_window": realized["examples"] / windows if windows else 0.0,
            "masking.corrupted": realized["corrupted"], "masking.predicted": realized["predicted"],
            "masking.random": realized["random"], "masking.same": realized["same"],
            "masking.mean_run_len": (realized["corrupted"] / realized["runs"]
                                     if realized["runs"] else 0.0),
            "analysis.occurrences": counter("analysis.occurrences"),
            "cli.output_bytes": mean(u.output_bytes for u in units),
            "cli.output_lines": mean(u.output_lines for u in units),
            "trace.overhead_share": overhead,
            "trace.absent_functions": len(absent),
        })
        metrics.update({k: (float(values[k]), unit) for k, unit in LAYER_COUNTS.items()})
        self.top_self = sorted(((s["self_s"], name) for name, s in per_unit[0][0].items()),
                               reverse=True)
        return metrics


# ---------------------------------------------------------------------------
# provenance


def source_revision(root: Path) -> dict:
    """Git commit if the checkout has one, and a digest of the program sources."""
    sha = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            packed = root / ".git" / "packed-refs"
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            elif packed.is_file():
                sha = next((line.split()[0] for line in packed.read_text().splitlines()
                            if line.endswith(" " + ref[5:])), None)
        else:
            sha = ref
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def host_noise() -> dict:
    """Spread of a fixed pure-Python loop, to read beside this run's timings."""
    times = []
    for _ in range(9):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    q = statistics.quantiles(times, n=4)
    return {"loop_ms_median": statistics.median(times) * 1e3,
            "loop_iqr_share": (q[2] - q[0]) / statistics.median(times)}


def machine() -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "cpus": os.cpu_count(), "loadavg": list(os.getloadavg())}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be non-negative")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))   # run the cleanup below
    root = Path.cwd()
    if not (root / "src" / "mlmpipe" / "cli.py").is_file():
        print("perfbench: src/mlmpipe not found; run from the repository root",
              file=sys.stderr)
        return 2
    out = root / ".perfbench_out"
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, root, work)
    started = time.time()
    noise = host_noise()
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        run.children.stop()
        shutil.rmtree(work, ignore_errors=True)
    correct = bool(metrics) and run.failed == 0
    result = {"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started": started, "elapsed_s": time.time() - started,
              "result": result, "errors": run.errors, "invocations": run.log,
              "machine": machine(), "host_noise": noise, **source_revision(root)}
    if run.top_self:
        record["self_time_ranking"] = [[name, s] for s, name in run.top_self]
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1))
    for line in run.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
