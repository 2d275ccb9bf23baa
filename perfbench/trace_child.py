"""Run one mlmpipe CLI command with spans around the public functions of each module.

Usage: python3 trace_child.py SUMMARY.json [--plans] -- <mlmpipe CLI arguments>

``--plans`` also tallies the plans ``plan_window`` returns, for commands
that write no examples to count from.

Every target function is replaced by a timing wrapper in every mlmpipe
module that binds it (``substream`` is imported by name into ``corpus`` and
``cli``, ``segment_units`` into ``masking``, ``generate_plans`` into
``analysis``), so calls through any binding are seen. Spans stay in memory
as (name, start, end, parent); self time is computed once the command ends.
A target the code no longer defines is reported as absent. The summary JSON
holds per-span calls, total and self seconds and call-duration percentiles,
plus the counters observed on return values. The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path); several targets may share a span name
TARGETS = [
    ("corpus.load_packed", "mlmpipe.corpus", "load_packed"),
    ("corpus.load_tokens", "mlmpipe.corpus", "load_tokens"),
    ("corpus.pack_sequences", "mlmpipe.corpus", "pack_sequences"),
    ("corpus.save_packed", "mlmpipe.corpus", "save_packed"),
    ("rng.substream", "mlmpipe.rng", "substream"),
    ("pmi.load_tsv", "mlmpipe.pmi", "PmiVocabulary.load_tsv"),
    ("pmi.segment_units", "mlmpipe.pmi", "segment_units"),
    ("pmi.count_ngrams", "mlmpipe.pmi", "count_ngrams"),
    ("pmi.build_vocab", "mlmpipe.pmi", "build_vocab"),
    ("masking.generate_plans", "mlmpipe.masking", "generate_plans"),
    ("masking.plan_window", "mlmpipe.masking", "plan_window"),
    ("masking.plan_decoupled", "mlmpipe.masking", "plan_decoupled"),
    ("masking.sample", "mlmpipe.masking", "sample_uniform"),
    ("masking.sample", "mlmpipe.masking", "sample_span"),
    ("masking.sample", "mlmpipe.masking", "sample_units"),
    ("masking.apply_policy", "mlmpipe.masking", "apply_policy"),
    ("masking.materialize", "mlmpipe.masking", "materialize"),
    ("analysis.pmi_coverage", "mlmpipe.analysis", "pmi_coverage"),
]
# counted, not timed: their time stays in the enclosing layer's self time
COUNTED = [("analysis.vocab_occurrences", "mlmpipe.analysis", "_vocab_occurrences")]
ROOT = "cli.run"
OBSERVE = "trace.observe"      # time spent reading return values, excluded from layers


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def nid(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, nid: int) -> int:
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str, observe=None):
        nid, obs = self.nid(name), self.nid(OBSERVE)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:        # one span per resumption
                    idx = self.open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.close(idx)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                idx = self.open(obs)
                try:
                    observe(self, result)
                except (AttributeError, TypeError):   # the return value changed shape
                    self.count("trace.unobservable." + name)
                finally:
                    self.close(idx)
            return result
        return traced

    def summary(self) -> dict:
        kind = np.frombuffer(self.kind, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - start) / 1e9
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        spans = {}
        for nid, name in enumerate(self.names):
            sel = kind == nid
            d = dur[sel]
            spans[name] = {
                "calls": int(sel.sum()),
                "total_s": float(d.sum()),
                "self_s": float(own[sel].sum()),
                "p50_us": float(np.percentile(d, 50) * 1e6) if len(d) else 0.0,
                "p99_us": float(np.percentile(d, 99) * 1e6) if len(d) else 0.0,
            }
        return spans


def _resolve(module: str, path: str):
    """(owner, attribute, function) for a dotted attribute path, or None if absent."""
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
    return None if raw is None else (owner, attr, raw)


def _rebind(original, replacement) -> None:
    """Point every mlmpipe module's binding of `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "mlmpipe" or name.startswith("mlmpipe."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _observe_vocab(tracer: Tracer, vocab) -> None:
    tracer.counters["pmi.vocab_entries"] = len(vocab)


def _observe_counts(tracer: Tracer, counts) -> None:
    tracer.counters["pmi.distinct_ngrams"] = len(counts.counts)


def _observe_plans(tracer: Tracer, plans) -> None:
    """Realized counts of a window's plans (used where no examples are written)."""
    tracer.count("plans.windows")
    for plan in plans:
        tracer.count("plans.plans")
        corrupted = plan.corrupted_positions
        tracer.count("plans.corrupted", len(corrupted))
        tracer.count("plans.predicted", len(plan.predictions))
        for action in plan.actions:
            tracer.count("plans." + action.kind.value)
        tracer.count("plans.runs", sum(1 for i, p in enumerate(corrupted)
                                       if i == 0 or corrupted[i - 1] != p - 1))


OBSERVERS = {
    "pmi.load_tsv": _observe_vocab,
    "pmi.build_vocab": _observe_vocab,
    "pmi.count_ngrams": _observe_counts,
}


def _counting(tracer: Tracer, fn, name: str):
    """Count calls and returned occurrences without a span."""
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.count(name + ".calls")
        tracer.count("analysis.occurrences", len(result))
        return result
    return counted


def install(tracer: Tracer, observers: dict) -> list[str]:
    """Wrap every target; return the names of targets that are absent."""
    for module in ("mlmpipe", "mlmpipe.corpus", "mlmpipe.rng", "mlmpipe.pmi",
                   "mlmpipe.masking", "mlmpipe.analysis", "mlmpipe.cli"):
        importlib.import_module(module)
    absent = []
    for name, module, path in TARGETS + COUNTED:
        found = _resolve(module, path)
        if found is None:
            absent.append(f"{module}.{path}")
            continue
        owner, attr, raw = found
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        if (name, module, path) in COUNTED:
            wrapped = _counting(tracer, fn, name)
        else:
            wrapped = tracer.wrap(fn, name, observers.get(name))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(wrapped))
        else:
            _rebind(fn, wrapped)
    return absent


def main(argv: list[str]) -> int:
    if "--" not in argv or argv.index("--") not in (1, 2):
        print("usage: trace_child.py SUMMARY.json [--plans] -- <mlmpipe arguments>",
              file=sys.stderr)
        return 1
    split = argv.index("--")
    summary_path, flags, cli_args = argv[0], argv[1:split], argv[split + 1:]
    observers = dict(OBSERVERS)
    if "--plans" in flags:
        observers["masking.plan_window"] = _observe_plans
    tracer = Tracer()
    absent = install(tracer, observers)
    from mlmpipe import cli
    root = tracer.open(tracer.nid(ROOT))
    try:
        rc = cli.run(cli_args)
    finally:
        tracer.close(root)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "absent": absent, "spans": tracer.summary(),
                   "counters": tracer.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
