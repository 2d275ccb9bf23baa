"""Command-line entry point.

Subcommands: pack, pmi-build, mask, stats, ppl, pll, metric. Exit codes:
0 success, 1 usage/configuration error, 2 data or integrity error,
3 infeasible request. All diagnostics go to stderr; data goes to files or
stdout. Every output artifact starts with its fully resolved run
configuration so it can be regenerated from the artifact alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import analysis, corpus, jsonl, masking, pmi
from .errors import ConfigError, DataError, ParseError, PipelineError, RangeError

_STRATEGY_ALIASES = {"uniform": "uniform", "wholeword": "whole_word",
                     "whole_word": "whole_word", "span": "span", "pmi": "pmi"}


def _add_vocab_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--mask-id", type=int, required=True)
    p.add_argument("--pad-id", type=int, required=True)
    p.add_argument("--sep-id", type=int, required=True)


def _add_masking_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", default="uniform",
                   choices=sorted(set(_STRATEGY_ALIASES)))
    p.add_argument("--mask-rate", type=float, default=0.15)
    p.add_argument("--corruption-rate", type=float, default=None)
    p.add_argument("--prediction-rate", type=float, default=None)
    p.add_argument("--p-mask", type=float, default=1.0)
    p.add_argument("--p-rand", type=float, default=0.0)
    p.add_argument("--p-same", type=float, default=0.0)
    p.add_argument("--extra-same", type=float, default=0.0)
    p.add_argument("--pmi-vocab", default=None, help="PMI vocabulary TSV")
    p.add_argument("--mean-span", type=float, default=3.0)
    p.add_argument("--policy-sampling", default="exact", choices=["exact", "bernoulli"])


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no abbreviated flags: the config file tells explicit flags by their
        # full spelling; subparsers are made from this class too
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        # one stderr line and no usage text, like every other error
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlmpipe")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default=None,
                        help="JSON file whose keys mirror flags; flags win")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pack", help="pack a tokenized corpus into fixed windows")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seq-len", type=int, default=128)
    _add_vocab_flags(p)

    p = sub.add_parser("pmi-build", help="mine a PMI n-gram vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--min-count", type=int, default=10)
    p.add_argument("--size-cap", type=int, default=10000)

    p = sub.add_parser("mask", help="produce masked examples from a packed corpus")
    p.add_argument("--input", required=True, help="packed dataset from `pack`")
    p.add_argument("--output", required=True)
    p.add_argument("--epochs", type=int, default=1)
    _add_masking_flags(p)

    p = sub.add_parser("stats", help="masking statistics (coverage or span lengths)")
    p.add_argument("kind", choices=["coverage", "spans"])
    p.add_argument("--input", required=True, help="packed dataset from `pack`")
    p.add_argument("--output", required=True, help="CSV destination")
    _add_masking_flags(p)

    p = sub.add_parser("ppl", help="masked validation perplexity")
    p.add_argument("--input", required=True, help="packed dataset from `pack`")
    p.add_argument("--scorer", default="unigram",
                   help="uniform | unigram | extern:<command>")
    _add_masking_flags(p)

    p = sub.add_parser("pll", help="pseudo-log-likelihood minimal-pair accuracy")
    p.add_argument("--pairs", required=True,
                   help='JSONL with lines {"good": [...], "bad": [...]}')
    p.add_argument("--scorer", default="uniform")
    p.add_argument("--corpus", default=None,
                   help="packed dataset (needed by the unigram scorer)")
    _add_vocab_flags(p)

    p = sub.add_parser("metric", help="normalized / relative performance metrics")
    p.add_argument("kind", choices=["normalize", "relative"])
    p.add_argument("--baseline", type=float, required=True)
    p.add_argument("--values", required=True, help="JSON object: rate -> value")
    p.add_argument("--output", default=None, help="CSV destination (default stdout)")

    return parser


_CONFIG_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
                 None: ((str,), "a string")}


def _config_value(action: argparse.Action, key: str, value):
    """A config file value, checked against its flag's type and choices."""
    if value is None and action.default is None:
        return None
    types, what = _CONFIG_TYPES[action.type]
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass
    if type(value) not in types:
        raise ConfigError(f"config file key {key!r}: expected {what}, got {json.dumps(value)}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config file key {key!r}: {json.dumps(value)} is not one of "
                          f"{', '.join(sorted(action.choices))}")
    return value if action.type is None else action.type(value)


def _apply_config_file(args: argparse.Namespace, argv: list[str],
                       parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from the JSON config file; explicit flags win."""
    if not args.config:
        return
    try:
        overrides = json.loads("".join(line for _, line in corpus.text_lines(args.config)))
    except (OSError, json.JSONDecodeError, ParseError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    explicit = set()
    for tok in argv:
        if tok.startswith("--"):
            explicit.add(tok[2:].split("=", 1)[0].replace("-", "_"))
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a
               for a in parser._actions + subparsers.choices[args.subcommand]._actions
               if hasattr(args, a.dest)}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr in ("subcommand", "kind", "func", "config"):
            continue
        if attr not in actions:
            raise ConfigError(f"config file key {key!r} matches no flag")
        if attr not in explicit:
            setattr(args, attr, _config_value(actions[attr], key, value))


def _resolved_config(args: argparse.Namespace) -> dict:
    # the artifact knows its own path, so it is not in the provenance header
    return {k: v for k, v in vars(args).items() if k not in ("config", "output")}


def _write_csv(args, columns: str, rows: list[str]) -> None:
    """The `# <resolved config>` line, the column line and the rows, to
    --output or, when it is absent, to stdout."""
    text = "".join([f"# {json.dumps(_resolved_config(args), separators=(',', ':'))}\n",
                    f"{columns}\n", *(f"{row}\n" for row in rows)])
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(text)


def _vocab_from_args(args) -> corpus.Vocab:
    return corpus.Vocab(size=args.vocab_size, mask_id=args.mask_id,
                        pad_id=args.pad_id, sep_id=args.sep_id)


def _masking_config(args) -> masking.MaskingConfig:
    # MaskingConfig validates every rate and proportion
    return masking.MaskingConfig(
        strategy=_STRATEGY_ALIASES[args.strategy],
        m=args.mask_rate,
        m_corr=args.corruption_rate,
        m_pred=args.prediction_rate,
        policy=(args.p_mask, args.p_rand, args.p_same),
        extra_same=args.extra_same,
        mean_span=args.mean_span,
        seed=args.seed,
        policy_sampling=args.policy_sampling,
    )


def _load_pmi_vocab(args, config: masking.MaskingConfig) -> pmi.PmiVocabulary | None:
    if config.strategy == "pmi" and not args.pmi_vocab:
        raise ConfigError("--strategy pmi requires --pmi-vocab")
    return pmi.PmiVocabulary.load_tsv(args.pmi_vocab) if args.pmi_vocab else None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_pack(args) -> int:
    vocab = _vocab_from_args(args)
    docs = corpus.load_tokens(args.input, vocab)
    ds = corpus.pack_sequences(docs, args.seq_len, vocab)
    corpus.save_packed(ds, args.output, header=_resolved_config(args))
    return 0


def _cmd_pmi_build(args) -> int:
    docs = corpus.load_tokens(args.input, args.vocab_size)
    counts = pmi.count_ngrams(docs, args.n_max, min_count=args.min_count)
    vocab = pmi.build_vocab(counts, size_cap=args.size_cap, min_count=args.min_count)
    vocab.save_tsv(args.output,
                   header=json.dumps(_resolved_config(args), separators=(",", ":")))
    return 0


def _cmd_mask(args) -> int:
    config = _masking_config(args)
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be at least 1, got {args.epochs}")
    pmi_vocab = _load_pmi_vocab(args, config)
    ds = corpus.load_packed(args.input)
    # a failed run removes the file it created, but never a path that was
    # there before, such as /dev/null
    created = not os.path.lexists(args.output)
    out = open(args.output, "wb")
    try:
        with out:
            out.write(json.dumps({"_config": _resolved_config(args)},
                                 separators=(",", ":")).encode() + b"\n")
            for epoch in range(args.epochs):
                for block in masking.generate_blocks(ds, config, pmi_vocab, epoch):
                    out.write(jsonl.example_lines(block))
    except BaseException:
        if created:
            os.remove(args.output)
        raise
    return 0


def _cmd_stats(args) -> int:
    config = _masking_config(args)
    pmi_vocab = _load_pmi_vocab(args, config)
    if args.kind == "coverage" and pmi_vocab is None:
        raise ConfigError("stats coverage requires --pmi-vocab")
    ds = corpus.load_packed(args.input)
    blocks = masking.generate_blocks(ds, config, pmi_vocab)
    label = f"{config.strategy},{config.corruption_rate:g}"
    if args.kind == "coverage":
        by_length = analysis.pmi_coverage(blocks, pmi_vocab)
        _write_csv(args, "strategy,masking_rate,ngram_len,coverage",
                   [f"{label},{n},{by_length[n].probability:.9g}" for n in sorted(by_length)])
    else:
        counts = analysis.span_histogram(blocks)
        _write_csv(args, "strategy,masking_rate,span_len,count",
                   [f"{label},{n},{counts[n]}" for n in sorted(counts)])
    return 0


def _cmd_ppl(args) -> int:
    config = _masking_config(args)
    pmi_vocab = _load_pmi_vocab(args, config)
    ds = corpus.load_packed(args.input)
    scorer = analysis.make_scorer(args.scorer, ds=ds, vocab_size=ds.vocab.size)
    try:
        ppl = analysis.masked_perplexity(masking.generate_blocks(ds, config, pmi_vocab),
                                         scorer)
    finally:
        if isinstance(scorer, analysis.ExternScorer):
            scorer.close()
    print(json.dumps({"_config": _resolved_config(args), "perplexity": ppl}))
    return 0


def _cmd_pll(args) -> int:
    vocab = _vocab_from_args(args)
    pairs = []
    for lineno, line in corpus.text_lines(args.pairs):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"pairs line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise DataError(f"pairs line {lineno}: expected a JSON object")
        if "good" not in rec or "bad" not in rec:
            raise ConfigError(f"pairs line {lineno}: needs 'good' and 'bad'")
        good, bad = rec["good"], rec["bad"]
        # type() rather than isinstance(): JSON true/false load as bool, an int subclass
        if type(good) is not list or type(bad) is not list \
                or not set(map(type, good + bad)) <= {int}:
            raise DataError(f"pairs line {lineno}: token ids must be integers")
        outside = [t for t in good + bad if not 0 <= t < vocab.size]
        if outside:
            raise RangeError(f"pairs line {lineno}: token id {outside[0]} outside "
                             f"vocabulary of size {vocab.size}")
        pairs.append((good, bad))
    # the pairs are read first, so a bad pairs file never leaves an
    # external scorer running
    ds = corpus.load_packed(args.corpus) if args.corpus else None
    scorer = analysis.make_scorer(args.scorer, ds=ds, vocab_size=vocab.size)
    try:
        accuracy = analysis.minimal_pair_accuracy(pairs, scorer, vocab)
    finally:
        if isinstance(scorer, analysis.ExternScorer):
            scorer.close()
    print(json.dumps({"_config": _resolved_config(args),
                      "accuracy": accuracy, "pairs": len(pairs)}))
    return 0


class _Pairs(list):
    """A JSON object as the list of its (key, value) pairs."""


def _cmd_metric(args) -> int:
    try:
        with open(args.values, "r", encoding="utf-8") as fh:
            # every object as its (key, value) pairs, so no repeated key is lost
            raw = json.load(fh, object_pairs_hook=_Pairs)
        # type() rather than isinstance(): JSON true/false load as bool, an int subclass
        if type(raw) is not _Pairs or not {type(v) for _, v in raw} <= {int, float}:
            raise ValueError("expected a JSON object of numbers")
        values, keys = {}, {}
        for key, value in raw:
            rate = float(key)
            if rate in keys:
                raise ValueError(f"keys {keys[rate]!r} and {key!r} name the same rate {rate:g}")
            values[rate], keys[rate] = float(value), key
        if not all(map(math.isfinite, [*values, *values.values()])):
            raise ValueError("rates and values must be finite")
    except (OSError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot read values file {args.values}: {exc}") from exc
    if args.kind == "normalize":
        result = analysis.normalized_performance(values, args.baseline)
        column = "normalized_value"
    else:
        result = analysis.relative_metric(values, args.baseline)
        column = "relative_value"
    _write_csv(args, f"masking_rate,{column}",
               [f"{rate:g},{result[rate]:.9g}" for rate in sorted(result)])
    return 0


_DISPATCH = {
    "pack": _cmd_pack,
    "pmi-build": _cmd_pmi_build,
    "mask": _cmd_mask,
    "stats": _cmd_stats,
    "ppl": _cmd_ppl,
    "pll": _cmd_pll,
    "metric": _cmd_metric,
}


def _check_global_options(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Usage error naming the first unknown option before the subcommand.

    argparse would skip it and take its value for the subcommand name.
    """
    tokens = iter(argv)
    for tok in tokens:
        if not tok.startswith("-") or tok == "--":
            return
        action = parser._option_string_actions.get(tok.split("=", 1)[0])
        if action is None:
            parser.error(f"unrecognized arguments: {tok}")
        if action.nargs is None and "=" not in tok:
            next(tokens, None)  # the option's value


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        _check_global_options(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        _apply_config_file(args, argv, parser)
        return _DISPATCH[args.subcommand](args)
    except PipelineError as exc:
        print(f"mlmpipe: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"mlmpipe: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
