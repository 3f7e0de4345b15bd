"""Command-line front door.

Subcommands: ingest, score, traits, compare, stability, renorm, synth.
Exit codes: 0 success, 2 usage/validation error, 1 runtime error. Given
the same inputs and seed, every run writes byte-identical output files.
Each command that writes a file also writes a ``run_manifest.json``
capturing the resolved configuration and content digests of the input
files next to its primary output; ``renorm`` writes neither.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import EmptySampleError, LexstableError, PlanError
from .ingest import build_author_corpora, parse_messages, read_corpus, write_corpus, FORMATS
from .lexicon import load_lexicon, score_features, write_lexicon
from .report import (
    comparison_svg, curves_svg, fmt, write_comparison_csv, write_curves_csv, write_svg,
)
from .stability import MODES, SubsamplePlan, run_stability_modes
from .stats import PopulationStats, compare_media, load_stats_json, renormalize, save_stats_json
from .synth import SyntheticSpec, generate_population
from .traits import infer_traits, load_trait_model


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(command: str, args: argparse.Namespace, inputs, primary_out) -> None:
    flags = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        if isinstance(value, Path):
            value = str(value)
        elif isinstance(value, tuple):
            value = list(value)
        flags[key] = value
    doc = {
        "command": command,
        "version": __version__,
        "flags": flags,
        "input_digests": {str(p): _sha256(p) for p in sorted(str(i) for i in inputs)},
    }
    with open(Path(primary_out).parent / "run_manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_corpora(path, min_messages: int, min_words: int):
    result = read_corpus(path)
    corpora = build_author_corpora(result.messages, min_messages, min_words)
    if result.skipped:
        print(f"note: skipped {result.skipped} malformed record(s) in {path}", file=sys.stderr)
    return corpora


def _score_authors(corpora, lexicon, model):
    """Score each author's corpus. Returns the value names (the model's
    traits, or the lexicon's categories without a model), one
    ``(corpus, feature vector, values)`` per author with tokens, and the
    number of authors dropped for having none."""
    names = list(model.trait_names) if model is not None else list(lexicon.category_names)
    scored = []
    dropped = 0
    for corpus in corpora:
        try:
            fv = score_features(corpus.messages, lexicon)
        except EmptySampleError:
            dropped += 1
            continue
        if model is None:
            values = [fv.frequencies[cid] for cid, _ in lexicon.categories]
        else:
            scores = infer_traits(fv, model, lexicon).values
            values = [scores[name] for name in names]
        scored.append((corpus, fv, values))
    return names, scored, dropped


def _columns(names, scored) -> dict[str, list[float]]:
    return {name: [values[j] for _, _, values in scored] for j, name in enumerate(names)}


def _value_table(corpora, lexicon, model):
    """Per-author trait (or category frequency) columns; authors whose
    corpus has no tokens are dropped with a note."""
    names, scored, dropped = _score_authors(corpora, lexicon, model)
    if dropped:
        print(f"note: dropped {dropped} author(s) with empty corpora", file=sys.stderr)
    return _columns(names, scored)


def cmd_ingest(args) -> int:
    with open(args.input, "rb") as fh:
        result = parse_messages(fh, args.format, args.medium)
    write_corpus(result.messages, args.out)
    print(
        f"ingested {len(result.messages)} message(s); "
        f"skipped {result.skipped} malformed, filtered {result.filtered}",
        file=sys.stderr,
    )
    _write_manifest("ingest", args, [args.input], args.out)
    return 0


def cmd_score(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    corpora = _load_corpora(args.corpus, args.min_messages, args.min_words)
    names, scored, _ = _score_authors(corpora, lexicon, None)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["author_id", "medium", "messages", "tokens"] + names)
        writer.writerows(
            [corpus.author_id, corpus.medium, corpus.total_messages, fv.total_tokens]
            + [fmt(v) for v in values]
            for corpus, fv, values in scored
        )
    if args.stats_out:
        save_stats_json(PopulationStats(_columns(names, scored)), args.stats_out)
    _write_manifest("score", args, [args.corpus, args.lexicon], args.out)
    return 0


def cmd_traits(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    model = load_trait_model(args.model)
    corpora = _load_corpora(args.corpus, args.min_messages, args.min_words)
    names, scored, _ = _score_authors(corpora, lexicon, model)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["author_id", "medium"] + names)
        writer.writerows(
            [corpus.author_id, corpus.medium] + [fmt(v) for v in values]
            for corpus, _, values in scored
        )
    if args.stats_out:
        save_stats_json(PopulationStats(_columns(names, scored)), args.stats_out)
    _write_manifest("traits", args, [args.corpus, args.lexicon, args.model], args.out)
    return 0


def cmd_compare(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    model = load_trait_model(args.model) if args.model else None
    table_a = _value_table(_load_corpora(args.corpus_a, args.min_messages, args.min_words), lexicon, model)
    table_b = _value_table(_load_corpora(args.corpus_b, args.min_messages, args.min_words), lexicon, model)
    rows = compare_media(table_a, table_b, baseline=args.baseline)
    write_comparison_csv(rows, args.out)
    if args.svg:
        write_svg(comparison_svg(rows, baseline=args.baseline), args.svg)
    inputs = [args.corpus_a, args.corpus_b, args.lexicon] + ([args.model] if args.model else [])
    _write_manifest("compare", args, inputs, args.out)
    return 0


def cmd_stability(args) -> int:
    sizes = tuple(int(s) for s in args.sizes.split(","))
    modes = MODES if args.mode == "both" else (args.mode,)
    plan = SubsamplePlan(
        unit=args.unit, mode=modes[0], base_size=args.base,
        sizes=sizes, master_seed=args.seed, anchor=args.anchor,
    )
    lexicon = load_lexicon(args.lexicon)
    model = load_trait_model(args.model) if args.model else None
    corpora = _load_corpora(args.corpus, 1, 0)
    curves = run_stability_modes(corpora, plan, lexicon, model, modes=modes)
    write_curves_csv(curves, args.out)
    if args.svg:
        write_svg(curves_svg(curves), args.svg)
    inputs = [args.corpus, args.lexicon] + ([args.model] if args.model else [])
    _write_manifest("stability", args, inputs, args.out)
    return 0


def cmd_renorm(args) -> int:
    src = load_stats_json(args.from_stats)
    dst = load_stats_json(args.to_stats)
    for label, doc in (("from", src), ("to", dst)):
        if args.trait not in doc:
            raise LexstableError(f"trait {args.trait!r} not present in --{label}-stats file")
    mapped = renormalize(
        args.value,
        (src[args.trait]["mean"], src[args.trait]["sd"]),
        (dst[args.trait]["mean"], dst[args.trait]["sd"]),
    )
    print(fmt(mapped))
    return 0


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n_categories=args.categories,
        vocab_per_category=args.vocab_per_category,
        n_messages=args.messages,
        seed=args.seed,
        drift_rho=args.drift_rho,
        drift_sigma=args.drift_sigma,
        msg_length=(args.msg_len_min, args.msg_len_max),
    )
    corpora, lexicon = generate_population(spec, args.authors, args.jitter)
    messages = [m for corpus in corpora for m in corpus.messages]
    write_corpus(messages, args.out)
    write_lexicon(lexicon, args.lexicon_out)
    print(f"generated {len(messages)} message(s) for {len(corpora)} author(s)", file=sys.stderr)
    _write_manifest("synth", args, [], args.out)
    return 0


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexstable",
        description="Lexical category scoring, trait inference, and sample-size stability profiling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse raw messages into the canonical corpus format")
    p.add_argument("--input", required=True)
    p.add_argument("--format", required=True, choices=FORMATS)
    p.add_argument("--medium", default=None,
                   help="medium label (default: twitter for tweets-jsonl, email for mbox, other otherwise)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("score", help="per-author category frequencies")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", default=None, help="also write population stats JSON")
    p.add_argument("--min-messages", type=int, default=1)
    p.add_argument("--min-words", type=int, default=0)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("traits", help="per-author trait scores from a linear model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", default=None)
    p.add_argument("--min-messages", type=int, default=1)
    p.add_argument("--min-words", type=int, default=0)
    p.set_defaults(func=cmd_traits)

    p = sub.add_parser("compare", help="cross-media comparison table (effect sizes, CIs, flags)")
    p.add_argument("--corpus-a", required=True)
    p.add_argument("--corpus-b", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--baseline", choices=("a", "b"), default="b",
                   help="side whose mean normalizes ratios (default: b)")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--min-messages", type=int, default=1)
    p.add_argument("--min-words", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stability", help="variability curves across subsample sizes")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--model", default=None, help="trait model; omit for category-level curves")
    p.add_argument("--unit", choices=("messages", "words"), default="messages")
    p.add_argument("--mode", choices=("random", "contiguous", "both"), default="both")
    p.add_argument("--base", type=int, required=True, help="full-sample size per author")
    p.add_argument("--sizes", required=True, help="comma-separated subsample sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--anchor", choices=("latest", "earliest"), default="latest")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("renorm", help="map a value between two populations' (mean, sd)")
    p.add_argument("--from-stats", required=True, dest="from_stats")
    p.add_argument("--to-stats", required=True, dest="to_stats")
    p.add_argument("--trait", required=True)
    p.add_argument("--value", type=_finite_float, required=True)
    p.set_defaults(func=cmd_renorm)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus and companion dictionary")
    p.add_argument("--authors", type=int, required=True)
    p.add_argument("--messages", type=int, required=True, help="messages per author")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--categories", type=int, default=10)
    p.add_argument("--vocab-per-category", type=int, default=20)
    p.add_argument("--jitter", type=_finite_float, default=0.1, help="per-author rate jitter")
    p.add_argument("--drift-rho", type=_finite_float, default=0.0)
    p.add_argument("--drift-sigma", type=_finite_float, default=0.0)
    p.add_argument("--msg-len-min", type=int, default=10)
    p.add_argument("--msg-len-max", type=int, default=20)
    p.add_argument("--out", required=True)
    p.add_argument("--lexicon-out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


_DEFAULT_MEDIUM = {"tweets-jsonl": "twitter", "mbox": "email", "generic-jsonl": "other"}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    if args.command == "ingest" and args.medium is None:
        args.medium = _DEFAULT_MEDIUM[args.format]
    try:
        return args.func(args)
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LexstableError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
