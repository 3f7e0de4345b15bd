"""Command-line front door.

Subcommands: ingest, score, traits, compare, stability, renorm, synth.
Exit codes: 0 success, 2 usage/validation error, 1 runtime error. Given
the same inputs and seed, every run writes byte-identical output files.
Every command with ``--out`` also writes, last, a ``run_manifest.json``
with the resolved flags and content digests of the input files beside
that output; ``renorm`` writes neither. ``main`` owns both steps.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_write
from .errors import EmptySampleError, LexstableError, PlanError
from .ingest import (
    ParseResult, build_author_corpora, canonical_line, iter_authors, parse_messages, write_corpus, FORMATS,
)
from .ingest import read_corpus  # noqa: F401  unused: a name the benchmark's tracer wraps in cli
from .lexicon import load_lexicon, score_features, write_lexicon
from .report import (
    comparison_svg, curves_svg, fmt, write_comparison_csv, write_curves_csv, write_svg,
)
from .stability import ANCHORS, MODES, UNITS, SubsamplePlan, run_stability_modes
from .stats import PopulationStats, compare_media, load_stats_json, renormalize, save_stats_json
from .synth import SyntheticSpec, companion_lexicon, iter_population
from .synth import generate_population  # noqa: F401  unused: a name the benchmark's tracer wraps in cli
from .traits import infer_traits  # noqa: F401  unused: a name the benchmark's tracer wraps in cli
from .traits import load_trait_model, project, weight_matrix


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


_INPUTS = ("input", "corpus", "corpus_a", "corpus_b", "lexicon", "model", "from_stats", "to_stats")
_OUTPUTS = ("out", "svg", "stats_out", "lexicon_out")


def _flag_paths(args, keys) -> list[tuple[str, Path]]:
    return [("--" + k.replace("_", "-"), Path(p)) for k in keys if (p := getattr(args, k, None)) is not None]


def _write_manifest(args: argparse.Namespace) -> None:
    flags = {key: value for key, value in sorted(vars(args).items()) if key not in ("func", "command")}
    doc = {
        "command": args.command,
        "version": __version__,
        "flags": flags,
        "input_digests": {p: _sha256(p) for p in sorted(flags[k] for k in _INPUTS if flags.get(k) is not None)},
    }
    with atomic_write(Path(args.out).parent / "run_manifest.json") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _iter_corpora(path):
    """The corpus's ``AuthorCorpus`` groups, read one author at a time;
    the skipped-record note follows the last author."""
    tally = ParseResult()
    for run in iter_authors(path, tally):
        yield from build_author_corpora(run)
    if tally.skipped:
        print(f"note: skipped {tally.skipped} malformed record(s) in {path}", file=sys.stderr)


def _score_authors(corpora, lexicon, model, args):
    """Score each author's corpus, keeping none of its messages. Returns
    the value names (the model's traits, or the lexicon's categories
    without a model), one ``(author_id, medium, messages, tokens)`` per
    author with at least ``args.min_messages`` messages (fewer are never
    tokenized) and ``args.min_words`` tokens (and at least one), and
    their values, authors x names: frequencies, or their one projection.
    Authors dropped for having no tokens when ``args.min_words`` is 0 are
    counted in a note. A model is checked against the lexicon before the
    first author is read."""
    if model is not None:
        W, b = weight_matrix(model, lexicon)  # ModelError naming every category the lexicon lacks
    authors, frequencies = [], []
    dropped = 0
    for corpus in corpora:
        if corpus.total_messages < args.min_messages:
            continue
        try:
            fv = score_features(corpus.messages, lexicon)
        except EmptySampleError:
            if args.min_words == 0:  # otherwise no tokens is below the threshold
                dropped += 1
            continue
        if fv.total_tokens < args.min_words:
            continue
        authors.append((corpus.author_id, corpus.medium, corpus.total_messages, fv.total_tokens))
        frequencies.append(list(fv.frequencies.values()))  # lexicon order
    if dropped:
        print(f"note: dropped {dropped} author(s) with empty corpora", file=sys.stderr)
    values = np.array(frequencies, dtype=np.float64).reshape(len(authors), len(lexicon.categories))
    if model is None:
        return list(lexicon.category_names), authors, values
    return list(model.trait_names), authors, project(values, W, b)


def cmd_ingest(args) -> None:
    with open(args.input, "rb") as fh:
        result = parse_messages(fh, args.format, args.medium)
    write_corpus(result.messages, args.out)
    print(
        f"ingested {len(result.messages)} message(s); "
        f"skipped {result.skipped} malformed, filtered {result.filtered}",
        file=sys.stderr,
    )


def cmd_score(args) -> None:
    """``score`` (category frequencies, message and token counts) or
    ``traits`` (a model's trait values): one row per author with tokens."""
    lexicon = load_lexicon(args.lexicon)
    model = load_trait_model(args.model) if args.command == "traits" else None
    names, authors, values = _score_authors(_iter_corpora(args.corpus), lexicon, model, args)
    # built before any write, so a column without values leaves no file
    stats = PopulationStats(dict(zip(names, values.T))) if args.stats_out else None
    counts = model is None
    with atomic_write(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["author_id", "medium"] + ["messages", "tokens"] * counts + names)
        writer.writerows(
            [author_id, medium] + [messages, tokens] * counts + [fmt(v) for v in row]
            for (author_id, medium, messages, tokens), row in zip(authors, values.tolist())
        )
    if stats is not None:
        save_stats_json(stats, args.stats_out)


def cmd_compare(args) -> None:
    lexicon = load_lexicon(args.lexicon)
    model = load_trait_model(args.model) if args.model else None
    tables = []
    for path in (args.corpus_a, args.corpus_b):
        names, _, values = _score_authors(_iter_corpora(path), lexicon, model, args)
        tables.append(dict(zip(names, values.T)))
    rows = compare_media(*tables, baseline=args.baseline)
    write_comparison_csv(rows, args.out)
    if args.svg:
        write_svg(comparison_svg(rows, baseline=args.baseline), args.svg)


def cmd_stability(args) -> None:
    modes = MODES if args.mode == "both" else (args.mode,)
    plan = SubsamplePlan(
        unit=args.unit, mode=modes[0], base_size=args.base,
        sizes=args.sizes, master_seed=args.seed, anchor=args.anchor,
    )
    lexicon = load_lexicon(args.lexicon)
    model = load_trait_model(args.model) if args.model else None
    curves = run_stability_modes(_iter_corpora(args.corpus), plan, lexicon, model, modes=modes)
    write_curves_csv(curves, args.out)
    if args.svg:
        write_svg(curves_svg(curves), args.svg)


def cmd_renorm(args) -> None:
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


def cmd_synth(args) -> None:
    spec = SyntheticSpec(
        n_categories=args.categories,
        vocab_per_category=args.vocab_per_category,
        n_messages=args.messages,
        seed=args.seed,
        drift_rho=args.drift_rho,
        drift_sigma=args.drift_sigma,
        msg_length=(args.msg_len_min, args.msg_len_max),
    )
    corpora = iter_population(spec, args.authors, args.jitter)
    n_messages = 0
    with atomic_write(args.out) as fh:
        for corpus in corpora:
            fh.writelines(map(canonical_line, corpus.messages))
            n_messages += corpus.total_messages
    write_lexicon(companion_lexicon(spec), args.lexicon_out)
    print(f"generated {n_messages} message(s) for {args.authors} author(s)", file=sys.stderr)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(minimum: int):
    """An argparse ``type`` for an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}: {text!r}")
        return value
    return parse


def _int_list(text: str) -> tuple[int, ...]:
    """An argparse ``type`` for comma-separated integers; ``SubsamplePlan``
    checks their order and range."""
    try:
        return tuple(int(item) for item in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {text!r}") from None


def _add_thresholds(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-messages", type=_int_at_least(1), default=1)
    p.add_argument("--min-words", type=_int_at_least(0), default=0)


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
    _add_thresholds(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("traits", help="per-author trait scores from a linear model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", default=None)
    _add_thresholds(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("compare", help="cross-media comparison table (effect sizes, CIs, flags)")
    p.add_argument("--corpus-a", required=True)
    p.add_argument("--corpus-b", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--baseline", choices=("a", "b"), default="b",
                   help="side whose mean normalizes ratios (default: b)")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    _add_thresholds(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stability", help="variability curves across subsample sizes")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--model", default=None, help="trait model; omit for category-level curves")
    p.add_argument("--unit", choices=UNITS, default="messages")
    p.add_argument("--mode", choices=MODES + ("both",), default="both")
    p.add_argument("--base", type=int, required=True, help="full-sample size per author")
    p.add_argument("--sizes", type=_int_list, required=True, help="comma-separated subsample sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--anchor", choices=ANCHORS, default="latest")
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


def _check_outputs(args) -> None:
    """Raise LexstableError naming the first output (``run_manifest.json`` last) whose
    parent is not a directory, that is a directory, or that is the same file as an input
    or an earlier output, named too. Run before any input is read, so it writes nothing."""
    outputs = _flag_paths(args, _OUTPUTS)
    if hasattr(args, "out"):
        outputs.append(("run_manifest.json", Path(args.out).parent / "run_manifest.json"))
    seen = {os.path.realpath(path): flag for flag, path in _flag_paths(args, _INPUTS)}
    for flag, path in outputs:
        if not path.parent.is_dir():
            raise LexstableError(f"{flag} {path}: {path.parent} is not an existing directory")
        if path.is_dir():
            raise LexstableError(f"{flag} {path}: is a directory")
        other = seen.setdefault(os.path.realpath(path), flag)  # unlike Path.resolve, no error on a symlink loop
        if other != flag:
            raise LexstableError(f"{flag} {path}: names the same file as {other}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        return int(exc.code or 0)
    if args.command == "ingest" and args.medium is None:
        args.medium = _DEFAULT_MEDIUM[args.format]
    try:
        _check_outputs(args)
        args.func(args)
        if hasattr(args, "out"):
            _write_manifest(args)  # after every output, so a run that fails records none
    except PlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LexstableError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
