"""Command-line front door.

Subcommands: ingest, score, traits, compare, stability, renorm, synth.
Exit codes: 0 success, 2 usage/validation error, 1 runtime error. Given
the same inputs and seed, every run writes byte-identical output files.
Every command with ``--out`` also writes, last, a ``run_manifest.json``
with the resolved flags and content digests of the input files beside
that output; ``renorm`` writes neither. ``main`` owns both steps.

``score``, ``traits``, ``compare`` and ``stability`` read a corpus through
``map_authors``, and ``synth`` writes one, through ``_fork_map``: the work
is cut into shards, at most one per usable CPU, and a lone shard runs in
this process, with no fork; each of two or more runs in a forked worker,
since the reader, the count kernel and the generator hold the GIL. A
corpus file of at least two ``_SHARD_BYTES`` is cut at author changes; a
``synth`` population of at least two ``_SHARD_TOKENS`` expected tokens is
cut into contiguous runs of its sorted author ids. ``synth``'s first run
streams straight into the output, through the file its worker inherits,
and each later run into an unlinked temporary part file in the output's
directory, which the parent appends in id order. Outputs, notes and
errors do not depend on the number of shards.

A worker is a plain ``os.fork`` with one pipe: it pickles its result
straight into the pipe, and the parent unpickles it from there, so
neither holds the whole message. Nothing imports ``multiprocessing``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import pickle
import shutil
import signal
import sys
import tempfile
import threading
import warnings
from contextlib import ExitStack
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_write
from .errors import LexstableError, PlanError
from .ingest import (
    ParseResult, canonical_line, iter_author_texts, parse_messages, split_corpus, write_corpus, FORMATS,
)
from .ingest import build_author_corpora  # noqa: F401  unused: a name the benchmark's tracer wraps in cli
from .ingest import read_corpus  # noqa: F401  unused: a name the benchmark's tracer wraps in cli
from .lexicon import count_matrix, load_lexicon, write_lexicon
from .lexicon import score_features  # noqa: F401  unused: a name the benchmark's tracer wraps in cli
from .report import (
    comparison_svg, curves_svg, fmt, write_comparison_csv, write_curves_csv, write_svg,
)
from .stability import ANCHORS, MODES, UNITS, StabilityExperiment, SubsamplePlan
from .stability import run_stability_modes  # noqa: F401  unused: a name the benchmark's tracer wraps in cli
from .stats import PopulationStats, compare_media, load_stats_json, renormalize, save_stats_json
from .synth import SyntheticSpec, companion_lexicon, generate_authors, population_ids
from .synth import generate_population  # noqa: F401  unused: a name the benchmark's tracer wraps in cli
from .traits import infer_traits  # noqa: F401  unused: a name the benchmark's tracer wraps in cli
from .traits import load_trait_model, project, weight_matrix


def _sha256(path) -> str:
    """The hex SHA-256 of the file at ``path``, read through one reused
    64 KiB buffer, so no chunk outlives its read."""
    h = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
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


# A corpus is read in shards of at least this many bytes, one forked
# worker each and at most one per usable CPU; a smaller file is read in
# this process. `score`, the cheapest command per byte, breaks even with
# two workers at a 1 MB corpus (2-CPU Linux VM, medians of 10 alternated
# runs: 11% slower at 0.5 MB, 4% faster at 2 MB, 11% faster at 4 MB).
# 4 MiB leaves a margin and keeps corpora of a few MB in-process.
_SHARD_BYTES = 4 << 20

# `synth` generates its population in shards of at least this many
# expected tokens (authors x messages x mean message length), one forked
# worker each and at most one per usable CPU and per author. Two workers
# break even with one process at about 200k tokens (2-CPU Linux VM, 10
# authors, medians of 10 alternated runs: 1% slower at 120k tokens, 4%
# faster at 240k, 13% at 480k, 20% at 960k), so two shards start at 400k.
_SHARD_TOKENS = 200_000


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where workers are not
    forked: without ``os.sched_getaffinity`` (Linux has it; macOS, where
    forking a process that has loaded system libraries is unsafe, and
    Windows, which cannot fork, do not), or while another Python thread
    runs, which could hold a lock the worker needs."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _work(fn, item, fd) -> None:
    """A forked worker's body: pickle ``(True, fn(item))``, or ``(False,
    exc)`` for what it raised, straight into the pipe ``fd``, and leave
    through ``os._exit``, never returning into the parent's code: exit
    code 0 once the result is written, 1 if writing it failed."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            try:
                result = True, fn(item)
            except BaseException as exc:  # sent, not printed: the parent raises it
                result = False, exc
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    except Exception:  # a result or an exception that cannot be pickled
        sys.excepthook(*sys.exc_info())
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _fork(fn, item):
    """Fork a worker for ``_work(fn, item, ...)``. Returns its pid and
    the read end of its pipe, whose only writer is the worker, so the
    worker's exit ends the pipe."""
    sys.stdout.flush()  # else the worker, which flushes before it exits, writes the buffer again
    sys.stderr.flush()
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():  # Python 3.12+ counts a BLAS pool's threads too
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        os.close(r)
        _work(fn, item, w)
    os.close(w)
    return pid, open(r, "rb")


def _reap(pid, reader) -> int:
    """Close a worker's pipe, wait for it, and return its exit code
    (minus the signal's number if a signal ended it)."""
    reader.close()
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _fork_map(fn, items) -> list:
    """``[fn(item) for item in items]`` for any iterable ``items``: a lone
    item is called in this process, with no fork and no pipe; each of two
    or more in its own forked worker, whose result is unpickled from its
    pipe as it arrives, in item order. The first call, in order, that
    raised re-raises here; a worker that ends without a whole result is a
    LexstableError naming its exit code. On failure the other workers get
    SIGTERM. Every worker is reaped before this returns or raises."""
    items = list(items)
    if len(items) == 1:
        return [fn(items[0])]
    workers = {}  # pid -> the read end of its pipe, until reaped
    try:
        for item in items:
            pid, reader = _fork(fn, item)
            workers[pid] = reader
        results = []
        for pid, reader in list(workers.items()):
            try:
                ok, value = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):  # nothing, or a truncated pickle
                code = _reap(pid, workers.pop(pid))
                raise LexstableError(f"a worker process exited with code {code} before sending its result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for pid in workers:  # none is reaped yet, so no pid can have been reused
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid, reader in workers.items():
            _reap(pid, reader)


def map_authors(path, fn) -> list:
    """``fn`` of each of the corpus's ``AuthorCorpus`` groups, in file
    order, each holding its texts alone (``iter_author_texts``); the
    skipped-record note follows the last author. Each author is read, and
    dropped, one at a time. A file of at least two ``_SHARD_BYTES`` is
    cut at author changes into one shard per usable CPU, and the shards
    are read through ``_fork_map``; results, the note and errors do not
    depend on the number of shards."""
    shards = split_corpus(path, min(_usable_cpus(), os.path.getsize(path) // _SHARD_BYTES))

    def read(shard):
        tally = ParseResult()
        return [fn(corpus) for corpus in iter_author_texts(path, tally, shard)], tally.skipped

    parts = _fork_map(read, shards)
    skipped = sum(n for _, n in parts)
    if skipped:
        print(f"note: skipped {skipped} malformed record(s) in {path}", file=sys.stderr)
    return [result for results, _ in parts for result in results]


def _score_author(corpus, lexicon, args):
    """One author's ``(author_id, medium, messages, tokens)`` and its
    frequencies in lexicon order (the column sums of its ``count_matrix``
    per 100 tokens), if it has at least ``args.min_messages`` messages
    (fewer are never tokenized) and ``args.min_words`` tokens (and at
    least one); False if it has no tokens and ``args.min_words`` is 0, an
    author to note as dropped; None otherwise."""
    if corpus.total_messages < args.min_messages:
        return None
    counts, words = count_matrix(corpus.messages, lexicon)
    total = int(words.sum())
    if total == 0:
        return False if args.min_words == 0 else None  # otherwise no tokens is below the threshold
    if total < args.min_words:
        return None
    return (corpus.author_id, corpus.medium, corpus.total_messages, total), 100.0 * counts.sum(axis=0) / total


def _score_table(path, lexicon, model, args):
    """Score each author of the corpus at ``path`` with ``_score_author``.
    Returns the value names (the model's traits, or the lexicon's
    categories without a model), the kept authors' rows and their values,
    authors x names: frequencies, or their one projection. Authors
    dropped for having no tokens are counted in a note. A model is
    checked against the lexicon before the first author is read."""
    if model is not None:
        W, b = weight_matrix(model, lexicon)  # ModelError naming every category the lexicon lacks
    rows = map_authors(path, partial(_score_author, lexicon=lexicon, args=args))
    if dropped := sum(row is False for row in rows):
        print(f"note: dropped {dropped} author(s) with empty corpora", file=sys.stderr)
    kept = [row for row in rows if row]
    authors = [author for author, _ in kept]
    values = np.array([freqs for _, freqs in kept], dtype=np.float64).reshape(len(kept), len(lexicon.categories))
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
    names, authors, values = _score_table(args.corpus, lexicon, model, args)
    if args.stats_out and not authors:
        raise LexstableError(f"--corpus {args.corpus}: kept 0 author(s); --stats-out needs at least 1")
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
    for flag, path in (("--corpus-a", args.corpus_a), ("--corpus-b", args.corpus_b)):
        names, authors, values = _score_table(path, lexicon, model, args)
        if len(authors) < 2:
            raise LexstableError(f"{flag} {path}: kept {len(authors)} author(s); compare needs at least 2 per side")
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
    experiment = StabilityExperiment(plan, lexicon, model, modes)
    curves = experiment.curves(map_authors(args.corpus, experiment.observe))
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


def _write_part(spec, jitter, shard) -> int:
    """Write the corpora of a ``(author_ids, part)`` shard to the binary
    file ``part``, one author at a time, keeping none; return their
    message count. Run in-process, ``part`` is the caller's output or
    part file, so the wrapper is detached, which flushes, not closed."""
    author_ids, part = shard
    fh = io.TextIOWrapper(part, encoding="utf-8", newline="\n")
    n_messages = 0
    for corpus in generate_authors(spec, author_ids, jitter):
        fh.writelines(map(canonical_line, corpus.messages))
        n_messages += corpus.total_messages
    fh.detach()
    return n_messages


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
    author_ids = population_ids(args.authors)
    lo, hi = spec.msg_length
    tokens = args.authors * args.messages * (lo + hi) // 2
    n_shards = max(1, min(_usable_cpus(), args.authors, tokens // _SHARD_TOKENS))
    shards = [author_ids[len(author_ids) * i // n_shards:len(author_ids) * (i + 1) // n_shards]
              for i in range(n_shards)]
    with ExitStack() as stack:  # unlinked parts: a killed run leaves none behind
        parts = [stack.enter_context(tempfile.TemporaryFile(dir=Path(args.out).parent)) for _ in shards[1:]]
        with atomic_write(args.out) as fh:  # shard 0 goes straight into the output
            n_messages = sum(_fork_map(partial(_write_part, spec, args.jitter), zip(shards, [fh.buffer, *parts])))
            fh.buffer.seek(0, os.SEEK_END)  # a forked shard 0 moved the offset it shares with this process
            for part in parts:
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)
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
