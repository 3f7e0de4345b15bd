"""Run one lexstable CLI command in-process, with spans around the
package's public functions.

    python3 tracer.py SRC_DIR OUT_JSON CLI-ARG...

The package is imported from SRC_DIR and left unchanged on disk: each
public function is replaced, for this process only, at the module
attribute its callers look up (``lexstable.stability.count_matrix``,
``lexstable.rng.Stream.permutation``, ...). Every call records a span
(name, start, end, parent, self time) in memory. The CLI's own work
gets spans too: building and running the argument parser and writing
the run manifest. When ``cli.main`` returns, the spans are aggregated
per name and written to OUT_JSON with the command's in-process wall
time, the part of it that spans cover, and the part that spans of the
other layers cover. The exit code is that of ``cli.main``.
"""

from __future__ import annotations

import importlib
import itertools
import json
import resource
import sys
import threading
import time
from array import array

# (module, attribute, span name): functions, wrapped where callers look them up.
FUNCTION_SITES = [
    ("cli", "_write_manifest", "cli.write_manifest"),
    ("cli", "parse_messages", "ingest.parse_messages"),
    ("cli", "read_corpus", "ingest.read_corpus"),
    ("cli", "build_author_corpora", "ingest.build_author_corpora"),
    ("cli", "write_corpus", "ingest.write_corpus"),
    ("ingest", "clean_text", "ingest.clean_text"),
    ("ingest", "tokenize", "lexicon.tokenize"),
    ("lexicon", "tokenize", "lexicon.tokenize"),
    ("cli", "load_lexicon", "lexicon.load_lexicon"),
    ("cli", "write_lexicon", "lexicon.write_lexicon"),
    ("cli", "score_features", "lexicon.score_features"),
    ("stability", "count_matrix", "lexicon.count_matrix"),
    ("cli", "infer_traits", "traits.infer_traits"),
    ("cli", "load_trait_model", "traits.load_trait_model"),
    ("stability", "weight_matrix", "traits.weight_matrix"),
    ("cli", "compare_media", "stats.compare_media"),
    ("cli", "save_stats_json", "stats.save_stats_json"),
    ("cli", "load_stats_json", "stats.load_stats_json"),
    ("cli", "renormalize", "stats.renormalize"),
    ("stability", "derive_seed", "rng.derive_seed"),
    ("synth", "derive_seed", "rng.derive_seed"),
    ("cli", "run_stability_modes", "stability.run_stability_modes"),
    ("stability", "run_stability", "stability.run_stability"),
    ("stability", "full_sample", "stability.full_sample"),
    ("cli", "generate_population", "synth.generate_population"),
    ("cli", "write_curves_csv", "report.write_curves_csv"),
    ("cli", "write_comparison_csv", "report.write_comparison_csv"),
    ("cli", "curves_svg", "report.curves_svg"),
    ("cli", "comparison_svg", "report.comparison_svg"),
    ("cli", "write_svg", "report.write_svg"),
]

# (module, class, method, span name): methods, wrapped on the class.
METHOD_SITES = [
    ("rng", "Stream", "permutation", "rng.permutation"),
    ("stats", "PopulationStats", "__init__", "stats.population_stats"),
    ("stats", "PopulationStats", "percentile_rank", "stats.percentile_rank"),
    ("stats", "PopulationStats", "percentile_ranks", "stats.percentile_ranks"),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _curve_observations(curves) -> int:
    return sum(p.n_observations for c in curves for p in c.points)


def _population_messages(result) -> int:
    corpora, _lexicon = result
    return sum(len(c.messages) for c in corpora)


# Span name -> (counter name, function of the call's result).
RESULT_COUNTERS = {
    "lexicon.tokenize": ("lexicon.tokens", len),
    "stability.run_stability": ("stability.observations", _curve_observations),
    "synth.generate_population": ("synth.messages", _population_messages),
    "ingest.read_corpus": ("ingest.read_corpus.maxrss_mb", lambda _r: _maxrss_mb()),
}
PEAK_COUNTERS = ("ingest.read_corpus.maxrss_mb",)  # kept as a maximum; the others add up


def merge_counter(counters: dict, key: str, value: float) -> None:
    old = counters.get(key, 0)
    counters[key] = max(old, value) if key in PEAK_COUNTERS else old + value


class _ThreadSpans:
    """One thread's open-span stack and its finished spans, in flat arrays
    (about 44 bytes a span), so recording takes no lock."""

    def __init__(self):
        self.stack: list[list] = []
        self.name = array("i")
        self.id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.counters: dict[str, float] = {}


class Tracer:
    """Spans of every thread, kept in memory until the pass ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.threads: list[_ThreadSpans] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _thread_spans(self) -> _ThreadSpans:
        spans = self._local.spans = _ThreadSpans()
        with self._lock:
            self.threads.append(spans)
        return spans

    def wrap(self, fn, name: str):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter
        local = self._local
        ids = self._ids

        def traced(*args, **kwargs):
            try:
                ts = local.spans
            except AttributeError:
                ts = self._thread_spans()
            stack = ts.stack
            span_id = next(ids)
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]  # time inside nested wrapped calls, span id
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                ts.name.append(name_id)
                ts.id.append(span_id)
                ts.parent.append(parent)
                ts.start.append(start)
                ts.end.append(end)
                ts.self_time.append(duration - frame[0])
            if counter is not None:
                merge_counter(ts.counters, counter[0], counter[1](result))
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self, main_start: float, main_end: float) -> dict:
        import numpy as np

        k = len(self.names)
        calls = np.zeros(k)
        busy = np.zeros(k)
        self_time = np.zeros(k)
        counters: dict[str, float] = {}
        top_start, top_end, top_name = [], [], []
        for ts in self.threads:
            name = np.frombuffer(ts.name, dtype=np.int32)
            start = np.frombuffer(ts.start)
            end = np.frombuffer(ts.end)
            calls += np.bincount(name, minlength=k)
            busy += np.bincount(name, weights=end - start, minlength=k)
            self_time += np.bincount(name, weights=np.frombuffer(ts.self_time), minlength=k)
            top = np.frombuffer(ts.parent, dtype=np.int64) < 0
            top_start.extend(start[top].tolist())
            top_end.extend(end[top].tolist())
            top_name.extend(self.names[i] for i in name[top].tolist())
            for key, value in ts.counters.items():
                merge_counter(counters, key, value)
        spans = sorted(zip(top_start, top_end, top_name))
        return {
            "wall_s": main_end - main_start,
            "covered_s": _union(spans, main_start),
            "covered_by_layers_s": _union([s for s in spans if not s[2].startswith("cli.")], main_start),
            "spans": int(calls.sum()),
            "layers": {
                name: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(self_time[i])}
                for i, name in enumerate(self.names) if calls[i]
            },
            "counters": counters,
        }


def _union(spans, origin: float) -> float:
    """Total length of the union of sorted (start, end, name) intervals."""
    covered = 0.0
    reach = origin
    for start, end, _name in spans:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def install(tracer: Tracer) -> None:
    cli = importlib.import_module("lexstable.cli")
    build = cli.build_parser

    def build_parser():
        parser = build()
        parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args")
        return parser

    cli.build_parser = tracer.wrap(build_parser, "cli.build_parser")
    for module, attr, name in FUNCTION_SITES:
        mod = importlib.import_module(f"lexstable.{module}")
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name))
    for module, cls_name, method, name in METHOD_SITES:
        cls = getattr(importlib.import_module(f"lexstable.{module}"), cls_name)
        setattr(cls, method, tracer.wrap(getattr(cls, method), name))


def main(argv: list[str]) -> int:
    src, out_path, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    from lexstable import cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    code = cli.main(cli_args)
    end = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(start, end), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
