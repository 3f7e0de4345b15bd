import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexstable import cli as cli_module
from lexstable import lexicon as lexicon_module
from lexstable import synth as synth_module
from lexstable.cli import build_parser, main
from lexstable.errors import LexstableError, PlanError
from lexstable.ingest import Message, build_author_corpora, canonical_line, read_corpus, write_corpus
from lexstable.lexicon import load_lexicon, score_features, tokenize, write_lexicon
from lexstable.report import fmt, write_comparison_csv
from lexstable.stats import PopulationStats, compare_media, save_stats_json
from lexstable.synth import SyntheticSpec, generate_population
from lexstable.traits import infer_traits, load_trait_model

from conftest import cli_peak_mb, cli_peaks_mb, data_path, fixture_path


def run(*argv):
    return main(list(argv))


@pytest.fixture
def synth_files(tmp_path):
    corpus = tmp_path / "corp.jsonl"
    lexicon = tmp_path / "synth.dic"
    code = run(
        "synth", "--authors", "8", "--messages", "60", "--seed", "42",
        "--categories", "4", "--vocab-per-category", "6",
        "--out", str(corpus), "--lexicon-out", str(lexicon),
    )
    assert code == 0
    return corpus, lexicon


def test_synth_writes_two_files(synth_files):
    corpus, lexicon = synth_files
    assert corpus.exists() and lexicon.exists()
    lines = corpus.read_text().splitlines()
    assert len(lines) == 8 * 60
    record = json.loads(lines[0])
    assert set(record) == {"author_id", "timestamp", "medium", "text"}
    manifest = json.loads((corpus.parent / "run_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["flags"]["seed"] == 42
    assert manifest["input_digests"] == {}


def test_synth_reruns_are_byte_identical(tmp_path):
    outs = []
    for sub in ("x", "y"):
        d = tmp_path / sub
        d.mkdir()
        run("synth", "--authors", "3", "--messages", "30", "--seed", "5",
            "--out", str(d / "c.jsonl"), "--lexicon-out", str(d / "l.dic"))
        outs.append(((d / "c.jsonl").read_bytes(), (d / "l.dic").read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("value, flag", [
    *((v, f) for v in ("nan", "inf") for f in ("--drift-rho", "--drift-sigma", "--jitter")),
    # finite, but exp(jitter * g) or the drift logits overflow
    ("800", "--jitter"), ("1e308", "--jitter"), ("1e308", "--drift-sigma"),
])
@pytest.mark.filterwarnings("error")  # no numpy overflow warning on the way to the error
def test_synth_rejects_non_finite_rates(tmp_path, capsys, flag, value):
    corpus = tmp_path / "c.jsonl"
    code = run("synth", "--authors", "2", "--messages", "5", flag, value,
               "--out", str(corpus), "--lexicon-out", str(tmp_path / "l.dic"))
    assert code == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not corpus.exists()


@pytest.mark.parametrize("authors, spec, jitter", [
    (6, SyntheticSpec(4, 6, 40, seed=3, msg_length=(1, 9)), 0.1),
    (6, SyntheticSpec(4, 6, 40, seed=3, msg_length=(1, 9), drift_rho=0.9, drift_sigma=0.4), 0.1),
    # author10000 is written before author1001
    (10_001, SyntheticSpec(1, 1, 1, seed=0), 0.0),
], ids=["drift-off", "drift-on", "past-ten-thousand-authors"])
def test_synth_writes_what_write_corpus_writes_of_the_population(tmp_path, authors, spec, jitter):
    lo, hi = spec.msg_length
    assert run("synth", "--authors", str(authors), "--messages", str(spec.n_messages),
               "--seed", str(spec.seed), "--categories", str(spec.n_categories),
               "--vocab-per-category", str(spec.vocab_per_category), "--jitter", str(jitter),
               "--drift-rho", str(spec.drift_rho), "--drift-sigma", str(spec.drift_sigma),
               "--msg-len-min", str(lo), "--msg-len-max", str(hi),
               "--out", str(tmp_path / "c.jsonl"), "--lexicon-out", str(tmp_path / "l.dic")) == 0
    corpora, lexicon = generate_population(spec, authors, jitter)
    write_corpus([m for corpus in corpora for m in corpus.messages], tmp_path / "want.jsonl")
    write_lexicon(lexicon, tmp_path / "want.dic")
    assert (tmp_path / "c.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert (tmp_path / "l.dic").read_bytes() == (tmp_path / "want.dic").read_bytes()


def test_synth_failing_midway_writes_nothing(tmp_path, monkeypatch, capsys):
    generate_author = synth_module.generate_author
    calls = []

    def fail_on_second_author(spec, author_id, rates):
        calls.append(author_id)
        if len(calls) == 2:
            raise PlanError(f"no corpus for {author_id}")
        return generate_author(spec, author_id, rates=rates)

    monkeypatch.setattr(synth_module, "generate_author", fail_on_second_author)
    assert run("synth", "--authors", "4", "--messages", "30",
               "--out", str(tmp_path / "c.jsonl"), "--lexicon-out", str(tmp_path / "l.dic")) == 2
    assert "no corpus for author0001" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _traced_peak(*argv):
    """tracemalloc's peak over one in-process command."""
    tracemalloc.start()
    try:
        assert run(*map(str, argv)) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _traced_synth_peak(authors, out):
    return _traced_peak("synth", "--authors", authors, "--messages", 300, "--seed", 5,
                        "--categories", 4, "--vocab-per-category", 6,
                        "--out", out / "c.jsonl", "--lexicon-out", out / "l.dic")


def test_synth_memory_does_not_grow_with_each_author_messages(tmp_path):
    spec = SyntheticSpec(4, 6, 300, seed=5)
    tracemalloc.start()
    try:
        corpora, _ = generate_population(spec, 32, 0.1)
        one_author = tracemalloc.get_traced_memory()[0] / 32
    finally:
        tracemalloc.stop()
    del corpora
    _traced_synth_peak(8, tmp_path)  # first call: one-time allocations
    peaks = {n: _traced_synth_peak(n, tmp_path) for n in (8, 32)}
    per_author = (peaks[32] - peaks[8]) / 24
    # Holding the population grows the peak by about 1.2 of one author's
    # messages per author; streaming by about 0.01 (tracemalloc, 300
    # messages of 10-20 words per author).
    assert per_author < 0.25 * one_author, (per_author, one_author)


def test_stability_row_count_and_manifest(tmp_path, synth_files):
    corpus, lexicon = synth_files
    out = tmp_path / "curves.csv"
    svg = tmp_path / "curves.svg"
    code = run(
        "stability", "--corpus", str(corpus), "--lexicon", str(lexicon),
        "--unit", "messages", "--mode", "both", "--base", "60",
        "--sizes", "5,10,30", "--seed", "42",
        "--out", str(out), "--svg", str(svg),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    # header + categories(4) x sizes(3) x modes(2)
    assert len(lines) == 1 + 4 * 3 * 2
    assert lines[0] == ("trait,unit,mode,size,n_observations,mean_variability,"
                        "sd_variability,p95_empirical,p95_parametric")
    svg_text = svg.read_text()
    assert svg_text.startswith("<svg") or svg_text.startswith("<?xml")
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["command"] == "stability"
    assert len(manifest["input_digests"]) == 2


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_stability_memory_does_not_grow_with_messages_times_categories(tmp_path):
    corpus, lexicon = tmp_path / "c.jsonl", tmp_path / "l.dic"
    assert run("synth", "--authors", "40", "--messages", "2000", "--seed", "5",
               "--categories", "70", "--vocab-per-category", "20",
               "--out", str(corpus), "--lexicon-out", str(lexicon)) == 0
    imports = cli_peak_mb("stability", "--help")
    peak = cli_peak_mb("stability", "--corpus", corpus, "--lexicon", lexicon,
                       "--unit", "messages", "--mode", "both", "--base", 2000,
                       "--sizes", "20,50,100,200,500,1000", "--seed", 5, "--out", tmp_path / "curves.csv")
    # Above the imports' peak (34.1 MB on x86-64 Linux): 34.8-35.7 MB
    # when every author's per-message counts were kept to the last size,
    # 22.8 MB when only each author's values are (14.7 MB since the count
    # kernel bincounts cells instead of gathering a tokens x categories
    # array). The bound lies between. On two or more CPUs the 15 MB corpus
    # is read by two workers, and the larger of the parent's and the
    # largest worker's peaks is 13.9-14.1 MB (10.9-11.0 MB with the cell
    # kernel); counts kept to the last size reach the parent and read 47 MB.
    assert peak - imports < 29.0, (peak, imports)


def test_stability_size_exceeding_half_base_is_usage_error(tmp_path, synth_files, capsys):
    corpus, lexicon = synth_files
    code = run(
        "stability", "--corpus", str(corpus), "--lexicon", str(lexicon),
        "--base", "60", "--sizes", "45", "--out", str(tmp_path / "c.csv"),
    )
    assert code == 2
    assert "exceeds base/2" in capsys.readouterr().err


def test_ingest_score_traits_pipeline(tmp_path):
    canonical = tmp_path / "mail.jsonl"
    code = run("ingest", "--input", str(fixture_path("sample.mbox")),
               "--format", "mbox", "--out", str(canonical))
    assert code == 0
    assert canonical.exists()
    records = [json.loads(l) for l in canonical.read_text().splitlines()]
    assert all(r["medium"] == "email" for r in records)

    scores = tmp_path / "scores.csv"
    stats = tmp_path / "stats.json"
    code = run("score", "--corpus", str(canonical), "--lexicon", str(data_path("demo.dic")),
               "--out", str(scores), "--stats-out", str(stats))
    assert code == 0
    header = scores.read_text().splitlines()[0]
    assert header.startswith("author_id,medium,messages,tokens,")
    assert "pronoun" in header
    doc = json.loads(stats.read_text())
    assert set(doc["pronoun"]) == {"n", "mean", "sd"}

    traits = tmp_path / "traits.csv"
    code = run("traits", "--corpus", str(canonical), "--lexicon", str(data_path("demo.dic")),
               "--model", str(data_path("toy_big5.model")), "--out", str(traits))
    assert code == 0
    assert traits.read_text().splitlines()[0] == (
        "author_id,medium,openness,conscientiousness,extraversion,agreeableness,neuroticism"
    )


def test_compare_command(tmp_path):
    for side, seed in (("a", 1), ("b", 2)):
        run("synth", "--authors", "6", "--messages", "40", "--seed", str(seed),
            "--categories", "3", "--vocab-per-category", "5",
            "--out", str(tmp_path / f"{side}.jsonl"),
            "--lexicon-out", str(tmp_path / f"{side}.dic"))
    out = tmp_path / "cmp.csv"
    svg = tmp_path / "cmp.svg"
    code = run("compare", "--corpus-a", str(tmp_path / "a.jsonl"),
               "--corpus-b", str(tmp_path / "b.jsonl"),
               "--lexicon", str(tmp_path / "a.dic"),
               "--out", str(out), "--svg", str(svg))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("name,mean_a,mean_b,ratio,cohens_d,p_value,"
                        "ci_a_lo,ci_a_hi,ci_b_lo,ci_b_hi,large_effect,significant")
    assert len(lines) == 1 + 3
    assert svg.exists()


def test_compare_and_traits_hold_at_any_finite_scale(tmp_path):
    # one trait, one category's frequency times 2**996, 2**-1000 or 1: d and
    # p do not depend on the scale, and the population sd scales exactly
    for side, seed in (("a", 1), ("b", 2)):
        assert run("synth", "--authors", "12", "--messages", "40", "--seed", str(seed),
                   "--categories", "3", "--out", str(tmp_path / f"{side}.jsonl"),
                   "--lexicon-out", str(tmp_path / "l.dic")) == 0
    exponents = (996, -1000, 0)
    d_and_p, sds = [], []
    for k in exponents:
        out = tmp_path / f"k{k}"
        out.mkdir()
        (out / "m.model").write_text(f"model m\ntrait t intercept=0\n\tcat01 {math.ldexp(1.0, k)!r}\n")
        common = ("--lexicon", str(tmp_path / "l.dic"), "--model", str(out / "m.model"))
        assert run("compare", "--corpus-a", str(tmp_path / "a.jsonl"), "--corpus-b", str(tmp_path / "b.jsonl"),
                   *common, "--out", str(out / "cmp.csv")) == 0
        with open(out / "cmp.csv", newline="") as fh:
            [row] = csv.DictReader(fh)
        d_and_p.append((row["cohens_d"], row["p_value"]))
        assert all(math.isfinite(float(row[c])) for c in ("ci_a_lo", "ci_a_hi", "ci_b_lo", "ci_b_hi"))
        assert run("traits", "--corpus", str(tmp_path / "a.jsonl"), *common,
                   "--out", str(out / "t.csv"), "--stats-out", str(out / "s.json")) == 0
        sds.append(json.loads((out / "s.json").read_text())["t"]["sd"])
    assert d_and_p[0] == d_and_p[1] == d_and_p[2]
    assert float(d_and_p[2][1]) < 1.0
    assert all(math.isfinite(sd) for sd in sds)
    assert sds[:2] == [math.ldexp(sds[2], k) for k in exponents[:2]]


_EMPTY_AUTHOR = (b'{"author_id":"zz","timestamp":"2014-03-01T12:00:00Z",'
                 b'"medium":"synthetic","text":"123 456"}\n')


@pytest.mark.parametrize("command", ["score", "traits", "compare"])
def test_every_scoring_command_notes_authors_without_tokens(tmp_path, synth_files, capsys, command):
    corpus, lexicon = synth_files
    padded = tmp_path / "padded.jsonl"
    padded.write_bytes(corpus.read_bytes() + _EMPTY_AUTHOR)
    model = tmp_path / "m.model"
    model.write_text("model m\ntrait t intercept=1\n\tcat01 0.5\n")
    outputs = []
    # zz has one message: --min-messages 2 skips it before it is tokenized
    for path, min_messages in ((corpus, "1"), (padded, "1"), (padded, "2")):
        out = tmp_path / f"{path.stem}-{min_messages}"
        out.mkdir()
        if command == "compare":
            argv = ["compare", "--corpus-a", str(path), "--corpus-b", str(corpus)]
        else:
            argv = [command, "--corpus", str(path)] + (["--model", str(model)] if command == "traits" else [])
        assert run(*argv, "--lexicon", str(lexicon), "--min-messages", min_messages,
                   "--out", str(out / "out.csv")) == 0
        outputs.append((out / "out.csv").read_bytes())
        notes = [line for line in capsys.readouterr().err.splitlines() if line.startswith("note: dropped")]
        noted = path == padded and min_messages == "1"
        assert notes == ["note: dropped 1 author(s) with empty corpora"] * noted
    assert outputs[0] == outputs[1] == outputs[2]


def _scoring_argv(command, corpus, out_dir, *extra):
    corpus_flags = ["--corpus-a", corpus, "--corpus-b", corpus] if command == "compare" else ["--corpus", corpus]
    return [str(arg) for arg in [command, *corpus_flags, *extra, "--out", out_dir / "out.csv"]]


@pytest.mark.parametrize("command", ["traits", "compare"])
def test_a_model_is_checked_against_the_lexicon_before_any_corpus_is_read(tmp_path, capsys, command):
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(_EMPTY_AUTHOR)
    model = tmp_path / "m.model"
    model.write_text("model m\ntrait t intercept=0\n\tnosuch 1.0\n")
    for path in (corpus, tmp_path / "missing.jsonl"):
        out_dir = tmp_path / path.stem
        out_dir.mkdir()
        assert run(*_scoring_argv(command, path, out_dir, "--lexicon", data_path("toy.dic"), "--model", model)) == 1
        assert "absent from the lexicon: nosuch" in capsys.readouterr().err
        assert list(out_dir.iterdir()) == []  # no output, no run_manifest.json


@pytest.mark.parametrize("command, name", [("score", "pronoun"), ("traits", "t")])
def test_stats_that_cannot_be_built_write_nothing(tmp_path, capsys, command, name):
    corpus = tmp_path / "c.jsonl"
    corpus.write_bytes(_EMPTY_AUTHOR)
    model = tmp_path / "m.model"
    model.write_text("model m\ntrait t intercept=0\n\tpronoun 1.0\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    model_flags = ["--model", model] if command == "traits" else []
    assert run(*_scoring_argv(command, corpus, out_dir, "--lexicon", data_path("toy.dic"), *model_flags,
                              "--stats-out", out_dir / "stats.json")) == 1
    err = capsys.readouterr().err
    assert f"error: --corpus {corpus}: kept 0 author(s); --stats-out needs at least 1\n" in err
    assert f"no values for {name!r}" not in err  # the cause, not the first column
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("command", ["score", "compare"])
def test_too_few_kept_authors_name_the_corpus_and_the_need(tmp_path, capsys, command):
    broken = tmp_path / "broken.jsonl"
    broken.write_text("not json\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    lexicon = data_path("demo.dic")
    if command == "score":
        argv = _scoring_argv("score", broken, out_dir, "--lexicon", lexicon, "--stats-out", out_dir / "stats.json")
        want = f"error: --corpus {broken}: kept 0 author(s); --stats-out needs at least 1"
    else:
        argv = _scoring_argv("compare", broken, out_dir, "--lexicon", lexicon)
        want = f"error: --corpus-a {broken}: kept 0 author(s); compare needs at least 2 per side"
    assert run(*argv) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [want]
    assert list(out_dir.iterdir()) == []  # no output, no run_manifest.json
    if command == "score":  # without --stats-out, no author is a header-only CSV
        assert run(*_scoring_argv("score", broken, out_dir, "--lexicon", lexicon)) == 0
        assert (out_dir / "out.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("bad", ["missing/x", "is-a-directory"])
@pytest.mark.parametrize("command, flag", [("score", "--stats-out"), ("traits", "--stats-out"),
                                           ("compare", "--svg"), ("stability", "--svg"),
                                           ("synth", "--lexicon-out")])
def test_a_bad_second_output_path_writes_no_file(tmp_path, synth_files, capsys, command, flag, bad):
    corpus, lexicon = synth_files
    model = tmp_path / "m.model"
    model.write_text("model m\ntrait t intercept=0\n\tcat01 1.0\n")
    (tmp_path / "is-a-directory").mkdir()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = {
        "score": ["--corpus", corpus, "--lexicon", lexicon],
        "traits": ["--corpus", corpus, "--lexicon", lexicon, "--model", model],
        "compare": ["--corpus-a", corpus, "--corpus-b", corpus, "--lexicon", lexicon],
        "stability": ["--corpus", corpus, "--lexicon", lexicon, "--base", 20, "--sizes", "5,10"],
        "synth": ["--authors", 2, "--messages", 5],
    }[command]
    assert run(*map(str, [command, *argv, "--out", out_dir / "out.csv", flag, tmp_path / bad])) == 1
    assert list(out_dir.iterdir()) == []  # no output, no run_manifest.json
    assert capsys.readouterr().err.startswith(f"error: {flag} {tmp_path / bad}: ")


def _tree(root):
    return {path: path.is_file() and path.read_bytes() for path in sorted(root.rglob("*"))}


_SCORE = ["score", "--corpus", "corp.jsonl", "--lexicon", "synth.dic"]
_SYNTH = ["synth", "--authors", "2", "--messages", "5"]


@pytest.mark.parametrize("argv, flag, other, dirs", [
    (_SCORE + ["--out", "corp.jsonl"], "--out", "--corpus", ["d"]),
    (_SCORE + ["--out", "./corp.jsonl"], "--out", "--corpus", ["d"]),
    (_SCORE + ["--out", "link.jsonl"], "--out", "--corpus", ["d"]),
    (["compare", "--corpus-a", "corp.jsonl", "--corpus-b", "corp.jsonl", "--lexicon", "synth.dic",
      "--out", "d/x", "--svg", "d/x"], "--svg", "--out", ["d"]),
    (_SCORE + ["--out", "d/x", "--stats-out", "d/x"], "--stats-out", "--out", ["d"]),
    (_SYNTH + ["--out", "d/x", "--lexicon-out", "d/x"], "--lexicon-out", "--out", ["d"]),
    (_SCORE + ["--out", "d/run_manifest.json"], "run_manifest.json", "--out", ["d"]),
    (_SYNTH + ["--out", "d/c.jsonl", "--lexicon-out", "d/l.dic"], "run_manifest.json", "is a directory",
     ["d", "d/run_manifest.json"]),
], ids=["out-is-corpus", "out-is-corpus-through-dot", "out-is-corpus-through-symlink", "svg-is-out",
        "stats-out-is-out", "lexicon-out-is-out", "out-is-the-manifest", "manifest-is-a-directory"])
def test_an_output_naming_an_input_or_another_output_writes_no_file(
        tmp_path, synth_files, monkeypatch, capsys, argv, flag, other, dirs):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.jsonl").symlink_to("corp.jsonl")
    for d in dirs:
        (tmp_path / d).mkdir()
    before = _tree(tmp_path)
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and other in err
    assert _tree(tmp_path) == before  # inputs unchanged, no file added


def test_an_output_at_a_symlink_loop_replaces_the_link(tmp_path, synth_files):
    corpus, lexicon = synth_files
    (tmp_path / "loop1").symlink_to("loop2")
    (tmp_path / "loop2").symlink_to("loop1")
    assert run("score", "--corpus", str(corpus), "--lexicon", str(lexicon), "--out", str(tmp_path / "loop1")) == 0
    assert (tmp_path / "loop1").read_text().startswith("author_id,medium,messages,tokens,")


def test_every_flag_that_names_a_file_is_checked():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for parser in sub.choices.values() for action in parser._actions}
    names_a_file = {d for d in dests if d in ("out", "svg", "input", "lexicon", "model")
                    or d.endswith("_out") or d.startswith("corpus") or d.endswith("_stats")}
    listed = set(cli_module._INPUTS + cli_module._OUTPUTS)
    assert names_a_file - listed == set()  # a new file flag that skips the path checks
    assert listed - dests == set()  # a listed dest that no subcommand has


@pytest.mark.parametrize("command", ["traits", "compare", "stability"])
def test_a_model_whose_values_can_overflow_writes_no_file(tmp_path, synth_files, capsys, command):
    corpus, lexicon = synth_files
    model = tmp_path / "m.model"
    model.write_text("model m\ntrait t intercept=0\n\tcat01 1e307\n")  # 100 * 1e307 overflows
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = {
        "traits": ["--corpus", corpus, "--stats-out", out_dir / "stats.json"],
        "compare": ["--corpus-a", corpus, "--corpus-b", corpus, "--svg", out_dir / "out.svg"],
        "stability": ["--corpus", corpus, "--base", 20, "--sizes", "5,10", "--svg", out_dir / "out.svg"],
    }[command]
    assert run(*map(str, [command, *argv, "--lexicon", lexicon, "--model", model,
                          "--out", out_dir / "out.csv"])) == 1
    assert "model 'm' trait 't': weights so large that a value can overflow" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


# author "a" has exactly 5 tokens in 2 messages; "b" and "c" have 6 and 7 in 3
_FEW_WORDS = {"a": ["i am happy", "me too"], "b": ["i am so", "happy", "today friend"],
              "c": ["me me happy", "happier sad", "day night"]}


@pytest.mark.parametrize("command", ["score", "traits", "compare"])
def test_min_words_keeps_an_author_with_exactly_that_many_tokens(tmp_path, command):
    messages = [Message(author, datetime(2014, 3, 1, 12, i, tzinfo=timezone.utc), "blog", text)
                for author, texts in _FEW_WORDS.items() for i, text in enumerate(texts)]
    assert sum(len(tokenize(m.text)) for m in messages if m.author_id == "a") == 5
    full, without_a = tmp_path / "full.jsonl", tmp_path / "without_a.jsonl"
    write_corpus(messages, full)
    write_corpus([m for m in messages if m.author_id != "a"], without_a)
    model = tmp_path / "m.model"
    model.write_text("model m\ntrait t intercept=0\n\tposemo 1.0\n")
    model_flags = ["--model", model] if command == "traits" else []

    def output(corpus, flag, value):
        out_dir = tmp_path / f"{corpus.stem}{flag}-{value}"
        out_dir.mkdir()
        assert run(*_scoring_argv(command, corpus, out_dir, "--lexicon", data_path("toy.dic"), *model_flags,
                                  flag, value)) == 0
        return (out_dir / "out.csv").read_bytes()

    with_a = output(full, "--min-words", 0)
    assert with_a == output(full, "--min-words", 5) == output(full, "--min-messages", 2)
    assert with_a != output(without_a, "--min-words", 0) == output(full, "--min-words", 6) \
        == output(full, "--min-messages", 3)


def test_scoring_commands_write_what_the_per_author_api_gives(tmp_path):
    # weight lines out of lexicon order, and a --min-words that drops authors on both sides
    for side, seed in (("a", 5), ("b", 6)):
        assert run("synth", "--authors", "9", "--messages", "12", "--seed", str(seed), "--categories", "4",
                   "--out", str(tmp_path / f"{side}.jsonl"), "--lexicon-out", str(tmp_path / "l.dic")) == 0
    model_path = tmp_path / "m.model"
    model_path.write_text("model m\ntrait t2 intercept=-1.25\n\tcat04 0.3\n\tcat02 1.5\n\tcat01 0.1\n"
                          "trait t1 intercept=0.5\n\tcat03 0.7\n\tcat01 -0.2\n")
    lexicon, model = load_lexicon(tmp_path / "l.dic"), load_trait_model(model_path)
    scored = {side: [(c, score_features(c.messages, lexicon))
                     for c in build_author_corpora(read_corpus(tmp_path / f"{side}.jsonl").messages)]
              for side in ("a", "b")}
    min_words = sorted(fv.total_tokens for authors in scored.values() for _, fv in authors)[6]
    kept = {side: [(c, fv) for c, fv in authors if fv.total_tokens >= min_words]
            for side, authors in scored.items()}
    assert all(2 <= len(kept[side]) < len(scored[side]) for side in kept)
    expected = {}
    for side, authors in kept.items():
        frequencies = [[fv.frequencies[cid] for cid in lexicon.category_ids] for _, fv in authors]
        traits = [[infer_traits(fv, model, lexicon).values[name] for name in model.trait_names]
                  for _, fv in authors]
        for command, names, values in (("score", lexicon.category_names, frequencies),
                                       ("traits", model.trait_names, traits)):
            counts = command == "score"
            expected[command, side] = [["author_id", "medium"] + ["messages", "tokens"] * counts + list(names)] + [
                [c.author_id, c.medium] + [str(c.total_messages), str(fv.total_tokens)] * counts + list(map(fmt, row))
                for (c, fv), row in zip(authors, values)]
            expected[command, side, "columns"] = {name: [row[j] for row in values] for j, name in enumerate(names)}
    reference = tmp_path / "reference"
    reference.mkdir()
    common = ["--lexicon", tmp_path / "l.dic", "--min-words", min_words]
    for command, model_flags in (("score", []), ("traits", ["--model", model_path])):
        for side in ("a", "b"):
            out = tmp_path / f"{command}-{side}"
            out.mkdir()
            assert run(*map(str, [command, "--corpus", tmp_path / f"{side}.jsonl", *common, *model_flags,
                                  "--out", out / "out.csv", "--stats-out", out / "stats.json"])) == 0
            with open(out / "out.csv", newline="") as fh:
                assert list(csv.reader(fh)) == expected[command, side]
            save_stats_json(PopulationStats(expected[command, side, "columns"]), reference / "stats.json")
            assert (out / "stats.json").read_bytes() == (reference / "stats.json").read_bytes()
        out = tmp_path / f"compare-{command}"
        out.mkdir()
        assert run(*map(str, ["compare", "--corpus-a", tmp_path / "a.jsonl", "--corpus-b", tmp_path / "b.jsonl",
                              *common, *model_flags, "--out", out / "out.csv"])) == 0
        write_comparison_csv(compare_media(expected[command, "a", "columns"], expected[command, "b", "columns"]),
                             reference / "compare.csv")
        assert (out / "out.csv").read_bytes() == (reference / "compare.csv").read_bytes()


def test_renorm_holds_at_any_finite_scale(tmp_path, capsys):
    # one trait, one category's frequency times 1 or 2**996: the mapped
    # value scales exactly with the populations
    for side, seed in (("a", 1), ("b", 2)):
        assert run("synth", "--authors", "30", "--messages", "200", "--seed", str(seed),
                   "--out", str(tmp_path / f"{side}.jsonl"), "--lexicon-out", str(tmp_path / "l.dic")) == 0
    printed = []
    for k in (0, 996):
        out = tmp_path / f"k{k}"
        out.mkdir()
        (out / "m.model").write_text(f"model m\ntrait t intercept=0\n\tcat01 {math.ldexp(1.0, k)!r}\n")
        for side in ("a", "b"):
            assert run("traits", "--corpus", str(tmp_path / f"{side}.jsonl"), "--lexicon", str(tmp_path / "l.dic"),
                       "--model", str(out / "m.model"), "--out", str(out / f"{side}.csv"),
                       "--stats-out", str(out / f"{side}.json")) == 0
        capsys.readouterr()
        assert run("renorm", "--from-stats", str(out / "a.json"), "--to-stats", str(out / "b.json"),
                   "--trait", "t", "--value", repr(math.ldexp(10.0, k))) == 0
        printed.append(capsys.readouterr().out.strip())
    assert printed == ["9.58603737058", "6.41970096962e+300"]


def test_renorm_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(json.dumps({"t": {"n": 5, "mean": 0.0, "sd": 1.0}}))
    (tmp_path / "b.json").write_text(json.dumps({"t": {"n": 5, "mean": 10.0, "sd": 2.0}}))
    code = run("renorm", "--from-stats", "a.json", "--to-stats", "b.json",
               "--trait", "t", "--value", "1.0")
    assert code == 0
    assert capsys.readouterr().out.strip() == "12"
    code = run("renorm", "--from-stats", "a.json", "--to-stats", "b.json",
               "--trait", "missing", "--value", "1.0")
    assert code == 1
    capsys.readouterr()
    for value in ("nan", "inf", "-inf"):
        code = run("renorm", "--from-stats", "a.json", "--to-stats", "b.json",
                   "--trait", "t", "--value", value)
        assert code == 2
    (tmp_path / "nan.json").write_text('{"t": {"n": 5, "mean": NaN, "sd": 1.0}}')
    code = run("renorm", "--from-stats", "nan.json", "--to-stats", "b.json",
               "--trait", "t", "--value", "1.0")
    assert code == 1
    assert capsys.readouterr().out == ""
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    code = run("renorm", "--from-stats", "deep.json", "--to-stats", "b.json",
               "--trait", "t", "--value", "1.0")
    assert code == 1
    assert capsys.readouterr().err == "error: stats file deep.json: JSON nested too deep\n"
    assert not (tmp_path / "run_manifest.json").exists()  # renorm writes no file


def test_score_skips_a_line_nested_too_deep(tmp_path, synth_files, capsys):
    corpus, lexicon = synth_files
    with open(corpus, "ab") as fh:
        fh.write(b"[" * 200_000 + b"\n")
    out = tmp_path / "scores.csv"
    assert run("score", "--corpus", str(corpus), "--lexicon", str(lexicon), "--out", str(out)) == 0
    assert "skipped 1 malformed record(s)" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 1 + 8


def test_score_skips_a_line_holding_a_lone_surrogate(tmp_path, synth_files, capsys):
    corpus, lexicon = synth_files
    with open(corpus, "ab") as fh:
        fh.write(b'{"author_id":"\\udfff","timestamp":"2014-03-01T12:00:00Z",'
                 b'"medium":"synthetic","text":"w"}\n')
    out = tmp_path / "scores.csv"
    assert run("score", "--corpus", str(corpus), "--lexicon", str(lexicon), "--out", str(out)) == 0
    assert "skipped 1 malformed record(s)" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 1 + 8


def test_ingest_keeps_the_good_records_beside_a_lone_surrogate(tmp_path, capsys):
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_bytes(
        b'{"author_id":"a","created_at":"Wed Aug 27 13:08:45 +0000 2008","text":"bad \\ud800 here"}\n'
        b'{"author_id":"a","created_at":"Wed Aug 27 13:09:45 +0000 2008","text":"good text"}\n'
    )
    out = tmp_path / "corpus.jsonl"
    assert run("ingest", "--input", str(tweets), "--format", "tweets-jsonl", "--out", str(out)) == 0
    assert "skipped 1 malformed" in capsys.readouterr().err
    assert [m.text for m in read_corpus(out).messages] == ["good text"]


_SCIPY_PROBE = textwrap.dedent("""
    import csv
    import sys
    from pathlib import Path
    from lexstable import cli
    from lexstable.cli import main

    data = Path(sys.modules["lexstable"].__file__).parent / "data"  # not conftest: hypothesis loads decimal

    # xml pulls in urllib.request; email is for ingest --format mbox alone;
    # decimal and the t tail are for compare's p-values alone, so compare
    # runs last
    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv
        unwanted = {"scipy", "xml", "urllib.request", "multiprocessing", "email"}
        if argv[0] != "compare":
            unwanted |= {"decimal", "lexstable.tdist"}
        assert unwanted.isdisjoint(sys.modules), (argv[0], sorted(unwanted.intersection(sys.modules)))

    d = sys.argv[1]
    run("synth", "--authors", 4, "--messages", 20, "--seed", 1, "--categories", 3,
        "--out", f"{d}/c.jsonl", "--lexicon-out", f"{d}/l.dic")
    run("synth", "--authors", 4, "--messages", 20, "--seed", 2, "--categories", 3,
        "--out", f"{d}/c2.jsonl", "--lexicon-out", f"{d}/l2.dic")
    run("ingest", "--input", f"{d}/c.jsonl", "--format", "generic-jsonl", "--out", f"{d}/i.jsonl")
    run("score", "--corpus", f"{d}/i.jsonl", "--lexicon", f"{d}/l.dic",
        "--out", f"{d}/s.csv", "--stats-out", f"{d}/s.json")
    run("traits", "--corpus", f"{d}/i.jsonl", "--lexicon", data / "demo.dic",
        "--model", data / "toy_big5.model", "--out", f"{d}/t.csv")
    run("stability", "--corpus", f"{d}/c.jsonl", "--lexicon", f"{d}/l.dic",
        "--base", 20, "--sizes", "5,10", "--out", f"{d}/curves.csv")
    run("renorm", "--from-stats", f"{d}/s.json", "--to-stats", f"{d}/s.json",
        "--trait", "cat01", "--value", 1.0)

    # a population and a corpus of two shards each, forked on any host
    saved = cli._fork_map, cli._usable_cpus, cli._SHARD_TOKENS, cli._SHARD_BYTES
    forks = []

    def counted(fn, items):
        items = list(items)
        forks.append(len(items))
        return saved[0](fn, items)

    cli._fork_map, cli._usable_cpus = counted, lambda: 2
    cli._SHARD_TOKENS = cli._SHARD_BYTES = 1
    run("synth", "--authors", 4, "--messages", 20, "--seed", 3, "--categories", 3,
        "--out", f"{d}/c3.jsonl", "--lexicon-out", f"{d}/l3.dic")
    run("stability", "--corpus", f"{d}/c3.jsonl", "--lexicon", f"{d}/l3.dic",
        "--base", 20, "--sizes", "5,10", "--out", f"{d}/curves3.csv")
    assert forks == [2, 2], forks
    cli._fork_map, cli._usable_cpus, cli._SHARD_TOKENS, cli._SHARD_BYTES = saved
    with open(f"{d}/m.model", "w") as fh:
        fh.write("model m\\ntrait steady intercept=0\\n\\tcat01 0.5\\n\\tcat02 -0.5\\n")
    for model_flags in ([], ["--model", f"{d}/m.model"]):
        run("compare", "--corpus-a", f"{d}/c.jsonl", "--corpus-b", f"{d}/c2.jsonl",
            "--lexicon", f"{d}/l.dic", *model_flags, "--out", f"{d}/cmp.csv")
        with open(f"{d}/cmp.csv", newline="") as fh:  # a p-value below 1 went through the t tail
            assert any(float(row["p_value"]) < 1.0 for row in csv.DictReader(fh)), model_flags
    assert {"decimal", "lexstable.tdist"}.issubset(sys.modules)
""")


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter, so no other test has imported scipy yet
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_DIGEST_BUFFER = 1 << 16  # the size of _sha256's buffer


@pytest.mark.parametrize("size", [0, 1, _DIGEST_BUFFER - 1, _DIGEST_BUFFER, _DIGEST_BUFFER + 1,
                                  3 * _DIGEST_BUFFER + 7])
def test_the_input_digest_is_the_sha256_of_the_whole_file(tmp_path, size):
    path = tmp_path / "input"
    path.write_bytes(random.Random(size).randbytes(size))
    assert cli_module._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_usage_errors_and_help(capsys):
    assert run("--help") == 0
    capsys.readouterr()
    for sub in ("ingest", "score", "traits", "compare", "stability", "renorm", "synth"):
        assert run(sub, "--help") == 0
        assert sub in capsys.readouterr().out
    assert run("stability", "--corpus", "x", "--lexicon", "y",
               "--base", "10", "--sizes", "2", "--unknown-flag") == 2
    assert run() == 2
    assert run("not-a-command") == 2


@pytest.mark.parametrize("sizes", ["20,abc", "20,,50", "", "20;50", "1.5"])
def test_malformed_sizes_are_a_usage_error(tmp_path, synth_files, capsys, sizes):
    corpus, lexicon = synth_files
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run("stability", "--corpus", str(corpus), "--lexicon", str(lexicon), "--base", "60",
               "--sizes", sizes, "--out", str(out_dir / "curves.csv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lexstable stability") and "argument --sizes:" in err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("sizes, message", [("50,20", "strictly ascending"), ("0,5", "positive"),
                                            ("5,60", "exceeds base/2")])
def test_sizes_out_of_order_or_range_are_a_plan_error(tmp_path, synth_files, capsys, sizes, message):
    corpus, lexicon = synth_files
    assert run("stability", "--corpus", str(corpus), "--lexicon", str(lexicon), "--base", "60",
               "--sizes", sizes, "--out", str(tmp_path / "curves.csv")) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "curves.csv").exists()


@pytest.mark.parametrize("command", ["score", "traits", "compare"])
@pytest.mark.parametrize("flag, value", [("--min-messages", "0"), ("--min-messages", "-2"),
                                         ("--min-messages", "x"), ("--min-words", "-1"),
                                         ("--min-words", "1.5")])
def test_min_thresholds_are_checked_when_parsing(tmp_path, capsys, command, flag, value):
    empty = tmp_path / "empty.jsonl"  # no author is read, so only parsing can reject the flag
    empty.write_text("")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    corpus_flags = ["--corpus-a", empty, "--corpus-b", empty] if command == "compare" else ["--corpus", empty]
    model_flags = ["--model", data_path("toy_big5.model")] if command == "traits" else []
    assert run(*map(str, [command, *corpus_flags, "--lexicon", data_path("demo.dic"), *model_flags,
                          flag, value, "--out", out_dir / "out.csv"])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: lexstable {command}") and f"argument {flag}:" in err
    assert list(out_dir.iterdir()) == []


def test_stability_with_model(tmp_path, synth_files):
    corpus, lexicon = synth_files
    model = tmp_path / "m.model"
    model.write_text(
        "model demo\n"
        "trait steady intercept=0\n"
        "\tcat01 0.5\n"
        "\tcat02 -0.5\n"
        "trait lively intercept=1\n"
        "\tcat03 1.0\n"
    )
    out = tmp_path / "curves.csv"
    code = run("stability", "--corpus", str(corpus), "--lexicon", str(lexicon),
               "--model", str(model), "--mode", "random", "--base", "60",
               "--sizes", "5,10", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # traits(2) x sizes(2) x modes(1)
    assert {l.split(",")[0] for l in lines[1:]} == {"steady", "lively"}


# sha256 of curves.csv and curves.svg from `synth` + `stability --mode both`.
# Same inputs and seed must give byte-identical output; a digest changes
# only with an on-purpose change to the curves or their formats.
GOLDEN_CURVES = {
    "messages": (
        [],
        ["--unit", "messages", "--base", "200", "--sizes", "10,25,50,100"],
        "b76c65eb2351dbfc23fe192d49dc3cfe7f6d7f834ca569a3ababe455d168584e",
        "65296b05f52b1accccfafbaf58c6783c3dc0d3f4509ed220fc8c59649e4c55c9",
    ),
    "words-model": (
        ["--drift-rho", "0.9", "--drift-sigma", "0.5"],
        ["--unit", "words", "--base", "2000", "--sizes", "50,200,500,1000"],
        "552320bcab1d0c438423d5ce6ce51759bdd33ca6574756199920f460d792dad0",
        "c66ada42c5508d33fa1bb47eb7e75cbcb92768892cf6f0fc393cbacdeed359ff",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CURVES))
def test_stability_curves_match_their_golden_digests(tmp_path, case):
    synth_flags, stability_flags, csv_digest, svg_digest = GOLDEN_CURVES[case]
    corpus, lexicon = tmp_path / "corpus.jsonl", tmp_path / "synth.dic"
    assert run("synth", "--authors", "6", "--messages", "200", "--seed", "3",
               "--categories", "4", "--vocab-per-category", "6", *synth_flags,
               "--out", str(corpus), "--lexicon-out", str(lexicon)) == 0
    if case == "words-model":
        model = tmp_path / "drift.model"
        model.write_text("model golden\n"
                         "trait steady intercept=1.5\n\tcat01 0.25\n\tcat02 -0.5\n\tcat04 0.125\n"
                         "trait lively intercept=0\n\tcat03 1.0\n")
        stability_flags = stability_flags + ["--model", str(model)]
    out, svg = tmp_path / "curves.csv", tmp_path / "curves.svg"
    assert run("stability", "--corpus", str(corpus), "--lexicon", str(lexicon),
               "--mode", "both", "--seed", "11", *stability_flags,
               "--out", str(out), "--svg", str(svg)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_digest


def test_traits_and_stability_name_every_absent_category(tmp_path, synth_files, capsys):
    corpus, lexicon = synth_files
    model = tmp_path / "m.model"
    model.write_text("model demo\ntrait t intercept=0\n\tzeta 1.0\n\tcat01 0.5\n\talpha 2.0\n")
    errors = []
    for command, extra in (("traits", []), ("stability", ["--base", "60", "--sizes", "5"])):
        code = run(command, "--corpus", str(corpus), "--lexicon", str(lexicon),
                   "--model", str(model), "--out", str(tmp_path / f"{command}.csv"), *extra)
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "absent from the lexicon: alpha, zeta" in errors[0]


def test_missing_input_is_runtime_error(tmp_path):
    assert run("score", "--corpus", str(tmp_path / "nope.jsonl"),
               "--lexicon", str(data_path("toy.dic")),
               "--out", str(tmp_path / "o.csv")) == 1


# --- canonical corpora are read one author at a time ---------------------

_STREAMING_COMMANDS = {
    "stability": lambda corpus, lexicon, out: [
        "stability", "--corpus", corpus, "--lexicon", lexicon, "--base", "60", "--sizes", "5,10,30",
        "--out", out, "--svg", out.with_suffix(".svg")],
    "score": lambda corpus, lexicon, out: [
        "score", "--corpus", corpus, "--lexicon", lexicon, "--out", out,
        "--stats-out", out.with_suffix(".json")],
    "compare": lambda corpus, lexicon, out: [
        "compare", "--corpus-a", corpus, "--corpus-b", corpus, "--lexicon", lexicon, "--out", out,
        "--svg", out.with_suffix(".svg")],
}


def _run_streaming(command, corpus, lexicon, out_dir):
    out_dir.mkdir()
    return run(*map(str, _STREAMING_COMMANDS[command](corpus, lexicon, out_dir / "out.csv")))


@pytest.mark.parametrize("command", sorted(_STREAMING_COMMANDS))
def test_corpus_out_of_author_order_is_a_runtime_error(tmp_path, synth_files, capsys, command):
    corpus, lexicon = synth_files
    lines = corpus.read_text().splitlines()
    unsorted = tmp_path / "unsorted.jsonl"
    # the first author's first line moved to the end, after a blank line
    unsorted.write_text("\n".join(lines[1:] + ["", lines[0]]) + "\n")
    out_dir = tmp_path / "out"
    assert _run_streaming(command, unsorted, lexicon, out_dir) == 1
    assert f"{unsorted}:{len(lines) + 1}: author_id 'author0000' sorts below" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []  # no output, no run_manifest.json


@pytest.mark.parametrize("command", sorted(_STREAMING_COMMANDS))
def test_timestamp_order_within_an_author_does_not_change_output(tmp_path, synth_files, command):
    corpus, lexicon = synth_files
    lines = corpus.read_text().splitlines()
    rng = random.Random(7)
    runs = [list(group) for _, group in itertools.groupby(lines, lambda l: json.loads(l)["author_id"])]
    for group in runs:
        rng.shuffle(group)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(line + "\n" for group in runs for line in group))
    assert shuffled.read_bytes() != corpus.read_bytes()
    outputs = []
    for name, path in (("sorted", corpus), ("shuffled", shuffled)):
        assert _run_streaming(command, path, lexicon, tmp_path / name) == 0
        outputs.append({f.name: f.read_bytes() for f in (tmp_path / name).iterdir()
                        if f.name != "run_manifest.json"})
    assert len(outputs[0]) >= 2 and outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["score", "traits", "compare"])
def test_min_words_tokenizes_each_author_once(tmp_path, synth_files, monkeypatch, command):
    corpus, lexicon = synth_files
    model = tmp_path / "m.model"
    model.write_text("model demo\ntrait t intercept=0\n\tcat01 1.0\n")
    passes = []

    def counted(messages, tokens=lexicon_module._tokens):  # one tokenizing pass over an author's texts
        passes.append(len(messages))
        return tokens(messages)

    monkeypatch.setattr(lexicon_module, "_tokens", counted)
    corpus_flags = {"compare": ["--corpus-a", corpus, "--corpus-b", corpus]}.get(command, ["--corpus", corpus])
    model_flags = ["--model", model] if command == "traits" else []
    assert run(*map(str, [command, *corpus_flags, "--lexicon", lexicon, *model_flags,
                          "--min-words", "1", "--out", tmp_path / "out.csv"])) == 0
    authors = 8 * (2 if command == "compare" else 1)
    assert passes == [60] * authors


def _traced_stability_peak(corpus, lexicon, out):
    return _traced_peak("stability", "--corpus", corpus, "--lexicon", lexicon,
                        "--base", 300, "--sizes", "20,50", "--out", out)


def test_stability_memory_does_not_grow_with_each_author_messages(tmp_path):
    corpora = {}
    for authors in (8, 32):
        corpus, lexicon = tmp_path / f"c{authors}.jsonl", tmp_path / f"l{authors}.dic"
        assert run("synth", "--authors", str(authors), "--messages", "300", "--seed", "5",
                   "--categories", "4", "--vocab-per-category", "6",
                   "--out", str(corpus), "--lexicon-out", str(lexicon)) == 0
        corpora[authors] = corpus, lexicon
    tracemalloc.start()
    try:
        messages = read_corpus(corpora[32][0]).messages
        one_author = tracemalloc.get_traced_memory()[0] / 32
    finally:
        tracemalloc.stop()
    del messages
    _traced_stability_peak(*corpora[8], tmp_path / "warm.csv")  # first call: one-time allocations
    peaks = {n: _traced_stability_peak(*corpora[n], tmp_path / f"o{n}.csv") for n in (8, 32)}
    per_author = (peaks[32] - peaks[8]) / 24
    # Holding every parsed message grows the peak by about 1.25 of one
    # author's messages per author; streaming by about 0.25 (tracemalloc,
    # 300 messages of 10-20 words per author).
    assert per_author < 0.5 * one_author


# --- a corpus of two shards or more is read in forked workers -------------

def _assert_every_child_reaped():
    """This process has no child left, running or exited: a worker that
    was forked but not reaped would be one."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_FORK = cli_module._fork


def _force_shards(monkeypatch, n):
    """Cut every corpus and every synth population into up to ``n``
    shards on any host. Returns the list that receives one item per
    worker forked (see ``_workers``)."""
    forks = []

    def fork(fn, item):
        forks.append(item)
        return _FORK(fn, item)

    monkeypatch.setattr(cli_module, "_SHARD_BYTES", 1)
    monkeypatch.setattr(cli_module, "_SHARD_TOKENS", 1)
    monkeypatch.setattr(cli_module, "_usable_cpus", lambda: n)
    monkeypatch.setattr(cli_module, "_fork", fork)
    return forks


def _workers(shards, runs=1):
    """The workers that ``runs`` fan-outs of ``shards`` shards each fork:
    none for one shard, which runs in the calling process."""
    return runs * shards if shards > 1 else 0


# one shard is the golden test itself
@pytest.mark.parametrize("shards", [2, 3])
@pytest.mark.parametrize("case", sorted(GOLDEN_CURVES))
def test_golden_curves_do_not_depend_on_the_shard_count(tmp_path, monkeypatch, case, shards):
    forks = _force_shards(monkeypatch, shards)
    test_stability_curves_match_their_golden_digests(tmp_path, case)
    assert len(forks) == _workers(shards, runs=2)  # synth, then stability
    _assert_every_child_reaped()


@pytest.mark.parametrize("shards", [2, 3])
def test_scoring_commands_write_the_per_author_api_in_any_shard_count(tmp_path, monkeypatch, shards):
    forks = _force_shards(monkeypatch, shards)
    test_scoring_commands_write_what_the_per_author_api_gives(tmp_path)
    assert len(forks) == _workers(shards, runs=10)  # two synth runs, eight corpus reads
    _assert_every_child_reaped()


_SHARDED_FLAGS = {
    "stability": lambda model, out_dir: ["--base", 60, "--sizes", "5,10,30", "--svg", out_dir / "out.svg"],
    "score": lambda model, out_dir: ["--stats-out", out_dir / "stats.json"],
    "traits": lambda model, out_dir: ["--model", model, "--stats-out", out_dir / "stats.json"],
    "compare": lambda model, out_dir: ["--model", model, "--svg", out_dir / "out.svg"],
}


@pytest.mark.parametrize("command", sorted(_SHARDED_FLAGS))
def test_outputs_notes_and_manifest_do_not_depend_on_the_shard_count(tmp_path, synth_files, monkeypatch,
                                                                     capsys, command):
    corpus, lexicon = synth_files
    lines = corpus.read_bytes().splitlines(keepends=True)
    junk = [b"not json\n", b"\n", b'{"author_id":"zz","timestamp":"never","text":"x"}\n']
    padded = tmp_path / "padded.jsonl"  # junk between every two authors, and an author without tokens
    padded.write_bytes(b"".join(line + (junk[i // 60 % 3] if i % 60 == 59 else b"")
                                for i, line in enumerate(lines)) + _EMPTY_AUTHOR)
    model = tmp_path / "m.model"
    model.write_text("model m\ntrait t intercept=1\n\tcat01 0.5\n\tcat03 -2\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    argv = _scoring_argv(command, padded, out_dir, "--lexicon", lexicon, *_SHARDED_FLAGS[command](model, out_dir))
    seen = {}
    for shards in (1, 2, 3):
        forks = _force_shards(monkeypatch, shards)
        assert run(*argv) == 0
        assert len(forks) == _workers(shards, runs=2 if command == "compare" else 1)
        _assert_every_child_reaped()
        captured = capsys.readouterr()
        seen[shards] = captured.out, captured.err, {f.name: f.read_bytes() for f in out_dir.iterdir()}
    assert seen[1] == seen[2] == seen[3]
    notes = ["note: skipped 5 malformed record(s) in " + str(padded)]
    if command != "stability":
        notes.append("note: dropped 1 author(s) with empty corpora")
    assert seen[1][1].splitlines() == notes * (2 if command == "compare" else 1)
    assert len(seen[1][2]) == 3  # out.csv, its companion output and run_manifest.json


def _swapped_runs(lines, k):
    """Corpus lines with the author runs k and k + 1 swapped."""
    runs = [list(group) for _, group in itertools.groupby(lines, lambda l: json.loads(l)["author_id"])]
    runs[k], runs[k + 1] = runs[k + 1], runs[k]
    return [line for group in runs for line in group]


@pytest.mark.parametrize("command", sorted(_STREAMING_COMMANDS))
def test_an_order_error_does_not_depend_on_the_shard_count(tmp_path, synth_files, monkeypatch, capsys, command):
    corpus, lexicon = synth_files
    lines = corpus.read_text().splitlines()
    cases = {"last": lines[1:] + ["", lines[0]]}  # the error in the last shard
    cases.update({f"swap{k}": _swapped_runs(lines, k) for k in range(7)})  # the error at every author change
    for name, case in cases.items():
        unsorted = tmp_path / f"{name}.jsonl"
        unsorted.write_text("\n".join(case) + "\n")
        errors = set()
        for shards in (1, 2, 3):
            forks = _force_shards(monkeypatch, shards)
            out_dir = tmp_path / f"{name}-{shards}"
            assert _run_streaming(command, unsorted, lexicon, out_dir) == 1
            assert len(forks) == _workers(shards)  # compare fails on its first corpus
            assert list(out_dir.iterdir()) == []  # no output, no run_manifest.json
            _assert_every_child_reaped()
            errors.add(capsys.readouterr().err)
        assert len(errors) == 1
        line = len(lines) + 1 if name == "last" else int(name[4:]) * 60 + 61
        assert f"{unsorted}:{line}: author_id " in errors.pop()


_WORDS = ("i", "you", "we", "happy", "sad", "hate", "friends", "talking", "think", "job", "meeting", "zebra")


@st.composite
def _mutated(draw, line: bytes) -> bytes:
    """``line``, a canonical corpus line, kept or broken in one of the
    ways a corpus file is: a field of the wrong type, a lone surrogate,
    an impossible date, a truncation, a NUL, a BOM or a CR."""
    how = draw(st.just("keep") | st.sampled_from(["type", "surrogate", "date", "truncate", "nul", "bom", "cr"]))
    at = draw(st.integers(0, len(line) - 1))
    raw = {"keep": line, "truncate": line[:at], "nul": line[:at] + b"\0" + line[at:], "bom": b"\xef\xbb\xbf" + line,
           "cr": line[:at] + b"\r" + line[at:]}
    if how in raw:
        return raw[how]
    record = json.loads(line)
    if how == "type":
        record[draw(st.sampled_from(sorted(record)))] = draw(st.sampled_from([1, 2.5, True, None, [], {}, ["a1"]]))
    elif how == "surrogate":
        field = draw(st.sampled_from(["author_id", "medium", "text"]))
        record[field] = record[field][:at] + "\ud800" + record[field][at:]
    else:
        record["timestamp"] = draw(st.sampled_from(
            ["2014-02-30T00:00:00Z", "2013-02-29T12:00:00Z", "2014-13-01T00:00:00Z", "0000-01-01T00:00:00Z"]))
    return (json.dumps(record) + "\n").encode()


@st.composite
def _fuzzed_corpora(draw) -> bytes:
    """Up to four authors' canonical lines, in author order, each line
    kept or broken by ``_mutated``."""
    lines = []
    for author in range(draw(st.integers(1, 4))):
        for minute in range(draw(st.integers(0, 8))):
            text = " ".join(draw(st.lists(st.sampled_from(_WORDS), max_size=5)))
            stamp = datetime(2014, 3, 1, 12, minute, tzinfo=timezone.utc)
            line = canonical_line(Message(f"a{author}", stamp, "twitter", text)).encode()
            lines.append(draw(_mutated(line)))
    return b"".join(lines)


_FUZZED_COMMANDS = {
    "score": lambda corpus, out_dir: ["score", "--corpus", corpus, "--lexicon", data_path("demo.dic"),
                                      "--out", out_dir / "out.csv", "--stats-out", out_dir / "stats.json"],
    "stability": lambda corpus, out_dir: ["stability", "--corpus", corpus, "--lexicon", data_path("demo.dic"),
                                          "--base", 2, "--sizes", "1", "--out", out_dir / "out.csv"],
}


@given(_fuzzed_corpora())
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_broken_corpus_fails_or_passes_alike_in_any_shard_count(tmp_path, capsys, data):
    case = Path(tempfile.mkdtemp(dir=tmp_path))
    corpus = case / "corpus.jsonl"
    corpus.write_bytes(data)
    for command, argv in _FUZZED_COMMANDS.items():
        out_dir = case / command
        out_dir.mkdir()
        seen = set()
        for shards in (1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                _force_shards(patch, shards)
                code = run(*map(str, argv(corpus, out_dir)))
            _assert_every_child_reaped()
            captured = capsys.readouterr()
            files = {f.name: f.read_bytes() for f in out_dir.iterdir()}
            assert code in (0, 1, 2)
            if code:
                assert [line.startswith("error: ") for line in captured.err.splitlines()].count(True) == 1
                assert files == {}  # no output, no run_manifest.json
            else:
                assert "run_manifest.json" in files
            seen.add((code, captured.out, captured.err, tuple(sorted(files.items()))))
            for f in out_dir.iterdir():
                f.unlink()
        assert len(seen) == 1, (command, seen)


def test_a_worker_that_dies_fails_the_command(tmp_path, synth_files, monkeypatch, capsys):
    corpus, lexicon = synth_files
    parent = os.getpid()

    def dying(corpus, *args, score=cli_module._score_author, **kwargs):
        if os.getpid() != parent and corpus.author_id == "author0005":
            os._exit(3)
        return score(corpus, *args, **kwargs)

    forks = _force_shards(monkeypatch, 3)
    monkeypatch.setattr(cli_module, "_score_author", dying)
    out_dir = tmp_path / "out"
    assert _run_streaming("score", corpus, lexicon, out_dir) == 1
    assert len(forks) == 3
    assert capsys.readouterr().err == "error: a worker process exited with code 3 before sending its result\n"
    assert list(out_dir.iterdir()) == []
    _assert_every_child_reaped()


@pytest.mark.parametrize("what", ["result", "exception"])
def test_a_worker_whose_result_cannot_be_pickled_fails_the_command(tmp_path, synth_files, monkeypatch, capsys,
                                                                   what):
    corpus, lexicon = synth_files
    parent = os.getpid()

    def unsendable(corpus, *args, score=cli_module._score_author, **kwargs):
        if os.getpid() != parent and corpus.author_id == "author0005":
            if what == "exception":  # nothing reaches the pipe
                raise LexstableError(lambda: None)
            return bytes(1 << 20), lambda: None  # a megabyte reaches the pipe before the lambda fails
        return score(corpus, *args, **kwargs)

    forks = _force_shards(monkeypatch, 3)
    monkeypatch.setattr(cli_module, "_score_author", unsendable)
    out_dir = tmp_path / "out"
    assert _run_streaming("score", corpus, lexicon, out_dir) == 1
    assert len(forks) == 3
    assert capsys.readouterr().err == "error: a worker process exited with code 1 before sending its result\n"
    assert list(out_dir.iterdir()) == []
    _assert_every_child_reaped()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs to shard; reads VmHWM from /proc")
def test_a_sharded_stability_run_keeps_no_bookkeeping_on_its_peak(tmp_path):
    corpus, lexicon = tmp_path / "c.jsonl", tmp_path / "l.dic"
    assert run("synth", "--authors", "40", "--messages", "2000", "--seed", "5",
               "--out", str(corpus), "--lexicon-out", str(lexicon)) == 0
    imports = cli_peak_mb("stability", "--help")
    peak, growth = cli_peaks_mb("stability", "--corpus", corpus, "--lexicon", lexicon,
                                "--unit", "messages", "--mode", "both", "--base", 2000,
                                "--sizes", "20,50,100,200,500,1000", "--seed", 5, "--out", tmp_path / "curves.csv")
    # Above the imports' peak (33.6 MB on x86-64 Linux), for this 14 MB
    # corpus in two shards: 2.8-2.9 MB when the input digest reads through
    # one 64 KiB buffer and each worker's result is unpickled from its
    # pipe; 4.5-4.6 MB when the digest reads 1 MiB chunks; 3.9-4.0 MB
    # when the workers are multiprocessing processes that send whole
    # pickled messages; 5.7-5.9 MB with both.
    assert peak - imports < 3.4, (peak, imports)
    # The largest worker's peak is 2.9 MB below the command's size at the
    # fork, so its growth reads 0; a worker that grows about 4 MB more
    # fails here, below the imports' peak.
    assert growth < 1.0, growth


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs to shard; reads VmHWM from /proc")
def test_an_order_error_in_the_last_shard_holds_no_earlier_shard(tmp_path, synth_files):
    corpus, lexicon = synth_files
    lines = corpus.read_bytes().splitlines(keepends=True)
    unsorted = tmp_path / "unsorted.jsonl"  # 32 MiB of blank lines, then the "last" case
    unsorted.write_bytes(b"".join([b" " * (1 << 20) + b"\n"] * 32 + lines[1:] + [b"\n", lines[0]]))
    imports = cli_peak_mb("score", "--help")
    peak, growth = cli_peaks_mb("score", "--corpus", unsorted, "--lexicon", lexicon, "--out", tmp_path / "out.csv",
                                code=1)
    # Above the imports' peak (33.6 MB on x86-64 Linux): 1.7-1.9 MB, one
    # blank line's bytes and text, when the second shard's worker counts
    # the lines before its shard one at a time to name the failing line;
    # 22.4-22.6 MB when it reads them all at once, which is also the
    # worker's growth past the command's size at the fork (23.1 MB, against
    # 0 for the line-at-a-time count).
    assert peak - imports < 5.0, (peak, imports)
    assert growth < 1.0, growth


# --- a large synth population is generated in forked workers --------------

_SYNTH_CASES = {
    "drift-off": (6, ["--messages", 40, "--msg-len-min", 1, "--msg-len-max", 9]),
    "drift-on": (6, ["--messages", 40, "--drift-rho", 0.9, "--drift-sigma", 0.4]),
    "jitter": (6, ["--messages", 40, "--jitter", 0.7, "--categories", 7]),
    "uneven": (7, ["--messages", 25]),  # 7 authors in 2 or 3 shards
    "past-ten-thousand-authors": (10_001, ["--messages", 1, "--categories", 1, "--vocab-per-category", 1]),
}


@pytest.mark.parametrize("case", sorted(_SYNTH_CASES))
def test_synth_does_not_depend_on_the_shard_count(tmp_path, monkeypatch, capsys, case):
    authors, flags = _SYNTH_CASES[case]
    argv = ["synth", "--authors", authors, "--seed", 3, *flags,
            "--out", tmp_path / "c.jsonl", "--lexicon-out", tmp_path / "l.dic"]
    seen = {}
    for shards in (1, 2, 3):
        forks = _force_shards(monkeypatch, shards)
        assert run(*map(str, argv)) == 0
        assert len(forks) == _workers(shards)
        _assert_every_child_reaped()
        captured = capsys.readouterr()
        seen[shards] = captured.out, captured.err, {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert seen[1] == seen[2] == seen[3]
    assert sorted(seen[1][2]) == ["c.jsonl", "l.dic", "run_manifest.json"]  # no part file is left


def test_a_synth_rate_error_names_the_same_first_author_in_any_shard_count(tmp_path, monkeypatch, capsys):
    # with one category and seed 9, the rates of author0003 and author0008
    # overflow; in 2 and 3 shards they fall in two workers
    argv = ["synth", "--authors", "9", "--messages", "5", "--categories", "1", "--seed", "9",
            "--jitter", "800", "--out", str(tmp_path / "c.jsonl"), "--lexicon-out", str(tmp_path / "l.dic")]
    for shards in (1, 2, 3):
        forks = _force_shards(monkeypatch, shards)
        assert run(*argv) == 2
        assert len(forks) == _workers(shards)
        assert capsys.readouterr().err == (
            "error: rate_jitter 800.0 makes a rate of author0003 zero or not a finite number\n")
        assert list(tmp_path.iterdir()) == []
        _assert_every_child_reaped()


@pytest.mark.parametrize("shards", [2, 3])
def test_a_synth_worker_that_dies_fails_the_command(tmp_path, monkeypatch, capsys, shards):
    parent = os.getpid()
    generate_author = synth_module.generate_author

    def dying(spec, author_id, rates):
        if os.getpid() != parent and author_id == "author0004":
            os._exit(3)
        return generate_author(spec, author_id, rates=rates)

    forks = _force_shards(monkeypatch, shards)
    monkeypatch.setattr(synth_module, "generate_author", dying)
    assert run("synth", "--authors", "7", "--messages", "25",
               "--out", str(tmp_path / "c.jsonl"), "--lexicon-out", str(tmp_path / "l.dic")) == 1
    assert capsys.readouterr().err == "error: a worker process exited with code 3 before sending its result\n"
    assert len(forks) == shards
    assert list(tmp_path.iterdir()) == []
    _assert_every_child_reaped()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable CPUs to shard; reads VmHWM from /proc")
def test_a_sharded_synth_keeps_no_shard_text_in_one_process(tmp_path):
    imports = cli_peak_mb("synth", "--help")
    peak = cli_peak_mb("synth", "--authors", 40, "--messages", 2000, "--seed", 5,
                       "--out", tmp_path / "c.jsonl", "--lexicon-out", tmp_path / "l.dic")
    # Above the imports' peak (33.6 MB on x86-64 Linux), for this 14 MB
    # corpus: at most 0.1 MB in two shards, where the workers stream their
    # authors to part files and the parent copies them; 5.8 MB in one
    # process; 24.9 MB when each worker sends its shard's text to the parent.
    assert peak - imports < 3.0, (peak, imports)


def test_mbox_ingest_memory_grows_with_the_messages_kept_not_with_the_file(tmp_path):
    # 2,000 mails of 50 senders, each a short reply over 40 quoted lines
    # that strip_quoted drops: 5.6 MB of mailbox, 2,000 kept messages
    quoted = b"".join(b"> quoted line %d of an earlier mail, kept by no reader of this one\n" % i
                      for i in range(40))
    mbox = tmp_path / "big.mbox"
    with open(mbox, "wb") as fh:
        for i in range(2000):
            fh.write(b"From a%d@example.com Mon Mar  3 09:00:00 2014\nFrom: a%d@example.com\n"
                     b"Date: Mon, 3 Mar 2014 09:%02d:00 +0000\n\nreply %d\n" % (i % 50, i % 50, i % 60, i)
                     + quoted + b"\n")
    imports = cli_peak_mb("ingest", "--help")
    peak = cli_peak_mb("ingest", "--input", mbox, "--format", "mbox", "--out", tmp_path / "mail.jsonl")
    assert len((tmp_path / "mail.jsonl").read_bytes().splitlines()) == 2000
    # Above the imports' peak (33.5 MB on x86-64 Linux): 3.0 MB when the
    # mailbox is read mail by mail (the email package's import included);
    # 19.3 MB when the whole file, its lines and every mail's bytes are
    # held before the first mail is parsed.
    assert peak - imports < 8.0, (peak, imports)
