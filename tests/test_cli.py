import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from lexstable import lexicon as lexicon_module
from lexstable import synth as synth_module
from lexstable.cli import main
from lexstable.errors import PlanError
from lexstable.ingest import read_corpus, write_corpus
from lexstable.lexicon import write_lexicon
from lexstable.synth import SyntheticSpec, generate_population

from conftest import data_path, fixture_path


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
    import sys
    from lexstable.cli import main
    from conftest import data_path

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv
        assert "scipy" not in sys.modules, argv[0]

    d = sys.argv[1]
    run("synth", "--authors", 4, "--messages", 20, "--seed", 1, "--categories", 3,
        "--out", f"{d}/c.jsonl", "--lexicon-out", f"{d}/l.dic")
    run("ingest", "--input", f"{d}/c.jsonl", "--format", "generic-jsonl", "--out", f"{d}/i.jsonl")
    run("score", "--corpus", f"{d}/i.jsonl", "--lexicon", f"{d}/l.dic",
        "--out", f"{d}/s.csv", "--stats-out", f"{d}/s.json")
    run("traits", "--corpus", f"{d}/i.jsonl", "--lexicon", data_path("demo.dic"),
        "--model", data_path("toy_big5.model"), "--out", f"{d}/t.csv")
    run("stability", "--corpus", f"{d}/c.jsonl", "--lexicon", f"{d}/l.dic",
        "--base", 20, "--sizes", "5,10", "--out", f"{d}/curves.csv")
    run("renorm", "--from-stats", f"{d}/s.json", "--to-stats", f"{d}/s.json",
        "--trait", "cat01", "--value", 1.0)
    main(["compare", "--corpus-a", f"{d}/c.jsonl", "--corpus-b", f"{d}/i.jsonl",
          "--lexicon", f"{d}/l.dic", "--out", f"{d}/cmp.csv"])
    assert "scipy" in sys.modules
""")


def test_only_compare_imports_scipy(tmp_path):
    # a fresh interpreter, so no other test has imported scipy yet
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
