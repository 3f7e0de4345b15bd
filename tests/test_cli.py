import json
import os
import subprocess
import sys
import textwrap

import pytest

from lexstable.cli import main

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
