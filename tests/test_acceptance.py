"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Stated tolerances are pinned in the asserts.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import json
import random
import time

import numpy as np
import pytest

import lexstable as lx
from lexstable.rng import Stream, derive_seed
from lexstable.stability import StabilityCurve, VariabilityPoint
from lexstable.synth import SyntheticSpec, companion_lexicon, vocab_word
from lexstable.traits import parse_trait_model

from conftest import data_path, fixture_path

SIZES = (20, 50, 100, 200, 500, 1000)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} FAIL - {title}", flush=True)
                raise
            print(f"\nACCEPTANCE {number:02d} PASS - {title}", flush=True)
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1. lexicon scoring exactness + additivity


@criterion(1, "lexicon scoring matches hand-verified counts; additivity on 1000 splits")
def test_criterion_1_scoring_exactness():
    start = time.monotonic()
    toy = lx.load_lexicon(data_path("toy.dic"))
    # hand-verified counts for the toy dictionary
    # {i -> pronoun, me -> pronoun, happ* -> posemo}
    with open(fixture_path("golden_scoring.json")) as fh:
        golden = json.load(fh)
    assert len(golden) == 10
    for case in golden:
        fv = lx.score_features([case["text"]], toy)
        assert fv.total_tokens == case["total_tokens"], case["text"]
        assert fv.counts[1] == case["pronoun"], case["text"]
        assert fv.counts[2] == case["posemo"], case["text"]

    rng = random.Random(42)
    words = ["i", "me", "happy", "happiest", "i'm", "banana", "tree", "sun"]
    msgs = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 10)))
            for _ in range(120)]
    whole = lx.score_features(msgs, toy)
    for _ in range(1000):
        k = rng.randint(1, len(msgs) - 1)
        left = lx.score_features(msgs[:k], toy)
        right = lx.score_features(msgs[k:], toy)
        assert left.total_tokens + right.total_tokens == whole.total_tokens
        for cid in whole.counts:
            assert left.counts[cid] + right.counts[cid] == whole.counts[cid]
        # frequencies recombine via token-weighted average
        for cid in whole.counts:
            mixed = (left.frequencies[cid] * left.total_tokens
                     + right.frequencies[cid] * right.total_tokens) / whole.total_tokens
            assert mixed == pytest.approx(whole.frequencies[cid], abs=1e-9)
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 2. percentile oracle


@criterion(2, "percentile_rank equals brute-force midrank on 100 random populations")
def test_criterion_2_percentile_oracle():
    start = time.monotonic()
    rng = random.Random(4242)
    for _ in range(100):
        n = rng.randint(1, 1000)
        # coarse integer grid forces plenty of duplicates
        population = [float(rng.randint(-30, 30)) for _ in range(n)]
        stats = lx.PopulationStats({"t": population})
        probes = [float(rng.randint(-35, 35)) for _ in range(20)]
        probes += [rng.choice(population) for _ in range(10)]
        for value in probes:
            less = sum(1 for x in population if x < value)
            equal = sum(1 for x in population if x == value)
            expected = 100.0 * (less + 0.5 * equal) / n
            assert stats.percentile_rank("t", value) == expected
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 3. statistics oracles


@criterion(3, "cohens_d within 1e-9 and welch_p within 1e-6 of committed references")
def test_criterion_3_stats_oracles():
    with open(fixture_path("stat_reference.json")) as fh:
        refs = json.load(fh)
    assert len(refs) == 20
    for ref in refs:
        d = lx.cohens_d(ref["a"], ref["b"])
        p = lx.welch_p(ref["a"], ref["b"])
        assert abs(d - ref["cohens_d"]) <= 1e-9
        assert abs(p - ref["welch_p"]) <= 1e-6


# ---------------------------------------------------------------------------
# 4. renormalization round trip


@criterion(4, "renormalization round trip within 1e-9 on 10000 random triples")
def test_criterion_4_renorm_round_trip():
    stream = Stream(20140404)
    n = 10_000
    u = stream.uniforms(n) * 10.0 - 5.0
    # log-uniform sds spanning the full stated range; means scale with
    # their population's sd (the round trip is exact algebra, float
    # error grows with |mean| * sd_a / sd_b)
    sd_a = 10.0 ** (stream.uniforms(n) * 6.0 - 3.0)
    sd_b = 10.0 ** (stream.uniforms(n) * 6.0 - 3.0)
    mean_a = (stream.uniforms(n) * 20.0 - 10.0) * sd_a
    mean_b = (stream.uniforms(n) * 20.0 - 10.0) * sd_b
    worst = 0.0
    for i in range(n):
        x = mean_a[i] + u[i] * sd_a[i]
        there = lx.renormalize(x, (mean_a[i], sd_a[i]), (mean_b[i], sd_b[i]))
        back = lx.renormalize(there, (mean_b[i], sd_b[i]), (mean_a[i], sd_a[i]))
        worst = max(worst, abs(back - x))
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# 5. zero-variability identity


@criterion(5, "variability of the full sample against itself is exactly 0")
def test_criterion_5_zero_variability_identity():
    spec = SyntheticSpec(n_categories=5, vocab_per_category=6, n_messages=120, seed=42)
    corpora, lexicon = lx.generate_population(spec, 25, rate_jitter=0.15)
    plan = lx.SubsamplePlan(unit="messages", mode="random", base_size=120,
                            sizes=(10,), master_seed=42)
    model = parse_trait_model([
        "model probe",
        "trait mixed intercept=1.0",
        "\tcat01 0.7",
        "\tcat03 -0.4",
        "trait single intercept=0.0",
        "\tcat05 1.0",
    ])
    for use_model in (None, model):
        names = (list(model.trait_names) if use_model else list(lexicon.category_names))
        values = {}
        for corpus in corpora:
            fv = lx.score_features(lx.full_sample(corpus, plan), lexicon)
            if use_model:
                scores = lx.infer_traits(fv, use_model, lexicon).values
                values[corpus.author_id] = [scores[n] for n in names]
            else:
                values[corpus.author_id] = [fv.frequencies[cid]
                                            for cid, _ in lexicon.categories]
        ladder = lx.PopulationStats({
            name: [values[c.author_id][j] for c in corpora]
            for j, name in enumerate(names)
        })
        for corpus in corpora:
            for j, name in enumerate(names):
                v = values[corpus.author_id][j]
                assert lx.trait_variability(v, v, ladder, name) == 0.0


# ---------------------------------------------------------------------------
# 6. shrinkage law (drift-free population)


@pytest.fixture(scope="module")
def driftfree_curves():
    spec = SyntheticSpec(n_categories=10, vocab_per_category=20,
                         n_messages=2000, seed=42)
    corpora, lexicon = lx.generate_population(spec, 200, rate_jitter=0.1)
    plan = lx.SubsamplePlan(unit="messages", mode="random", base_size=2000,
                            sizes=SIZES, master_seed=42)
    start = time.monotonic()
    curves = lx.run_stability(corpora, plan, lexicon)
    return curves, time.monotonic() - start


@criterion(6, "random-mode variability shrinks like 1/sqrt(size) (within 30% per point)")
def test_criterion_6_shrinkage_law(driftfree_curves):
    curves, elapsed = driftfree_curves
    assert elapsed < 120.0
    agg = np.array([
        np.mean([c.points[i].mean_variability for c in curves])
        for i in range(len(SIZES))
    ])
    assert all(a > b for a, b in zip(agg, agg[1:])), agg
    assert agg[SIZES.index(200)] < agg[SIZES.index(20)] / 2
    x = 1.0 / np.sqrt(np.array(SIZES, dtype=float))
    c_fit = float((agg * x).sum() / (x * x).sum())
    for observed, fitted in zip(agg, c_fit * x):
        assert abs(observed - fitted) <= 0.30 * fitted, (observed, fitted)


# ---------------------------------------------------------------------------
# 7. contiguity gap (drifted population)


@criterion(7, "contiguous-mode variability exceeds random-mode at every size under drift")
def test_criterion_7_contiguity_gap():
    start = time.monotonic()
    spec = SyntheticSpec(n_categories=10, vocab_per_category=20,
                         n_messages=2000, seed=42,
                         drift_rho=0.99, drift_sigma=0.5)
    corpora, lexicon = lx.generate_population(spec, 200, rate_jitter=0.1)
    plan = lx.SubsamplePlan(unit="messages", mode="random", base_size=2000,
                            sizes=SIZES, master_seed=42)
    curves = lx.run_stability_modes(corpora, plan, lexicon,
                                    modes=("random", "contiguous"))
    by_mode = {}
    for c in curves:
        by_mode.setdefault(c.mode, []).append(c)
    for i, size in enumerate(SIZES):
        rand = np.mean([c.points[i].mean_variability for c in by_mode["random"]])
        cont = np.mean([c.points[i].mean_variability for c in by_mode["contiguous"]])
        assert cont > rand, (size, cont, rand)
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------------------------
# 8. threshold scan


@criterion(8, "minimum_sample_size matches a linear-scan oracle on 50 random curves")
def test_criterion_8_threshold_scan():
    rng = random.Random(808)
    for _ in range(50):
        sizes = sorted(rng.sample(range(5, 2000), rng.randint(1, 12)))
        points = [
            VariabilityPoint(
                size=s, n_observations=10,
                mean_variability=rng.uniform(0, 40),
                sd_variability=rng.uniform(0, 10),
                p95_empirical=rng.uniform(0, 60),
                p95_parametric=0.0,
            )
            for s in sizes
        ]
        shuffled = points[:]
        rng.shuffle(shuffled)
        curve = StabilityCurve("t", "random", "messages", shuffled)
        for statistic, attr in (("mean", "mean_variability"),
                                ("p95_empirical", "p95_empirical")):
            threshold = rng.uniform(0, 50)
            expected = None
            for p in points:  # linear scan in ascending size order
                if getattr(p, attr) <= threshold:
                    expected = p.size
                    break
            assert lx.minimum_sample_size(curve, threshold, statistic) == expected


# ---------------------------------------------------------------------------
# 9. effect-size flags


@criterion(9, "compare_media flags exactly the categories with an injected 1.0 sd shift")
def test_criterion_9_effect_size_flags():
    names = [f"cat{k:02d}" for k in range(1, 11)]
    designated = {"cat03", "cat07", "cat10"}
    sigma, n = 2.0, 500
    table_a, table_b = {}, {}
    for name in names:
        shift = sigma * 1.0 if name in designated else 0.0
        table_a[name] = (Stream(derive_seed(42, "flags-a", name)).gaussians(n)
                         * sigma + 10.0).tolist()
        table_b[name] = (Stream(derive_seed(42, "flags-b", name)).gaussians(n)
                         * sigma + 10.0 + shift).tolist()
    rows = lx.compare_media(table_a, table_b, baseline="b")
    assert {r.name for r in rows if r.large_effect} == designated
    assert {r.name for r in rows if r.significant} == designated
    for r in rows:
        assert r.large_effect == (abs(r.cohens_d) > 0.8)
        assert r.significant == (r.p_value < 0.001)
        if r.name in designated:
            assert abs(r.cohens_d) == pytest.approx(1.0, abs=0.25)


# ---------------------------------------------------------------------------
# 10. determinism


@criterion(10, "synth -> stability pipeline is byte-identical across re-runs")
def test_criterion_10_determinism(tmp_path):
    from lexstable.cli import main

    def pipeline(workdir):
        workdir.mkdir()
        corpus = workdir / "corp.jsonl"
        lexicon = workdir / "synth.dic"
        assert main([
            "synth", "--authors", "30", "--messages", "200", "--seed", "42",
            "--categories", "6", "--vocab-per-category", "8",
            "--out", str(corpus), "--lexicon-out", str(lexicon),
        ]) == 0
        curves = workdir / "curves.csv"
        svg = workdir / "curves.svg"
        assert main([
            "stability", "--corpus", str(corpus), "--lexicon", str(lexicon),
            "--unit", "messages", "--mode", "both", "--base", "200",
            "--sizes", "10,25,50", "--seed", "42",
            "--out", str(curves), "--svg", str(svg),
        ]) == 0
        return (corpus.read_bytes(), lexicon.read_bytes(),
                curves.read_bytes(), svg.read_bytes())

    assert pipeline(tmp_path / "first") == pipeline(tmp_path / "rerun")


# ---------------------------------------------------------------------------
# 11. throughput


@criterion(11, "scoring 100k messages (~1.5M tokens) against 70 categories / 2000 entries in < 30 s")
def test_criterion_11_throughput():
    spec = SyntheticSpec(n_categories=70, vocab_per_category=28,
                         n_messages=100_000, seed=42)
    corpus = lx.generate_author(spec, "bulk")
    base = companion_lexicon(spec)  # 70 x 28 = 1960 exact entries
    prefixes = {vocab_word(k, 0) + "xx": frozenset([k]) for k in range(1, 41)}
    lexicon = lx.Lexicon(categories=base.categories, exact=base.exact,
                         prefixes=prefixes)
    assert len(lexicon.exact) + len(lexicon.prefixes) == 2000
    total_words = sum(len(lx.tokenize(m.text)) for m in corpus.messages)  # the reference tokenizer
    assert 1_300_000 <= total_words <= 1_700_000

    start = time.monotonic()
    fv = lx.score_features(corpus.messages, lexicon)
    elapsed = time.monotonic() - start
    assert fv.total_tokens == total_words
    assert sum(fv.counts.values()) == fv.total_tokens  # every token is in-vocabulary
    assert elapsed < 30.0, f"scoring took {elapsed:.1f}s"
    print(f"\n    scored {fv.total_tokens} tokens in {elapsed:.2f}s", flush=True)
