from dataclasses import replace
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexstable.errors import EmptySampleError, IneligibleAuthorError, PlanError, StatsError
from lexstable.ingest import AuthorCorpus, Message
from lexstable.lexicon import score_features
from lexstable import stability
from lexstable.rng import Stream, derive_seed
from lexstable.stability import (
    ANCHORS,
    StabilityCurve,
    SubsamplePlan,
    VariabilityPoint,
    full_sample,
    make_subsamples,
    minimum_sample_size,
    random_subsamples,
    run_stability,
    run_stability_modes,
    trait_variability,
)
from lexstable.stats import PopulationStats
from lexstable.synth import SyntheticSpec, generate_population, vocab_word
from lexstable.traits import infer_traits, parse_trait_model

EPOCH = datetime(2014, 1, 1, tzinfo=timezone.utc)


def corpus(n_messages, words_per_message=3, author="a"):
    text = " ".join(["w"] * words_per_message)
    msgs = [Message(author, EPOCH + timedelta(minutes=i), "twitter", text)
            for i in range(n_messages)]
    return AuthorCorpus(author, "twitter", msgs)


def plan(unit="messages", mode="contiguous", base=100, sizes=(5,), seed=42, **kw):
    return SubsamplePlan(unit=unit, mode=mode, base_size=base, sizes=sizes,
                         master_seed=seed, **kw)


# --- plan validation ----------------------------------------------------

def test_plan_validation():
    with pytest.raises(PlanError, match="strictly ascending"):
        plan(sizes=(5, 5))
    with pytest.raises(PlanError, match="exceeds base/2"):
        plan(sizes=(60,), base=100)
    with pytest.raises(PlanError):
        plan(mode="sideways")
    with pytest.raises(PlanError):
        plan(unit="characters")
    with pytest.raises(PlanError):
        plan(sizes=())


# --- full_sample --------------------------------------------------------

def test_full_sample_latest_and_earliest():
    c = corpus(10)
    latest = full_sample(c, plan(base=4, sizes=(2,)))
    assert [m.timestamp for m in latest] == [m.timestamp for m in c.messages[-4:]]
    earliest = full_sample(c, plan(base=4, sizes=(2,), anchor="earliest"))
    assert [m.timestamp for m in earliest] == [m.timestamp for m in c.messages[:4]]


def _texts(c: AuthorCorpus) -> AuthorCorpus:
    """``c`` as ``iter_author_texts`` reads it: each message's text alone."""
    return AuthorCorpus(c.author_id, c.medium, [m.text for m in c.messages])


def _numbered(n_messages, words_per_message=3):
    """A corpus whose messages each end with their own word, so every
    text is distinct: ``w ... w m<letters of i>``."""
    c = corpus(n_messages, words_per_message - 1)
    for i, m in enumerate(c.messages):
        m.text += " m" + "".join(chr(ord("a") + int(d)) for d in str(i))
    return c


@pytest.mark.parametrize("form", ["messages", "texts"])
def test_full_sample_words_includes_crossing_message(form):
    c = _numbered(10)
    p = plan(unit="words", base=10, sizes=(5,))
    sample = full_sample(c, p)
    assert sum(m.word_count for m in sample) == 12  # 4 messages x 3 words
    assert len(sample) == 4
    if form == "texts":
        assert full_sample(_texts(c), p) == [m.text for m in sample]


def test_full_sample_ineligible():
    with pytest.raises(IneligibleAuthorError):
        full_sample(corpus(3), plan(base=4, sizes=(2,)))


# --- make_subsamples: contiguous ----------------------------------------

def test_twenty_blocks_of_five():
    blocks = make_subsamples(corpus(100), plan(base=100, sizes=(5,)), 5, 7)
    assert len(blocks) == 20
    assert all(len(b) == 5 for b in blocks)


def test_two_blocks_of_fifty():
    blocks = make_subsamples(corpus(100), plan(base=100, sizes=(50,)), 50, 7)
    assert len(blocks) == 2


def test_floor_rule_discards_remainder():
    blocks = make_subsamples(corpus(7), plan(base=7, sizes=(3,)), 3, 7)
    assert len(blocks) == 2
    assert sum(len(b) for b in blocks) == 6


def test_blocks_disjoint_chronological_within_full():
    c = corpus(100)
    blocks = make_subsamples(c, plan(base=90, sizes=(7,)), 7, 1)
    full = full_sample(c, plan(base=90, sizes=(7,)))
    full_ids = {id(m) for m in full}
    seen = set()
    for b in blocks:
        stamps = [m.timestamp for m in b]
        assert stamps == sorted(stamps)
        ids = {id(m) for m in b}
        assert not (ids & seen)
        assert ids <= full_ids
        seen |= ids
    # earliest-first partition
    assert blocks[0][0].timestamp == full[0].timestamp


@pytest.mark.parametrize("form", ["messages", "texts"])
def test_contiguous_word_blocks_cross_then_stop(form):
    c = _numbered(40)
    p = plan(unit="words", base=60, sizes=(10,))
    blocks = make_subsamples(c, p, 10, 1)
    if form == "texts":
        assert make_subsamples(_texts(c), p, 10, 1) == [[m.text for m in b] for b in blocks]
    # target floor(60/10) = 6, but each block overshoots to 12 words, so
    # the 20-message full sample yields 5 full blocks
    assert len(blocks) == 5
    for b in blocks:
        words = sum(m.word_count for m in b)
        assert words >= 10
        assert words - b[-1].word_count < 10  # crossing message included
    # blocks are consecutive and disjoint
    flat = [m for b in blocks for m in b]
    stamps = [m.timestamp for m in flat]
    assert stamps == sorted(stamps)
    assert len({id(m) for m in flat}) == len(flat)


def _walk_blocks(words, base, size):
    """The contiguous word-unit walk written as a loop, for reference."""
    blocks, i = [], 0
    while len(blocks) < base // size and i < len(words):
        acc, j = 0, i
        while j < len(words) and acc < size:
            acc += words[j]
            j += 1
        if acc < size:
            break
        blocks.append(list(range(i, j)))
        i = j
    return blocks


@given(words=st.lists(st.integers(0, 12), min_size=1, max_size=80), data=st.data())
@settings(max_examples=150, deadline=None)
def test_contiguous_word_blocks_match_the_loop_walk(words, data):
    # zero-word messages sit at block edges, where the walk's stop rule shows
    size = data.draw(st.integers(1, max(1, sum(words))))
    base = data.draw(st.integers(size, max(size, sum(words))))
    got = stability._contiguous_blocks(np.array(words, dtype=np.int64), base, size)
    assert [b.tolist() for b in got] == _walk_blocks(words, base, size)


@given(data=st.data(), anchor=st.sampled_from(["latest", "earliest"]))
@settings(max_examples=150, deadline=None)
def test_unit_weights_give_the_message_formulas(data, anchor):
    size = data.draw(st.integers(1, 60))
    base = data.draw(st.integers(2 * size, 2 * size + 120))
    n = data.draw(st.integers(base, base + 50))
    weights = np.ones(n, dtype=np.int64)
    full = stability._full_range(weights, plan(base=base, sizes=(size,), anchor=anchor), "a")
    assert full == (slice(0, base) if anchor == "earliest" else slice(n - base, n))
    blocks = stability._contiguous_blocks(weights[full], base, size)
    assert len(blocks) == base // size
    for i, block in enumerate(blocks):
        assert np.array_equal(block, np.arange(i * size, (i + 1) * size))
    assert stability._draw_depth(weights[full], size) == size


# --- make_subsamples: random --------------------------------------------

def test_random_mode_count_parity_and_no_dups():
    c = corpus(100)
    p = plan(mode="random", base=100, sizes=(5,))
    subs = make_subsamples(c, p, 5, derive_seed(42, "a"))
    assert len(subs) == 20
    for s in subs:
        assert len(s) == 5
        assert len({id(m) for m in s}) == 5  # no replacement within a draw


def test_random_mode_deterministic_per_seed():
    c = corpus(100)
    p = plan(mode="random", base=100, sizes=(10,))
    first = make_subsamples(c, p, 10, 99)
    second = make_subsamples(c, p, 10, 99)
    other = make_subsamples(c, p, 10, 100)
    key = lambda subs: [[m.timestamp.isoformat() for m in s] for s in subs]
    assert key(first) == key(second)
    assert key(first) != key(other)


def test_random_word_unit_reaches_size():
    c = corpus(40, words_per_message=3)
    p = plan(unit="words", mode="random", base=60, sizes=(10,))
    subs = make_subsamples(c, p, 10, 5)
    assert len(subs) == 5  # count parity with contiguous mode
    for s in subs:
        words = sum(m.word_count for m in s)
        assert words >= 10
        assert words - s[-1].word_count < 10


# --- the batched draw ---------------------------------------------------

@given(
    n=st.integers(1, 300),
    data=st.data(),
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([8, 1 << 14]),
)
@settings(max_examples=100, deadline=None)
def test_message_draw_equals_each_streams_permutation(n, data, seed, block):
    size = data.draw(st.integers(1, n))
    count = data.draw(st.integers(1, 12))
    with mock.patch.object(stability, "_KEY_BLOCK", block):  # 8: one stream per block
        picks = random_subsamples(np.ones(n, dtype=np.int64), size, seed, count)
    assert len(picks) == count
    for i, pick in enumerate(picks):
        want = Stream(derive_seed(seed, size, i)).permutation(n)[:size]
        assert np.array_equal(pick, want)


@given(
    words=st.lists(st.integers(0, 30), min_size=1, max_size=200),
    data=st.data(),
    seed=st.integers(0, 2**64 - 1),
    block=st.sampled_from([8, 1 << 14]),
)
@settings(max_examples=100, deadline=None)
def test_word_draw_equals_cumulative_prefix_of_each_permutation(words, data, seed, block):
    w = np.array(words, dtype=np.int64)
    size = data.draw(st.integers(1, max(1, int(w.sum()))))
    count = data.draw(st.integers(1, 12))
    with mock.patch.object(stability, "_KEY_BLOCK", block):  # 8: one stream per block
        picks = random_subsamples(w, size, seed, count)
    assert len(picks) == count
    for i, pick in enumerate(picks):
        perm = Stream(derive_seed(seed, size, i)).permutation(w.size)
        stop = int(np.searchsorted(np.cumsum(w[perm]), size, side="left"))
        assert np.array_equal(pick, perm[: stop + 1])


def test_word_draw_widens_past_its_first_guess():
    # one huge message among ones: the expected prefix is about one message
    # deep, but a prefix reaches 200 words only once it holds the huge
    # message or 200 ones, so most prefixes run past the first guess
    w = np.array([1] * 399 + [100_000], dtype=np.int64)
    guess = stability._draw_depth(w, 200)
    assert guess < w.size
    picks = random_subsamples(w, 200, 17, 20)
    assert max(p.size for p in picks) > guess
    for i, pick in enumerate(picks):
        perm = Stream(derive_seed(17, 200, i)).permutation(w.size)
        stop = min(200, int(np.flatnonzero(perm == 399)[0]) + 1)
        assert np.array_equal(pick, perm[:stop])


def test_draw_of_all_zero_weights_is_the_whole_permutation():
    # no prefix reaches the size, and the first guess must not divide by zero
    w = np.zeros(7, dtype=np.int64)
    assert stability._draw_depth(w, 3) == 7
    for i, pick in enumerate(random_subsamples(w, 3, 5, 4)):
        assert np.array_equal(pick, Stream(derive_seed(5, 3, i)).permutation(7))


def test_make_subsamples_validates_size():
    with pytest.raises(PlanError, match="exceeds base/2"):
        make_subsamples(corpus(100), plan(base=100, sizes=(5,)), 51, 1)


# --- trait_variability ---------------------------------------------------

def test_variability_percentile_points():
    stats = PopulationStats({"extraversion": list(range(1, 101))})
    # full value ranks at the 35th percentile, subsample at the 50th
    assert stats.percentile_rank("extraversion", 35.0) == 34.5
    full_v, sub_v = 35.5, 50.5
    assert trait_variability(full_v, sub_v, stats, "extraversion") == 15.0


def test_variability_identity_and_absolute():
    stats = PopulationStats({"t": [1.0, 2.0, 3.0, 4.0]})
    assert trait_variability(2.0, 2.0, stats, "t") == 0.0
    # ladder of 5 puts its extremes at the 10th and 90th percentiles
    stats5 = PopulationStats({"t": [1, 2, 3, 4, 5]})
    assert stats5.percentile_rank("t", 1) == 10.0
    assert stats5.percentile_rank("t", 5) == 90.0
    assert trait_variability(1, 5, stats5, "t") == 80.0
    assert trait_variability(5, 1, stats5, "t") == 80.0


# --- run_stability -------------------------------------------------------

@pytest.fixture(scope="module")
def small_population():
    spec = SyntheticSpec(n_categories=4, vocab_per_category=6, n_messages=240, seed=7)
    return generate_population(spec, 12, rate_jitter=0.15)


def test_run_stability_shapes(small_population):
    corpora, lexicon = small_population
    p = plan(mode="random", base=240, sizes=(10, 30, 60))
    curves = run_stability(corpora, p, lexicon)
    assert len(curves) == 4  # category-level when model omitted
    assert [c.trait_name for c in curves] == sorted(c.trait_name for c in curves)
    for c in curves:
        assert [pt.size for pt in c.points] == [10, 30, 60]
        for pt in c.points:
            assert 0.0 <= pt.mean_variability <= 100.0
            assert pt.p95_empirical >= 0.0
            assert pt.n_observations == 12 * (240 // pt.size)
            assert pt.p95_parametric == pytest.approx(
                pt.mean_variability + 1.645 * pt.sd_variability)


def test_run_stability_with_model(small_population):
    corpora, lexicon = small_population
    model = parse_trait_model([
        "model toy",
        "trait broad intercept=0",
        "\tcat01 0.5",
        "\tcat02 -0.25",
        "\tcat03 0.25",
        "trait narrow intercept=0",
        "\tcat01 1.0",
    ])
    p = plan(mode="contiguous", base=240, sizes=(10, 30))
    curves = run_stability(corpora, p, lexicon, model)
    assert {c.trait_name for c in curves} == {"broad", "narrow"}


def test_run_stability_needs_two_eligible(small_population):
    corpora, lexicon = small_population
    with pytest.raises(StatsError):
        run_stability(corpora[:1], plan(base=240, sizes=(10,)), lexicon)
    # authors below base are excluded; all excluded -> error
    with pytest.raises(StatsError):
        run_stability(corpora, plan(base=10_000, sizes=(10,)), lexicon)


def test_subsamples_without_tokens_are_skipped(small_population):
    corpora, lexicon = small_population
    # the quiet author's only token is in its last message, past its two
    # blocks of two: both tokenize to nothing and give no observation
    texts = [""] * 4 + [vocab_word(1, 0)]
    quiet = AuthorCorpus("quiet", "synthetic", [
        Message("quiet", EPOCH + timedelta(minutes=i), "synthetic", t) for i, t in enumerate(texts)])
    curves = run_stability(corpora + [quiet], plan(base=5, sizes=(2,)), lexicon)
    assert [pt.n_observations for c in curves for pt in c.points] == [12 * 2] * 4


# One plan per unit; the word-unit base fits every author of small_population.
UNIT_PLANS = {
    "messages": dict(unit="messages", base=240, sizes=(10, 30, 60)),
    "words": dict(unit="words", base=1000, sizes=(25, 100, 400)),
}
BOTH_MODES = ("random", "contiguous")


def test_input_order_does_not_change_results(small_population):
    corpora, lexicon = small_population
    for unit_plan in UNIT_PLANS.values():
        p = plan(**unit_plan)
        assert run_stability_modes(corpora, p, lexicon, modes=BOTH_MODES) == \
               run_stability_modes(list(reversed(corpora)), p, lexicon, modes=BOTH_MODES)


@pytest.mark.parametrize("unit", sorted(UNIT_PLANS))
@pytest.mark.parametrize("with_model", [False, True])
def test_modes_share_one_preparation_without_changing_results(small_population, unit, with_model):
    corpora, lexicon = small_population
    model = parse_trait_model([
        "model toy", "trait broad intercept=0.5", "\tcat01 0.5", "\tcat02 -0.25",
        "trait narrow intercept=0", "\tcat03 1.0",
    ]) if with_model else None
    p = plan(**UNIT_PLANS[unit])
    together = run_stability_modes(corpora, p, lexicon, model, modes=BOTH_MODES)
    apart = [c for mode in BOTH_MODES
             for c in run_stability(corpora, replace(p, mode=mode), lexicon, model)]
    apart.sort(key=lambda c: (c.trait_name, c.unit, c.mode))
    assert together == apart
    assert {c.mode for c in together} == set(BOTH_MODES)


@pytest.fixture(scope="module")
def drifting_population():
    spec = SyntheticSpec(n_categories=4, vocab_per_category=6, n_messages=240, seed=19,
                         drift_rho=0.9, drift_sigma=0.5)
    corpora, lexicon = generate_population(spec, 8, rate_jitter=0.15)
    # every other run of 30 messages is empty, so some subsamples have no tokens
    sparse = [Message("sparse", m.timestamp, m.medium, "" if (i // 30) % 2 else m.text)
              for i, m in enumerate(corpora[0].messages)]
    # interleaved in author_id order, two authors every plan must skip:
    # 40 messages (at most 800 words) fall below every base, and a full
    # sample of empty messages has no tokens
    short = [Message("author0002b", m.timestamp, m.medium, m.text) for m in corpora[2].messages[:40]]
    silent = [Message("author0005b", m.timestamp, m.medium, "") for m in corpora[5].messages]
    skipped = [AuthorCorpus("author0002b", corpora[2].medium, short),
               AuthorCorpus("author0005b", corpora[5].medium, silent)]
    population = corpora + skipped + [AuthorCorpus("sparse", corpora[0].medium, sparse)]
    return sorted(population, key=lambda c: c.author_id), lexicon


def reference_curves(corpora, p, lexicon, model, modes):
    """The stability experiment as a plain loop over the public pieces:
    one subsample, one score and one scalar rank at a time."""
    names = list(model.trait_names) if model is not None else list(lexicon.category_names)

    def values(messages):
        fv = score_features(messages, lexicon)
        if model is None:
            return [fv.frequencies[cid] for cid in lexicon.category_ids]
        scores = infer_traits(fv, model, lexicon).values
        return [scores[name] for name in names]

    eligible = []
    for c in sorted(corpora, key=lambda c: (c.author_id, c.medium)):
        try:
            eligible.append((c, values(full_sample(c, p))))
        except (IneligibleAuthorError, EmptySampleError):
            continue
    ladder = PopulationStats({name: [v[j] for _, v in eligible] for j, name in enumerate(names)})
    curves = []
    for mode in modes:
        points = {name: [] for name in names}
        for size in p.sizes:
            pairs = []  # (full-sample values, subsample values)
            for c, full_values in eligible:
                seed = derive_seed(p.master_seed, c.author_id)
                for sub in make_subsamples(c, replace(p, mode=mode), size, seed):
                    try:
                        pairs.append((full_values, values(sub)))
                    except EmptySampleError:
                        continue
            for j, name in enumerate(names):
                obs = np.array([abs(ladder.percentile_rank(name, sub[j])
                                    - ladder.percentile_rank(name, full[j]))
                                for full, sub in pairs])
                mean, sd = float(np.mean(obs)), float(np.std(obs, ddof=1))
                points[name].append(VariabilityPoint(
                    size=size, n_observations=obs.size, mean_variability=mean,
                    sd_variability=sd, p95_empirical=float(np.percentile(obs, 95)),
                    p95_parametric=mean + 1.645 * sd))
        curves += [StabilityCurve(name, mode, p.unit, points[name]) for name in names]
    return sorted(curves, key=lambda c: (c.trait_name, c.mode))


# Message-unit base below the corpus length, so the anchors differ.
REFERENCE_PLANS = {
    "messages": dict(unit="messages", base=180, sizes=(10, 30, 90)),
    "words": UNIT_PLANS["words"],
}


@pytest.mark.parametrize("unit", sorted(REFERENCE_PLANS))
@pytest.mark.parametrize("anchor", ANCHORS)
@pytest.mark.parametrize("with_model", [False, True])
def test_run_stability_equals_the_reference_loop(drifting_population, unit, anchor, with_model):
    corpora, lexicon = drifting_population
    model = parse_trait_model([
        "model toy", "trait broad intercept=0.5", "\tcat01 0.5", "\tcat02 -0.25", "\tcat04 0.125",
        "trait narrow intercept=0", "\tcat03 1.0",
    ]) if with_model else None
    p = plan(anchor=anchor, **REFERENCE_PLANS[unit])
    # a one-shot stream, as the CLI reads it
    curves = run_stability((c for c in corpora), p, lexicon, model, modes=BOTH_MODES)
    assert curves == reference_curves(corpora, p, lexicon, model, BOTH_MODES)
    if unit == "messages":  # the sparse author's empty blocks are skipped
        assert (curves[0].mode, curves[0].points[0].n_observations) == ("contiguous", 9 * 18 - 9)


def test_a_size_without_any_tokens_is_an_error(small_population):
    _, lexicon = small_population
    # each author's one token is in its last message: at size 1 that
    # message is a block of its own, at size 2 it falls past both blocks
    quiet = [AuthorCorpus(a, "synthetic", [
        Message(a, EPOCH + timedelta(minutes=i), "synthetic", t)
        for i, t in enumerate([""] * 4 + [vocab_word(k, 0)])]) for k, a in ((1, "q1"), (2, "q2"))]
    with pytest.raises(StatsError, match="no usable observations at size 2$"):
        run_stability(quiet, plan(base=5, sizes=(1, 2)), lexicon)


def test_run_stability_validates_modes(small_population):
    corpora, lexicon = small_population
    for modes in [(), ("random", "random"), ("sideways",)]:
        with pytest.raises(PlanError):
            run_stability(corpora, plan(base=240, sizes=(10,)), lexicon, modes=modes)


def test_zero_variability_of_full_sample_against_itself(small_population):
    corpora, lexicon = small_population
    p = plan(base=240, sizes=(10,))
    values = {}
    for c in corpora:
        fv = score_features(full_sample(c, p), lexicon)
        values[c.author_id] = [fv.frequencies[cid] for cid, _ in lexicon.categories]
    ladder = PopulationStats({
        name: [values[c.author_id][j] for c in corpora]
        for j, name in enumerate(lexicon.category_names)
    })
    for c in corpora:
        for j, name in enumerate(lexicon.category_names):
            v = values[c.author_id][j]
            assert trait_variability(v, v, ladder, name) == 0.0


def test_broad_model_less_variable_than_single_category():
    # fixed-seed regression: a trait aggregating many categories is more
    # stable than a single rare-category "trait" on the same corpus
    spec = SyntheticSpec(
        n_categories=6, vocab_per_category=6, n_messages=300, seed=11,
        base_rates=(0.02, 0.28, 0.2, 0.2, 0.15, 0.15),
    )
    corpora, lexicon = generate_population(spec, 16, rate_jitter=0.12)
    model = parse_trait_model([
        "model contrast",
        "trait broad intercept=0",
        "\tcat02 0.4",
        "\tcat03 -0.3",
        "\tcat04 0.2",
        "\tcat05 -0.2",
        "\tcat06 0.3",
        "trait narrow intercept=0",
        "\tcat01 1.0",
    ])
    p = plan(mode="random", base=300, sizes=(10, 30, 75))
    curves = {c.trait_name: c for c in run_stability(corpora, p, lexicon, model)}
    broad = np.mean([pt.mean_variability for pt in curves["broad"].points])
    narrow = np.mean([pt.mean_variability for pt in curves["narrow"].points])
    assert broad < narrow


def test_run_stability_modes_merges_and_sorts(small_population):
    corpora, lexicon = small_population
    p = plan(mode="random", base=240, sizes=(10,))
    curves = run_stability_modes(corpora, p, lexicon, modes=("random", "contiguous"))
    assert len(curves) == 8
    keys = [(c.trait_name, c.unit, c.mode) for c in curves]
    assert keys == sorted(keys)


# --- minimum_sample_size --------------------------------------------------

def curve_from(points):
    return StabilityCurve(
        trait_name="t", mode="random", unit="messages",
        points=[VariabilityPoint(size=s, n_observations=10, mean_variability=m,
                                 sd_variability=0.0, p95_empirical=p95,
                                 p95_parametric=m)
                for s, m, p95 in points],
    )


def test_minimum_sample_size_examples():
    curve = curve_from([(20, 18, 30), (50, 12, 25), (200, 9.5, 15), (500, 6, 9)])
    assert minimum_sample_size(curve, 10, "mean") == 200
    assert minimum_sample_size(curve, 5, "mean") is None
    assert minimum_sample_size(curve, 50, "mean") == 20
    assert minimum_sample_size(curve, 9, "p95_empirical") == 500


def test_minimum_sample_size_validation():
    curve = curve_from([(20, 18, 30)])
    with pytest.raises(ValueError):
        minimum_sample_size(curve, 10, "median")
    with pytest.raises(ValueError):
        minimum_sample_size(curve_from([]), 10, "mean")
