import numpy as np
import pytest

from lexstable.errors import PlanError
from lexstable.lexicon import score_features, tokenize, write_lexicon, load_lexicon
from lexstable import synth
from lexstable.rng import Stream
from lexstable.stats import PopulationStats
from lexstable.synth import (
    SyntheticSpec,
    author_rates,
    companion_lexicon,
    generate_author,
    generate_population,
    vocab_word,
)


def small_spec(**overrides):
    params = dict(n_categories=3, vocab_per_category=4, n_messages=50, seed=42)
    params.update(overrides)
    return SyntheticSpec(**params)


def corpus_fingerprint(corpus):
    return [(m.author_id, m.timestamp.isoformat(), m.medium, m.text) for m in corpus.messages]


# --- spec validation ---------------------------------------------------

def test_spec_validation():
    with pytest.raises(PlanError):
        small_spec(n_categories=0)
    with pytest.raises(PlanError):
        small_spec(base_rates=(0.5, 0.5, 0.1))
    with pytest.raises(PlanError):
        small_spec(base_rates=(0.5, 0.5, 0.0))
    with pytest.raises(PlanError):
        small_spec(drift_rho=1.0)
    with pytest.raises(PlanError):
        small_spec(drift_sigma=-0.1)
    with pytest.raises(PlanError):
        small_spec(msg_length=(0, 5))
    with pytest.raises(PlanError):
        small_spec(msg_length=(6, 5))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_rates_rejected(bad):
    with pytest.raises(PlanError, match="finite"):
        small_spec(drift_sigma=bad)
    with pytest.raises(PlanError, match="finite"):
        small_spec(base_rates=(0.5, 0.5, bad))
    with pytest.raises(PlanError):
        small_spec(drift_rho=bad)
    with pytest.raises(PlanError, match="finite"):
        author_rates(small_spec(), "a", bad)


@pytest.mark.parametrize("jitter, sigma", [(800.0, 0.0), (1e308, 0.0), (0.0, 1e308)])
def test_finite_values_that_overflow_the_rates_rejected(jitter, sigma):
    # exp(jitter * g) or the drift logits overflow: the corpus would
    # collapse onto one category
    with pytest.raises(PlanError, match="not a finite number"):
        generate_population(small_spec(drift_sigma=sigma), 2, jitter)


def test_default_rates_uniform():
    spec = small_spec()
    assert spec.base_rates == (1 / 3, 1 / 3, 1 / 3)


# --- vocabulary and companion lexicon -----------------------------------

def test_vocab_words_survive_tokenization():
    spec = small_spec(n_categories=12, vocab_per_category=25)
    for k in range(1, 13):
        for j in range(25):
            word = vocab_word(k, j)
            assert tokenize(word) == [word]


def test_vocab_words_unique():
    words = [vocab_word(k, j) for k in range(1, 30) for j in range(40)]
    assert len(words) == len(set(words))


def test_companion_lexicon_matches_vocabulary():
    spec = small_spec()
    lex = companion_lexicon(spec)
    assert lex.category_names == ("cat01", "cat02", "cat03")
    assert len(lex.exact) == 12 and not lex.prefixes
    assert lex.lookup(vocab_word(2, 3)) == (2,)


def test_companion_lexicon_roundtrips_through_file(tmp_path):
    lex = companion_lexicon(small_spec())
    path = tmp_path / "synth.dic"
    write_lexicon(lex, path)
    assert load_lexicon(path) == lex


# --- generate_author ----------------------------------------------------

def test_seeded_determinism():
    a = generate_author(small_spec(), "alice")
    b = generate_author(small_spec(), "alice")
    assert corpus_fingerprint(a) == corpus_fingerprint(b)


def test_different_author_different_stream():
    a = generate_author(small_spec(), "alice")
    b = generate_author(small_spec(), "bob")
    assert [m.text for m in a.messages] != [m.text for m in b.messages]


def test_message_shape():
    spec = small_spec(msg_length=(4, 9))
    corpus = generate_author(spec, "alice")
    assert corpus.total_messages == 50
    for m in corpus.messages:
        assert 4 <= m.word_count <= 9
        assert m.word_count == len(tokenize(m.text))
    stamps = [m.timestamp for m in corpus.messages]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))
    assert (stamps[1] - stamps[0]).total_seconds() == 60.0


def test_driftless_frequencies_near_base_rates():
    spec = SyntheticSpec(
        n_categories=2, vocab_per_category=5, n_messages=8500, seed=42,
        base_rates=(0.5, 0.5), msg_length=(12, 14),
    )
    corpus = generate_author(spec, "alice")
    fv = score_features(corpus.messages, companion_lexicon(spec))
    assert fv.total_tokens >= 100_000
    assert 49.0 <= fv.frequencies[1] <= 51.0
    assert 49.0 <= fv.frequencies[2] <= 51.0


def test_drift_makes_adjacent_messages_correlate():
    spec = small_spec(n_messages=600, drift_rho=0.95, drift_sigma=0.6,
                      msg_length=(15, 25))
    lex = companion_lexicon(spec)
    corpus = generate_author(spec, "alice")
    rates = []
    for m in corpus.messages:
        fv = score_features([m], lex)
        rates.append(fv.frequencies[1])
    r = np.asarray(rates)
    lag1 = np.corrcoef(r[:-1], r[1:])[0, 1]
    lag20 = np.corrcoef(r[:-20], r[20:])[0, 1]
    assert lag1 > 0.3
    assert lag1 > lag20


def _drift_recurrence(stream, n, k, rho, sigma):
    """The AR(1) recurrence run at every sigma, zero included."""
    eps = stream.gaussians(n * k).reshape(n, k) * sigma
    eta = np.empty((n, k))
    prev = np.zeros(k)
    for t in range(n):
        prev = rho * prev + eps[t]
        eta[t] = prev
    return eta


@pytest.mark.parametrize("rho", [0.0, 0.9])
def test_zero_drift_sigma_skips_the_recurrence_and_keeps_every_draw(monkeypatch, rho):
    spec = small_spec(n_messages=300, drift_rho=rho, drift_sigma=0.0, msg_length=(1, 30))
    skipped = (Stream(7), Stream(7))
    eta = synth._drift_log_rates(skipped[0], 300, 3, rho, 0.0)
    assert eta.tobytes() == _drift_recurrence(skipped[1], 300, 3, rho, 0.0).tobytes()  # signed zeros too
    assert np.array_equal(skipped[0].raw(8), skipped[1].raw(8))  # the streams stand at one position

    fast = generate_author(spec, "alice")
    monkeypatch.setattr(synth, "_drift_log_rates", _drift_recurrence)
    assert corpus_fingerprint(fast) == corpus_fingerprint(generate_author(spec, "alice"))


# --- generate_population -------------------------------------------------

def test_population_requires_two_authors():
    with pytest.raises(PlanError):
        generate_population(small_spec(), 1)


def test_population_authors_independent_of_each_other():
    spec = small_spec()
    pop, _ = generate_population(spec, 4, rate_jitter=0.1)
    alone = generate_author(spec, "author0002", rates=author_rates(spec, "author0002", 0.1))
    assert corpus_fingerprint(pop[2]) == corpus_fingerprint(alone)


def test_jitter_zero_rates_identical_and_ladder_degenerate():
    spec = small_spec()
    ids = [f"author{i:04d}" for i in range(6)]
    rate_rows = [author_rates(spec, i, 0.0) for i in ids]
    for row in rate_rows:
        assert np.array_equal(row, np.asarray(spec.base_rates))
    ladder = PopulationStats({"cat01": [row[0] for row in rate_rows]})
    for row in rate_rows:
        assert ladder.percentile_rank("cat01", row[0]) == 50.0


def test_jitter_produces_distinct_author_rates():
    spec = small_spec()
    rows = [tuple(author_rates(spec, f"author{i:04d}", 0.1)) for i in range(50)]
    assert len(set(rows)) == 50
    for row in rows:
        assert pytest.approx(1.0, abs=1e-12) == sum(row)


def test_population_comes_in_author_id_order_past_ten_thousand(monkeypatch):
    monkeypatch.setattr(synth, "generate_author", lambda spec, author_id, rates: author_id)
    ids, _ = generate_population(small_spec(), 10_001)
    assert ids == sorted(f"author{i:04d}" for i in range(10_001))
    assert ids[1001:1003] == ["author10000", "author1001"]
