import numpy as np
import pytest

from lexstable.errors import ModelError
from lexstable.lexicon import FeatureVector, load_lexicon, parse_lexicon, score_features
from lexstable.traits import (
    infer_traits,
    load_trait_model,
    parse_trait_model,
    project,
    weight_matrix,
)

from conftest import data_path

TOY = parse_lexicon(["%", "1\tpronoun", "2\tposemo", "%", "i\t1", "happ*\t2"])


def fv(pronoun=0.0, posemo=0.0, total=100):
    return FeatureVector(
        counts={1: 0, 2: 0}, total_tokens=total, frequencies={1: pronoun, 2: posemo}
    )


def test_load_bundled_toy_model():
    model = load_trait_model(data_path("toy_big5.model"))
    assert model.model_name == "toy_big5"
    assert len(model.traits) == 5
    assert all(len(t.weights) == 3 for t in model.traits)
    assert model.trait_names == (
        "openness", "conscientiousness", "extraversion", "agreeableness", "neuroticism",
    )


def test_a_leading_bom_is_dropped(tmp_path):
    path = tmp_path / "toy_big5.model"
    path.write_bytes(b"\xef\xbb\xbf" + data_path("toy_big5.model").read_bytes())
    assert load_trait_model(path) == load_trait_model(data_path("toy_big5.model"))


def test_duplicate_trait_rejected():
    with pytest.raises(ModelError, match="duplicate trait"):
        parse_trait_model([
            "model m",
            "trait openness intercept=1.0",
            "trait openness intercept=2.0",
        ])


def test_empty_model_rejected():
    with pytest.raises(ModelError, match="empty model"):
        parse_trait_model(["model m"])


def test_missing_model_line_rejected():
    with pytest.raises(ModelError):
        parse_trait_model(["trait t intercept=0"])


def test_bad_weight_line_reports_location():
    with pytest.raises(ModelError) as err:
        parse_trait_model(["model m", "trait t intercept=0", "\tposemo"])
    assert ":3:" in str(err.value)


@pytest.mark.parametrize("lines", [
    ["model m", "trait t intercept=nan"],
    ["model m", "trait t intercept=-inf"],
    ["model m", "trait t intercept=0", "\tposemo inf"],
    ["model m", "trait t intercept=0", "\tposemo NaN"],
])
def test_non_finite_numbers_rejected(lines):
    with pytest.raises(ModelError, match="not finite"):
        parse_trait_model(lines)


def test_hand_dot_product():
    model = parse_trait_model(["model m", "trait t intercept=3.0", "\tposemo 0.5"])
    scores = infer_traits(fv(posemo=25.0), model, TOY)
    assert scores.values == {"t": 15.5}


def test_intercept_only():
    model = parse_trait_model([
        "model m",
        "trait t intercept=7.0",
        "\tposemo 0.0",
        "\tpronoun 0.0",
    ])
    for vector in (fv(), fv(50.0, 50.0), fv(1.0, 99.0)):
        assert infer_traits(vector, model, TOY).values == {"t": 7.0}


def test_unresolved_category_is_configuration_error():
    model = parse_trait_model(["model m", "trait t intercept=0", "\tnegemo 1.0"])
    with pytest.raises(ModelError, match="negemo"):
        infer_traits(fv(), model, TOY)


def test_output_follows_model_order():
    model = parse_trait_model([
        "model m",
        "trait zeta intercept=1",
        "trait alpha intercept=2",
    ])
    assert list(infer_traits(fv(), model, TOY).values) == ["zeta", "alpha"]


def test_linearity_in_frequency_mixtures():
    model = parse_trait_model([
        "model m",
        "trait t intercept=1.5",
        "\tpronoun 0.25",
        "\tposemo -0.75",
    ])
    v1, v2 = fv(10.0, 40.0), fv(70.0, 5.0)
    for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
        mixed = fv(
            alpha * 10.0 + (1 - alpha) * 70.0,
            alpha * 40.0 + (1 - alpha) * 5.0,
        )
        lhs = infer_traits(mixed, model, TOY).values["t"]
        rhs = (alpha * infer_traits(v1, model, TOY).values["t"]
               + (1 - alpha) * infer_traits(v2, model, TOY).values["t"])
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_inference_is_pure():
    model = load_trait_model(data_path("toy_big5.model"))
    lexicon = load_lexicon(data_path("demo.dic"))
    sample = ["I love my work because we talk and think", "you know the meeting was sad"]
    first = infer_traits(score_features(sample, lexicon), model, lexicon)
    second = infer_traits(score_features(sample, lexicon), model, lexicon)
    assert first == second


def test_weight_matrix_agrees_with_infer():
    model = load_trait_model(data_path("toy_big5.model"))
    lexicon = load_lexicon(data_path("demo.dic"))
    sample = ["I love my work because we talk and think happily you know"]
    vector = score_features(sample, lexicon)
    scores = infer_traits(vector, model, lexicon)
    W, b = weight_matrix(model, lexicon)
    freq = [vector.frequencies[cid] for cid, _ in lexicon.categories]
    bulk = freq @ W + b
    for j, name in enumerate(model.trait_names):
        assert bulk[j] == pytest.approx(scores.values[name], abs=1e-12)


def test_project_batch_equals_each_row_bit_for_bit():
    rng = np.random.default_rng(7)
    W = rng.normal(size=(9, 4))
    W[[2, 5]] = 0.0  # unweighted categories
    b = rng.normal(size=4)
    freq = 100.0 * rng.random((257, 9))
    batch = project(freq, W, b)
    assert batch.shape == (257, 4)
    rows = np.array([project(row, W, b) for row in freq])
    assert batch.tobytes() == rows.tobytes()


def test_infer_traits_is_project_of_the_frequencies():
    model = load_trait_model(data_path("toy_big5.model"))
    lexicon = load_lexicon(data_path("demo.dic"))
    vector = score_features(["I love my work because we talk and think happily you know"], lexicon)
    W, b = weight_matrix(model, lexicon)
    freq = [vector.frequencies[cid] for cid in lexicon.category_ids]
    projected = dict(zip(model.trait_names, project(freq, W, b).tolist()))
    assert infer_traits(vector, model, lexicon).values == projected
