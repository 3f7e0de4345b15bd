"""Linear trait models over category frequencies.

Model file format (UTF-8 text)::

    # comment
    model toy_big5
    trait openness intercept=2.0
        cogmech 0.40
        posemo 0.10

A trait's value is ``intercept + sum(weight * frequency)`` where
frequencies are in percent units (the dictionary-scoring convention);
coefficients imported from elsewhere must be on that scale. Weights are
keyed by category *name* and resolved against the lexicon in use at
inference time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ModelError
from .lexicon import FeatureVector, Lexicon


@dataclass
class TraitSpec:
    trait_name: str
    intercept: float
    weights: dict[str, float]


@dataclass
class TraitModel:
    model_name: str
    traits: list[TraitSpec]

    @property
    def trait_names(self) -> tuple[str, ...]:
        return tuple(t.trait_name for t in self.traits)


@dataclass
class TraitScores:
    model_name: str
    values: dict[str, float]


def _err(source, line_no: int, msg: str) -> ModelError:
    return ModelError(f"{source}:{line_no}: {msg}")


def load_trait_model(path) -> TraitModel:
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        return parse_trait_model(fh.read().splitlines(), source=path)


def parse_trait_model(lines: Iterable[str], source="<model>") -> TraitModel:
    model_name = None
    traits: list[TraitSpec] = []
    names: set[str] = set()
    current: TraitSpec | None = None

    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        indented = line[:1] in (" ", "\t")
        if not indented and stripped.startswith("model "):
            if model_name is not None:
                raise _err(source, line_no, "second 'model' line")
            model_name = stripped[len("model "):].strip()
            if not model_name:
                raise _err(source, line_no, "model name missing")
            continue
        if not indented and stripped.startswith("trait "):
            if model_name is None:
                raise _err(source, line_no, "'trait' before 'model' line")
            rest = stripped[len("trait "):].strip()
            parts = rest.rsplit(" ", 1)
            if len(parts) != 2 or not parts[1].startswith("intercept="):
                raise _err(source, line_no, "expected 'trait <name> intercept=<real>'")
            name = parts[0].strip()
            if not name:
                raise _err(source, line_no, "trait name missing")
            if name in names:
                raise _err(source, line_no, f"duplicate trait name {name!r}")
            try:
                intercept = float(parts[1][len("intercept="):])
            except ValueError:
                raise _err(source, line_no, "intercept is not a number") from None
            if not math.isfinite(intercept):
                raise _err(source, line_no, "intercept is not finite")
            names.add(name)
            current = TraitSpec(trait_name=name, intercept=intercept, weights={})
            traits.append(current)
            continue
        if indented:
            if current is None:
                raise _err(source, line_no, "weight line outside a trait block")
            parts = stripped.split()
            if len(parts) != 2:
                raise _err(source, line_no, "expected '<category_name> <real>'")
            category, value = parts
            if category in current.weights:
                raise _err(source, line_no, f"duplicate weight for category {category!r}")
            try:
                weight = float(value)
            except ValueError:
                raise _err(source, line_no, "weight is not a number") from None
            if not math.isfinite(weight):
                raise _err(source, line_no, "weight is not finite")
            current.weights[category] = weight
            continue
        raise _err(source, line_no, f"unrecognized line {stripped!r}")

    if model_name is None:
        raise ModelError(f"{source}: missing 'model' line")
    if not traits:
        raise ModelError(f"{source}: empty model")
    return TraitModel(model_name=model_name, traits=traits)


def weight_matrix(model: TraitModel, lexicon: Lexicon):
    """Dense (n_categories x n_traits) weight matrix plus intercepts,
    columns in model order and rows in lexicon category order.

    Raises ModelError listing every weight category the lexicon does not
    declare, or naming the first trait whose value can overflow:
    frequencies lie in [0, 100], so every value is finite when
    ``|intercept| + 100 * sum(|weight|)`` is.
    """
    name_to_id = lexicon.name_to_id
    missing = sorted({
        c for t in model.traits for c in t.weights if c not in name_to_id
    })
    if missing:
        raise ModelError(
            f"model {model.model_name!r} references categories absent from the "
            f"lexicon: {', '.join(missing)}"
        )
    for spec in model.traits:
        if not math.isfinite(abs(spec.intercept) + 100 * sum(abs(w) for w in spec.weights.values())):
            raise ModelError(
                f"model {model.model_name!r} trait {spec.trait_name!r}: weights so large "
                f"that a value can overflow"
            )
    row_of = {cid: k for k, cid in enumerate(lexicon.category_ids)}
    W = np.zeros((len(row_of), len(model.traits)))
    b = np.zeros(len(model.traits))
    for j, spec in enumerate(model.traits):
        b[j] = spec.intercept
        for category, weight in spec.weights.items():
            W[row_of[name_to_id[category]], j] = weight
    return W, b


def project(freq, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trait values of category frequencies ``freq`` (shape ``(...,
    n_categories)``, lexicon order) under ``weight_matrix``'s ``W, b``.

    Each value starts from its intercept and adds ``frequency * weight``
    per weighted category in lexicon order, elementwise: a row's values
    do not depend on how many rows are projected together.
    """
    freq = np.asarray(freq, dtype=np.float64)
    out = np.full(freq.shape[:-1] + b.shape, b)
    for k in np.flatnonzero(W.any(axis=1)):
        out += freq[..., k, None] * W[k]
    return out


def infer_traits(fv: FeatureVector, model: TraitModel, lexicon: Lexicon) -> TraitScores:
    """Apply a model to a feature vector; output follows model order.

    Raises ModelError listing any weight category the lexicon does not
    declare.
    """
    W, b = weight_matrix(model, lexicon)
    freq = [fv.frequencies.get(cid, 0.0) for cid in lexicon.category_ids]
    values = project(freq, W, b).tolist()
    return TraitScores(model_name=model.model_name, values=dict(zip(model.trait_names, values)))
