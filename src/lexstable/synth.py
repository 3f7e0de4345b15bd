"""Seeded synthetic corpora with known category rates and optional
temporal drift.

Each category owns a disjoint vocabulary of letters-only words (the
tokenizer treats digits as separators, so indices are spelled with the
letters a-j: category 3, word 17 becomes "cdwbh"). Per message t the
token distribution is softmax(log(base_rates) + eta_t) where eta follows
the AR(1) process eta_t = rho * eta_{t-1} + Normal(0, sigma), eta_0 = 0.
With sigma = 0 the token process is i.i.d. at exactly base_rates.

All draws come from one per-author stream seeded by
derive_seed(spec.seed, "author", author_id), in a fixed order: message
lengths, drift noise, token category uniforms, token word uniforms.
Changing one author's id therefore never affects another author, and
the jittered rates come from a second per-author stream. So contiguous
runs of ``population_ids`` can be generated in separate processes and
joined in id order into the corpus of the whole population, as the CLI's
``synth`` does on several CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import PlanError
from .ingest import AuthorCorpus, Message
from .lexicon import Lexicon
from .rng import Stream, derive_seed

_EPOCH = datetime(2014, 1, 1, tzinfo=timezone.utc)
_DIGIT_LETTERS = "abcdefghij"

SYNTH_MEDIUM = "synthetic"


def _letters(n: int) -> str:
    return "".join(_DIGIT_LETTERS[int(ch)] for ch in str(n))


def category_name(k: int) -> str:
    return f"cat{k:02d}"


def vocab_word(k: int, j: int) -> str:
    """Word ``j`` of category ``k`` (1-based category ids)."""
    return f"c{_letters(k)}w{_letters(j)}"


@dataclass
class SyntheticSpec:
    """Parameters of the generator; see the module docstring for the
    token process. ``base_rates`` defaults to uniform."""

    n_categories: int
    vocab_per_category: int
    n_messages: int
    seed: int
    base_rates: tuple[float, ...] | None = None
    drift_rho: float = 0.0
    drift_sigma: float = 0.0
    msg_length: tuple[int, int] = (10, 20)

    def __post_init__(self):
        if self.n_categories < 1:
            raise PlanError("n_categories must be >= 1")
        if self.vocab_per_category < 1:
            raise PlanError("vocab_per_category must be >= 1")
        if self.n_messages < 1:
            raise PlanError("n_messages must be >= 1")
        if self.base_rates is None:
            self.base_rates = tuple([1.0 / self.n_categories] * self.n_categories)
        else:
            self.base_rates = tuple(float(r) for r in self.base_rates)
        if len(self.base_rates) != self.n_categories:
            raise PlanError("base_rates length must equal n_categories")
        if not all(0.0 < r < math.inf for r in self.base_rates):
            raise PlanError("base_rates must be finite and strictly positive")
        if abs(sum(self.base_rates) - 1.0) > 1e-9:
            raise PlanError("base_rates must sum to 1 within 1e-9")
        if not (0.0 <= self.drift_rho < 1.0):
            raise PlanError("drift_rho must be in [0, 1)")
        if not (0.0 <= self.drift_sigma < math.inf):
            raise PlanError("drift_sigma must be finite and >= 0")
        lo, hi = self.msg_length
        if not (1 <= lo <= hi):
            raise PlanError("msg_length bounds must satisfy 1 <= min <= max")


def companion_lexicon(spec: SyntheticSpec) -> Lexicon:
    """Dictionary matching the generator's vocabulary: exact entries
    only, word of category k maps to exactly category k."""
    categories = tuple((k, category_name(k)) for k in range(1, spec.n_categories + 1))
    exact = {
        vocab_word(k, j): frozenset([k])
        for k in range(1, spec.n_categories + 1)
        for j in range(spec.vocab_per_category)
    }
    return Lexicon(categories=categories, exact=exact, prefixes={})


def author_rates(spec: SyntheticSpec, author_id: str, rate_jitter: float) -> np.ndarray:
    """Per-author token rates: base_rates perturbed multiplicatively by
    exp(jitter * Normal) per category, renormalized. jitter = 0 returns
    base_rates unchanged; a jitter that overflows a rate is a PlanError."""
    rates = np.asarray(spec.base_rates, dtype=np.float64)
    if not (0.0 <= rate_jitter < math.inf):
        raise PlanError("rate_jitter must be finite and >= 0")
    if rate_jitter == 0.0:
        return rates.copy()
    g = Stream(derive_seed(spec.seed, "rates", author_id)).gaussians(spec.n_categories)
    with np.errstate(over="ignore", invalid="ignore"):
        jittered = rates * np.exp(rate_jitter * g)
        jittered /= jittered.sum()
    if not np.all(np.isfinite(jittered) & (jittered > 0.0)):
        raise PlanError(f"rate_jitter {rate_jitter} makes a rate of {author_id} zero or not a finite number")
    return jittered


@lru_cache(maxsize=1)
def _minute_stamps(n: int) -> tuple[datetime, ...]:
    """The ``n`` message timestamps, one minute apart from _EPOCH; one
    tuple is shared by every author of a population."""
    return tuple(_EPOCH + timedelta(minutes=t) for t in range(n))


def _drift_log_rates(stream: Stream, n: int, k: int, rho: float, sigma: float) -> np.ndarray:
    eps = stream.gaussians(n * k).reshape(n, k) * sigma
    if sigma == 0.0:  # each step is rho * 0.0 + (+-0.0) == 0.0; the draw keeps later draws in place
        return np.zeros((n, k))
    eta = np.empty((n, k))
    prev = np.zeros(k)
    for t in range(n):
        prev = rho * prev + eps[t]
        eta[t] = prev
    return eta


def _categorical_rows(u: np.ndarray, cum_rows: np.ndarray) -> np.ndarray:
    """Index of the first cumulative bin exceeding each uniform, row by
    row."""
    cmp = u[:, None] < cum_rows
    idx = cmp.argmax(axis=1)
    idx[~cmp.any(axis=1)] = cum_rows.shape[1] - 1  # guard against rounding at 1.0
    return idx


def generate_author(
    spec: SyntheticSpec,
    author_id: str,
    rates: np.ndarray | None = None,
) -> AuthorCorpus:
    """Generate one author's corpus, fully determined by
    (spec.seed, author_id). Timestamps advance at fixed one-minute
    intervals from a constant epoch. ``rates`` overrides
    spec.base_rates (used by iter_population)."""
    k = spec.n_categories
    v = spec.vocab_per_category
    n = spec.n_messages
    base = np.asarray(spec.base_rates if rates is None else rates, dtype=np.float64)

    stream = Stream(derive_seed(spec.seed, "author", author_id))
    lo, hi = spec.msg_length
    lengths = stream.integers(n, hi - lo + 1) + lo
    with np.errstate(over="ignore", invalid="ignore"):
        eta = _drift_log_rates(stream, n, k, spec.drift_rho, spec.drift_sigma)
        logits = np.log(base)[None, :] + eta
        if not np.isfinite(logits).all():
            raise PlanError(f"drift_sigma {spec.drift_sigma} makes a drift logit of {author_id} not a finite number")
        logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)

    total = int(lengths.sum())
    msg_of_token = np.repeat(np.arange(n), lengths)
    cat_idx = _categorical_rows(stream.uniforms(total), cum[msg_of_token])
    word_idx = np.minimum((stream.uniforms(total) * v).astype(np.int64), v - 1)

    vocab = [vocab_word(kk, j) for kk in range(1, k + 1) for j in range(v)]
    tokens = list(map(vocab.__getitem__, (cat_idx * v + word_idx).tolist()))
    ends = np.cumsum(lengths).tolist()
    messages = [
        Message(author_id, stamp, SYNTH_MEDIUM, " ".join(tokens[start:end]))
        for stamp, start, end in zip(_minute_stamps(n), [0] + ends[:-1], ends)
    ]
    return AuthorCorpus(author_id=author_id, medium=SYNTH_MEDIUM, messages=messages)


def population_ids(n_authors: int) -> list[str]:
    """The ids of a population of ``n_authors`` authors, author0000,
    author0001, ..., in ascending order, the order of a canonical corpus
    file (author10000 comes before author1001)."""
    if n_authors < 2:
        raise PlanError("n_authors must be >= 2")
    return sorted(f"author{i:04d}" for i in range(n_authors))


def generate_authors(
    spec: SyntheticSpec,
    author_ids,
    rate_jitter: float = 0.0,
) -> Iterator[AuthorCorpus]:
    """The corpora of ``author_ids``, in their order, with jittered
    per-author rates, generated one at a time."""
    for author_id in author_ids:
        yield generate_author(spec, author_id, rates=author_rates(spec, author_id, rate_jitter))


def iter_population(
    spec: SyntheticSpec,
    n_authors: int,
    rate_jitter: float = 0.0,
) -> Iterator[AuthorCorpus]:
    """The corpora of the ``population_ids`` of ``n_authors`` authors,
    through ``generate_authors``."""
    return generate_authors(spec, population_ids(n_authors), rate_jitter)


def generate_population(
    spec: SyntheticSpec,
    n_authors: int,
    rate_jitter: float = 0.0,
) -> tuple[list[AuthorCorpus], Lexicon]:
    """Every corpus of ``iter_population``, in its order, and the
    companion lexicon."""
    return list(iter_population(spec, n_authors, rate_jitter)), companion_lexicon(spec)
