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
Changing one author's id therefore never affects another author.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import PlanError
from .ingest import AuthorCorpus, Message
from .lexicon import Lexicon
from .rng import Stream, derive_seed

_EPOCH = datetime(2014, 1, 1, tzinfo=timezone.utc)
_DIGIT_LETTERS = "abcdefghij"
_TOKEN_CHUNK = 1 << 18

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
        raise PlanError(f"rate_jitter {rate_jitter} makes a per-author rate zero or not a finite number")
    return jittered


def _drift_log_rates(stream: Stream, n: int, k: int, rho: float, sigma: float) -> np.ndarray:
    eps = stream.gaussians(n * k).reshape(n, k) * sigma
    eta = np.empty((n, k))
    prev = np.zeros(k)
    for t in range(n):
        prev = rho * prev + eps[t]
        eta[t] = prev
    return eta


def _categorical_rows(u: np.ndarray, cum_rows: np.ndarray) -> np.ndarray:
    """Index of the first cumulative bin exceeding each uniform, row by
    row; chunked to bound memory for long token streams."""
    n_cats = cum_rows.shape[1]
    out = np.empty(u.size, dtype=np.int64)
    for start in range(0, u.size, _TOKEN_CHUNK):
        stop = min(start + _TOKEN_CHUNK, u.size)
        cmp = u[start:stop, None] < cum_rows[start:stop]
        idx = cmp.argmax(axis=1)
        idx[~cmp.any(axis=1)] = n_cats - 1  # guard against rounding at 1.0
        out[start:stop] = idx
    return out


def generate_author(
    spec: SyntheticSpec,
    author_id: str,
    rates: np.ndarray | None = None,
) -> AuthorCorpus:
    """Generate one author's corpus, fully determined by
    (spec.seed, author_id). Timestamps advance at fixed one-minute
    intervals from a constant epoch. ``rates`` overrides
    spec.base_rates (used by generate_population)."""
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
            raise PlanError(f"drift_sigma {spec.drift_sigma} makes a drift logit not a finite number")
        logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)

    total = int(lengths.sum())
    msg_of_token = np.repeat(np.arange(n), lengths)
    cat_idx = _categorical_rows(stream.uniforms(total), cum[msg_of_token])
    word_idx = np.minimum((stream.uniforms(total) * v).astype(np.int64), v - 1)

    flat_vocab = np.array(
        [vocab_word(kk, j) for kk in range(1, k + 1) for j in range(v)], dtype=object
    )
    tokens = flat_vocab[cat_idx * v + word_idx]
    splits = np.cumsum(lengths)[:-1]

    messages = []
    for t, part in enumerate(np.split(tokens, splits)):
        messages.append(Message(
            author_id=author_id,
            timestamp=_EPOCH + timedelta(minutes=t),
            medium=SYNTH_MEDIUM,
            text=" ".join(part.tolist()),
            word_count=int(lengths[t]),
        ))
    return AuthorCorpus(author_id=author_id, medium=SYNTH_MEDIUM, messages=messages)


def generate_population(
    spec: SyntheticSpec,
    n_authors: int,
    rate_jitter: float = 0.0,
) -> tuple[list[AuthorCorpus], Lexicon]:
    """Generate ``n_authors`` corpora with jittered per-author rates and
    the companion lexicon. Author ids are author0000, author0001, ..."""
    if n_authors < 2:
        raise PlanError("n_authors must be >= 2")
    corpora = []
    for i in range(n_authors):
        author_id = f"author{i:04d}"
        rates = author_rates(spec, author_id, rate_jitter)
        corpora.append(generate_author(spec, author_id, rates=rates))
    return corpora, companion_lexicon(spec)
