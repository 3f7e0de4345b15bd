"""Sample-size stability profiling.

For each author the "full sample" (most recent base_size messages or
words) is scored and turned into trait values; a shared percentile
ladder is built from all authors' full-sample values. Subsamples of
each requested size are then scored the same way, and variability is
the absolute difference, in percentile points on that shared ladder,
between the subsample's value and the author's full-sample value.
Curves aggregate mean / sd / 95th-percentile variability per size.

Each author is prepared once: one tokenizing pass over its messages
gives the per-message category and word counts, from which the full
sample, its values and its rank on the ladder follow. That one prepared
store serves every mode; subsample scores are sums of its rows.

Subsample seeds are derived as
derive_seed(derive_seed(master_seed, author_id), size, index), so runs
are bit-reproducible and do not depend on the order of the input
corpora. The random draws of one (author, size) are generated together
from those seeds (counter mode) and equal each stream's own permutation
prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IneligibleAuthorError, PlanError, StatsError
from .ingest import AuthorCorpus, Message
from .lexicon import Lexicon, count_matrix
from .rng import derive_seed, stable_smallest, uniform_keys
from .stats import PopulationStats
from .traits import TraitModel, project, weight_matrix

UNITS = ("messages", "words")
MODES = ("random", "contiguous")
ANCHORS = ("latest", "earliest")


@dataclass(frozen=True)
class SubsamplePlan:
    """What to subsample: unit (messages or words), mode (random or
    temporally contiguous blocks), the base size constituting an
    author's full sample, the subsample sizes, and the master seed.
    ``anchor`` picks which end of the corpus the full sample comes
    from."""

    unit: str
    mode: str
    base_size: int
    sizes: tuple[int, ...]
    master_seed: int
    anchor: str = "latest"

    def __post_init__(self):
        if self.unit not in UNITS:
            raise PlanError(f"unit must be one of {UNITS}")
        if self.mode not in MODES:
            raise PlanError(f"mode must be one of {MODES}")
        if self.anchor not in ANCHORS:
            raise PlanError(f"anchor must be one of {ANCHORS}")
        if self.base_size < 2:
            raise PlanError("base_size must be >= 2")
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if not self.sizes:
            raise PlanError("sizes must be non-empty")
        if any(s < 1 for s in self.sizes):
            raise PlanError("sizes must be positive")
        if any(b >= c for b, c in zip(self.sizes, self.sizes[1:])):
            raise PlanError("sizes must be strictly ascending")
        for s in self.sizes:
            if 2 * s > self.base_size:
                raise PlanError(
                    f"size {s} exceeds base/2 ({self.base_size // 2}); "
                    "at least two subsamples must fit"
                )


@dataclass
class VariabilityPoint:
    size: int
    n_observations: int
    mean_variability: float
    sd_variability: float
    p95_empirical: float
    p95_parametric: float


@dataclass
class StabilityCurve:
    trait_name: str
    mode: str
    unit: str
    points: list[VariabilityPoint]


def _full_range(n_messages: int, words: np.ndarray | None, plan: SubsamplePlan, author_id: str) -> slice:
    """The full sample's slice of an author's messages. ``words`` holds
    the per-message word counts and is needed for the word unit only."""
    if plan.unit == "messages":
        if n_messages < plan.base_size:
            raise IneligibleAuthorError(
                f"author {author_id!r} has {n_messages} messages; "
                f"base size is {plan.base_size}"
            )
        if plan.anchor == "earliest":
            return slice(0, plan.base_size)
        return slice(n_messages - plan.base_size, n_messages)
    if int(words.sum()) < plan.base_size:
        raise IneligibleAuthorError(
            f"author {author_id!r} has {int(words.sum())} words; "
            f"base size is {plan.base_size}"
        )
    if plan.anchor == "earliest":
        stop = int(np.searchsorted(np.cumsum(words), plan.base_size, side="left"))
        return slice(0, stop + 1)
    start = int(np.searchsorted(np.cumsum(words[::-1]), plan.base_size, side="left"))
    return slice(n_messages - start - 1, n_messages)


def full_sample(corpus: AuthorCorpus, plan: SubsamplePlan) -> list[Message]:
    """The base_size most recent (or earliest, per plan.anchor) units of
    the corpus; word unit includes the message that crosses the
    threshold. Raises IneligibleAuthorError below base size."""
    msgs = corpus.messages
    words = None
    if plan.unit == "words":
        words = np.array([m.word_count for m in msgs], dtype=np.int64)
    return msgs[_full_range(len(msgs), words, plan, corpus.author_id)]


def _contiguous_blocks(words: np.ndarray, unit: str, base_size: int, size: int) -> list[np.ndarray]:
    """floor(base/size) consecutive blocks of the full sample, earliest
    first; a word-unit block grows until it reaches ``size`` words, and
    a short trailing remainder ends the walk."""
    target = base_size // size
    if unit == "messages":
        return [np.arange(i * size, (i + 1) * size) for i in range(target)]
    ends = np.concatenate(([0], np.cumsum(words)))  # ends[i]: words before message i
    blocks: list[np.ndarray] = []
    i = 0
    while len(blocks) < target:
        j = int(np.searchsorted(ends, ends[i] + size, side="left"))
        if j == ends.size:
            break  # trailing remainder, discarded
        blocks.append(np.arange(i, j))
        i = j
    return blocks


# Keys generated per block of streams; bounds the draw's working memory
# (128 KiB). Blocks of 2**12 keys draw slower, and 2**16 no faster.
_KEY_BLOCK = 1 << 14


def random_subsamples(
    words: np.ndarray, unit: str, size: int, author_seed: int, count: int
) -> list[np.ndarray]:
    """``count`` random subsamples of a full sample whose per-message word
    counts are ``words``.

    Subsample ``i`` comes from the stream seeded
    ``derive_seed(author_seed, size, i)``: the first ``size`` entries of
    its ``permutation(len(words))`` for the message unit, the shortest
    prefix of that permutation reaching ``size`` words for the word unit.
    The keys of many streams are generated at once (counter mode) and
    only each row's smallest keys are sorted.
    """
    n = words.size
    seeds = [derive_seed(author_seed, size, i) for i in range(count)]
    if unit == "messages":
        guess = size
    else:  # twice the expected prefix length; widened where it falls short
        guess = min(n, 2 * size * n // max(int(words.sum()), 1) + 8)
    rows = max(1, _KEY_BLOCK // max(n, 1))
    picks: list[np.ndarray] = []
    for lo in range(0, count, rows):
        keys = uniform_keys(seeds[lo:lo + rows], n)
        if unit == "messages":
            picks.extend(stable_smallest(keys, size))
        else:
            picks.extend(_word_prefixes(keys, words, size, guess))
    return picks


def _word_prefixes(keys: np.ndarray, words: np.ndarray, size: int, m: int) -> list[np.ndarray]:
    """Per row of ``keys``, the shortest prefix of its stable key order
    whose word count reaches ``size`` (the whole order if none does).
    Rows are sorted ``m`` keys deep, doubling ``m`` for rows not yet
    resolved."""
    n = keys.shape[1]
    out: list[np.ndarray] = [None] * len(keys)
    todo = np.arange(len(keys))
    while todo.size:
        order = stable_smallest(keys[todo], m)
        cw = np.cumsum(words[order], axis=1)
        done = (cw[:, -1] >= size) | (m >= n)
        stops = np.count_nonzero(cw < size, axis=1) + 1
        for r, row, stop in zip(todo[done], order[done], stops[done]):
            out[r] = row[:stop]
        todo = todo[~done]
        m = min(n, 2 * m)
    return out


def make_subsamples(
    corpus: AuthorCorpus, plan: SubsamplePlan, size: int, author_seed: int
) -> list[list[Message]]:
    """Subsample message lists for one author at one size.

    Contiguous mode partitions the full sample, earliest first, into
    floor(base/size) disjoint consecutive blocks (word unit: blocks
    accumulate messages until the size is reached, crossing message
    included; a short trailing remainder is discarded). Random mode
    draws the same number of subsamples uniformly without replacement
    within each subsample (overlap across subsamples allowed), seeded
    per (author, size, index).
    """
    if size < 1:
        raise PlanError("size must be positive")
    if 2 * size > plan.base_size:
        raise PlanError(f"size {size} exceeds base/2 ({plan.base_size // 2})")
    full = full_sample(corpus, plan)
    words = np.array([m.word_count for m in full], dtype=np.int64)
    blocks = _contiguous_blocks(words, plan.unit, plan.base_size, size)
    if plan.mode == "random":
        blocks = random_subsamples(words, plan.unit, size, author_seed, len(blocks))
    return [[full[i] for i in idx] for idx in blocks]


def trait_variability(
    full_value: float, sub_value: float, stats: PopulationStats, trait: str
) -> float:
    """Absolute percentile-point difference between the subsample's and
    the full sample's rank on the shared population ladder."""
    return abs(stats.percentile_rank(trait, sub_value) - stats.percentile_rank(trait, full_value))


@dataclass
class _AuthorData:
    """One author's prepared full sample, shared by every mode."""

    seed: int              # derive_seed(master_seed, author_id)
    counts: np.ndarray     # full-sample per-message category counts (int32: the store stays small)
    words: np.ndarray      # full-sample per-message token counts
    full_values: np.ndarray


def _author_values(freq: np.ndarray, W, b) -> np.ndarray:
    if W is None:
        return freq
    return project(freq, W, b)


def _subsample_frequencies(author: _AuthorData, picks: list[np.ndarray]) -> np.ndarray:
    """Category frequencies of each subsample in ``picks`` that has any
    tokens; empty subsamples are skipped."""
    flat = np.concatenate(picks)
    starts = np.cumsum([0] + [p.size for p in picks[:-1]])
    sums = np.add.reduceat(author.counts[flat], starts, axis=0, dtype=np.int64)
    tokens = np.add.reduceat(author.words[flat], starts)
    keep = tokens > 0
    return 100.0 * sums[keep] / tokens[keep, None]


def run_stability(
    corpora: Sequence[AuthorCorpus],
    plan: SubsamplePlan,
    lexicon: Lexicon,
    model: TraitModel | None = None,
    modes: Sequence[str] | None = None,
) -> list[StabilityCurve]:
    """Run the full stability experiment for one plan.

    Produces one curve per trait (or per lexicon category when no model
    is given) and per mode, sorted by (trait, mode), points ordered by
    size. ``modes`` defaults to ``(plan.mode,)``; every mode runs from
    the same prepared authors, so each message is tokenized once.
    Authors below the plan's base size, or whose full sample has no
    tokens, are excluded; fewer than two eligible authors is an error.
    Subsamples that tokenize to nothing are skipped, which
    n_observations reflects.

    Authors are processed one at a time in sorted (author_id, medium)
    order, so results do not depend on the order of ``corpora``.
    """
    modes = (plan.mode,) if modes is None else tuple(modes)
    if not modes or len(set(modes)) != len(modes) or any(m not in MODES for m in modes):
        raise PlanError(f"modes must be distinct values from {MODES}")
    if model is not None:
        W, b = weight_matrix(model, lexicon)
        names = list(model.trait_names)
    else:
        W, b = None, None
        names = list(lexicon.category_names)

    ordered = sorted(corpora, key=lambda c: (c.author_id, c.medium))

    def prepare(corpus: AuthorCorpus) -> _AuthorData | None:
        msgs = corpus.messages
        try:
            if plan.unit == "messages":  # the slice needs no word counts
                full = _full_range(len(msgs), None, plan, corpus.author_id)
                M, w = count_matrix(msgs[full], lexicon)
            else:
                M, w = count_matrix(msgs, lexicon)
                full = _full_range(len(msgs), w, plan, corpus.author_id)
                M, w = M[full], w[full].copy()
        except IneligibleAuthorError:
            return None
        total = int(w.sum())
        if total == 0:
            return None
        freq = 100.0 * M.sum(axis=0) / total
        return _AuthorData(
            seed=derive_seed(plan.master_seed, corpus.author_id),
            counts=M.astype(np.int32),
            words=w,
            full_values=_author_values(freq, W, b),
        )

    authors = [a for a in map(prepare, ordered) if a is not None]
    if len(authors) < 2:
        raise StatsError(
            f"{len(authors)} eligible author(s); at least 2 are required to "
            "build a population ladder"
        )

    full = np.array([a.full_values for a in authors])
    ladder = PopulationStats({name: full[:, j] for j, name in enumerate(names)})
    full_ranks = np.column_stack([
        ladder.percentile_ranks(name, full[:, j]) for j, name in enumerate(names)
    ])

    def profile(author: _AuthorData, full_rank: np.ndarray) -> dict[tuple[str, int], np.ndarray]:
        out: dict[tuple[str, int], np.ndarray] = {}
        for size in plan.sizes:
            # Random mode draws as many subsamples as contiguous mode yields,
            # so the two modes compare equal observation counts.
            blocks = _contiguous_blocks(author.words, plan.unit, plan.base_size, size)
            for mode in modes:
                picks = blocks
                if mode == "random":
                    picks = random_subsamples(author.words, plan.unit, size, author.seed, len(blocks))
                freqs = _subsample_frequencies(author, picks)
                if not len(freqs):  # every subsample tokenized to nothing
                    out[mode, size] = np.zeros((0, len(names)))
                    continue
                values = _author_values(freqs, W, b)
                ranks = np.column_stack([
                    ladder.percentile_ranks(name, values[:, j])
                    for j, name in enumerate(names)
                ])
                out[mode, size] = np.abs(ranks - full_rank[None, :])
        return out

    per_author = [profile(a, r) for a, r in zip(authors, full_ranks)]

    curves = []
    for name in sorted(names):
        col = names.index(name)
        for mode in sorted(modes):
            points = []
            for size in plan.sizes:
                obs = np.concatenate([res[mode, size][:, col] for res in per_author])
                if obs.size == 0:
                    raise StatsError(f"no usable observations at size {size}")
                mean = float(obs.mean())
                sd = float(obs.std(ddof=1)) if obs.size > 1 else 0.0
                points.append(VariabilityPoint(
                    size=size,
                    n_observations=int(obs.size),
                    mean_variability=mean,
                    sd_variability=sd,
                    p95_empirical=float(np.percentile(obs, 95.0)),
                    p95_parametric=mean + 1.645 * sd,
                ))
            curves.append(StabilityCurve(trait_name=name, mode=mode, unit=plan.unit, points=points))
    return curves


def run_stability_modes(
    corpora: Sequence[AuthorCorpus],
    plan: SubsamplePlan,
    lexicon: Lexicon,
    model: TraitModel | None = None,
    modes: Sequence[str] = MODES,
) -> list[StabilityCurve]:
    """Run several modes of the same plan; curves sorted by (trait, unit, mode)."""
    return run_stability(corpora, plan, lexicon, model, modes=modes)


def minimum_sample_size(
    curve: StabilityCurve, threshold: float, statistic: str = "mean"
) -> int | None:
    """Smallest size whose chosen statistic is <= threshold, or None."""
    attr = {"mean": "mean_variability", "p95_empirical": "p95_empirical"}.get(statistic)
    if attr is None:
        raise ValueError("statistic must be 'mean' or 'p95_empirical'")
    if not curve.points:
        raise ValueError("curve has no points")
    for point in sorted(curve.points, key=lambda p: p.size):
        if getattr(point, attr) <= threshold:
            return point.size
    return None
