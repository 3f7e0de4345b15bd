"""Sample-size stability profiling.

For each author the "full sample" (most recent base_size messages or
words) is scored and turned into trait values; a shared percentile
ladder is built from all authors' full-sample values. Subsamples of
each requested size are then scored the same way, and variability is
the absolute difference, in percentile points on that shared ladder,
between the subsample's value and the author's full-sample value.
Curves aggregate mean / sd / 95th-percentile variability per size.

The unit is a weight per message: 1 for messages, its token count for
words. The full sample, each contiguous block and each random draw is
the shortest run of messages whose weight reaches the base or the size.

Each author is observed once, as it arrives: one tokenizing pass over
its messages gives the per-message category and word counts of its full
sample, and every mode's subsamples at every size are drawn and scored
from them as sums of their rows. Only the author's full-sample values
and one values array per (size, mode) are kept; its counts are dropped
before the next author, so memory grows with authors x subsamples x
values, not with messages or categories.

Curves are then built one (size, mode) at a time, in (author_id,
medium) order: each trait column is ranked against the full samples'
ladder with one call, the points are aggregated at once, and those
values are dropped. ``StabilityExperiment`` keeps the two steps apart:
an author's observation depends on that author and the plan alone, so
authors can be observed in any order and in other processes.

Subsample seeds are derived as
derive_seed(derive_seed(master_seed, author_id), size, index), so runs
are bit-reproducible and do not depend on the order of the input
corpora. The random draws of one (author, size) are generated together
from those seeds (counter mode) and equal each stream's own permutation
prefix.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import IneligibleAuthorError, PlanError, StatsError
from .ingest import AuthorCorpus, Message
from .lexicon import Lexicon, count_matrix, tokenize
from .rng import PACKED_COLUMNS, derive_seed, packed_smallest, stable_smallest, uniform_keys
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


def _unit_weights(messages: Sequence[Message | str], unit: str) -> np.ndarray:
    """Each message's weight in ``unit``: 1 per message, or its word count
    (``tokenize``'s of a plain text). Unit weights are a read-only
    broadcast view, so no array is made for them."""
    if unit == "messages":
        return np.broadcast_to(np.int64(1), len(messages))
    return np.array([len(tokenize(m)) if isinstance(m, str) else m.word_count for m in messages], dtype=np.int64)


def _full_range(weights: np.ndarray, plan: SubsamplePlan, author_id: str) -> slice:
    """The full sample's slice of an author's messages: the shortest run
    from the anchored end whose weight reaches the base size."""
    total = int(weights.sum())
    if total < plan.base_size:
        raise IneligibleAuthorError(
            f"author {author_id!r} has {total} {plan.unit}; base size is {plan.base_size}"
        )
    if plan.anchor == "earliest":
        return slice(0, int(np.searchsorted(np.cumsum(weights), plan.base_size)) + 1)
    n = weights.size
    return slice(n - 1 - int(np.searchsorted(np.cumsum(weights[::-1]), plan.base_size)), n)


def full_sample(corpus: AuthorCorpus, plan: SubsamplePlan) -> list[Message]:
    """The base_size most recent (or earliest, per plan.anchor) units of
    the corpus; word unit includes the message that crosses the
    threshold. Raises IneligibleAuthorError below base size."""
    msgs = corpus.messages
    return msgs[_full_range(_unit_weights(msgs, plan.unit), plan, corpus.author_id)]


def _contiguous_blocks(weights: np.ndarray, base_size: int, size: int) -> list[np.ndarray]:
    """At most floor(base/size) consecutive blocks of the full sample,
    earliest first; each block grows until its weight reaches ``size``,
    and a short trailing remainder ends the walk."""
    ends = np.concatenate(([0], np.cumsum(weights))).tolist()  # ends[i]: weight before message i
    blocks: list[np.ndarray] = []
    i = 0
    for _ in range(base_size // size):
        j = bisect_left(ends, ends[i] + size, i)
        if j == len(ends):
            break  # trailing remainder, discarded
        blocks.append(np.arange(i, j))
        i = j
    return blocks


# Keys generated per block of streams; bounds the draw's working memory
# (128 KiB). Blocks of 2**12 keys draw slower, and 2**16 no faster.
_KEY_BLOCK = 1 << 14


def _draw_depth(weights: np.ndarray, size: int) -> int:
    """First guess at how deep a random draw sorts its keys: the expected
    prefix length to reach ``size`` plus four standard deviations of it,
    which is exactly ``size`` for unit weights."""
    n = weights.size
    total = int(weights.sum())
    if total == 0:
        return n
    mean = total / n
    depth = size / mean
    return min(n, math.ceil(depth + 4.0 * float(weights.std()) / mean * math.sqrt(depth)))


def random_subsamples(
    weights: np.ndarray, size: int, author_seed: int, count: int
) -> list[np.ndarray]:
    """``count`` random subsamples of a full sample with per-message
    ``weights``, each drawn without replacement: subsample ``i`` is the
    shortest prefix of ``Stream(derive_seed(author_seed, size, i))
    .permutation(len(weights))`` whose weight reaches ``size`` (for unit
    weights, its first ``size`` entries). The keys of many streams are
    generated at once (counter mode)."""
    n = weights.size
    seeds = [derive_seed(author_seed, size, i) for i in range(count)]
    guess = _draw_depth(weights, size)
    rows = max(1, _KEY_BLOCK // max(n, 1))
    picks: list[np.ndarray] = []
    for lo in range(0, count, rows):
        picks.extend(_prefixes(uniform_keys(seeds[lo:lo + rows], n), weights, size, guess))
    return picks


def _prefixes(keys: np.ndarray, weights: np.ndarray, size: int, m: int) -> list[np.ndarray]:
    """Per row of ``keys``, the shortest prefix of its stable key order
    whose weight reaches ``size`` (the whole order if none does). Rows
    are sorted ``m`` keys deep; rows that fall short are redone twice as
    deep. Rows of at most ``PACKED_COLUMNS`` keys are sorted packed with
    their indices."""
    order = (packed_smallest if keys.shape[1] <= PACKED_COLUMNS else stable_smallest)(keys, m)
    stops = np.count_nonzero(np.cumsum(weights[order], axis=1) < size, axis=1) + 1
    out = [row[:stop] for row, stop in zip(order, stops.tolist())]
    short = np.flatnonzero(stops > m) if m < keys.shape[1] else ()
    if len(short):
        deeper = _prefixes(keys[short], weights, size, min(keys.shape[1], 2 * m))
        for r, row in zip(short, deeper):
            out[r] = row
    return out


def _subsample_picks(
    weights: np.ndarray, base_size: int, size: int, author_seed: int, modes: Sequence[str]
) -> dict[str, list[np.ndarray]]:
    """Each mode's subsamples of one full sample at one size, as index
    arrays. Random mode draws as many subsamples as contiguous mode
    yields blocks, so the two modes compare equal observation counts."""
    blocks = _contiguous_blocks(weights, base_size, size)
    return {mode: blocks if mode == "contiguous" else random_subsamples(weights, size, author_seed, len(blocks))
            for mode in modes}


def make_subsamples(
    corpus: AuthorCorpus, plan: SubsamplePlan, size: int, author_seed: int
) -> list[list[Message]]:
    """Subsample message lists for one author at one size, in
    plan.mode: the contiguous blocks of ``_contiguous_blocks`` or as
    many draws of ``random_subsamples``, seeded per (author, size,
    index)."""
    if size < 1:
        raise PlanError("size must be positive")
    if 2 * size > plan.base_size:
        raise PlanError(f"size {size} exceeds base/2 ({plan.base_size // 2})")
    full = full_sample(corpus, plan)
    weights = _unit_weights(full, plan.unit)
    picks = _subsample_picks(weights, plan.base_size, size, author_seed, (plan.mode,))[plan.mode]
    return [[full[i] for i in idx] for idx in picks]


def trait_variability(
    full_value: float, sub_value: float, stats: PopulationStats, trait: str
) -> float:
    """Absolute percentile-point difference between the subsample's and
    the full sample's rank on the shared population ladder."""
    return abs(stats.percentile_rank(trait, sub_value) - stats.percentile_rank(trait, full_value))


def _author_values(freq: np.ndarray, W, b) -> np.ndarray:
    if W is None:
        return freq
    return project(freq, W, b)


def _subsample_frequencies(counts: np.ndarray, words: np.ndarray, picks: list[np.ndarray]) -> np.ndarray:
    """Category frequencies of each subsample in ``picks`` that has any
    tokens; empty subsamples are skipped."""
    flat = np.concatenate(picks)
    starts = np.cumsum([0] + [p.size for p in picks[:-1]])
    sums = np.add.reduceat(counts[flat], starts, axis=0, dtype=np.int64)
    tokens = np.add.reduceat(words[flat], starts)
    keep = tokens > 0
    return 100.0 * sums[keep] / tokens[keep, None]


class StabilityExperiment:
    """One plan's stability experiment as two steps: ``observe`` each
    author on its own, in any order and in any process, then build the
    ``curves`` of all the observations. ``run_stability`` runs both in
    one process; the CLI observes a large corpus's authors in worker
    processes. ``modes`` defaults to ``(plan.mode,)``."""

    def __init__(
        self,
        plan: SubsamplePlan,
        lexicon: Lexicon,
        model: TraitModel | None = None,
        modes: Sequence[str] | None = None,
    ):
        modes = (plan.mode,) if modes is None else tuple(modes)
        if not modes or len(set(modes)) != len(modes) or any(m not in MODES for m in modes):
            raise PlanError(f"modes must be distinct values from {MODES}")
        self.plan, self.lexicon, self.modes = plan, lexicon, modes
        if model is not None:
            self.W, self.b = weight_matrix(model, lexicon)
            self.names = list(model.trait_names)
        else:
            self.W, self.b = None, None
            self.names = list(lexicon.category_names)

    def observe(self, corpus: AuthorCorpus) -> tuple[tuple[str, str], np.ndarray, dict] | None:
        """One author's (author_id, medium), full-sample values and
        subsample values per (size, mode); None if it is not eligible."""
        plan, lexicon, W, b = self.plan, self.lexicon, self.W, self.b
        try:
            if plan.unit == "messages":  # slice first: later messages are never tokenized
                msgs = full_sample(corpus, plan)
                counts, words = count_matrix(msgs, lexicon)
                weights = _unit_weights(msgs, plan.unit)
            else:
                counts, words = count_matrix(corpus.messages, lexicon)
                full = _full_range(words, plan, corpus.author_id)
                counts, words = counts[full], words[full]
                weights = words
        except IneligibleAuthorError:
            return None
        total = int(words.sum())
        if total == 0:
            return None
        seed = derive_seed(plan.master_seed, corpus.author_id)
        store = {}
        for size in plan.sizes:
            for mode, picks in _subsample_picks(weights, plan.base_size, size, seed, self.modes).items():
                store[size, mode] = _author_values(_subsample_frequencies(counts, words, picks), W, b)
        full_values = _author_values(100.0 * counts.sum(axis=0) / total, W, b)
        return (corpus.author_id, corpus.medium), full_values, store

    def curves(self, observations: Iterable) -> list[StabilityCurve]:
        """The curves of ``observe``'s results, Nones included, in any
        order: ranked in (author_id, medium) order, a stable sort."""
        names, modes, plan = self.names, self.modes, self.plan
        observed = sorted((o for o in observations if o is not None), key=itemgetter(0))
        if len(observed) < 2:
            raise StatsError(
                f"{len(observed)} eligible author(s); at least 2 are required to "
                "build a population ladder"
            )

        full = np.array([values for _, values, _ in observed])
        stores = [store for _, _, store in observed]
        ladder = PopulationStats({name: full[:, j] for j, name in enumerate(names)})
        full_ranks = [ladder.percentile_ranks(name, full[:, j]) for j, name in enumerate(names)]

        curves = {(name, mode): StabilityCurve(name, mode, plan.unit, []) for name in names for mode in modes}
        for size in plan.sizes:
            for mode in sorted(modes):
                rows = [store[size, mode].shape[0] for store in stores]
                owner = np.repeat(np.arange(len(rows)), rows)
                if owner.size == 0:
                    raise StatsError(f"no usable observations at size {size}")
                sub = np.empty((owner.size, len(names)))
                for store, stop, n in zip(stores, np.cumsum(rows).tolist(), rows):
                    sub[stop - n:stop] = store.pop((size, mode))  # freed once copied: never held twice
                for j, name in enumerate(names):
                    obs = np.abs(ladder.percentile_ranks(name, sub[:, j]) - full_ranks[j][owner])
                    mean = float(obs.mean())
                    sd = float(obs.std(ddof=1)) if obs.size > 1 else 0.0
                    curves[name, mode].points.append(VariabilityPoint(
                        size=size,
                        n_observations=int(obs.size),
                        mean_variability=mean,
                        sd_variability=sd,
                        p95_empirical=float(np.percentile(obs, 95.0)),
                        p95_parametric=mean + 1.645 * sd,
                    ))
        return [curves[key] for key in sorted(curves)]


def run_stability(
    corpora: Iterable[AuthorCorpus],
    plan: SubsamplePlan,
    lexicon: Lexicon,
    model: TraitModel | None = None,
    modes: Sequence[str] | None = None,
) -> list[StabilityCurve]:
    """Run the full stability experiment for one plan.

    Produces one curve per trait (or per lexicon category when no model
    is given) and per mode, sorted by (trait, mode), points ordered by
    size. ``modes`` defaults to ``(plan.mode,)``; every mode runs from
    the same prepared author, so each message is tokenized once.
    Authors below the plan's base size, or whose full sample has no
    tokens, are excluded; fewer than two eligible authors is an error.
    Subsamples that tokenize to nothing are skipped, which
    n_observations reflects.

    ``corpora`` may be any iterable, such as a stream read one author
    at a time: each author is observed as it arrives (prepared, drawn
    at every size and mode, and projected), and only its full-sample
    values and one values array per (size, mode) are kept. The authors
    are then ordered by (author_id, medium), a stable sort, so results
    do not depend on the order of ``corpora``.

    Ranking takes one ``percentile_ranks`` call per trait for the full
    samples plus one per (size, mode, trait), each across all authors;
    each (size, mode)'s values are dropped once ranked.
    """
    experiment = StabilityExperiment(plan, lexicon, model, modes)
    return experiment.curves(map(experiment.observe, corpora))


def run_stability_modes(
    corpora: Iterable[AuthorCorpus],
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
