"""Population-level statistics: percentile ladders, effect sizes,
significance, confidence intervals, renormalization, and cross-media
comparison tables."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .atomic import atomic_write
from .errors import DegenerateGroupsError, StatsError

LARGE_EFFECT_D = 0.8
SIGNIFICANT_P = 0.001


def _moments(*columns) -> tuple[int, list[tuple[int, float, float]]]:
    """Size, mean and sample variance (0.0 for one value) of each column
    after dividing every column by one power of two, 2**e, that puts
    their largest magnitude in [0.5, 1); returns e and the moments.

    The division is exact, so ratios of these moments (d, t, the Welch
    df) are the unscaled ones, and a mean or sd scales back with
    ``math.ldexp(value, e)``. On values in the normal float range every
    result is the same bits as without the scaling; columns near either
    end of the range no longer overflow or underflow."""
    arrays = [np.asarray(column, dtype=np.float64) for column in columns]
    e = math.frexp(max(float(np.abs(arr).max(initial=0.0)) for arr in arrays))[1]
    moments = []
    for arr in arrays:
        arr = np.ldexp(arr, -e)
        mean = float(arr.mean()) if arr.size else math.nan
        var = float(arr.var(ddof=1)) if arr.size > 1 else 0.0
        moments.append((int(arr.size), mean, var))
    return e, moments


class PopulationStats:
    """Per-name sorted value ladders."""

    def __init__(self, values: Mapping[str, Sequence[float]]):
        self._sorted: dict[str, np.ndarray] = {}
        for name, column in values.items():
            arr = np.sort(np.asarray(column, dtype=np.float64))
            if arr.size < 1:
                raise StatsError(f"no values for {name!r}")
            self._sorted[name] = arr

    def _column(self, name: str) -> np.ndarray:
        try:
            return self._sorted[name]
        except KeyError:
            raise StatsError(f"unknown trait {name!r}") from None

    def percentile_rank(self, name: str, value: float) -> float:
        """Midrank percentile of one value; see ``percentile_ranks``."""
        return float(self.percentile_ranks(name, [value])[0])

    def percentile_ranks(self, name: str, values) -> np.ndarray:
        """Midrank percentiles of ``values`` against the ladder:
        100 * (count_less + 0.5 * count_equal) / n."""
        arr = self._column(name)
        v = np.asarray(values, dtype=np.float64)
        lo = np.searchsorted(arr, v, side="left")
        hi = np.searchsorted(arr, v, side="right")
        return 100.0 * (lo + 0.5 * (hi - lo)) / arr.size

    def summary(self) -> dict[str, dict]:
        """n, mean and sample sd (0.0 for one value) of each ladder."""
        summary = {}
        for name, arr in self._sorted.items():
            e, [(n, mean, var)] = _moments(arr)
            summary[name] = {"n": n, "mean": math.ldexp(mean, e), "sd": math.ldexp(math.sqrt(var), e)}
        return summary


def save_stats_json(stats: PopulationStats, path) -> None:
    """Serialize summary statistics as JSON mapping name -> {n, mean, sd}."""
    with atomic_write(path) as fh:
        json.dump(stats.summary(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def load_stats_json(path) -> dict[str, dict]:
    """Read a stats file written by ``save_stats_json``. Raises StatsError
    unless every entry has finite numbers for n, mean and sd, and for
    JSON nested too deep to decode."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise StatsError(f"stats file {path}: JSON nested too deep") from None
    if not isinstance(doc, dict):
        raise StatsError(f"stats file {path}: expected a JSON object")
    for name, entry in doc.items():
        if not isinstance(entry, dict) or not {"n", "mean", "sd"} <= set(entry):
            raise StatsError(f"stats file {path}: entry {name!r} missing n/mean/sd")
        for key in ("n", "mean", "sd"):
            if not _is_finite_number(entry[key]):
                raise StatsError(f"stats file {path}: entry {name!r} {key} is not a finite number")
    return doc


def cohens_d(a, b) -> float:
    """Standardized mean difference (mean_a - mean_b) / pooled sd."""
    _, [(na, ma, va), (nb, mb, vb)] = _moments(a, b)
    if na < 2 or nb < 2:
        raise StatsError("cohens_d needs at least 2 values per group")
    pooled = math.sqrt(((na - 1) * va + (nb - 1) * vb) / (na + nb - 2))
    if pooled == 0.0:
        raise DegenerateGroupsError("both groups are constant; d is undefined")
    return (ma - mb) / pooled


def welch_p(a, b) -> float:
    """Two-sided Welch's t-test p-value.

    t = (mean_a - mean_b) / sqrt(s_a^2/n_a + s_b^2/n_b) with
    Welch-Satterthwaite degrees of freedom; p from the Student-t
    survival function (``tdist.t_two_sided_p``). Returns exactly 1.0
    when t == 0.
    """
    # Imported here, not at module level, so that only the command that
    # computes p-values (compare) loads the decimal module.
    from .tdist import t_two_sided_p

    _, [(na, ma, va), (nb, mb, vb)] = _moments(a, b)
    if na < 2 or nb < 2:
        raise StatsError("welch_p needs at least 2 values per group")
    if va == 0.0 and vb == 0.0:
        raise DegenerateGroupsError("both groups have zero variance")
    qa = va / na
    qb = vb / nb
    t = (ma - mb) / math.sqrt(qa + qb)
    if t == 0.0:
        return 1.0
    df = (qa + qb) ** 2 / (qa ** 2 / (na - 1) + qb ** 2 / (nb - 1))
    return t_two_sided_p(t, df)


def mean_ci95(values) -> tuple[float, float]:
    """Normal-approximation 95% CI of the mean: mean +/- 1.96 * s/sqrt(n)."""
    e, [(n, m, var)] = _moments(values)
    if n < 2:
        raise StatsError("mean_ci95 needs at least 2 values")
    half = 1.96 * math.sqrt(var) / math.sqrt(n)
    return (math.ldexp(m - half, e), math.ldexp(m + half, e))


def renormalize(x: float, src: tuple[float, float], dst: tuple[float, float]) -> float:
    """Map ``x`` from one population's (mean, sd) to another's:
    dst_mean + dst_sd * (x - src_mean) / src_sd, in that order on
    mantissas with the powers of two added apart (``x`` and ``src_mean``
    share one), so only a result beyond the float range fails
    (StatsError). Normal-range results are the plain formula's bits."""
    src_mean, src_sd = src
    dst_mean, dst_sd = dst
    if src_sd == 0.0:
        raise StatsError("source sd is zero; renormalization undefined")
    if src_sd < 0.0 or dst_sd < 0.0:
        raise StatsError("standard deviations must be non-negative")
    e_x = math.frexp(max(abs(x), abs(src_mean)))[1]
    diff, e_diff = math.frexp(math.ldexp(x, -e_x) - math.ldexp(src_mean, -e_x))
    (m_dst, e_dst), (m_src, e_src) = math.frexp(dst_sd), math.frexp(src_sd)
    step = m_dst * diff / m_src  # dst_sd * (x - src_mean) / src_sd is step * 2**e_step
    e_step = e_dst + e_x + e_diff - e_src
    e = max(math.frexp(dst_mean)[1], e_step) if step else 0
    try:
        return math.ldexp(math.ldexp(dst_mean, -e) + math.ldexp(step, e_step - e), e)
    except OverflowError:
        raise StatsError("renormalized value is beyond the float range") from None


@dataclass
class MediaComparisonRow:
    """One trait/category compared across two media. ``ratio`` is the
    non-baseline mean over the baseline mean, or None when the baseline
    mean is zero."""

    name: str
    mean_a: float
    mean_b: float
    ratio: float | None
    cohens_d: float
    p_value: float
    ci95_a: tuple[float, float]
    ci95_b: tuple[float, float]
    large_effect: bool
    significant: bool


def compare_media(
    table_a: Mapping[str, Sequence[float]],
    table_b: Mapping[str, Sequence[float]],
    baseline: str = "b",
) -> list[MediaComparisonRow]:
    """Compare two per-author value tables name by name.

    Produces one row per shared name, ratio relative to the baseline
    side's mean, rows sorted by |d| descending (ties by name); flags use
    |d| > LARGE_EFFECT_D and p < SIGNIFICANT_P.
    """
    if baseline not in ("a", "b"):
        raise ValueError("baseline must be 'a' or 'b'")
    shared = sorted(set(table_a) & set(table_b))
    if not shared:
        raise StatsError("tables share no trait/category names")
    rows = []
    for name in shared:
        col_a, col_b = table_a[name], table_b[name]
        e, [(n_a, mean_a, _), (n_b, mean_b, _)] = _moments(col_a, col_b)
        if n_a < 2 or n_b < 2:
            raise StatsError(f"column {name!r} has fewer than 2 values")
        base, other = (mean_b, mean_a) if baseline == "b" else (mean_a, mean_b)
        ratio = other / base if base != 0.0 else None
        d = cohens_d(col_a, col_b)
        p = welch_p(col_a, col_b)
        rows.append(MediaComparisonRow(
            name=name,
            mean_a=math.ldexp(mean_a, e),
            mean_b=math.ldexp(mean_b, e),
            ratio=ratio,
            cohens_d=d,
            p_value=p,
            ci95_a=mean_ci95(col_a),
            ci95_b=mean_ci95(col_b),
            large_effect=abs(d) > LARGE_EFFECT_D,
            significant=p < SIGNIFICANT_P,
        ))
    rows.sort(key=lambda r: (-abs(r.cohens_d), r.name))
    return rows
