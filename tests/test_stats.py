import json
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexstable.errors import DegenerateGroupsError, StatsError
from lexstable.stats import (
    PopulationStats,
    cohens_d,
    compare_media,
    load_stats_json,
    mean_ci95,
    renormalize,
    save_stats_json,
    welch_p,
)
from lexstable.tdist import t_two_sided_p


def brute_force_midrank(population, value):
    less = sum(1 for x in population if x < value)
    equal = sum(1 for x in population if x == value)
    return 100.0 * (less + 0.5 * equal) / len(population)


# --- percentile_rank ---------------------------------------------------

def test_midrank_examples():
    stats = PopulationStats({"t": [1, 2, 3, 4, 5]})
    assert stats.percentile_rank("t", 3) == 50.0
    assert stats.percentile_rank("t", 0) == 0.0
    assert stats.percentile_rank("t", 9) == 100.0


def test_midrank_all_identical():
    stats = PopulationStats({"t": [7.0] * 5})
    assert stats.percentile_rank("t", 7.0) == 50.0


def test_unknown_trait():
    stats = PopulationStats({"t": [1.0]})
    with pytest.raises(StatsError, match="unknown trait"):
        stats.percentile_rank("u", 1.0)
    with pytest.raises(StatsError):
        PopulationStats({"t": []})


@given(
    population=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=300),
    value=st.integers(min_value=-55, max_value=55),
)
@settings(max_examples=200, deadline=None)
def test_midrank_matches_brute_force(population, value):
    stats = PopulationStats({"t": population})
    assert stats.percentile_rank("t", value) == brute_force_midrank(population, value)


def test_percentile_rank_nondecreasing():
    values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3]
    stats = PopulationStats({"t": values})
    probes = sorted({v + d for v in values for d in (-0.5, 0.0, 0.5)})
    ranks = [stats.percentile_rank("t", p) for p in probes]
    assert ranks == sorted(ranks)


def test_vectorized_ranks_match_scalar():
    values = [3, 1, 4, 1, 5]
    stats = PopulationStats({"t": values})
    probes = [0.0, 1.0, 2.5, 4.0, 9.0]
    vec = stats.percentile_ranks("t", probes)
    assert vec.tolist() == [stats.percentile_rank("t", p) for p in probes]


def test_summary_consistency():
    stats = PopulationStats({"t": [1.0, 2.0, 3.0]})
    entry = stats.summary()["t"]
    assert entry["n"] == 3
    assert entry["mean"] == pytest.approx(2.0, rel=1e-12)
    assert entry["sd"] == pytest.approx(1.0, rel=1e-12)


def test_stats_json_roundtrip(tmp_path):
    stats = PopulationStats({"a": [1, 2, 3], "b": [4.0, 4.0]})
    path = tmp_path / "stats.json"
    save_stats_json(stats, path)
    loaded = load_stats_json(path)
    assert loaded == stats.summary()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"a": {"mean": 1}}))
    with pytest.raises(StatsError):
        load_stats_json(bad)


@pytest.mark.parametrize("text", [
    '{"t": {"n": 5, "mean": NaN, "sd": 1.0}}',
    '{"t": {"n": 5, "mean": 0.0, "sd": Infinity}}',
    '{"t": {"n": 5, "mean": 0.0, "sd": -Infinity}}',
    '{"t": {"n": 5, "mean": 1' + '0' * 400 + ', "sd": 1.0}}',  # beyond float range
    '{"t": {"n": 5, "mean": "0.0", "sd": 1.0}}',
    '{"t": {"n": true, "mean": 0.0, "sd": 1.0}}',
    '{"t": [5, 0.0, 1.0]}',
    '[1, 2]',
    pytest.param("[" * 200_000 + "]" * 200_000, id="nested-too-deep"),
])
def test_stats_json_rejects_non_finite_or_non_numeric_entries(tmp_path, text):
    path = tmp_path / "stats.json"
    path.write_text(text)
    with pytest.raises(StatsError):
        load_stats_json(path)


# --- cohens_d ----------------------------------------------------------

def test_cohens_d_hand_value():
    # means 1 and 5, pooled sd = sqrt(2)
    assert cohens_d([0, 2], [4, 6]) == pytest.approx(-2.8284271247461903, abs=1e-12)


def test_cohens_d_identical_groups():
    assert cohens_d([1, 2, 3], [1, 2, 3]) == 0.0


def test_cohens_d_degenerate():
    with pytest.raises(DegenerateGroupsError):
        cohens_d([1, 1], [1, 1])
    with pytest.raises(StatsError):
        cohens_d([1], [1, 2])
    with pytest.raises(StatsError):
        cohens_d([], [1, 2])


@given(
    a=st.lists(st.floats(-100, 100), min_size=2, max_size=30),
    b=st.lists(st.floats(-100, 100), min_size=2, max_size=30),
    shift=st.floats(-50, 50),
    scale=st.floats(0.01, 20),
)
@settings(max_examples=150, deadline=None)
@example(a=[0.0, 0.0], b=[0.0, 1e-09], shift=16.0, scale=1.0)
def test_cohens_d_invariances(a, b, shift, scale):
    try:
        d = cohens_d(a, b)
    except DegenerateGroupsError:
        return
    assert cohens_d(b, a) == pytest.approx(-d, rel=1e-9, abs=1e-12)
    # Shift invariance holds in float64 only where the pooled sd stands
    # well above the rounding error of the shifted values: a 1e-9 spread
    # next to 16.0 is a few ulps, and d moves by parts in 1e6 when it is
    # rounded away (the @example above).
    pooled = math.sqrt(((len(a) - 1) * np.var(a, ddof=1) + (len(b) - 1) * np.var(b, ddof=1))
                       / (len(a) + len(b) - 2))
    rounding = np.finfo(np.float64).eps * max(abs(x) + abs(shift) for x in a + b)
    if pooled > 1e8 * rounding:
        shifted = cohens_d([x + shift for x in a], [x + shift for x in b])
        assert shifted == pytest.approx(d, rel=1e-6, abs=1e-6)
    try:
        scaled = cohens_d([x * scale for x in a], [x * scale for x in b])
    except DegenerateGroupsError:
        pass
    else:
        assert scaled == pytest.approx(d, rel=1e-6, abs=1e-9)


# --- welch_p -----------------------------------------------------------

def test_welch_identical_groups_give_p_one():
    assert welch_p([1, 2, 3, 4], [1, 2, 3, 4]) == 1.0


def test_welch_separated_groups():
    assert welch_p([0, 0, 1, 1], [10, 10, 11, 11]) < 0.001


def test_welch_degenerate():
    with pytest.raises(DegenerateGroupsError):
        welch_p([1, 1], [1, 1])


def test_welch_symmetry_and_range():
    cases = [
        ([1.0, 2.0, 3.5], [2.0, 2.5, 2.6, 4.0]),
        ([0.0, 0.1, 0.2, 0.3], [5.0, 5.1]),
        ([1, 1, 1, 2], [1, 1, 1, 1]),
    ]
    for a, b in cases:
        p = welch_p(a, b)
        assert 0.0 < p <= 1.0
        assert welch_p(b, a) == p


def test_welch_p_underflows_to_zero_without_an_error():
    # t is about 2e7 at about 98 degrees of freedom: p is near 1e-700
    a = np.linspace(0.0, 1e-6, 50)
    assert welch_p(a, a + 1.0) == 0.0
    assert t_two_sided_p(1e3, 1e6) == 0.0
    assert t_two_sided_p(-1e300, 3.0) == 0.0


def test_t_tail_returns_a_subnormal_p_as_is():
    # one degree of freedom is the Cauchy distribution: p = (2/pi) atan(1/|t|)
    p = t_two_sided_p(1e308, 1.0)
    assert 0.0 < p < sys.float_info.min
    with mpmath.workdps(50):
        exact = 2 / (mpmath.pi * mpmath.mpf(1e308))
    assert abs(p - float(exact)) <= 5e-324


@pytest.mark.parametrize("t", [1e-300, 1e-3, 0.5, 1.0, 3.0, 1e3, -7.25])
def test_t_tail_at_one_degree_of_freedom_is_the_cauchy_tail(t):
    with mpmath.workdps(50):
        exact = 2 / mpmath.pi * mpmath.atan(1 / abs(mpmath.mpf(t)))
    assert t_two_sided_p(t, 1.0) == pytest.approx(float(exact), rel=2e-16)


def test_t_tail_edge_values():
    assert t_two_sided_p(1.0, 1.0) == 0.5
    for df in (1.0, 30.0, 1e6):
        assert t_two_sided_p(1e-300, df) == 1.0
        assert t_two_sided_p(0.0, df) == 1.0
        assert t_two_sided_p(math.inf, df) == 0.0
    # as df grows the tail becomes the normal one
    for t in (1.0, 3.0, 30.0, 1e100):
        assert t_two_sided_p(t, 1e300) == pytest.approx(math.erfc(t / math.sqrt(2)), rel=1e-14)
    assert math.isnan(t_two_sided_p(math.nan, 5.0))
    assert math.isnan(t_two_sided_p(2.0, math.nan))
    for df in (0.0, -1.0, math.inf):
        with pytest.raises(StatsError):
            t_two_sided_p(2.0, df)


def _reference_t_tail(t: float, df: float):
    """P(|T| >= |t|) from mpmath's regularized incomplete beta, with
    enough digits for the complement form's cancellation; None when it
    is below the smallest normal double."""
    with mpmath.workdps(20):
        nu = mpmath.mpf(df)
        a = nu / 2
        # ln p lies within about [-10, +1.2] of this, for df 1..1e6 and
        # |t| up to 1e3 (measured over 1,500 random points)
        ln_est = float(-a * mpmath.log1p(mpmath.mpf(t) ** 2 / nu) - mpmath.log(mpmath.beta(a, 0.5)))
    if ln_est < math.log(sys.float_info.min) - 10:
        return None  # certainly below; a reference would need thousands of digits
    with mpmath.workdps(int(2 * abs(ln_est) / math.log(10)) + 60):
        nu = mpmath.mpf(df)
        t2 = mpmath.mpf(t) ** 2
        x = nu / (nu + t2)
        if x < 0.5:
            p = mpmath.betainc(nu / 2, 0.5, 0, x, regularized=True)
        else:
            p = 1 - mpmath.betainc(0.5, nu / 2, 0, t2 / (nu + t2), regularized=True)
        return p if p >= sys.float_info.min else None


_DF = st.one_of(st.floats(1.0, 1e6), st.floats(0.0, 6.0).map(lambda e: 10.0 ** e))
_T = st.one_of(st.floats(-1e3, 1e3), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


@settings(max_examples=1500, deadline=None)
@given(_T, _DF)
@example(3.0, 9.2e5)  # x near 1: the continued fraction converges slowly
@example(12.6, 5e4)  # a 40-digit quadrature reference was 2.5e-11 off here
@example(1.7320508, 1e6)  # near the switch to the complement form
@example(37.5, 1e6)  # p near 1e-300
@example(6.5e153, 2.0)  # p just above the smallest normal double
def test_t_tail_matches_mpmath(t, df):
    ref = _reference_t_tail(t, df)
    assume(ref is not None)
    got = t_two_sided_p(t, df)
    assert abs(got - ref) <= 1e-12 * ref, (t, df, got, float(ref))


# --- scale ---------------------------------------------------------------

_MAGNITUDE = st.floats(2.0 ** -20, 2.0 ** 7)
_COLUMN = st.lists(st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda x: -x)),
                   min_size=2, max_size=30)


def _bits(statistic, a, b) -> str:
    try:
        return statistic(a, b).hex()
    except DegenerateGroupsError:
        return "degenerate"


@given(a=_COLUMN, b=_COLUMN, k=st.integers(-1000, 1000))
@settings(max_examples=300, deadline=None)
@example(a=[0.0, 1.0], b=[0.0, 3.0], k=1000)  # variances overflow without the scaling
@example(a=[0.0, 1.0], b=[1.0, 4.0], k=-1000)  # variances underflow to zero without it
@example(a=[2.0, 2.0], b=[2.0, 2.0], k=1000)
def test_statistics_do_not_depend_on_scale(a, b, k):
    # scaling every value by 2**k is exact here (every scaled value is a
    # normal float), so d and p must not move by a bit, and the CI bounds,
    # mean and sd must move by exactly 2**k
    sa = [math.ldexp(x, k) for x in a]
    sb = [math.ldexp(x, k) for x in b]
    for statistic in (cohens_d, welch_p):
        assert _bits(statistic, sa, sb) == _bits(statistic, a, b)
    for column, scaled in ((a, sa), (b, sb)):
        assert mean_ci95(scaled) == tuple(math.ldexp(x, k) for x in mean_ci95(column))
    summary = PopulationStats({"a": a, "b": b}).summary()
    for name, entry in PopulationStats({"a": sa, "b": sb}).summary().items():
        assert entry == {"n": summary[name]["n"],
                         "mean": math.ldexp(summary[name]["mean"], k),
                         "sd": math.ldexp(summary[name]["sd"], k)}


@pytest.mark.parametrize("a, b", [
    ([0, 1e150], [0, 3e150]),
    ([0, 1e-160], [1e-160, 3e-160]),
    ([0, 1e-200], [1e-200, 4e-200]),
])
def test_statistics_of_columns_far_from_unit_scale_are_finite(a, b):
    assert math.isfinite(cohens_d(a, b))
    assert 0.0 < welch_p(a, b) < 1.0
    for column in (a, b):
        assert all(math.isfinite(x) for x in mean_ci95(column))


def test_reference_values_from_committed_oracle():
    # references generated by tests/oracles/gen_stat_reference.py
    # (closed-form d and numeric integration of the t density, mpmath)
    from conftest import fixture_path

    with open(fixture_path("stat_reference.json")) as fh:
        refs = json.load(fh)
    assert len(refs) == 20
    for ref in refs:
        assert cohens_d(ref["a"], ref["b"]) == pytest.approx(ref["cohens_d"], abs=1e-9)
        assert welch_p(ref["a"], ref["b"]) == pytest.approx(ref["welch_p"], abs=1e-6)


# --- mean_ci95 ---------------------------------------------------------

def test_ci_zero_spread():
    c = 3.25
    assert mean_ci95([c, c, c, c]) == (c, c)


def test_ci_hand_value():
    lo, hi = mean_ci95([0, 0, 4, 4])
    # s = sqrt(16/3), half-width 1.96*s/2
    assert lo == pytest.approx(-0.263, abs=1e-3)
    assert hi == pytest.approx(4.263, abs=1e-3)


def test_ci_requires_two_values():
    with pytest.raises(StatsError):
        mean_ci95([1.0])


# --- renormalize -------------------------------------------------------

def test_renormalize_direct():
    assert renormalize(1.0, (0.0, 1.0), (10.0, 2.0)) == 12.0


def test_renormalize_zero_source_sd():
    with pytest.raises(StatsError):
        renormalize(1.0, (0.0, 0.0), (0.0, 1.0))


@given(
    u=st.floats(-5, 5),
    ma=st.floats(-10, 10),
    sd_a=st.floats(1e-3, 1e3),
    mb=st.floats(-10, 10),
    sd_b=st.floats(1e-3, 1e3),
)
@settings(max_examples=300, deadline=None)
def test_renormalize_round_trip(u, ma, sd_a, mb, sd_b):
    # Means scale with their population's sd: the round trip is exact
    # algebra, but float error grows as eps * |mean_b| * sd_a / sd_b, so
    # an absolute bound is only meaningful for sd-scaled means.
    mean_a, mean_b = ma * sd_a, mb * sd_b
    x = mean_a + u * sd_a
    there = renormalize(x, (mean_a, sd_a), (mean_b, sd_b))
    back = renormalize(there, (mean_b, sd_b), (mean_a, sd_a))
    assert abs(back - x) <= 1e-9


_SIGNED = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda x: -x))


@given(x=_SIGNED, src=st.tuples(_SIGNED, _MAGNITUDE), dst=st.tuples(_SIGNED, st.just(0.0) | _MAGNITUDE),
       k=st.integers(-1000, 1000), j=st.integers(-1000, 1000))
@settings(max_examples=500, deadline=None)
@example(x=1.0, src=(0.0, 2.0 ** -20), dst=(0.0, 2.0 ** 7), k=-1000, j=1000)  # overflows without the scaling
@example(x=2.0 ** 7, src=(-(2.0 ** 7), 1.0), dst=(1.0, 2.0 ** -20), k=1000, j=-1000)
def test_renormalize_does_not_depend_on_scale(x, src, dst, k, j):
    # scaling the source by 2**k and the destination by 2**j scales the
    # result by exactly 2**j; at unit scale it is the plain formula's bits
    (src_mean, src_sd), (dst_mean, dst_sd) = src, dst
    mapped = renormalize(x, src, dst)
    assert mapped == dst_mean + dst_sd * (x - src_mean) / src_sd
    assume(mapped == 0.0 or -1021 <= math.frexp(mapped)[1] + j <= 1024)  # the scaled result is normal
    scaled = renormalize(math.ldexp(x, k), (math.ldexp(src_mean, k), math.ldexp(src_sd, k)),
                         (math.ldexp(dst_mean, j), math.ldexp(dst_sd, j)))
    assert scaled == math.ldexp(mapped, j)


def test_renormalize_beyond_the_float_range_is_an_error():
    with pytest.raises(StatsError, match="beyond the float range"):
        renormalize(10.0, (0.0, 1e-300), (0.0, 1e300))


# --- compare_media -----------------------------------------------------

def table(**cols):
    return {k: list(v) for k, v in cols.items()}


def test_identical_tables():
    t = table(x=[1, 2, 3, 4], y=[5, 6, 7, 8])
    rows = compare_media(t, {k: list(v) for k, v in t.items()})
    assert len(rows) == 2
    for row in rows:
        assert row.ratio == 1.0
        assert row.cohens_d == 0.0
        assert row.p_value == 1.0
        assert not row.large_effect and not row.significant


def test_ratio_definition_relative_to_baseline():
    a = table(prof=[0.7] * 9 + [0.7001])
    b = table(prof=[0.01] * 9 + [0.010001])
    rows = compare_media(a, b, baseline="b")
    assert rows[0].ratio == pytest.approx(70.0, rel=1e-3)
    flipped = compare_media(a, b, baseline="a")
    assert flipped[0].ratio == pytest.approx(1 / 70.0, rel=1e-3)


def test_zero_baseline_mean_marks_ratio_undefined():
    a = table(x=[1.0, 2.0, 3.0])
    b = table(x=[-1.0, 0.0, 1.0])
    row = compare_media(a, b, baseline="b")[0]
    assert row.ratio is None
    assert math.isfinite(row.cohens_d)
    assert 0 < row.p_value <= 1


def test_rows_sorted_by_abs_effect():
    a = table(small=[1.0, 1.1, 0.9, 1.05], big=[10.0, 10.1, 9.9, 10.05])
    b = table(small=[1.1, 1.2, 1.0, 1.15], big=[4.0, 4.1, 3.9, 4.05])
    rows = compare_media(a, b)
    assert [r.name for r in rows] == ["big", "small"]


def test_flags_consistent_with_thresholds():
    a = table(x=[0.0, 0.1, -0.1, 0.05, -0.05] * 20)
    b = table(x=[2.0, 2.1, 1.9, 2.05, 1.95] * 20)
    row = compare_media(a, b)[0]
    assert row.large_effect == (abs(row.cohens_d) > 0.8)
    assert row.significant == (row.p_value < 0.001)
    assert row.large_effect and row.significant


def test_disjoint_tables_error():
    with pytest.raises(StatsError):
        compare_media(table(x=[1, 2]), table(y=[1, 2]))
