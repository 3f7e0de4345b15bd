"""Deterministic CSV and SVG report emitters.

SVG is generated directly as text (fixed-precision coordinates, sorted
iteration order) so identical inputs always produce identical bytes; no
plotting library is involved.
"""

from __future__ import annotations

import csv
import math
from typing import Sequence

from .atomic import atomic_write
from .stability import StabilityCurve
from .stats import MediaComparisonRow

_MODE_COLORS = {"random": "#1f77b4", "contiguous": "#d62728"}
_SIDE_COLORS = {"a": "#1f77b4", "b": "#d62728"}

CURVE_HEADER = [
    "trait", "unit", "mode", "size", "n_observations",
    "mean_variability", "sd_variability", "p95_empirical", "p95_parametric",
]
COMPARISON_HEADER = [
    "name", "mean_a", "mean_b", "ratio", "cohens_d", "p_value",
    "ci_a_lo", "ci_a_hi", "ci_b_lo", "ci_b_hi", "large_effect", "significant",
]


def fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_curves_csv(curves: Sequence[StabilityCurve], path) -> None:
    rows = []
    for curve in curves:
        for p in curve.points:
            rows.append([
                curve.trait_name, curve.unit, curve.mode, p.size, p.n_observations,
                fmt(p.mean_variability), fmt(p.sd_variability),
                fmt(p.p95_empirical), fmt(p.p95_parametric),
            ])
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CURVE_HEADER)
        writer.writerows(rows)


def write_comparison_csv(rows: Sequence[MediaComparisonRow], path) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COMPARISON_HEADER)
        for r in rows:
            writer.writerow([
                r.name, fmt(r.mean_a), fmt(r.mean_b),
                "" if r.ratio is None else fmt(r.ratio),
                fmt(r.cohens_d), fmt(r.p_value),
                fmt(r.ci95_a[0]), fmt(r.ci95_a[1]),
                fmt(r.ci95_b[0]), fmt(r.ci95_b[1]),
                "true" if r.large_effect else "false",
                "true" if r.significant else "false",
            ])


def _c(x: float) -> str:
    return format(x, ".2f")


def _text(x, y, s, size=11, anchor="start", color="#333333") -> str:
    # xml.sax.saxutils.escape would import urllib.request: 2 MB more RSS
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{_c(x)}" y="{_c(y)}" font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}" '
            f'font-family="sans-serif">{s}</text>')


def _line(x1, y1, x2, y2, color="#999999", width=1.0) -> str:
    return (f'<line x1="{_c(x1)}" y1="{_c(y1)}" x2="{_c(x2)}" y2="{_c(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>')


def _log_x(size: int, lo: float, hi: float, x0: float, x1: float) -> float:
    if hi == lo:
        return (x0 + x1) / 2
    return x0 + (math.log10(size) - lo) / (hi - lo) * (x1 - x0)


def curves_svg(curves: Sequence[StabilityCurve]) -> str:
    """One stacked panel per (trait, unit), one line per mode, x on a
    log scale of subsample size, y mean variability in percentile
    points."""
    groups: dict[tuple[str, str], dict[str, StabilityCurve]] = {}
    for c in curves:
        groups.setdefault((c.trait_name, c.unit), {})[c.mode] = c

    width = 640.0
    panel_h = 190.0
    x0, x1 = 60.0, 610.0
    height = panel_h * max(len(groups), 1) + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for g, (key, by_mode) in enumerate(sorted(groups.items())):
        trait, unit = key
        top = 10 + g * panel_h
        y_axis_top, y_axis_bot = top + 24, top + panel_h - 36
        sizes = sorted({p.size for c in by_mode.values() for p in c.points})
        ymax = max((p.mean_variability for c in by_mode.values() for p in c.points), default=1.0)
        ymax = max(ymax, 1e-9)
        lo, hi = math.log10(sizes[0]), math.log10(sizes[-1])

        parts.append(_text(x0, top + 14, f"{trait} ({unit})", size=13, color="#111111"))
        parts.append(_line(x0, y_axis_bot, x1, y_axis_bot))
        parts.append(_line(x0, y_axis_top, x0, y_axis_bot))
        for s in sizes:
            x = _log_x(s, lo, hi, x0, x1)
            parts.append(_line(x, y_axis_bot, x, y_axis_bot + 4))
            parts.append(_text(x, y_axis_bot + 16, str(s), size=10, anchor="middle"))
        for i in range(5):
            v = ymax * i / 4
            y = y_axis_bot - (y_axis_bot - y_axis_top) * i / 4
            parts.append(_line(x0 - 4, y, x0, y))
            parts.append(_text(x0 - 6, y + 3, format(v, ".3g"), size=10, anchor="end"))
        legend_x = x1 - 110
        for m, mode in enumerate(sorted(by_mode)):
            curve = by_mode[mode]
            color = _MODE_COLORS.get(mode, "#444444")
            pts = " ".join(
                f"{_c(_log_x(p.size, lo, hi, x0, x1))},"
                f"{_c(y_axis_bot - (y_axis_bot - y_axis_top) * (p.mean_variability / ymax))}"
                for p in sorted(curve.points, key=lambda p: p.size)
            )
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            ly = top + 14 + m * 14
            parts.append(_line(legend_x, ly - 4, legend_x + 18, ly - 4, color=color, width=2.0))
            parts.append(_text(legend_x + 24, ly, mode, size=10))
        parts.append(_text((x0 + x1) / 2, y_axis_bot + 30, "subsample size", size=10, anchor="middle"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def comparison_svg(rows: Sequence[MediaComparisonRow], baseline: str = "b") -> str:
    """Two panels: mean ratios relative to the baseline side (bars,
    guide line at 1), and 95% CIs of both sides normalized so the
    baseline mean sits at 1 (interval pairs)."""
    width = max(640.0, 80.0 + 56.0 * len(rows))
    panel_h = 210.0
    x0 = 60.0
    height = panel_h * 2 + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    ratios = [r.ratio for r in rows if r.ratio is not None]
    rmax = max([abs(v) for v in ratios] + [1.0])
    top = 10.0
    y_top, y_bot = top + 24, top + panel_h - 44
    parts.append(_text(x0, top + 14, f"mean ratio vs baseline {baseline}", size=13, color="#111111"))
    parts.append(_line(x0, y_bot, width - 20, y_bot))

    def ry(v: float) -> float:
        return y_bot - (y_bot - y_top) * (v / rmax)

    parts.append(_line(x0, ry(1.0), width - 20, ry(1.0), color="#cccccc"))
    parts.append(_text(x0 - 6, ry(1.0) + 3, "1", size=10, anchor="end"))
    for i, r in enumerate(rows):
        x = x0 + 20 + i * 56.0
        if r.ratio is not None:
            h = ry(max(r.ratio, 0.0))
            parts.append(
                f'<rect x="{_c(x)}" y="{_c(min(h, y_bot))}" width="28.00" '
                f'height="{_c(abs(y_bot - h))}" fill="#1f77b4"/>')
            parts.append(_text(x + 14, min(h, y_bot) - 4, fmt(round(r.ratio, 3)), size=9, anchor="middle"))
        else:
            parts.append(_text(x + 14, y_bot - 6, "n/a", size=9, anchor="middle"))
        parts.append(_text(x + 14, y_bot + 14, r.name, size=9, anchor="middle"))

    top = 10.0 + panel_h
    y_top, y_bot = top + 24, top + panel_h - 44
    parts.append(_text(x0, top + 14, "95% CI of the mean (baseline mean = 1)", size=13, color="#111111"))
    norm: list[tuple[MediaComparisonRow, float]] = []
    for r in rows:
        base = r.mean_b if baseline == "b" else r.mean_a
        norm.append((r, base if base != 0.0 else 1.0))
    span = max(
        [abs(v / b) for r, b in norm for v in (*r.ci95_a, *r.ci95_b)] + [1.0]
    )

    def cy(v: float) -> float:
        return y_bot - (y_bot - y_top) * (v / span) if span else y_bot

    parts.append(_line(x0, cy(1.0), width - 20, cy(1.0), color="#cccccc"))
    parts.append(_text(x0 - 6, cy(1.0) + 3, "1", size=10, anchor="end"))
    parts.append(_line(x0, y_bot, width - 20, y_bot))
    for i, (r, base) in enumerate(norm):
        x = x0 + 20 + i * 56.0
        for dx, (lo_v, hi_v), side in ((8.0, r.ci95_a, "a"), (20.0, r.ci95_b, "b")):
            color = _SIDE_COLORS[side]
            parts.append(_line(x + dx, cy(lo_v / base), x + dx, cy(hi_v / base), color=color, width=2.0))
            parts.append(_line(x + dx - 3, cy(lo_v / base), x + dx + 3, cy(lo_v / base), color=color))
            parts.append(_line(x + dx - 3, cy(hi_v / base), x + dx + 3, cy(hi_v / base), color=color))
        parts.append(_text(x + 14, y_bot + 14, r.name, size=9, anchor="middle"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(svg: str, path) -> None:
    with atomic_write(path) as fh:
        fh.write(svg)
