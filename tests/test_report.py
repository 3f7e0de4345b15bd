import xml.etree.ElementTree as ET
from dataclasses import replace

from lexstable.report import (
    comparison_svg,
    curves_svg,
    fmt,
    write_comparison_csv,
    write_curves_csv,
    write_svg,
)
from lexstable.stability import StabilityCurve, VariabilityPoint
from lexstable.stats import MediaComparisonRow


def point(size, mean):
    return VariabilityPoint(size=size, n_observations=40, mean_variability=mean,
                            sd_variability=mean / 4, p95_empirical=mean * 1.8,
                            p95_parametric=mean * 1.4)


def curves():
    return [
        StabilityCurve("alpha", "random", "messages", [point(10, 20.0), point(40, 10.0)]),
        StabilityCurve("alpha", "contiguous", "messages", [point(10, 30.0), point(40, 18.0)]),
        StabilityCurve("beta", "random", "messages", [point(10, 12.0), point(40, 6.0)]),
    ]


def rows():
    return [
        MediaComparisonRow(
            name="posemo", mean_a=7.0, mean_b=0.1, ratio=70.0, cohens_d=2.5,
            p_value=1e-9, ci95_a=(6.5, 7.5), ci95_b=(0.05, 0.15),
            large_effect=True, significant=True,
        ),
        MediaComparisonRow(
            name="work", mean_a=1.0, mean_b=0.0, ratio=None, cohens_d=0.5,
            p_value=0.2, ci95_a=(0.8, 1.2), ci95_b=(-0.1, 0.1),
            large_effect=False, significant=False,
        ),
    ]


def test_fmt_is_compact_and_deterministic():
    assert fmt(12.0) == "12"
    assert fmt(0.30000000000000004) == "0.3"
    assert fmt(1 / 3) == "0.333333333333"


def test_curves_csv_sorted_and_complete(tmp_path):
    path = tmp_path / "c.csv"
    write_curves_csv(curves(), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 6
    body = [l.split(",") for l in lines[1:]]
    keys = [(r[0], r[1], r[2], int(r[3])) for r in body]
    assert keys == sorted(keys)
    assert body[0][:3] == ["alpha", "messages", "contiguous"]


def test_comparison_csv_undefined_ratio_empty(tmp_path):
    path = tmp_path / "cmp.csv"
    write_comparison_csv(rows(), path)
    lines = path.read_text().splitlines()
    assert lines[1].split(",")[3] == "70"
    assert lines[2].split(",")[3] == ""
    assert lines[1].split(",")[10:] == ["true", "true"]
    assert lines[2].split(",")[10:] == ["false", "false"]


def test_curves_svg_structure():
    svg = curves_svg(curves())
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 3
    assert "alpha (messages)" in svg and "beta (messages)" in svg
    assert "random" in svg and "contiguous" in svg
    assert svg == curves_svg(curves())  # deterministic


def test_comparison_svg_structure():
    svg = comparison_svg(rows(), baseline="b")
    assert svg.startswith("<svg")
    assert "posemo" in svg and "work" in svg
    assert "n/a" in svg  # undefined ratio is labelled, not drawn
    assert svg == comparison_svg(rows(), baseline="b")


def test_svg_labels_are_xml_escaped(tmp_path):
    # trait and category names come from model and dictionary files
    name = "R&D <x>"
    svgs = {
        f"{name} (messages)": curves_svg([replace(c, trait_name=name) for c in curves()]),
        name: comparison_svg([replace(r, name=name) for r in rows()]),
    }
    for i, (label, svg) in enumerate(svgs.items()):
        path = tmp_path / f"{i}.svg"
        write_svg(svg, path)
        assert label in {el.text for el in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")}
