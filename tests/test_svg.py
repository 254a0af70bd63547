import xml.dom.minidom
from xml.sax.saxutils import escape as saxutils_escape

import numpy as np
import pytest
from hypothesis import given, strategies as st

from implement_guidance.svgplot import (
    _nice_ticks,
    comparison_figure,
    escape,
    sweep_figure,
)


@given(st.text(st.one_of(st.sampled_from("&<>\"'"), st.characters(blacklist_categories=("Cs",)))))
def test_escape_equals_saxutils(text):
    # the figures' bytes stay those that saxutils.escape gives
    assert escape(text) == saxutils_escape(text)


def test_nice_ticks_basic():
    ticks = _nice_ticks(0.0, 10.0)
    assert ticks[0] >= 0.0 and ticks[-1] <= 10.0
    steps = np.diff(ticks)
    assert np.allclose(steps, steps[0])
    lead = float(f"{steps[0]:.0e}".split("e")[0])
    assert lead in (1.0, 2.0, 5.0)


def test_nice_ticks_degenerate_range():
    assert _nice_ticks(3.0, 3.0)  # expands instead of dividing by zero


def _parse(svg: str):
    return xml.dom.minidom.parseString(svg)


def _fake_summary():
    return {"median_abs_e_m": 0.05, "q25_m": 0.02, "q75_m": 0.08,
            "max_abs_e_m": 0.3, "per_segment_median_m": {}, "junction_overshoot_m": {},
            "fault_count": 0, "n_samples": 100}


def test_error_figure_is_valid_xml_with_escaped_command():
    s = list(np.linspace(0.0, 30.0, 50))
    runs = {"optimal": {"s": s, "e": list(0.5 * np.exp(-0.1 * np.array(s))),
                        "summary": _fake_summary()}}
    svg = comparison_figure({"rear": runs}, (10.0, 20.0), "implement-guidance run --seed 1")
    doc = _parse(svg)
    assert doc.documentElement.tagName == "svg"
    # double hyphens are illegal inside XML comments and must be escaped
    svg2 = comparison_figure({"rear": runs}, (), "implement-guidance sweep --horizons 1,2")
    _parse(svg2)
    assert "--horizons" not in svg2
    assert "- -horizons" in svg2


def test_comparison_figure_has_all_method_labels():
    s = list(np.linspace(0.0, 40.0, 80))
    per_placement = {
        placement: {
            method: {"s": s, "e": list(0.4 * np.exp(-0.08 * np.array(s))),
                     "summary": _fake_summary()}
            for method in ("lateral_servoing", "backstepping", "optimal")
        }
        for placement in ("front", "rear")
    }
    svg = comparison_figure(per_placement, (20.0,), "implement-guidance compare")
    _parse(svg)
    for label in ("lateral_servoing", "backstepping", "optimal", "front", "rear"):
        assert label in svg


def test_sweep_figure():
    points = []
    for sh, med in [(0.5, 0.08), (1.0, 0.05), (2.0, 0.03), (3.5, 0.06)]:
        d = _fake_summary()
        d.update(s_h_m=sh, median_abs_e_m=med, q25_m=med / 2, q75_m=med * 1.5)
        points.append(d)
    svg = sweep_figure(points, "implement-guidance sweep --horizons 0.5,1,2,3.5")
    assert _parse(svg).documentElement.tagName == "svg"
    assert "prediction horizon" in svg
    # double hyphens are illegal inside XML comments and must be escaped
    assert "--horizons" not in svg
    assert "- -horizons" in svg
