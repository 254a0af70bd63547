import math
import xml.dom.minidom
from array import array
from bisect import bisect_right
from xml.sax.saxutils import escape as saxutils_escape

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from implement_guidance.svgplot import (
    ERROR_PANEL_WIDTH,
    _nice_ticks,
    comparison_figure,
    escape,
    m4,
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


# ----------------------------------------------------------------------- M4

def _columns(xs):
    """The pixel column of each x of a rising series: c holds
    x_max c / W <= x < x_max (c + 1) / W, x_max = max(xs[-1], 0), and the
    first column everything below 0."""
    x_max = max(xs[-1], 0.0)
    edges = [x_max * c / ERROR_PANEL_WIDTH for c in range(1, ERROR_PANEL_WIDTH)]
    return [bisect_right(edges, x) for x in xs]


def _kept_indices(xs, ys, kept_x, kept_y):
    """The indices of the kept points in a series of distinct points, matched
    in order; fails unless the kept points are a subsequence of the series."""
    indices = []
    i = 0
    for point in zip(kept_x, kept_y):
        while (xs[i], ys[i]) != point:
            i += 1  # IndexError: not a subsequence
        indices.append(i)
        i += 1
    return indices


def _check_m4(xs, ys):
    """m4 of a rising series of distinct points keeps, in each column, at most
    4 points, among them its first, last, lowest and highest, in order."""
    kept_x, kept_y = m4(xs, ys)
    kept = _kept_indices(xs, ys, kept_x, kept_y)
    columns = _columns(xs)
    for c in set(columns):
        members = [k for k in range(len(xs)) if columns[k] == c]
        ours = [k for k in kept if columns[k] == c]
        assert len(ours) <= 4
        assert members[0] in ours and members[-1] in ours
        assert min(ys[k] for k in ours) == min(ys[k] for k in members)
        assert max(ys[k] for k in ours) == max(ys[k] for k in members)
    # the error panel's ranges: (0, max s) and (min e, max e)
    assert (max(kept_x), min(kept_y), max(kept_y)) == (max(xs), min(ys), max(ys))


# a coarse grid puts many points in one column, and a far last point (x_max
# up to 1e6) squeezes the rest into the first few columns or a single one
_X = st.floats(-5.0, 60.0) | st.integers(-4, 40).map(lambda k: k / 4)
_SERIES = st.tuples(st.lists(_X, min_size=1, max_size=300),
                    st.none() | st.floats(60.0, 1e6)).map(
    lambda t: sorted(t[0]) + ([t[1]] if t[1] is not None else []))


@settings(max_examples=300, deadline=None)
@given(xs=_SERIES, data=st.data())
def test_m4_keeps_each_columns_first_last_lowest_and_highest_point(xs, data):
    # distinct y values make each kept point name its index
    ys = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=len(xs), max_size=len(xs),
                            unique=True))
    _check_m4(xs, ys)


@given(xs=_SERIES)
@example(xs=[3.0])  # one point
@example(xs=[2.0] * 50)  # a single column, the last
@example(xs=[0.0] * 50)  # x_max = 0: a single column
@example(xs=[-3.0, -2.0, -1.0])  # x_max clamped to 0: a single column, the first
@example(xs=[float(k) for k in range(50)] + [1e6])  # the first column and the last
def test_m4_of_a_constant_series_keeps_each_columns_first_and_last_point(xs):
    kept_x, kept_y = m4(xs, [0.5] * len(xs))
    assert set(kept_y) == {0.5}
    columns = _columns(xs)
    kept_columns = _columns(kept_x)
    for c in set(columns):
        members = [x for x, col in zip(xs, columns) if col == c]
        assert [x for x, col in zip(kept_x, kept_columns) if col == c] == (
            members[:1] + members[-1:] if len(members) > 1 else members)


def test_m4_of_a_series_whose_x_falls_keeps_it_whole():
    xs, ys = [0.0, 2.0, 1.0, 3.0], [0.1, -0.2, 0.3, 0.0]
    assert m4(xs, ys) == (array("d", xs), array("d", ys))
    nan_x = [0.0, math.nan, 2.0]
    assert list(m4(nan_x, ys[:3])[1]) == ys[:3]
    assert m4([], []) == (array("d"), array("d"))


def test_m4_of_a_dense_run_keeps_at_most_four_points_per_pixel_column():
    # ~11 records per column, as in compare's runs
    n = 11 * ERROR_PANEL_WIDTH
    xs = [55.0 * k / (n - 1) for k in range(n)]
    ys = [math.sin(0.37 * k) * math.exp(-0.001 * k) for k in range(n)]
    _check_m4(xs, ys)
    assert len(m4(xs, ys)[0]) <= 4 * ERROR_PANEL_WIDTH
