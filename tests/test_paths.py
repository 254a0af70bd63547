import bisect
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from implement_guidance.errors import PathConstructionError, RangeError
from implement_guidance import paths
from implement_guidance.paths import (
    PathSegment,
    ReferencePath,
    _project_segment,
    build_experiment_path,
    build_path,
    wrap_angle,
)

from support import full_scan_project, full_scan_segment_index, scan


def line_arc_path():
    return build_path([
        {"kind": "line", "length_m": 10.0},
        {"kind": "arc", "length_m": 10.0 * math.pi / 2, "curvature_per_m": 0.1},
    ])


# ---------------------------------------------------------------- wrap_angle

@given(st.floats(-50.0, 50.0), st.integers(-5, 5))
def test_wrap_angle_period_and_range(a, k):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi + 1e-15
    assert abs(wrap_angle(a + 2 * math.pi * k) - w) < 1e-9


# ------------------------------------------------------------------ point_at

def test_point_at_line():
    path = build_path([{"kind": "line", "length_m": 10.0}])
    (x, y), h, c = path.point_at(3.0)
    assert (x, y, h, c) == (3.0, 0.0, 0.0, 0.0)


def test_point_at_quarter_circle():
    # radius-10 left arc from (10, 0) heading pi/2 sweeps a quarter circle
    # around (0, 0): the point at s = 10*pi/2 is (0, 10) with heading pi
    seg = PathSegment(kind="arc", start=(10.0, 0.0), start_heading=math.pi / 2,
                      length=10.0 * math.pi / 2, curvature=0.1)
    x, y, h = seg.point_at(seg.length)
    assert math.hypot(x - 0.0, y - 10.0) < 1e-9
    assert abs(wrap_angle(h - math.pi)) < 1e-9


def test_point_at_matches_ode_integration():
    """Midpoint-rule integration of the tangent ODE at 1e-5 m steps."""
    path = line_arc_path()
    ds = 1e-5
    x, y, h = 0.0, 0.0, 0.0
    s0 = 0.0
    for seg in path.segments:
        n = int(round(seg.length / ds))
        u = (np.arange(n) + 0.5) * (seg.length / n)
        hs = h + seg.curvature * u
        x_end = x + np.sum(np.cos(hs)) * (seg.length / n)
        y_end = y + np.sum(np.sin(hs)) * (seg.length / n)
        # compare a mid-segment point as well as the end
        mid = seg.length / 2
        k = n // 2
        xm = x + np.sum(np.cos(hs[:k])) * (seg.length / n)
        ym = y + np.sum(np.sin(hs[:k])) * (seg.length / n)
        (px, py), ph, _ = path.point_at(s0 + k * (seg.length / n))
        assert math.hypot(px - xm, py - ym) < 1e-9
        x, y, h = x_end, y_end, h + seg.curvature * seg.length
        s0 += seg.length
        (px, py), ph, _ = path.point_at(min(s0, path.total_length))
        assert math.hypot(px - x, py - y) < 1e-9
        assert abs(wrap_angle(ph - h)) < 1e-9


@settings(max_examples=300, deadline=None)
@given(st.floats(-math.pi, math.pi), st.sampled_from([0.5, -0.5, 0.25, -2.0]),
       st.floats(0.0, 30.0))
@example(-math.pi, 0.5, 0.0)   # h0 + c*u = -pi: wraps to +pi
@example(math.pi, 0.5, 0.0)    # = pi: kept
@example(3.0, 0.5, 1.0)        # above pi
@example(-3.0, -0.5, 1.0)      # below -pi
def test_arc_point_heading_is_wrap_angle_bit_for_bit(h0, c, u):
    seg = PathSegment(kind="arc", start=(1.0, -2.0), start_heading=h0, length=30.0, curvature=c)
    assert seg.point_at(u)[2].hex() == wrap_angle(h0 + c * u).hex()


def test_point_at_out_of_range():
    path = line_arc_path()
    with pytest.raises(RangeError):
        path.point_at(-0.1)
    with pytest.raises(RangeError):
        path.point_at(path.total_length + 0.1)


# ----------------------------------------------------------------- curvature

def test_curvature_values_and_junction_tiebreak():
    path = build_path([
        {"kind": "line", "length_m": 5.0},
        {"kind": "arc", "length_m": 2.0, "curvature_per_m": 0.2},
    ])
    assert path.point_at(2.5)[2] == 0.0
    assert path.point_at(6.0)[2] == 0.2         # radius-5 left turn
    assert path.point_at(5.0)[2] == 0.2         # junction -> later segment
    assert path.labels[path.segment_index(5.0)] == "C1"
    assert path.curvature_ahead(4.5, 1.0) == 0.2
    assert path.curvature_ahead(6.5, 100.0) == 0.2  # clamped to path end


def test_curvature_ahead_is_curvature_at_of_the_clamped_abscissa():
    # every segment has its own curvature, so equal curvatures mean the same
    # segment; NaN passes the clamp and `point_at`'s range check alike
    path = build_path([
        {"kind": "line", "length_m": 5.0},
        {"kind": "arc", "length_m": 2.0, "curvature_per_m": 0.2},
        {"kind": "arc", "length_m": 3.0, "curvature_per_m": -0.125},
        {"kind": "arc", "length_m": 1.5, "curvature_per_m": 1.0 / 12.0},
    ])
    total = path.total_length
    rng = random.Random(4)
    specials = (0.0, -0.0, 1e-12, -1e-12, 1e300, -1e300, math.inf, -math.inf, math.nan)
    abscissae = [*(rng.uniform(-3.0, total + 3.0) for _ in range(200)), 0.0, -0.0, total,
                 *path.cumulative_lengths, *specials]
    offsets = [*(rng.uniform(-5.0, 5.0) for _ in range(20)), 3.5, *specials]
    offsets += [c - 5.0 for c in path.cumulative_lengths]
    for s in abscissae:
        for ds in offsets:
            assert (path.curvature_ahead(s, ds)
                    == path.point_at(min(max(s + ds, 0.0), total))[2]), (s, ds)
    assert path.curvature_ahead(math.nan, 0.0) == 1.0 / 12.0


# ------------------------------------------------------------------- project

def test_project_line_offset():
    path = build_path([{"kind": "line", "length_m": 10.0}])
    p = path.project((3.0, 0.4), 0.0, 3.0)
    assert abs(p.frenet.s - 3.0) < 1e-12
    assert abs(p.frenet.y - 0.4) < 1e-12
    assert p.frenet.theta_tilde == 0.0
    assert not p.clamped and not p.ambiguous


def test_project_identity_on_path():
    path = line_arc_path()
    for s in [1.0, 12.0, 20.0]:
        (x, y), h, _ = path.point_at(s)
        p = path.project((x, y), h, s)
        assert abs(p.frenet.s - s) < 1e-9
        assert abs(p.frenet.y) < 1e-9
        assert abs(p.frenet.theta_tilde) < 1e-12


def test_project_clamps_beyond_ends():
    path = build_path([{"kind": "line", "length_m": 10.0}])
    p = path.project((-1.0, 0.3), 0.0, 0.0)
    assert p.clamped and p.frenet.s == 0.0
    p = path.project((11.0, -0.3), 0.0, 10.0)
    assert p.clamped and p.frenet.s == 10.0


def _oracle_project(path, px, py):
    """Dense sampling at 1e-4 m plus golden-section refinement."""
    best_d, best_s = math.inf, 0.0
    s0 = 0.0
    for seg in path.segments:
        n = max(2, int(seg.length / 1e-4))
        u = np.linspace(0.0, seg.length, n + 1)
        if seg.curvature == 0.0:
            xs = seg.start[0] + u * math.cos(seg.start_heading)
            ys = seg.start[1] + u * math.sin(seg.start_heading)
        else:
            cx, cy = seg._center
            a = seg.start_heading + seg.curvature * u
            xs = cx + np.sin(a) / seg.curvature
            ys = cy - np.cos(a) / seg.curvature
        d2 = (xs - px) ** 2 + (ys - py) ** 2
        i = int(np.argmin(d2))
        d = math.sqrt(d2[i])
        if d < best_d - 1e-15:
            best_d, best_s = d, s0 + u[i]
        s0 += seg.length

    def dist(s):
        (x, y), _, _ = path.point_at(s)
        return math.hypot(x - px, y - py)

    lo = max(0.0, best_s - 2e-4)
    hi = min(path.total_length, best_s + 2e-4)
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    fc, fd = dist(c), dist(d_)
    for _ in range(60):
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = dist(d_)
    return (a + b) / 2


@pytest.mark.parametrize("preset", ["exp1", "exp2"])
def test_project_matches_dense_oracle(preset):
    path = build_experiment_path(preset)
    rng = np.random.default_rng(7)
    band = min(1.0, 0.8 * path.min_arc_radius())
    for _ in range(100):
        s = rng.uniform(0.5, path.total_length - 0.5)
        d = rng.uniform(-band, band)
        (x, y), h, _ = path.point_at(s)
        px, py = x - d * math.sin(h), y + d * math.cos(h)
        p = path.project((px, py), h, s)
        s_star = _oracle_project(path, px, py)
        assert abs(p.frenet.s - s_star) < 1e-6
        (qx, qy), th, _ = path.point_at(s_star)
        y_star = -(px - qx) * math.sin(th) + (py - qy) * math.cos(th)
        assert abs(p.frenet.y - y_star) < 1e-9


def test_project_round_trip_property():
    path = build_experiment_path("exp1")
    rng = np.random.default_rng(3)
    band = min(1.0, 0.9 * path.min_arc_radius())
    for _ in range(200):
        s = rng.uniform(0.1, path.total_length - 0.1)
        d = rng.uniform(-band, band)
        (x, y), h, _ = path.point_at(s)
        p = path.project((x - d * math.sin(h), y + d * math.cos(h)), h, s)
        assert abs(p.frenet.s - s) < 1e-9
        assert abs(p.frenet.y - d) < 1e-9
        assert abs(p.frenet.theta_tilde) < 1e-12


def test_project_ambiguity_flag():
    # point equidistant from two parallel path branches of a U-shape
    path = build_path([
        {"kind": "line", "length_m": 10.0},
        {"kind": "arc", "length_m": math.pi / 0.5, "curvature_per_m": 0.5},
        {"kind": "line", "length_m": 10.0},
    ])
    # center of the U: equidistant from both straights; smallest s wins. A
    # hint on the turn puts both in the window
    p = path.project((5.0, 2.0), 0.0, 10.0 + math.pi)
    assert p.ambiguous
    assert p.frenet.s < 10.0


# ---------------------------------------------------------------- build_path

def test_segment_invariants():
    with pytest.raises(PathConstructionError):
        PathSegment(kind="spline", start=(0, 0), start_heading=0, length=1, curvature=0)
    with pytest.raises(PathConstructionError):
        PathSegment(kind="line", start=(0, 0), start_heading=0, length=0, curvature=0)
    with pytest.raises(PathConstructionError):
        PathSegment(kind="line", start=(0, 0), start_heading=0, length=1, curvature=0.1)
    with pytest.raises(PathConstructionError):
        PathSegment(kind="arc", start=(0, 0), start_heading=0, length=1, curvature=0.0)


@pytest.mark.parametrize("index", [0, 1])
def test_build_path_blames_the_segment_whose_radius_overflows(index):
    # 1/c overflows: the arc's center and end pose are not finite, though c is
    descriptors = [{"kind": "line", "length_m": 20.0}] * 2
    descriptors.insert(index, {"kind": "arc", "length_m": 5.0, "curvature_per_m": 1e-320})
    with pytest.raises(PathConstructionError, match="must be finite") as info:
        build_path(descriptors)
    assert info.value.segment == index


def test_build_path_g1_error_names_junction():
    with pytest.raises(PathConstructionError, match="junction 1"):
        ReferencePath(segments=(
            PathSegment(kind="line", start=(0.0, 0.0), start_heading=0.0, length=5.0,
                        curvature=0.0),
            PathSegment(kind="line", start=(6.0, 0.0), start_heading=0.0, length=5.0,
                        curvature=0.0),
        ))


def test_empty_path_rejected():
    with pytest.raises(PathConstructionError):
        ReferencePath(segments=())


def test_single_line_total_length():
    assert build_path([{"kind": "line", "length_m": 10.0}]).total_length == 10.0


def test_exp1_preset_shape():
    path = build_experiment_path("exp1")
    assert len(path.segments) == 3
    signs = [np.sign(seg.curvature) for seg in path.segments]
    assert signs == [0, 1, -1]
    assert path.labels == ("L1", "C1", "C2")


def test_exp2_preset_shape():
    path = build_experiment_path("exp2")
    assert len(path.segments) == 6
    kinds = [seg.kind for seg in path.segments]
    # one arc->arc junction (curve-to-curve transition)
    pairs = list(zip(kinds, kinds[1:]))
    assert ("arc", "arc") in pairs
    assert kinds.count("line") == 3 and kinds.count("arc") == 3


def test_unknown_preset():
    with pytest.raises(PathConstructionError):
        build_experiment_path("exp3")


def test_cumulative_lengths_strictly_increasing():
    path = build_experiment_path("exp2")
    cl = path.cumulative_lengths
    assert all(b > a for a, b in zip(cl, cl[1:]))
    assert abs(path.total_length - sum(s.length for s in path.segments)) < 1e-12
    assert path.junctions() == cl[:-1]


@pytest.mark.parametrize("field, value", [
    ("length", math.inf), ("length", math.nan), ("curvature", math.nan),
    ("curvature", math.inf), ("start_heading", math.nan), ("start", (math.inf, 0.0)),
    ("start", (0.0, math.nan)),
])
def test_segment_rejects_non_finite_geometry(field, value):
    kwargs = dict(kind="arc", start=(0.0, 0.0), start_heading=0.0, length=1.0,
                  curvature=0.1)
    kwargs[field] = value
    with pytest.raises(PathConstructionError, match="finite"):
        PathSegment(**kwargs)


# ------------------------------------------------ projection vs full scan

def serpentine(rows, row, radius, start=(0.0, 0.0), start_heading=0.0, entry=()):
    """Rows joined by alternating 180-degree headland arcs: rows 2*radius apart,
    after the `entry` segment descriptors."""
    descriptors = list(entry)
    for i in range(rows):
        descriptors.append({"kind": "line", "length_m": row})
        if i < rows - 1:
            descriptors.append({"kind": "arc", "length_m": math.pi * radius,
                                "curvature_per_m": (1.0 if i % 2 == 0 else -1.0) / radius})
    return build_path(descriptors, start=start, start_heading=start_heading)


# axis-aligned (exact ties between rows) and rotated with uneven dimensions
SERPENTINES = (serpentine(8, 20.0, 3.0),
               serpentine(7, 17.3, 2.93, start=(4.1, -2.6), start_heading=0.7))


def _offset_point(path, s, d):
    """Point d to the left of the path at s; beyond an end, along the end tangent."""
    s_on = min(max(s, 0.0), path.total_length)
    (x, y), h, _ = path.point_at(s_on)
    x += (s - s_on) * math.cos(h)
    y += (s - s_on) * math.sin(h)
    return x - d * math.sin(h), y + d * math.cos(h), h


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SERPENTINES), st.floats(-0.05, 1.05), st.floats(-4.0, 4.0),
       st.floats(-math.pi, math.pi))
def test_project_equals_full_scan_near_the_path(path, frac, d, heading):
    # frac beyond [0, 1] puts the point past either end (clamped); the hint
    # is the abscissa the point was offset from
    s = frac * path.total_length
    px, py, _ = _offset_point(path, s, d)
    assert (path.project((px, py), heading, s)
            == _window_scan_project(path, (px, py), heading, s))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SERPENTINES), st.integers(0, 5), st.floats(0.0, 1.0))
def test_project_equals_full_scan_between_rows(path, k, frac):
    # midway between row k and the row to its left (k + 1 for even k, k - 1
    # for odd): equidistant from both (ambiguous); a hint on the headland
    # turn between them puts both in the window
    row = path.segments[2 * k]
    u = frac * row.length
    px, py, h = row.point_at(u)
    turn = 2 * k + 1 if k % 2 == 0 else 2 * k - 1
    spacing = 2.0 / abs(path.segments[turn].curvature)
    px, py = px - spacing / 2 * math.sin(h), py + spacing / 2 * math.cos(h)
    hint = path.cumulative_lengths[turn] - path.segments[turn].length / 2
    p = path.project((px, py), h, hint)
    assert p == _window_scan_project(path, (px, py), h, hint)
    assert p.ambiguous


def test_project_equals_full_scan_at_junctions_and_ends():
    for path in SERPENTINES:
        # (point, hint): the hint is the abscissa the point was offset from
        points = [(_offset_point(path, s + ds, d), s + ds)
                  for s in (0.0, *path.cumulative_lengths)
                  for ds in (-1e-7, 0.0, 1e-7, -2.0, 2.0)
                  for d in (-4.0, -1e-9, 0.0, 1e-9, 2.0, 4.0)]
        # headland arc centers are equidistant from a whole arc
        points += [((*seg._center, 0.0), path.cumulative_lengths[i] - seg.length / 2)
                   for i, seg in enumerate(path.segments) if i % 2]
        projections = [path.project((px, py), h, hint) for (px, py, h), hint in points]
        for ((px, py, h), hint), p in zip(points, projections):
            assert p == _window_scan_project(path, (px, py), h, hint)
        assert any(p.clamped for p in projections)
        assert any(p.ambiguous for p in projections)


def test_project_tail_reuses_the_winning_point_only_when_exact(monkeypatch):
    # a call whose foot stays on its hint's segment k projects k once and
    # evaluates one point, at u = s - s0: that point is the result. Every
    # other call takes the tail, which evaluates its result point once, on
    # the segment its own bisect names, after k's point in place and one
    # point per candidate, k's included
    calls = []
    point_at, candidate = PathSegment.point_at, ReferencePath._candidate
    project_segment = paths._project_segment
    window = ReferencePath._window
    monkeypatch.setattr(PathSegment, "point_at",
                        lambda seg, u: calls.append(("point", seg, u)) or point_at(seg, u))
    monkeypatch.setattr(ReferencePath, "_candidate",
                        lambda path, *a: calls.append(("candidate",)) or candidate(path, *a))
    monkeypatch.setattr(paths, "_project_segment",
                        lambda seg, *a: calls.append(("segment", seg)) or project_segment(seg, *a))
    monkeypatch.setattr(ReferencePath, "_window",
                        lambda path, *a: calls.append(("window",)) or window(path, *a))
    stayed = 0
    for path in PROJECTION_PATHS:
        cum = path.cumulative_lengths
        for s in (0.0, *cum):
            for ds in (-2.0, -1e-9, 0.0, 1e-9, 2.0):
                for d in (-2.0, 0.0, 1e-9, 1.5):
                    px, py, h = _offset_point(path, s + ds, d)
                    expected = full_scan_project(path, (px, py), h)
                    for hint in (s, s - 1e-6, s + 1e-6):
                        calls.clear()
                        p = path.project((px, py), h, hint)
                        assert p == expected
                        points = [call for call in calls if call[0] == "point"]
                        candidates = calls.count(("candidate",))
                        k = min(bisect.bisect_right(cum, hint), len(cum) - 1)
                        seg = path.segments[k]
                        s0 = cum[k - 1] if k > 0 else 0.0
                        if not candidates and s0 <= p.frenet.s < cum[k]:
                            stayed += 1
                            assert calls == [("segment", seg), ("point", seg, p.frenet.s - s0)]
                            continue
                        # k is projected in place and again as its candidate
                        assert calls.count(("segment", seg)) == 2
                        assert ("window",) in calls
                        assert len(points) == candidates + 2
    assert stayed > 100


@pytest.mark.parametrize("path", [build_experiment_path("exp1"),
                                  build_path([{"kind": "line", "length_m": 10.0}])],
                         ids=["exp1", "one_line"])
def test_project_of_a_nan_position_gives_nan_on_the_last_segment(path):
    # every distance is NaN, so no candidate is within 1e-9 m of the least,
    # and `_nearest` falls back to its first candidate
    p = path.project((math.nan, 0.0), 0.0, 0.0)
    assert math.isnan(p.frenet.s) and math.isnan(p.frenet.y)
    assert (p.segment, p.clamped, p.ambiguous) == (len(path.segments) - 1, False, False)


def test_nearest_takes_the_smallest_s_within_1e_9_of_the_least_distance():
    # candidates are (distance, s, ...); the tag names each one
    def cand(d, s, tag):
        return (d, s, False, tag, 0.0, None)
    one = cand(math.inf, 5.0, "a")
    assert paths._nearest([one]) == (one, False)
    # no distance compares (a NaN position): the first candidate
    nans = [cand(math.nan, 2.0, "a"), cand(math.nan, 1.0, "b")]
    assert paths._nearest(nans) == (nans[0], False)
    # within 1e-9 m of the least distance, the smallest s wins; not ambiguous
    # while the others lie within 1e-6 m of it in s
    near = [cand(1.0 + 5e-10, 3.0 + 5e-7, "a"), cand(1.0, 3.0 + 1e-7, "b"),
            cand(1.0 + 1e-9 / 2, 3.0, "c"), cand(1.0 + 2e-9, 0.0, "far")]
    assert paths._nearest(near) == (near[2], False)
    # another near candidate more than 1e-6 m away in s: ambiguous
    wide = near + [cand(1.0, 3.0 + 2e-6, "d")]
    assert paths._nearest(wide) == (near[2], True)
    # at equal s the first in list order wins
    tie = [cand(2.0, 7.0, "x"), cand(2.0, 7.0, "y"), cand(2.0, 9.0, "z")]
    assert paths._nearest(tie) == (tie[0], True)
    assert paths._nearest(tie[:2]) == (tie[0], False)


def test_project_tail_keeps_the_sign_of_a_zero_abscissa():
    # the winner's u is -0.0 here and s - s0 is 0.0: equal, but point_at of
    # the two differs in the sign of y, so the result's point is evaluated at
    # s - s0. A hint on the first line takes the fast path; one on the
    # second evaluates the first as a neighbour and takes the tail
    path = build_path([{"kind": "line", "length_m": 5.0}] * 2, start=(0.0, -0.0),
                      start_heading=-0.0)
    for hint in (0.0, 5.0):
        p = path.project((-0.0, -0.0), 0.0, hint)
        expected = full_scan_project(path, (-0.0, -0.0), 0.0)
        assert [v.hex() for v in p.frenet] == [v.hex() for v in expected.frenet]
        assert p.frenet.y.hex() == "0x0.0p+0"


def test_projection_segment_where_two_cumulative_lengths_are_equal():
    # 1 m after 1e17 m leaves the cumulative length unchanged: a foot at
    # s = 1e17 won on segment 0 belongs to segment 1, as segment_index says
    path = build_path([{"kind": "line", "length_m": 1e17}, {"kind": "line", "length_m": 1.0}])
    assert path.cumulative_lengths[0] == path.cumulative_lengths[1]
    for x in (1e17 - 64.0, 1e17, 1e17 + 0.5, 1e17 + 64.0):
        for hint in (0.0, 1e17):
            p = path.project((x, 1.0), 0.0, hint)
            assert p == full_scan_project(path, (x, 1.0), 0.0)
            assert p.segment == path.segment_index(p.frenet.s)


@given(st.sampled_from(SERPENTINES), st.floats(0.0, 1.0))
def test_segment_index_equals_linear_scan(path, frac):
    for s in (frac * path.total_length, *path.cumulative_lengths, 0.0):
        assert path.segment_index(s) == full_scan_segment_index(path, s)


# ------------------------------------------ hinted projection vs window scan

# rows at 0.7 rad to the entry arc
TILTED = serpentine(6, 18.0, 3.1, start=(-2.0, 1.5), start_heading=-0.4,
                    entry=[{"kind": "arc", "length_m": 3.5, "curvature_per_m": 0.2}])

PROJECTION_PATHS = SERPENTINES + (TILTED, build_experiment_path("exp1"),
                                  build_experiment_path("exp2"))

# 0.02 m segments between two lines: a hinted window grows across many of them
SUB_STEP = build_path([{"kind": "line", "length_m": 1.0},
                       *[{"kind": kind, "length_m": 0.02, "curvature_per_m": c}
                         for _ in range(40) for kind, c in (("line", 0.0), ("arc", 0.5))],
                       {"kind": "line", "length_m": 1.0}])


def _window_scan_project(path, position, heading, s_hint):
    """Reference for a hinted call: the full scan over the hint's segment k
    and its neighbours, every one evaluated, grown by one segment past an end
    while the winner sits on that end's outer junction."""
    px, py = position
    last = len(path.segments) - 1
    k = full_scan_segment_index(path, s_hint)
    lo, hi = max(k - 1, 0), min(k + 1, last)
    while True:
        (_, _, _, i, u), _ = scan(path, px, py, range(lo, hi + 1))
        if i == lo and u == 0.0 and lo > 0:
            lo -= 1
        elif i == hi and u == path.segments[hi].length and hi < last:
            hi += 1
        else:
            return full_scan_project(path, position, heading, range(lo, hi + 1))


# (kind, value): an offset from the true s, a fraction of the path length
# (beyond either end outside [0, 1]), or the hint itself
HINTS = st.one_of(st.tuples(st.just("near"), st.floats(-3.0, 3.0)),
                  st.tuples(st.just("at"), st.floats(-0.2, 1.2)),
                  st.tuples(st.just("is"), st.sampled_from(
                      [math.nan, math.inf, -math.inf, -1e300, 1e300])))


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(PROJECTION_PATHS + (SUB_STEP,)), st.floats(-0.05, 1.05),
       st.floats(-4.0, 4.0), st.floats(-math.pi, math.pi), HINTS)
def test_hinted_project_equals_window_scan(path, frac, d, heading, hint):
    s = frac * path.total_length
    px, py, _ = _offset_point(path, s, d)
    kind, value = hint
    s_hint = {"near": s + value, "at": value * path.total_length, "is": value}[kind]
    assert (path.project((px, py), heading, s_hint)
            == _window_scan_project(path, (px, py), heading, s_hint))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SERPENTINES), st.floats(0.0, 1.0), st.floats(-0.99, 0.99),
       st.floats(-math.pi, math.pi), st.floats(-3.0, 3.0))
def test_hinted_project_equals_full_scan(path, frac, r, heading, offset):
    # rows 2*R apart (R the headland radius) and a point |d| < R from the
    # path: no other row is as near, and a hint within 3 m of s (every
    # segment is longer) names the segment of the point's foot or one beside
    # it. (TILTED is left out: its entry arc lies 5.6 m from its second
    # headland turn, less than 2*R.)
    s = frac * path.total_length
    px, py, _ = _offset_point(path, s, r * path.min_arc_radius())
    assert (path.project((px, py), heading, s + offset)
            == full_scan_project(path, (px, py), heading))


def test_hinted_project_keeps_s_on_its_row():
    # 3.5 m off row 1 of rows 6 m apart: row 2 is nearer, but a hint on row 1
    # keeps the foot there, where the global minimizer is on row 2
    path = SERPENTINES[0]
    px, py, h = _offset_point(path, 10.0, 3.5)
    assert path.project((px, py), h, 10.0) == full_scan_project(path, (px, py), h, [0, 1])
    assert path.project((px, py), h, 10.0).frenet.s == pytest.approx(10.0, abs=1e-12)
    assert full_scan_project(path, (px, py), h).frenet.s > path.cumulative_lengths[1]


def _hex(p):
    return [v.hex() for v in p.frenet] + [p.segment, p.clamped, p.ambiguous]


# (start, start heading, length, curvature): the arcs' heading h0 + c*u
# leaves (-pi, pi] above pi, at -pi and below it, or (sweep > 2*pi) on a
# full turn; the zero starts and headings carry either sign
HINTED_SEGMENTS = (
    ((0.0, 0.0), 0.0, 10.0, 0.0), ((0.0, -0.0), -0.0, 5.0, 0.0),
    ((-0.0, 0.0), math.pi, 3.0, 0.0), ((3.1, -2.2), 0.7, 12.5, 0.0),
    ((1.0, 2.0), 3.0, 4.0, 0.5), ((1.0, 2.0), -3.0, 4.0, -0.5),
    ((0.0, 0.0), math.pi, 3.0, 0.2), ((0.0, -0.0), -math.pi / 2, 2.0 * math.pi, -0.5),
    ((-2.0, 0.5), -2.9, 30.0, -0.25), ((0.0, 0.0), 0.3, 1.0, 1.0),
)


def test_hinted_foot_equals_full_scan_by_hex():
    # a hinted call projects its segment k once and evaluates k's point at
    # the final abscissa's u; bit for bit, that is the full scan's `point_at`
    # and sin/cos. Each segment is tried alone (where that u is the foot's)
    # and after lead-in lines of 7.3 m and 1e5 m (where s - s0 rounds it,
    # after 1e5 m by many ulps).
    hits = {"above_pi": 0, "at_or_below_minus_pi": 0, "clamp_start": 0, "clamp_end": 0,
            "u_zero": 0, "u_length": 0, "negative_zero_u": 0, "rounded_u": 0}
    zeros = (0.0, -0.0)
    for start, h0, length, c in HINTED_SEGMENTS:
        kind = "line" if c == 0.0 else "arc"
        descriptor = {"kind": kind, "length_m": length, "curvature_per_m": c}
        paths_ = [build_path([descriptor], start=start, start_heading=h0)]
        for lead in (7.3, 1e5):
            lead_start = (start[0] - lead * math.cos(h0), start[1] - lead * math.sin(h0))
            paths_.append(build_path([{"kind": "line", "length_m": lead}, descriptor],
                                     start=lead_start, start_heading=h0))
        for path in paths_:
            seg = path.segments[-1]
            s0 = path.cumulative_lengths[-2] if len(path.segments) > 1 else 0.0
            points = [(zx, zy) for zx in zeros for zy in zeros]
            points += [(seg.start[0] + zx, seg.start[1] + zy) for zx in zeros for zy in zeros]
            if seg._center is not None:
                points.append(seg._center)
            for u in (0.0, length, length / 3, -1e-9, -0.5, -2.0, length + 1e-9,
                      length + 0.5, length + 2.0):
                x, y, th = seg.point_at(u)
                for d in (0.0, -0.0, 0.3, -0.7, 2.0):
                    points.append((x - d * math.sin(th), y + d * math.cos(th)))
            for px, py in points:
                u, clamped = _project_segment(seg, px, py)
                a = seg.start_heading + c * u
                hits["above_pi"] += c != 0.0 and a > math.pi
                hits["at_or_below_minus_pi"] += c != 0.0 and a <= -math.pi
                hits["clamp_start"] += clamped and u == 0.0
                hits["clamp_end"] += clamped and u == length
                hits["u_zero"] += not clamped and u == 0.0
                hits["u_length"] += not clamped and u == length
                hits["negative_zero_u"] += u == 0.0 and math.copysign(1.0, u) < 0
                hits["rounded_u"] += abs((s0 + u) - s0 - u) > 100 * math.ulp(u)
                expected = _hex(full_scan_project(path, (px, py), 0.4))
                for hint in (-0.0, s0, s0 + length, math.nan):
                    assert _hex(path.project((px, py), 0.4, hint)) == expected
    assert all(hits.values()), hits
