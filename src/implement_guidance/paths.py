"""Reference path geometry: piecewise line/arc paths, curvature lookup, Frenet projection.

Paths are ordered sequences of G1-continuous segments. Lines have curvature 0;
arcs carry a signed curvature (positive = left turn). Curvature may jump at
junctions; a junction abscissa belongs to the later segment.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import PathConstructionError, RangeError

_G1_TOL = 1e-9
_TWO_PI = 2.0 * math.pi
# Slack on the pruning cut in `project`: far above the float error of a
# bound or a distance (~1e-13 m at field scale), so no segment that could
# enter the 1e-9 tie set is ever pruned.
_PRUNE_SLACK = 1e-6
# Padding on a segment's bounding box: covers the float error of `point_at`.
_BOX_PAD = 1e-9


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, _TWO_PI)
    if a > math.pi:
        a -= _TWO_PI
    elif a <= -math.pi:
        a += _TWO_PI
    return a


@dataclass(frozen=True)
class PathSegment:
    kind: str                      # "line" or "arc"
    start: tuple[float, float]     # world coordinates, m
    start_heading: float           # rad
    length: float                  # m, > 0
    curvature: float               # 1/m; 0 for lines, signed for arcs
    # Constants of the segment, computed once here and read by `point_at` and
    # `_project_segment`: cos and sin of the start heading, the arc's center
    # (None for a line), its period 2*pi/|c| (inf for a line) and the end pose.
    _cos: float = field(init=False, repr=False, compare=False)
    _sin: float = field(init=False, repr=False, compare=False)
    _center: tuple[float, float] | None = field(init=False, repr=False, compare=False)
    _period: float = field(init=False, repr=False, compare=False)
    _end: tuple[float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("line", "arc"):
            raise PathConstructionError(f"unknown segment kind {self.kind!r}")
        if not all(map(math.isfinite, (*self.start, self.start_heading, self.length,
                                       self.curvature))):
            raise PathConstructionError("segment start, heading, length and curvature "
                                        "must be finite")
        if not self.length > 0:
            raise PathConstructionError(f"segment length must be > 0, got {self.length}")
        if self.kind == "line" and self.curvature != 0.0:
            raise PathConstructionError("line segment must have curvature 0")
        if self.kind == "arc" and self.curvature == 0.0:
            raise PathConstructionError("arc segment must have nonzero curvature")
        x0, y0 = self.start
        c = self.curvature
        cos_h, sin_h = math.cos(self.start_heading), math.sin(self.start_heading)
        object.__setattr__(self, "_cos", cos_h)
        object.__setattr__(self, "_sin", sin_h)
        # circle center sits at 1/c along the left normal of the start tangent
        object.__setattr__(self, "_center",
                           None if c == 0.0 else (x0 - sin_h / c, y0 + cos_h / c))
        object.__setattr__(self, "_period", math.inf if c == 0.0 else _TWO_PI / abs(c))
        object.__setattr__(self, "_end", self.point_at(self.length))

    def point_at(self, u: float) -> tuple[float, float, float]:
        """Exact (x, y, heading) at arc length u from the segment start."""
        c = self.curvature
        if c == 0.0:
            x0, y0 = self.start
            return x0 + u * self._cos, y0 + u * self._sin, self.start_heading
        cx, cy = self._center
        a = self.start_heading + c * u
        return cx + math.sin(a) / c, cy - math.cos(a) / c, wrap_angle(a)

    def end_pose(self) -> tuple[float, float, float]:
        return self._end

    def center(self) -> tuple[float, float] | None:
        """Arc center; None for lines."""
        return self._center


class FrenetState(NamedTuple):
    s: float            # curvilinear abscissa, m
    y: float            # lateral deviation, m, positive left of the tangent
    theta_tilde: float  # angular deviation, rad, in (-pi, pi]


class Projection(NamedTuple):
    """Result of projecting a world pose onto the path."""
    frenet: FrenetState
    segment: int             # segment_index(frenet.s), found on the way
    clamped: bool = False    # nearest point was a path endpoint, s clamped
    ambiguous: bool = False  # multiple global minimizers, smallest s chosen


@dataclass(frozen=True)
class ReferencePath:
    segments: tuple[PathSegment, ...]
    cumulative_lengths: tuple[float, ...] = field(init=False)
    labels: tuple[str, ...] = field(init=False)
    # the last cumulative length, stored: it is read several times per plant step
    total_length: float = field(init=False, repr=False, compare=False)
    # per segment: (midpoint x, midpoint y, length / 2); every point of a line
    # or arc lies within half its length of its midpoint (chord <= arc)
    _bounds: tuple[tuple[float, float, float], ...] = field(init=False, repr=False,
                                                            compare=False)
    # per segment k: a lower bound on the distance from k to every segment j
    # with |j - k| >= 2 (gap between bounding boxes in the path's frame); inf
    # when there is none
    _clearance: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.segments:
            raise PathConstructionError("path needs at least one segment")
        cum = []
        total = 0.0
        n_line = n_arc = 0
        labels = []
        prev_end = None
        for i, seg in enumerate(self.segments):
            if prev_end is not None:
                ex, ey, eh = prev_end
                sx, sy = seg.start
                if math.hypot(sx - ex, sy - ey) > _G1_TOL or abs(wrap_angle(seg.start_heading - eh)) > _G1_TOL:
                    raise PathConstructionError(f"G1 discontinuity at junction {i}")
            prev_end = seg.end_pose()
            total += seg.length
            cum.append(total)
            if seg.kind == "line":
                n_line += 1
                labels.append(f"L{n_line}")
            else:
                n_arc += 1
                labels.append(f"C{n_arc}")
        object.__setattr__(self, "cumulative_lengths", tuple(cum))
        object.__setattr__(self, "total_length", total)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "_bounds", tuple(
            seg.point_at(seg.length / 2)[:2] + (seg.length / 2,) for seg in self.segments))
        object.__setattr__(self, "_clearance", _clearances(self.segments))

    def segment_index(self, s: float) -> int:
        """Index of the segment containing s; a junction belongs to the later segment."""
        if s < 0.0 or s > self.total_length:
            raise RangeError(f"s={s} outside [0, {self.total_length}]")
        return min(bisect_right(self.cumulative_lengths, s), len(self.segments) - 1)

    def segment_label(self, s: float) -> str:
        return self.labels[self.segment_index(s)]

    def junctions(self) -> tuple[float, ...]:
        """Abscissae of interior junctions where curvature may jump."""
        return self.cumulative_lengths[:-1]

    def min_arc_radius(self) -> float:
        radii = [1.0 / abs(seg.curvature) for seg in self.segments if seg.kind == "arc"]
        return min(radii) if radii else math.inf

    def point_at(self, s: float) -> tuple[tuple[float, float], float, float]:
        """(position, tangent heading, curvature) at abscissa s; piecewise exact."""
        i = self.segment_index(s)
        seg = self.segments[i]
        u = s - (self.cumulative_lengths[i - 1] if i > 0 else 0.0)
        x, y, h = seg.point_at(u)
        return (x, y), h, seg.curvature

    def curvature_at(self, s: float) -> float:
        return self.segments[self.segment_index(s)].curvature

    def curvature_ahead(self, s: float, ds: float) -> float:
        """Curvature at s + ds, clamped to the path end (preview lookup)."""
        return self.curvature_at(min(max(s + ds, 0.0), self.total_length))

    def project(self, position: tuple[float, float], heading: float,
                s_hint: float | None = None) -> Projection:
        """Closest-point projection of a world pose onto the path.

        Returns the Frenet state at the global distance minimizer; ties break
        to the smallest s (flagged ambiguous); positions beyond the path ends
        clamp s to [0, total_length] (flagged clamped).

        Only segments that can hold the minimizer are evaluated exactly: a
        segment's distance is at least |p - midpoint| - length/2, so one whose
        bound exceeds the exact distance to the segment with the smallest
        bound (plus slack) is farther than the minimizer and cannot join the
        tie set. The result equals that of a scan over every segment.

        `s_hint` (the caller's last abscissa, any float) names a segment k to
        try first, at distance d_k. If 2*d_k + slack is below k's clearance,
        every segment j with |j - k| >= 2 is farther than d_k + slack (its
        distance from the nearest point on k is at least the clearance), so
        only k and its neighbours whose bound passes are evaluated. Otherwise
        every bound is computed as without a hint, and d_k, when below the
        distance to the segment with the smallest bound, tightens the cut.
        The hint changes the cost, never the result.
        """
        px, py = position
        if s_hint is None:
            candidates = self._bound_pass(px, py)
        else:
            k = min(bisect_right(self.cumulative_lengths, s_hint), len(self.segments) - 1)
            hinted = self._candidate(k, px, py)
            candidates = (self._hinted_candidates(k, hinted, px, py)
                          or self._bound_pass(px, py, k, hinted))
        if len(candidates) == 1:
            _, s_best, clamp_best, i_best, u_best, point_best = candidates[0]
            ambiguous = False
        else:
            d_best = min(c[0] for c in candidates)
            near = [c for c in candidates if c[0] <= d_best + 1e-9]
            near.sort(key=lambda c: c[1])
            _, s_best, clamp_best, i_best, u_best, point_best = near[0]
            # two candidates at distinct abscissae within tolerance: genuinely ambiguous
            ambiguous = any(abs(c[1] - s_best) > 1e-6 for c in near[1:])
        total = self.total_length
        # interior endpoint hits are junction duplicates, not clamping
        clamped = clamp_best and (s_best <= 1e-12 or s_best >= total - 1e-12)
        # the point at s as `point_at(s)` finds it, less the range check: s_best >= 0
        s = min(s_best, total)
        cum = self.cumulative_lengths
        # the winner's segment when it holds s as `segment_index` would find
        # it; else (at a junction, the path end, or between two equal
        # cumulative lengths) the bisect
        s0 = cum[i_best - 1] if i_best > 0 else 0.0
        if s0 <= s < cum[i_best]:
            i = i_best
        else:
            i = min(bisect_right(cum, s), len(cum) - 1)
            s0 = cum[i - 1] if i > 0 else 0.0
        u_s = s - s0
        # the winner's own point when it is `point_at` of the same float (a
        # signed zero compares equal to the other, so the signs are checked)
        if (i == i_best and u_s == u_best
                and math.copysign(1.0, u_s) == math.copysign(1.0, u_best)):
            qx, qy, th = point_best
        else:
            qx, qy, th = self.segments[i].point_at(u_s)
        nx, ny = -math.sin(th), math.cos(th)
        y_signed = (px - qx) * nx + (py - qy) * ny
        return Projection(FrenetState(s, y_signed, wrap_angle(heading - th)), i,
                          clamped, ambiguous)

    def _bound_pass(self, px: float, py: float, k: int = -1, hinted=None):
        """Candidates, in index order, of every segment whose bound is within
        the cut; `hinted` is segment k's candidate when already evaluated."""
        bounds = [math.hypot(px - mx, py - my) - half for mx, my, half in self._bounds]
        first = bounds.index(min(bounds))
        nearest = hinted if first == k else self._candidate(first, px, py)
        cut = (nearest[0] if hinted is None else min(nearest[0], hinted[0])) + _PRUNE_SLACK
        return [nearest if i == first else hinted if i == k else self._candidate(i, px, py)
                for i, b in enumerate(bounds) if b <= cut or i == first]

    def _hinted_candidates(self, k: int, hinted, px: float, py: float):
        """Candidates, in index order, around segment k (`hinted` is its
        candidate); None when k's clearance cannot certify that no other
        segment is nearer."""
        if not 2.0 * hinted[0] + _PRUNE_SLACK < self._clearance[k]:
            return None
        cut = hinted[0] + _PRUNE_SLACK
        bounds = self._bounds
        candidates = [hinted]
        for i in (k - 1, k + 1):
            if 0 <= i < len(bounds):
                mx, my, half = bounds[i]
                if math.hypot(px - mx, py - my) - half <= cut:
                    # k - 1 goes before k, k + 1 after it
                    candidates.insert(0 if i < k else len(candidates),
                                      self._candidate(i, px, py))
        return candidates

    def _candidate(self, i: int, px: float, py: float):
        """(distance, s, clamped, i, u, point) of the closest point on segment
        i, at arc length u on it; point is `point_at(u)`, (x, y, heading)."""
        seg = self.segments[i]
        u, clamped = _project_segment(seg, px, py)
        point = seg.point_at(u)
        # cumulative start + u: the same float as a running sum of lengths
        s0 = self.cumulative_lengths[i - 1] if i > 0 else 0.0
        return math.hypot(px - point[0], py - point[1]), s0 + u, clamped, i, u, point


def _project_segment(seg: PathSegment, px: float, py: float) -> tuple[float, bool]:
    """Arc length u in [0, length] of the closest point on one segment.

    Second value is True when the minimizer was clamped to a segment end.
    """
    if seg.curvature == 0.0:
        x0, y0 = seg.start
        u = (px - x0) * seg._cos + (py - y0) * seg._sin
        if u < 0.0:
            return 0.0, True
        if u > seg.length:
            return seg.length, True
        return u, False
    cx, cy = seg._center
    c = seg.curvature
    ang = math.atan2(py - cy, px - cx)
    # radial direction at arc length u has angle (h + c*u) -/+ pi/2 for c >/< 0
    if c > 0:
        u = (ang + math.pi / 2 - seg.start_heading) / c
    else:
        u = (ang - math.pi / 2 - seg.start_heading) / c
    period = seg._period
    u = math.fmod(u, period)
    if u < 0.0:
        u += period
    if u <= seg.length:
        return u, False
    # off the swept arc: nearer endpoint wins
    d_start = math.hypot(px - seg.start[0], py - seg.start[1])
    ex, ey, _ = seg._end
    d_end = math.hypot(px - ex, py - ey)
    return (0.0, True) if d_start <= d_end else (seg.length, True)


def _box(seg: PathSegment) -> tuple[float, float, float, float]:
    """(x_min, y_min, x_max, y_max) holding every `seg.point_at(u)`, u in [0, length].

    A line's box spans its endpoints; an arc's also spans every axis extreme
    of its circle that the sweep crosses (all four once the sweep reaches 2*pi).
    """
    (x0, y0, _), (x1, y1, _) = seg.point_at(0.0), seg.end_pose()
    xs, ys = [x0, x1], [y0, y1]
    c = seg.curvature
    if c != 0.0:
        cx, cy = seg.center()
        r = 1.0 / abs(c)
        sweep = abs(c) * seg.length
        # polar angle about the center runs counter-clockwise over [lo, lo + sweep]
        start = seg.start_heading - math.copysign(math.pi / 2, c)
        lo = start if c > 0 else start - sweep
        for j, (ex, ey) in enumerate(((r, 0.0), (0.0, r), (-r, 0.0), (0.0, -r))):
            if (j * math.pi / 2 - lo) % _TWO_PI <= sweep:
                xs.append(cx + ex)
                ys.append(cy + ey)
    return (min(xs) - _BOX_PAD, min(ys) - _BOX_PAD, max(xs) + _BOX_PAD, max(ys) + _BOX_PAD)


def _clearances(segments: tuple[PathSegment, ...]) -> tuple[float, ...]:
    """Per segment k: min box gap to every segment j with |j - k| >= 2.

    The boxes are taken in the path's own frame (origin at its start, x axis
    along its start heading), so rows laid along the first segment get the
    same clearance at any heading; a gap in any frame bounds the distance.
    Moving a segment into that frame rounds its points by ~1e-14 m at field
    scale, far inside the certificate's `_PRUNE_SLACK`.
    """
    (ox, oy), h0 = segments[0].start, segments[0].start_heading
    cos0, sin0 = math.cos(h0), math.sin(h0)
    boxes = []
    for seg in segments:
        dx, dy = seg.start[0] - ox, seg.start[1] - oy
        boxes.append(_box(PathSegment(seg.kind, (dx * cos0 + dy * sin0, dy * cos0 - dx * sin0),
                                      seg.start_heading - h0, seg.length, seg.curvature)))
    clearance = [math.inf] * len(boxes)
    for k, (ax0, ay0, ax1, ay1) in enumerate(boxes):
        for j in range(k + 2, len(boxes)):
            bx0, by0, bx1, by1 = boxes[j]
            gap = math.hypot(max(bx0 - ax1, ax0 - bx1, 0.0), max(by0 - ay1, ay0 - by1, 0.0))
            if gap < clearance[k]:
                clearance[k] = gap
            if gap < clearance[j]:
                clearance[j] = gap
    return tuple(clearance)


def build_path(
    descriptors: list[dict],
    start: tuple[float, float] = (0.0, 0.0),
    start_heading: float = 0.0,
) -> ReferencePath:
    """Chain segment descriptors {kind, length_m, curvature_per_m} into a path.

    Segments are chained pose-continuously from the initial pose; a descriptor
    may pin its own start pose (x_m, y_m, heading_rad), which must match the
    chained pose within 1e-9 or construction fails naming the junction.
    """
    segs = []
    x, y, h = start[0], start[1], start_heading
    for i, d in enumerate(descriptors):
        kind = d["kind"]
        length = float(d["length_m"])
        curv = float(d.get("curvature_per_m", 0.0))
        if "x_m" in d or "y_m" in d or "heading_rad" in d:
            px, py = float(d.get("x_m", x)), float(d.get("y_m", y))
            ph = float(d.get("heading_rad", h))
            if segs and (math.hypot(px - x, py - y) > _G1_TOL or abs(wrap_angle(ph - h)) > _G1_TOL):
                raise PathConstructionError(f"G1 discontinuity at junction {i}")
            x, y, h = px, py, ph
        seg = PathSegment(kind=kind, start=(x, y), start_heading=h, length=length, curvature=curv)
        segs.append(seg)
        x, y, h = seg.end_pose()
    return ReferencePath(segments=tuple(segs))


# Experiment path presets. The source figures show shapes but no dimensions;
# these radii sit well above the implement lateral offset and the steering
# feasibility bound for a ~1.2 m wheelbase.
PRESET_DESCRIPTORS = {
    # straight, then a positive-curvature arc, then a negative-curvature arc
    "exp1": [
        {"kind": "line", "length_m": 20.0},
        {"kind": "arc", "length_m": 10.0 * math.pi / 2, "curvature_per_m": 0.1},
        {"kind": "arc", "length_m": 8.0 * math.pi / 2, "curvature_per_m": -0.125},
    ],
    # alternating straights and arcs, including one curve-to-curve junction
    "exp2": [
        {"kind": "line", "length_m": 10.0},
        {"kind": "arc", "length_m": 10.0 * math.pi / 2, "curvature_per_m": 0.1},
        {"kind": "line", "length_m": 10.0},
        {"kind": "arc", "length_m": 8.0 * math.pi / 2, "curvature_per_m": -0.125},
        {"kind": "arc", "length_m": 12.0 * math.pi / 3, "curvature_per_m": 1.0 / 12.0},
        {"kind": "line", "length_m": 10.0},
    ],
}


def build_experiment_path(preset_or_descriptors, start=(0.0, 0.0), start_heading=0.0) -> ReferencePath:
    """Build a preset path by name ("exp1", "exp2") or from explicit descriptors."""
    if isinstance(preset_or_descriptors, str):
        try:
            descriptors = PRESET_DESCRIPTORS[preset_or_descriptors]
        except KeyError:
            raise PathConstructionError(f"unknown path preset {preset_or_descriptors!r}") from None
    else:
        descriptors = preset_or_descriptors
    return build_path(descriptors, start=start, start_heading=start_heading)
