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

from .errors import PathConstructionError, RangeError, quoted

_G1_TOL = 1e-9
_TWO_PI = 2.0 * math.pi
# Slack on the cut that prunes a hinted segment's neighbours in `project`:
# far above the float error of a bound or a distance (~1e-13 m at field
# scale), so no segment that could enter the 1e-9 tie set is ever pruned.
_PRUNE_SLACK = 1e-6
_HALF_PI = math.pi / 2
# builds a NamedTuple from its field values without the class's Python-level
# __new__; the per-step values of every module are built with it
_new_tuple = tuple.__new__


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
            raise PathConstructionError(f"unknown segment kind {quoted(self.kind)}")
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
        if not math.isfinite(self.curvature * self.length):
            raise PathConstructionError("segment turn curvature * length must be finite")
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
        # an arc's radius 1/c can overflow where c is finite
        if not all(map(math.isfinite, (*(self._center or ()), *self._end))):
            raise PathConstructionError("segment center and end pose must be finite")

    def point_at(self, u: float) -> tuple[float, float, float]:
        """Exact (x, y, heading) at arc length u from the segment start."""
        c = self.curvature
        if c == 0.0:
            x0, y0 = self.start
            return x0 + u * self._cos, y0 + u * self._sin, self.start_heading
        cx, cy = self._center
        a = self.start_heading + c * u
        # wrap_angle, whose result is its argument in (-pi, pi]
        return (cx + math.sin(a) / c, cy - math.cos(a) / c,
                a if -math.pi < a <= math.pi else wrap_angle(a))

    def end_pose(self) -> tuple[float, float, float]:
        return self._end


class FrenetState(NamedTuple):
    s: float            # curvilinear abscissa, m
    y: float            # lateral deviation, m, positive left of the tangent
    theta_tilde: float  # angular deviation, rad, in (-pi, pi]


class Projection(NamedTuple):
    """Result of projecting a world pose onto the path."""
    frenet: FrenetState
    segment: int             # segment_index(frenet.s), found on the way
    clamped: bool = False    # nearest point was a path endpoint, s clamped
    ambiguous: bool = False  # several minimizers in the window, smallest s chosen


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
                    raise PathConstructionError(f"G1 discontinuity at junction {i}", i)
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

    def segment_index(self, s: float) -> int:
        """Index of the segment containing s; a junction belongs to the later segment."""
        if s < 0.0 or s > self.total_length:
            raise RangeError(f"s={s} outside [0, {self.total_length}]")
        return min(bisect_right(self.cumulative_lengths, s), len(self.segments) - 1)

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

    def curvature_ahead(self, s: float, ds: float) -> float:
        """Curvature at s + ds, clamped to the path end (preview lookup).

        `point_at`'s curvature at the clamped abscissa, less its range check:
        the clamp leaves [0, total_length] only for NaN, which both send to
        the last segment.
        """
        s += ds
        s = 0.0 if 0.0 > s else s  # max(s + ds, 0.0)
        total = self.total_length
        s = total if total < s else s  # min(s, total_length)
        k = bisect_right(self.cumulative_lengths, s)
        last = len(self.segments) - 1
        return self.segments[last if last < k else k].curvature  # min(k, last)

    def project(self, position: tuple[float, float], heading: float,
                s_hint: float) -> Projection:
        """Closest-point projection of a world pose onto the path, local to
        `s_hint`, the caller's last abscissa (any float).

        Returns the Frenet state at the nearest point within a window around
        the hint; ties break to the smallest s (flagged ambiguous), and a foot
        beyond a path end clamps s to [0, total_length] (flagged clamped). The
        window is the segment k holding the hint and its neighbours k - 1 and
        k + 1. A neighbour is evaluated only when its bound passes: its
        distance is at least |p - midpoint| - length/2, so one whose bound
        exceeds k's distance plus slack can neither win nor tie. While the
        winner sits on the window's outer junction (the start of its first
        segment or the end of its last), the window grows by one segment past
        that end, so s follows the foot across segments shorter than a step.
        The hint thus keeps s on its row where another row, or another turn
        of the path, is nearer.

        k is projected first, and its distance is what the neighbours' bounds
        are held to. Where the foot's abscissa s stays on k and no bound
        passes, k's point at s is the result; otherwise k's candidate joins
        the window, and the result is the point at s on the segment holding s.
        """
        px, py = position
        cum = self.cumulative_lengths
        total = self.total_length
        last = len(cum) - 1
        k = bisect_right(cum, s_hint)
        k = last if last < k else k  # min(k, last)
        seg = self.segments[k]
        u, clamp_best = _project_segment(seg, px, py)
        s0 = cum[k - 1] if k > 0 else 0.0
        # cumulative start + u: the same float as a running sum of lengths
        s_best = s0 + u
        s = total if total < s_best else s_best  # min(s_best, total)
        on_k = s0 <= s < cum[k]
        # on k, the point at s as `point_at(s)` finds it; else k's foot
        qx, qy, th = seg.point_at(s - s0 if on_k else u)
        cut = math.hypot(px - qx, py - qy) + _PRUNE_SLACK
        # of k's neighbours, those whose bound passes can win or tie
        bounds = self._bounds
        before = after = None
        if k > 0:
            mx, my, half = bounds[k - 1]
            if math.hypot(px - mx, py - my) - half <= cut:
                before = self._candidate(k - 1, px, py)
        if k < last:
            mx, my, half = bounds[k + 1]
            if math.hypot(px - mx, py - my) - half <= cut:
                after = self._candidate(k + 1, px, py)
        if on_k and not (before or after):
            i, ambiguous = k, False
        else:
            (_, s_best, clamp_best, _, _), ambiguous = self._window(
                [cand for cand in (before, self._candidate(k, px, py), after) if cand],
                0 if 0 > k - 1 else k - 1,  # max(k - 1, 0)
                last if last < k + 1 else k + 1,  # min(k + 1, last)
                px, py)
            # the point at s as `point_at(s)` finds it, less the range check: s_best >= 0
            s = total if total < s_best else s_best  # min(s_best, total)
            # the segment holding s, as `segment_index` finds it (not the
            # winner's at a junction, the path end, or between two equal
            # cumulative lengths)
            i = bisect_right(cum, s)
            i = last if last < i else i  # min(i, last)
            qx, qy, th = self.segments[i].point_at(s - (cum[i - 1] if i > 0 else 0.0))
        # interior endpoint hits are junction duplicates, not clamping
        clamped = clamp_best and (s_best <= 1e-12 or s_best >= total - 1e-12)
        y_signed = (px - qx) * -math.sin(th) + (py - qy) * math.cos(th)
        # wrap_angle, whose result is its argument in (-pi, pi]
        theta = heading - th
        if not -math.pi < theta <= math.pi:
            theta = wrap_angle(theta)
        # tuple.__new__ builds the same NamedTuples without their Python-level
        # __new__, which costs about as much again as the tuple itself
        return _new_tuple(Projection, (_new_tuple(FrenetState, (s, y_signed, theta)), i,
                                       clamped, ambiguous))

    def _window(self, candidates, lo: int, hi: int, px: float, py: float):
        """`_nearest` of the candidates of the window [lo, hi], after it grows
        by one segment past each end whose outer junction the winner sits on."""
        while True:
            win, ambiguous = _nearest(candidates)
            i, u = win[3], win[4]
            if i == lo and u == 0.0 and lo > 0:
                lo -= 1
                candidates.insert(0, self._candidate(lo, px, py))
            elif i == hi and u == self.segments[hi].length and hi + 1 < len(self.segments):
                hi += 1
                candidates.append(self._candidate(hi, px, py))
            else:
                return win, ambiguous

    def _candidate(self, i: int, px: float, py: float):
        """(distance, s, clamped, i, u) of the closest point on segment i, at
        arc length u on it."""
        seg = self.segments[i]
        u, clamped = _project_segment(seg, px, py)
        x, y, _ = seg.point_at(u)
        # cumulative start + u: the same float as a running sum of lengths
        s0 = self.cumulative_lengths[i - 1] if i > 0 else 0.0
        return math.hypot(px - x, py - y), s0 + u, clamped, i, u


def _nearest(candidates):
    """The winning candidate, at the smallest s among those within 1e-9 m of
    the least distance (the first in list order on a tie), and whether
    another of those lies more than 1e-6 m from it in s. When no distance
    compares (a NaN position), the first candidate, not ambiguous."""
    d_best = candidates[0][0]
    for cand in candidates:
        if cand[0] < d_best:
            d_best = cand[0]
    cut = d_best + 1e-9
    win = None
    for cand in candidates:
        if cand[0] <= cut and (win is None or cand[1] < win[1]):
            win = cand
    if win is None:
        return candidates[0], False
    for cand in candidates:
        # two candidates at distinct abscissae within tolerance: genuinely ambiguous
        if cand[0] <= cut and cand[1] - win[1] > 1e-6:
            return win, True
    return win, False


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
        u = (ang + _HALF_PI - seg.start_heading) / c
    else:
        u = (ang - _HALF_PI - seg.start_heading) / c
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


def build_path(
    descriptors: list[dict],
    start: tuple[float, float] = (0.0, 0.0),
    start_heading: float = 0.0,
) -> ReferencePath:
    """Chain segment descriptors {kind, length_m, curvature_per_m} into a path,
    each segment starting at the end pose of the one before, the first at the
    initial pose. A segment's error carries its descriptor's index."""
    segs = []
    x, y, h = start[0], start[1], start_heading
    for i, d in enumerate(descriptors):
        try:
            seg = PathSegment(kind=d["kind"], start=(x, y), start_heading=h,
                              length=float(d["length_m"]),
                              curvature=float(d.get("curvature_per_m", 0.0)))
        except PathConstructionError as exc:
            raise PathConstructionError(str(exc), i) from None
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


def build_experiment_path(name: str) -> ReferencePath:
    """Build a preset path by name ("exp1", "exp2")."""
    try:
        descriptors = PRESET_DESCRIPTORS[name]
    except KeyError:
        raise PathConstructionError(f"unknown path preset {name!r}") from None
    return build_path(descriptors)
