"""Helpers shared by the test modules."""

import math
import random
from bisect import bisect_left
from itertools import compress, groupby

import numpy as np

from implement_guidance.harness import SKIP_S, RunLog, _median, _quantile
from implement_guidance.paths import FrenetState, Projection, _project_segment, wrap_angle


def column(log, name):
    """One float field of every record of a run log, as a numpy array."""
    return np.array(log.column(name))


def log_of(rows):
    """A run log filled from rows, each a record's nine floats, segment label
    and fault flag."""
    log = RunLog()
    for row in rows:
        log.values.extend(row[:9])
        log.segments.append(row[9])
        log.faults.append(row[10])
    return log


def reference_summarize(log, junctions=(), window=3.0):
    """`harness.summarize` as it was before it boxed |e_I| once, kept as the
    reference: a sorted copy per segment and of the sample, and windows cut
    from the records sorted by s."""
    s = log.column("s")
    e = list(map(abs, log.column("e_I_exact")))
    start = s[0] + SKIP_S
    sample = sorted(list(compress(e, [x >= start for x in s])) or e)
    per_segment = {}
    i = 0
    for label, run in groupby(log.segments):  # one run per segment visit
        j = i + len(list(run))
        per_segment.setdefault(label, []).extend(e[i:j])
        i = j
    overshoot = {}
    if junctions:
        order = sorted(range(len(s)), key=s.__getitem__)
        by_s = [s[k] for k in order]
        for sj in junctions:
            lo = bisect_left(by_s, True, key=lambda x: x - sj >= -window)
            hi = bisect_left(by_s, True, key=lambda x: x - sj > window)
            if lo < hi:
                overshoot[f"{sj:.6g}"] = max([e[k] for k in order[lo:hi]])
    return {
        "median_abs_e_m": _quantile(sample, 0.5),
        "q25_m": _quantile(sample, 0.25),
        "q75_m": _quantile(sample, 0.75),
        "max_abs_e_m": sample[-1],
        "per_segment_median_m": {k: _median(sorted(v)) for k, v in per_segment.items()},
        "junction_overshoot_m": overshoot,
        "fault_count": sum(log.faults),
        "n_samples": len(sample),
    }


def same_log(a, b):
    """Whether two run logs hold the same records: the same floats bit for
    bit (-0.0 is not 0.0, and a NaN equals itself), segment labels and fault
    flags."""
    return (a.values.tobytes() == b.values.tobytes() and a.segments == b.segments
            and a.faults == b.faults)


def edge_floats(limit, seed=0, n=40):
    """NaN, signed zeros and infinities, +-limit, its neighbours (limit times
    1 +- 1e-16, and one ulp either side), and n random floats within twice it."""
    rng = random.Random(seed)
    near = [limit, limit * (1.0 + 1e-16), limit * (1.0 - 1e-16),
            math.nextafter(limit, math.inf), math.nextafter(limit, -math.inf)]
    return [math.nan, 0.0, -0.0, math.inf, -math.inf, *near, *(-v for v in near),
            *(rng.uniform(-2.0 * limit, 2.0 * limit) for _ in range(n))]


def full_scan_segment_index(path, s):
    """`segment_index` by a linear scan of the cumulative lengths."""
    for i, c in enumerate(path.cumulative_lengths):
        if s < c:
            return i
    return len(path.segments) - 1


def scan(path, px, py, window):
    """(distance, s, clamped, i, u) of the nearest point on each segment i in
    window, s as a running sum of lengths; then the winner, at the smallest s
    within 1e-9 m of the least distance, and whether that tie set holds
    another s."""
    candidates = []
    s0 = 0.0
    for i, seg in enumerate(path.segments):
        if i in window:
            u, clamped = _project_segment(seg, px, py)
            x, y, _ = seg.point_at(u)
            candidates.append((math.hypot(px - x, py - y), s0 + u, clamped, i, u))
        s0 += seg.length
    d_best = min(c[0] for c in candidates)
    near = sorted((c for c in candidates if c[0] <= d_best + 1e-9), key=lambda c: c[1])
    return near[0], any(abs(c[1] - near[0][1]) > 1e-6 for c in near[1:])


def full_scan_project(path, position, heading, window=None):
    """Reference projection: the global minimizer over every segment (of
    window, if given), each evaluated exactly, with `project`'s tie-break
    and flags."""
    px, py = position
    (_, s_best, clamp_best, _, _), ambiguous = scan(
        path, px, py, range(len(path.segments)) if window is None else window)
    clamped = clamp_best and (s_best <= 1e-12 or s_best >= path.total_length - 1e-12)
    s_best = min(s_best, path.total_length)
    i = full_scan_segment_index(path, s_best)
    u = s_best - (path.cumulative_lengths[i - 1] if i > 0 else 0.0)
    qx, qy, th = path.segments[i].point_at(u)
    y_signed = -(px - qx) * math.sin(th) + (py - qy) * math.cos(th)
    return Projection(frenet=FrenetState(s=s_best, y=y_signed,
                                         theta_tilde=wrap_angle(heading - th)),
                      segment=i, clamped=clamped, ambiguous=ambiguous)
