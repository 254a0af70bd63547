"""Helpers shared by the test modules."""

import math
import random

import numpy as np

from implement_guidance.harness import RunLog


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
