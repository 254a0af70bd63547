"""In-memory tracing of the calls into each module of implement_guidance.

The benchmark wraps the package's public functions from the outside (the
package itself is not modified): a span records name, start, end, parent span
and operation id; a counter only counts calls, for functions too cheap to
time without distorting them. Self time is a span's duration minus the part
of it that its child spans cover, so overlapping children (worker threads of
`compare`/`sweep`) are not subtracted twice.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from implement_guidance import cli, controllers, harness, paths, vehicle

# Span = (span_id, parent_id, name, op_id, start_s, end_s); parent 0 = none.
SPAN_FIELDS = ("span_id", "parent_id", "name", "op_id", "start_s", "end_s")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0
        self._root = 0  # the open cli.main span; parent of spans on worker threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        # per-call counters: next() on an itertools.count is atomic, so worker
        # threads need no lock, and it costs far less than a dict update
        self._calls: dict[str, itertools.count] = {}
        self._totals: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def add(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._totals[name] += n

    def counts(self) -> dict[str, int]:
        """All counter totals. Read once, after tracing: reading advances
        the per-call counters."""
        totals = dict(self._totals)
        totals.update((name, next(calls)) for name, calls in self._calls.items())
        return totals

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def counted(self, name: str, fn):
        tick = self._calls.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def spanned(self, name: str, fn, on_result=None, root: bool = False):
        """Wrap fn in a span; on_result(tracer, result) runs after it."""
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            stack.append(sid)
            if root:
                self._root = sid
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if root:
                    self._root = 0
                spans.append((sid, parent, name, self.op_id, t0, t1))
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper


def _count_faults(tracer, cmd):
    if cmd.fault:
        tracer.add("controllers.faults")


def _count_figure_bytes(tracer, svg):
    tracer.add("svgplot.figure.bytes", len(svg.encode()))


def _traced_write_csv(tracer, fn):
    def write_csv(log, fh):
        start = fh.tell()
        fn(log, fh)
        tracer.add("harness.write_csv.bytes", fh.tell() - start)
    return tracer.spanned("harness.write_csv", write_csv)


@contextmanager
def instrumented(tracer: Tracer):
    """Patch the package's call sites to go through tracer wrappers; the
    attribute patched is the name the caller looks up at call time."""
    patches = [
        (cli, "main", lambda f: tracer.spanned("cli.main", f, root=True)),
        (cli, "parse_scenario", lambda f: tracer.spanned("scenario_io.parse_scenario", f)),
        (cli, "write_csv", lambda f: _traced_write_csv(tracer, f)),
        (cli, "comparison_figure",
         lambda f: tracer.spanned("svgplot.figure", f, _count_figure_bytes)),
        (cli, "sweep_figure",
         lambda f: tracer.spanned("svgplot.figure", f, _count_figure_bytes)),
        (harness, "run_scenario", lambda f: tracer.spanned("harness.run_scenario", f)),
        (harness, "summarize", lambda f: tracer.spanned("harness.summarize", f)),
        (harness, "step", lambda f: tracer.spanned("vehicle.step", f)),
        (harness, "measure", lambda f: tracer.spanned("vehicle.measure", f)),
        (harness, "implement_error_exact",
         lambda f: tracer.spanned("vehicle.implement_error_exact", f)),
        (vehicle, "integrate_pose", lambda f: tracer.spanned("vehicle.integrate_pose", f)),
        (paths.ReferencePath, "project", lambda f: tracer.spanned("paths.project", f)),
        (paths.ReferencePath, "segment_index",
         lambda f: tracer.counted("paths.segment_index.calls", f)),
        (paths.PathSegment, "point_at",
         lambda f: tracer.counted("paths.segment_point_at.calls", f)),
        (controllers.Controller, "step",
         lambda f: tracer.spanned("controllers.step", f, _count_faults)),
        (controllers, "sigma_terms",
         lambda f: tracer.counted("controllers.sigma_terms.calls", f)),
        (controllers, "predicted_cost",
         lambda f: tracer.counted("controllers.predicted_cost.calls", f)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for (owner, attr, wrap), (_, _, original) in zip(patches, originals):
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """span_id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for _sid, parent, _name, _op, t0, t1 in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - covered_length(children.get(sid, ()), t0, t1)
            for sid, _parent, _name, _op, t0, t1 in spans}


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def span_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s, self_s, us_p50, us_p99."""
    selfs = self_times(spans)
    durations = defaultdict(list)
    self_sum = defaultdict(float)
    for sid, _parent, name, _op, t0, t1 in spans:
        durations[name].append(t1 - t0)
        self_sum[name] += selfs[sid]
    table = {}
    for name, ds in sorted(durations.items()):
        ds.sort()
        table[name] = {"calls": len(ds), "total_s": sum(ds), "self_s": self_sum[name],
                       "us_p50": percentile(ds, 50) * 1e6,
                       "us_p99": percentile(ds, 99) * 1e6}
    return table


def write_spans(spans, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(SPAN_FIELDS) + "\n")
        for sid, parent, name, op, t0, t1 in spans:
            fh.write(f"{sid},{parent},{name},{op},{t0!r},{t1!r}\n")
