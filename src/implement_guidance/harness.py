"""Closed-loop experiment harness: scenario runs, summaries, sweeps, comparisons.

Runs are deterministic given the scenario seed. The plant advances at dt;
the controller is invoked every control period with a zero-order hold on the
steering command in between. All summary statistics are computed from the
ground-truth implement error.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import compress, groupby, islice
from operator import le

from .controllers import CONTROLLERS, BaselineParams, Controller, OptimalParams
from .errors import ParameterError, SingularityError, require_positive
from .paths import FrenetState, Projection, ReferencePath
from .presets import TABLE1, TABLE2, REAR_IMPLEMENT
from .vehicle import (
    ImplementConfig,
    VehicleConfig,
    implement_error_exact,
    measure,
    pose_on_path,
    step,
)

CSV_HEADER = ("t_s,s_m,y_m,theta_tilde_rad,e_I_exact_m,e_I_measured_m,"
              "delta_cmd_rad,delta_actual_rad,theta_d_rad,segment,fault")
# a summary leaves out the first SKIP_S m of a run, its initial convergence;
# a junction's window reaches WINDOW_PAD m past the controller's horizon
SKIP_S = 5.0
WINDOW_PAD = 3.0
# the bound of Scenario.max_steps, and so of run_scenario's loop; the shipped
# scenarios, presets and benchmark workloads need under 4e5 plant steps
MAX_PLANT_STEPS = 10_000_000


@dataclass(frozen=True)
class NoiseSpec:
    enabled: bool = False
    y_std: float = 0.01          # m
    theta_std: float = 0.005     # rad
    omega_std: float = 0.01     # rad/s

    def __post_init__(self):
        for name in ("y_std", "theta_std", "omega_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ParameterError(f"noise {name} must be finite and >= 0, got {value}", name)
            object.__setattr__(self, name, value + 0.0)  # -0.0 becomes 0.0, as the echo shows


@dataclass(frozen=True)
class Scenario:
    path: ReferencePath
    vehicle: VehicleConfig
    implement: ImplementConfig
    method: str                          # optimal | backstepping | lateral_servoing
    params: OptimalParams | BaselineParams
    run_length: float                    # m
    dt: float = 0.01
    control_period: float = 0.1
    initial_s: float = 0.0
    initial_y: float = 0.0
    initial_theta: float = 0.0
    seed: int = 0
    noise: NoiseSpec = NoiseSpec()
    # the run's plant-step budget, computed once here
    max_steps: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in CONTROLLERS:
            raise ParameterError(f"unknown method {self.method!r}", "method")
        kind = OptimalParams if self.method == "optimal" else BaselineParams
        if not isinstance(self.params, kind):
            raise ParameterError(f"method {self.method!r} takes {kind.__name__}, "
                                 f"got {type(self.params).__name__}", "method")
        radius = self.path.min_arc_radius()
        if not abs(self.implement.I_y) < radius:
            raise ParameterError(f"|I_y| must stay below the minimum arc radius {radius!r}, "
                                 f"got {self.implement.I_y!r}", "I_y")
        total = self.path.total_length
        # NaN and +-inf fail here
        if not 0.0 <= self.initial_s <= total:
            raise ParameterError(f"initial_s must lie in [0, {total!r}], "
                                 f"got {self.initial_s!r}", "initial_s")
        if self.run_length > total:
            raise ParameterError("run_length exceeds path total_length", "run_length")
        if not self.initial_s < self.run_length:
            raise ParameterError(f"initial_s must be below run_length {self.run_length!r}, "
                                 f"got {self.initial_s!r}", "initial_s", "run_length")
        for name in ("initial_y", "initial_theta"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}", name)
        if type(self.seed) is not int or self.seed < 0:  # True and 1.0 are no seeds
            raise ParameterError(f"seed must be a non-negative integer, got {self.seed!r}",
                                 "seed")
        require_positive(self, ("dt", "control_period"))
        ratio = self.control_period / self.dt
        if (self.control_period < self.dt or not math.isfinite(ratio)
                or abs(ratio - round(ratio)) > 1e-9):
            raise ParameterError("control_period must be an integer multiple of dt",
                                 "control_period", "dt")
        try:
            steps = 3 * self.run_length / (self.vehicle.speed * self.dt)
        except ZeroDivisionError:  # speed * dt underflowed
            steps = math.inf
        if not math.isfinite(steps + ratio):
            raise ParameterError("speed * dt is too small: the plant-step budget is not finite",
                                 "speed", "dt")
        max_steps = int(steps) + round(ratio)
        if max_steps > MAX_PLANT_STEPS:
            raise ParameterError(f"the run may take {max_steps} plant steps "
                                 f"(its budget, Scenario.max_steps), "
                                 f"above the limit {MAX_PLANT_STEPS}",
                                 "speed", "dt", "run_length", "control_period")
        object.__setattr__(self, "max_steps", max_steps)

    def make_controller(self) -> Controller:
        return CONTROLLERS[self.method](self.params, self.implement, self.vehicle)


# a record's floats, in CSV order
FLOAT_FIELDS = ("t", "s", "y", "theta_tilde", "e_I_exact", "e_I_measured", "delta_cmd",
                "delta_actual", "theta_d")
_WIDTH = len(FLOAT_FIELDS)


class RunLog:
    """One run's log, held by column: `values` holds each record's nine
    floats (FLOAT_FIELDS) unboxed, record after record, `segments` its
    segment label and `faults` its fault flag (0 or 1)."""

    __slots__ = ("values", "segments", "faults", "fault")

    def __init__(self):
        self.values = array("d")
        self.segments: list[str] = []
        self.faults = bytearray()
        self.fault: str | None = None  # fault description when the run aborted

    @property
    def records(self) -> range:
        """A range as long as the log, built in O(1) with no record: it exists
        only because bench/run.py counts plant steps with len(log.records),
        and goes when the benchmark counts len(log.segments) (ROADMAP item 1)."""
        return range(len(self.segments))

    def column(self, name: str) -> array:
        """One float field (FLOAT_FIELDS) of every record, as an array('d')."""
        return self.values[FLOAT_FIELDS.index(name)::_WIDTH]


def _rows(log: RunLog):
    """Each record of log as one tuple: its nine floats, segment label and
    fault flag."""
    floats = iter(log.values)
    return zip(*[floats] * _WIDTH, log.segments, map(bool, log.faults))


def initial_lateral_for_error(e_I: float, imp: ImplementConfig) -> float:
    """Lateral offset of the robot center that puts the measured implement
    error at e_I with zero heading deviation."""
    return e_I - imp.I_y


def run_scenario(scn: Scenario) -> RunLog:
    """Simulate one closed-loop run; never raises on a model fault, the log
    is truncated with the fault recorded instead."""
    path = scn.path
    controller = scn.make_controller()
    draws = None
    if scn.noise.enabled:
        # imported with noise on only, so that no other call compiles its tables
        from . import noise

        spec = scn.noise
        draws = (spec.y_std, spec.theta_std, spec.omega_std,
                 noise.standard_normals(scn.seed).__next__)
    pose = pose_on_path(path, scn.initial_s, scn.initial_y, scn.initial_theta)
    # the plant state is (pose, proj); the start state is given, not projected
    proj = Projection(FrenetState(scn.initial_s, scn.initial_y, scn.initial_theta),
                      path.segment_index(scn.initial_s))
    log = RunLog()
    n_ctrl = round(scn.control_period / scn.dt)
    delta_cmd = 0.0
    theta_d = 0.0
    t = 0.0
    try:
        for i in range(scn.max_steps):
            if i % n_ctrl == 0:
                meas = measure(pose, proj, path, scn.vehicle, scn.implement,
                               controller.horizon, draws)
                cmd = controller.step(meas)
                delta_cmd = cmd.delta_desired
                theta_d = cmd.theta_desired
                if cmd.fault:
                    log.fault = f"controller fail-safe: {controller.fault}"
                    break
            _append(log, t, pose, proj, scn, path, delta_cmd, theta_d, fault=False)
            if proj.frenet.s >= scn.run_length:
                break
            # a step that faults is recorded at its end time, with its start state
            t += scn.dt
            pose, proj = step(pose, proj, delta_cmd, scn.dt, path, scn.vehicle)
        else:  # the budget is used up: its last step may still reach the length
            if proj.frenet.s >= scn.run_length:
                _append(log, t, pose, proj, scn, path, delta_cmd, theta_d, fault=False)
            else:
                log.fault = (f"plant-step budget of {scn.max_steps} used up at "
                             f"s = {proj.frenet.s} m, short of run_length {scn.run_length} m")
    except SingularityError as exc:
        log.fault = str(exc)
    if log.fault is not None:
        _append(log, t, pose, proj, scn, path, delta_cmd, theta_d, fault=True)
    return log


def _append(log, t, pose, proj, scn, path, delta_cmd, theta_d, fault):
    s, y, theta_tilde = proj.frenet
    imp = scn.implement
    log.values.extend((
        t, s, y, theta_tilde,
        implement_error_exact(pose, imp, path, s + imp.I_s),
        # implement_error_measured, with its floats
        y + imp.I_s * math.sin(theta_tilde) + imp.I_y * math.cos(theta_tilde),
        delta_cmd, pose.steer, theta_d,
    ))
    log.segments.append(path.labels[proj.segment])
    log.faults.append(fault)


def _lerp(a: float, b: float, t: float) -> float:
    """a + (b - a) t, rounded as numpy's quantile rounds it."""
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def _quantile(xs: list[float], q: float) -> float:
    """numpy's "linear" quantile of an ascending list, bit for bit."""
    v = (len(xs) - 1) * q
    i = math.floor(v)
    if i >= len(xs) - 1:
        return xs[-1]
    return _lerp(xs[i], xs[i + 1], v - i)


def _median(xs: list[float]) -> float:
    """np.median of an ascending list: the middle value, or the mean of the
    middle two."""
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def summarize(log: RunLog, junctions: tuple[float, ...] = (),
              window: float = WINDOW_PAD) -> dict:
    """Statistics over |e_I_exact|, excluding the records within SKIP_S of
    the first abscissa (the whole log when that leaves none), as the dict
    that summary.json holds.

    Quantiles use linear interpolation between order statistics. The junction
    overshoot is the max |e_I| within +/- window of each curvature
    discontinuity.
    """
    if not log.segments:
        raise ParameterError("cannot summarize an empty log")
    # |e_I| is boxed once, in log order; each segment's list and the sample
    # share its floats, and the sample is e itself, sorted last
    e = list(map(abs, log.column("e_I_exact")))
    spans = {}  # label -> (start, end) of each of its visits
    i = 0
    for label, run in groupby(log.segments):
        j = i + len(list(run))
        spans.setdefault(label, []).append((i, j))
        i = j
    per_segment = {}
    for label, ((a, b), *more) in spans.items():
        part = e[a:b]
        for a, b in more:
            part += e[a:b]
        part.sort()
        per_segment[label] = _median(part)
        del part  # before the next label's list is cut
    s = log.column("s")
    start = s[0] + SKIP_S
    # one C-level pass; a run's s never falls, a log read from a CSV may
    rising = all(map(le, s, islice(s, 1, None)))
    overshoot = {}
    if junctions:
        if rising:
            by_s, e_by_s = s, e
        else:  # cut the windows from the records sorted by s
            order = sorted(range(len(s)), key=s.__getitem__)
            by_s = [s[k] for k in order]
            e_by_s = [e[k] for k in order]
            del order
        for sj in junctions:
            # s - sj rounds monotonically in s, so the records that pass the
            # window test abs(s - sj) <= window are one run of by_s
            lo = bisect_left(by_s, True, key=lambda x: x - sj >= -window)
            hi = bisect_left(by_s, True, key=lambda x: x - sj > window)
            if lo < hi:
                overshoot[f"{sj:.6g}"] = max(e_by_s[lo:hi])
        del by_s, e_by_s
    if not rising:
        e = list(compress(e, map(start.__le__, s))) or e
    elif (k := bisect_left(s, start)) < len(e):  # the sample is a suffix of the log
        del e[:k]
    del s
    e.sort()
    return {
        "median_abs_e_m": _quantile(e, 0.5),
        "q25_m": _quantile(e, 0.25),
        "q75_m": _quantile(e, 0.75),
        "max_abs_e_m": e[-1],
        "per_segment_median_m": per_segment,
        # junction abscissa (str key) -> max |e_I| in its window
        "junction_overshoot_m": overshoot,
        "fault_count": log.faults.count(1),
        "n_samples": len(e),
    }


def run_and_summarize(scn: Scenario) -> tuple[RunLog, dict]:
    log = run_scenario(scn)
    horizon = scn.params.s_h if isinstance(scn.params, OptimalParams) else 0.0
    return log, summarize(log, scn.path.junctions(), horizon + WINDOW_PAD)


def sweep_horizon(base: Scenario, rows: list[OptimalParams] | None = None
                  ) -> Iterator[tuple[OptimalParams, RunLog, dict]]:
    """One run per horizon row on the base scenario's path; rear implement.

    Yields (params, log, summary) in order of s_h, each as its run ends and
    holding no reference to it. Per-row faults are recorded in the logs and
    summaries and the sweep continues.
    """
    for params in sorted(TABLE2 if rows is None else rows, key=lambda p: p.s_h):
        scn = replace(base, method="optimal", params=params, implement=REAR_IMPLEMENT,
                      initial_y=initial_lateral_for_error(0.5, REAR_IMPLEMENT))
        yield params, *run_and_summarize(scn)


def compare_methods(scn_template: Scenario, placements: tuple[str, ...] = ("front", "rear"),
                    methods: tuple[str, ...] = ("lateral_servoing", "backstepping", "optimal")
                    ) -> Iterator[tuple[str, str, RunLog, dict]]:
    """Run each method/placement with its experiment-1 preset on the template
    path. Yields (placement, method, log, summary), placement by placement,
    each as its run ends and holding no reference to it."""
    for placement in placements:
        for method in methods:
            imp, params = TABLE1[(method, placement)]
            scn = replace(scn_template, method=method, params=params, implement=imp,
                          initial_y=initial_lateral_for_error(0.5, imp))
            yield placement, method, *run_and_summarize(scn)


def write_csv(log: RunLog, fh) -> None:
    """Write the log in the documented CSV schema; floats use shortest
    round-trip formatting so write -> parse -> write is byte-identical."""
    fh.write(CSV_HEADER + "\n")
    # a held command, and a steer that has reached it, repeat row after row:
    # format them again only when the value changes, and reuse the text of an
    # equal float already formatted in the row (e_I_measured equals e_I_exact
    # on a straight, delta_actual a command it has reached). Equal nonzero
    # floats print alike; 0.0 and -0.0 do not, and NaN equals nothing
    last_cmd = last_actual = last_theta = None
    for (t, s, y, theta_tilde, e_exact, e_measured, d_cmd, d_actual, theta_d, segment,
         fault) in _rows(log):
        exact_text = repr(e_exact)
        measured_text = (exact_text if e_measured == e_exact and e_exact
                         else repr(e_measured))
        if d_cmd != last_cmd or not d_cmd:
            last_cmd, cmd_text = d_cmd, repr(d_cmd)
        if d_actual != last_actual or not d_actual:
            last_actual, actual_text = d_actual, (cmd_text if d_actual == d_cmd and d_cmd
                                                  else repr(d_actual))
        if theta_d != last_theta or not theta_d:
            last_theta, theta_text = theta_d, repr(theta_d)
        fh.write(",".join([
            repr(t), repr(s), repr(y), repr(theta_tilde),
            exact_text, measured_text,
            cmd_text, actual_text, theta_text,
            segment, "1" if fault else "0",
        ]) + "\n")


def read_csv(fh) -> RunLog:
    header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ParameterError(f"unexpected CSV header: {header!r}")
    log = RunLog()
    labels = {}  # one str per segment label, as a run shares its path's labels
    for n, line in enumerate(fh, start=2):
        parts = line.rstrip("\n").split(",")
        try:
            if len(parts) != _WIDTH + 2:
                raise ValueError(f"{len(parts)} fields, expected {_WIDTH + 2}")
            if parts[10] not in ("0", "1"):
                raise ValueError(f"fault field {parts[10]!r}, expected 0 or 1")
            vals = [float(p) for p in parts[:_WIDTH]]
        except ValueError as exc:
            raise ParameterError(f"CSV line {n}: {exc}") from None
        log.values.extend(vals)
        log.segments.append(labels.setdefault(parts[9], parts[9]))
        log.faults.append(parts[10] == "1")
    return log
