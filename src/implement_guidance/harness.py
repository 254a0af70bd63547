"""Closed-loop experiment harness: scenario runs, summaries, sweeps, comparisons.

Runs are deterministic given the scenario seed. The plant advances at dt;
the controller is invoked every control period with a zero-order hold on the
steering command in between. All summary statistics are computed from the
ground-truth implement error.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import compress, groupby
from operator import attrgetter
from typing import NamedTuple

from .controllers import CONTROLLERS, BaselineParams, Controller, OptimalParams
from .errors import ParameterError, SingularityError
from .paths import FrenetState, Projection, ReferencePath, _new_tuple
from .presets import TABLE1, TABLE2, REAR_IMPLEMENT
from .vehicle import (
    ImplementConfig,
    Measurements,
    VehicleConfig,
    implement_error_exact,
    implement_error_measured,
    measure,
    pose_on_path,
    step,
)

CSV_HEADER = ("t_s,s_m,y_m,theta_tilde_rad,e_I_exact_m,e_I_measured_m,"
              "delta_cmd_rad,delta_actual_rad,theta_d_rad,segment,fault")
# standard normals a noisy run draws from its generator at a time
NOISE_BLOCK = 1024


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
                raise ParameterError(f"noise {name} must be finite and >= 0, got {value}")


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
        if self.run_length > self.path.total_length:
            raise ParameterError("run_length exceeds path total_length")
        # NaN and +inf fail here, and run_length <= total_length bounds s above
        if not self.initial_s < self.run_length:
            raise ParameterError("initial_s must be below run_length")
        if not self.initial_s >= 0.0:
            raise ParameterError(f"initial_s must lie in [0, {self.path.total_length!r}], "
                                 f"got {self.initial_s!r}")
        for name in ("initial_y", "initial_theta"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.dt > 0:
            raise ParameterError("dt must be > 0")
        ratio = self.control_period / self.dt
        if (self.control_period < self.dt or not math.isfinite(ratio)
                or abs(ratio - round(ratio)) > 1e-9):
            raise ParameterError("control_period must be an integer multiple of dt")
        try:
            steps = 3 * self.run_length / (self.vehicle.speed * self.dt)
        except ZeroDivisionError:  # speed * dt underflowed
            steps = math.inf
        if not math.isfinite(steps + ratio):
            raise ParameterError("speed * dt is too small: the plant-step budget is not finite")
        object.__setattr__(self, "max_steps", int(steps) + round(ratio))

    def make_controller(self) -> Controller:
        try:
            make = CONTROLLERS[self.method]
        except KeyError:
            raise ParameterError(f"unknown controller method {self.method!r}") from None
        return make(self.params, self.implement, self.vehicle)


class LogRecord(NamedTuple):
    t: float
    s: float
    y: float
    theta_tilde: float
    e_I_exact: float
    e_I_measured: float
    delta_cmd: float
    delta_actual: float
    theta_d: float
    segment: str
    fault: bool


@dataclass
class RunLog:
    records: list[LogRecord] = field(default_factory=list)
    fault: str | None = None   # fault description when the run aborted


@dataclass(frozen=True)
class RunSummary:
    median_abs_e: float
    q25: float
    q75: float
    max_abs_e: float
    per_segment_median: dict
    junction_overshoot: dict     # junction abscissa (str key) -> max |e_I| in window
    fault_count: int
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "median_abs_e_m": self.median_abs_e,
            "q25_m": self.q25,
            "q75_m": self.q75,
            "max_abs_e_m": self.max_abs_e,
            "per_segment_median_m": self.per_segment_median,
            "junction_overshoot_m": self.junction_overshoot,
            "fault_count": self.fault_count,
            "n_samples": self.n_samples,
        }


def initial_lateral_for_error(e_I: float, imp: ImplementConfig) -> float:
    """Lateral offset of the robot center that puts the measured implement
    error at e_I with zero heading deviation."""
    return e_I - imp.I_y


def run_scenario(scn: Scenario) -> RunLog:
    """Simulate one closed-loop run; never raises on a model fault, the log
    is truncated with the fault recorded instead."""
    path = scn.path
    controller = scn.make_controller()
    noise = scn.noise
    if noise.enabled:
        # numpy only for noise: the noisy outputs are fixed by its PCG64 stream
        import numpy as np

        z = _standard_normals(np.random.default_rng(scn.seed)).__next__
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
                               controller.horizon)
                if noise.enabled:
                    # 0.0 + std * z is normal(0.0, std) bit for bit, drawn y, theta, omega
                    s, y, theta_tilde = meas.frenet
                    noisy = _new_tuple(FrenetState, (s, y + (0.0 + noise.y_std * z()),
                                                     theta_tilde + (0.0 + noise.theta_std * z())))
                    meas = _new_tuple(Measurements, (
                        noisy, meas.omega_bar + (0.0 + noise.omega_std * z()),
                        implement_error_measured(noisy, scn.implement),
                        meas.curvature_now, meas.curvature_at_horizon))
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
        # without a fault the loop ends at the length, or with the budget used up
        if log.fault is None and not proj.frenet.s >= scn.run_length:
            log.fault = (f"plant-step budget of {scn.max_steps} used up at "
                         f"s = {proj.frenet.s} m, short of run_length {scn.run_length} m")
    except SingularityError as exc:
        log.fault = str(exc)
    if log.fault is not None:
        _append(log, t, pose, proj, scn, path, delta_cmd, theta_d, fault=True)
    return log


def _standard_normals(rng):
    """rng's standard normals, drawn NOISE_BLOCK at a time: the same values,
    in the same order, as one scalar draw each."""
    while True:
        yield from rng.standard_normal(NOISE_BLOCK).tolist()


def _append(log, t, pose, proj, scn, path, delta_cmd, theta_d, fault):
    s, y, theta_tilde = proj.frenet
    imp = scn.implement
    log.records.append(_new_tuple(LogRecord, (
        t, s, y, theta_tilde,
        implement_error_exact(pose, imp, path, s + imp.I_s),
        # implement_error_measured, with its floats
        y + imp.I_s * math.sin(theta_tilde) + imp.I_y * math.cos(theta_tilde),
        delta_cmd, pose.steer, theta_d,
        path.labels[proj.segment],
        fault,
    )))


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
    """np.median: the middle value, or the mean of the middle two."""
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def summarize(log: RunLog, junctions: tuple[float, ...] = (), horizon: float = 0.0,
              skip_s: float = 5.0, window_pad: float = 3.0) -> RunSummary:
    """Statistics over |e_I_exact|, excluding the initial convergence window.

    Quantiles use linear interpolation between order statistics. The junction
    overshoot is the max |e_I| within +/- (horizon + window_pad) of each
    curvature discontinuity.
    """
    records = log.records
    if not records:
        raise ParameterError("cannot summarize an empty log")
    # one pass per field: on a long log every pass over the records misses the cache
    e = list(map(abs, map(attrgetter("e_I_exact"), records)))
    start = records[0].s + skip_s
    sample = sorted(list(compress(e, [r.s >= start for r in records])) or e)
    per_segment = {}
    i = 0
    for label, run in groupby(map(attrgetter("segment"), records)):  # one run per segment visit
        j = i + len(list(run))
        per_segment.setdefault(label, []).extend(e[i:j])
        i = j
    overshoot = {}
    if junctions:
        # s need not be monotone along the log, so windows are cut from the
        # records sorted by s
        s = [r.s for r in records]
        order = sorted(range(len(s)), key=s.__getitem__)
        by_s = [s[k] for k in order]
        half = horizon + window_pad
        for sj in junctions:
            # s - sj rounds monotonically in s, so the records that pass the
            # window test abs(s - sj) <= half are one run of by_s
            lo = bisect_left(by_s, True, key=lambda x: x - sj >= -half)
            hi = bisect_left(by_s, True, key=lambda x: x - sj > half)
            if lo < hi:
                overshoot[f"{sj:.6g}"] = max([e[k] for k in order[lo:hi]])
    return RunSummary(
        median_abs_e=_quantile(sample, 0.5),
        q25=_quantile(sample, 0.25),
        q75=_quantile(sample, 0.75),
        max_abs_e=sample[-1],
        per_segment_median={k: _median(v) for k, v in per_segment.items()},
        junction_overshoot=overshoot,
        fault_count=sum(map(attrgetter("fault"), records)),
        n_samples=len(sample),
    )


def run_and_summarize(scn: Scenario) -> tuple[RunLog, RunSummary]:
    log = run_scenario(scn)
    horizon = scn.params.s_h if isinstance(scn.params, OptimalParams) else 0.0
    return log, summarize(log, junctions=scn.path.junctions(), horizon=horizon)


def sweep_horizon(base: Scenario, rows: list[OptimalParams] | None = None
                  ) -> list[tuple[OptimalParams, RunLog, RunSummary]]:
    """One run per horizon row on the base scenario's path; rear implement.

    Returns (params, log, summary) in order of s_h. Per-row faults are
    recorded in the logs and summaries and the sweep continues.
    """
    rows = TABLE2 if rows is None else rows
    results = []
    for params in sorted(rows, key=lambda p: p.s_h):
        scn = replace(base, method="optimal", params=params, implement=REAR_IMPLEMENT,
                      initial_y=initial_lateral_for_error(0.5, REAR_IMPLEMENT))
        results.append((params, *run_and_summarize(scn)))
    return results


def compare_methods(scn_template: Scenario, placements: tuple[str, ...] = ("front", "rear"),
                    methods: tuple[str, ...] = ("lateral_servoing", "backstepping", "optimal")
                    ) -> list[dict]:
    """Run each method/placement with its experiment-1 preset on the template
    path and report summaries plus junction overshoots; each row holds its
    run's RunLog under "log"."""
    results = []
    for placement in placements:
        for method in methods:
            imp, params = TABLE1[(method, placement)]
            scn = replace(scn_template, method=method, params=params, implement=imp,
                          initial_y=initial_lateral_for_error(0.5, imp))
            log, summary = run_and_summarize(scn)
            results.append({
                "method": method,
                "placement": placement,
                "reconstruction": method != "optimal",
                "summary": summary.to_dict(),
                "max_junction_overshoot_m":
                    max(summary.junction_overshoot.values()) if summary.junction_overshoot else 0.0,
                "fault": log.fault,
                "log": log,
            })
    return results


def write_csv(log: RunLog, fh) -> None:
    """Write the log in the documented CSV schema; floats use shortest
    round-trip formatting so write -> parse -> write is byte-identical."""
    fh.write(CSV_HEADER + "\n")
    # a held command is the same float object row after row: format it once
    last_cmd = last_theta = last_actual = None
    for (t, s, y, theta_tilde, e_exact, e_measured, d_cmd, d_actual, theta_d, segment,
         fault) in log.records:
        if d_cmd is not last_cmd:
            last_cmd, cmd_text = d_cmd, repr(d_cmd)
        if theta_d is not last_theta:
            last_theta, theta_text = theta_d, repr(theta_d)
        # a steer that has reached its command repeats as a new float of the
        # same value; equal nonzero floats print alike, 0.0 and -0.0 do not
        if d_actual != last_actual or not d_actual:
            last_actual, actual_text = d_actual, repr(d_actual)
        fh.write(",".join([
            repr(t), repr(s), repr(y), repr(theta_tilde),
            repr(e_exact), repr(e_measured),
            cmd_text, actual_text, theta_text,
            segment, "1" if fault else "0",
        ]) + "\n")


def read_csv(fh) -> RunLog:
    header = fh.readline().rstrip("\n")
    if header != CSV_HEADER:
        raise ParameterError(f"unexpected CSV header: {header!r}")
    log = RunLog()
    for n, line in enumerate(fh, start=2):
        parts = line.rstrip("\n").split(",")
        try:
            if len(parts) != len(LogRecord._fields):
                raise ValueError(f"{len(parts)} fields, expected {len(LogRecord._fields)}")
            vals = [float(p) for p in parts[:9]]
        except ValueError as exc:
            raise ParameterError(f"CSV line {n}: {exc}") from None
        log.records.append(LogRecord(*vals, parts[9], parts[10] == "1"))
    return log
