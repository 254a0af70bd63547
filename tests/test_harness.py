import bisect
import builtins
import io
import itertools
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from implement_guidance import controllers, harness, noise
from implement_guidance.controllers import Controller
from implement_guidance.errors import DomainError, ParameterError, SingularityError
from implement_guidance.harness import (
    CSV_HEADER,
    MAX_PLANT_STEPS,
    NoiseSpec,
    WINDOW_PAD,
    RunLog,
    Scenario,
    _rows,
    compare_methods,
    initial_lateral_for_error,
    read_csv,
    run_and_summarize,
    run_scenario,
    summarize,
    sweep_horizon,
    write_csv,
)
from implement_guidance.paths import ReferencePath, build_experiment_path, build_path
from implement_guidance.presets import REAR_IMPLEMENT, TABLE1, TABLE2
from implement_guidance.vehicle import ImplementConfig, VehicleConfig

from support import column, full_scan_project, log_of, reference_summarize, same_log

CFG = VehicleConfig()


def straight_scenario(**over):
    imp, params = TABLE1[("optimal", "rear")]
    base = dict(path=build_path([{"kind": "line", "length_m": 60.0}]),
                vehicle=CFG, implement=imp, method="optimal", params=params,
                run_length=55.0, initial_y=initial_lateral_for_error(0.5, imp))
    base.update(over)
    return Scenario(**base)


# ---------------------------------------------------------------- validation

def test_scenario_validation():
    with pytest.raises(ParameterError):
        straight_scenario(run_length=100.0)
    with pytest.raises(ParameterError):
        straight_scenario(control_period=0.015)
    with pytest.raises(ParameterError):
        straight_scenario(control_period=0.005)
    with pytest.raises(ParameterError):  # round(inf) would raise OverflowError
        straight_scenario(dt=1e-320)
    with pytest.raises(ParameterError):
        straight_scenario(method="mpc").make_controller()
    for initial_s in (55.0, 56.0):  # run_length is 55
        with pytest.raises(ParameterError, match="initial_s must be below run_length"):
            straight_scenario(initial_s=initial_s)
    with pytest.raises(ParameterError, match=r"initial_s must lie in \[0, 60\.0\]"):
        straight_scenario(initial_s=math.nan)


def test_scenario_caps_the_plant_step_budget():
    # built in code, as compare and sweep build theirs: unchecked, a 1e-6 s
    # step took a budget of 1.65e8 plant steps
    with pytest.raises(ParameterError, match=r"^the run may take 165000001 plant steps "
                                             r"\(its budget, Scenario\.max_steps\), above "
                                             rf"the limit {MAX_PLANT_STEPS}$") as exc:
        straight_scenario(dt=1e-6, control_period=1e-6)
    assert exc.value.fields == ("speed", "dt", "run_length", "control_period")
    # 3 * length / (speed * dt) + control_period / dt is 6 * length + 1 here
    line = build_path([{"kind": "line", "length_m": 2e6}])
    assert 6 * 1666666.5 + 1 == MAX_PLANT_STEPS
    scn = straight_scenario(path=line, dt=0.5, control_period=0.5, run_length=1666666.5)
    assert scn.max_steps == MAX_PLANT_STEPS
    with pytest.raises(ParameterError, match="the run may take 10000001 plant steps"):
        straight_scenario(path=line, dt=0.5, control_period=0.5, run_length=1666666.75)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
def test_scenario_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    # unchecked, -1 raised numpy's ValueError from run_scenario, 1.5 a
    # TypeError, and True ran as seed 1
    with pytest.raises(ParameterError, match="^seed must be a non-negative integer, got ") as exc:
        straight_scenario(seed=seed, noise=NoiseSpec(enabled=True))
    assert exc.value.fields == ("seed",)


def test_scenario_accepts_any_non_negative_int_seed():
    for seed in (0, 1, 2**64 + 3):
        assert straight_scenario(seed=seed).seed == seed


@pytest.mark.parametrize("name, value", [
    ("initial_s", -1.0), ("initial_s", -1e-300), ("initial_s", -math.inf),
    ("initial_s", math.inf), ("initial_s", math.nan),
    ("initial_y", math.nan), ("initial_y", math.inf), ("initial_y", -math.inf),
    ("initial_theta", math.nan), ("initial_theta", math.inf), ("initial_theta", -math.inf),
])
def test_scenario_rejects_a_bad_start_state(name, value):
    # unchecked, a NaN start logged NaN records, an infinite heading raised a
    # bare ValueError and a negative s a RangeError, from run_scenario
    with pytest.raises(ParameterError, match=name):
        straight_scenario(**{name: value})


@pytest.mark.parametrize("name", ["y_std", "theta_std", "omega_std"])
@pytest.mark.parametrize("value", [-0.01, -1e-300, math.nan, math.inf, -math.inf])
def test_noise_spec_rejects_negative_or_non_finite_std(name, value):
    with pytest.raises(ParameterError, match=name):
        NoiseSpec(enabled=True, **{name: value})


def test_noise_spec_accepts_zero_std():
    spec = NoiseSpec(enabled=True, y_std=0.0, theta_std=0.0, omega_std=0.0)
    log = run_scenario(straight_scenario(run_length=10.0, noise=spec, seed=3))
    assert same_log(log, run_scenario(straight_scenario(run_length=10.0)))


def test_noise_spec_reads_negative_zero_std_as_zero():
    assert NoiseSpec(y_std=-0.0).y_std.hex() == (0.0).hex()


@pytest.mark.parametrize("I_y", [8.0, -8.0, 9.0])
def test_scenario_rejects_an_implement_at_or_beyond_the_min_arc_radius(I_y):
    # a Scenario built in code, as compare and sweep build theirs
    path = build_experiment_path("exp1")
    assert path.min_arc_radius() == 8.0
    with pytest.raises(ParameterError, match=r"\|I_y\| must stay below the minimum arc radius"):
        straight_scenario(path=path, run_length=40.0, implement=ImplementConfig(-1.0, I_y))


def test_initial_lateral_for_error():
    imp = ImplementConfig(I_s=-2.0, I_y=-0.5)
    assert initial_lateral_for_error(0.5, imp) == 1.0
    assert initial_lateral_for_error(0.0, imp) == 0.5


# -------------------------------------------------------------- determinism

def test_noisy_runs_bit_identical_for_same_seed():
    noise = NoiseSpec(enabled=True)
    a = run_scenario(straight_scenario(seed=42, noise=noise))
    b = run_scenario(straight_scenario(seed=42, noise=noise))
    assert same_log(a, b)


def test_noisy_runs_differ_for_different_seed():
    noise = NoiseSpec(enabled=True)
    a = run_scenario(straight_scenario(seed=1, noise=noise))
    b = run_scenario(straight_scenario(seed=2, noise=noise))
    assert not same_log(a, b)


def test_noisy_run_equals_a_run_on_numpys_stream(monkeypatch):
    scn = straight_scenario(path=build_experiment_path("exp1"), run_length=45.0, seed=7,
                            noise=NoiseSpec(enabled=True))
    default = run_scenario(scn)

    def numpy_normals(seed):
        rng = np.random.default_rng(seed)
        while True:
            yield float(rng.standard_normal())
    monkeypatch.setattr(noise, "standard_normals", numpy_normals)
    assert same_log(run_scenario(scn), default)
    assert default.fault is None and len(default.segments) > 4000


@pytest.mark.parametrize("block", [2, 7, 1024])
def test_block_normals_equal_scalar_normal_draws(block):
    # a run uses 0.0 + std * z for normal(0.0, std): the same float as numpy's
    # scalar draw, and z the same as numpy's draws of a block at a time, across
    # the block boundaries
    for seed in (0, 1, 42, 2**40 + 5):
        n = 2 * block + 3
        blocks = np.random.default_rng(seed)
        numpys = [z for _ in range(n // block + 1) for z in blocks.standard_normal(block).tolist()]
        ours = list(itertools.islice(noise.standard_normals(seed), n))
        assert [z.hex() for z in ours] == [z.hex() for z in numpys[:n]]
        for std in (0.01, 0.005, 1.0, 3.7e-3, 0.0, 1e-300):
            rng = np.random.default_rng(seed)
            for z in ours:
                assert (0.0 + std * z).hex() == float(rng.normal(0.0, std)).hex()


def test_seed_ignored_when_noise_disabled():
    a = run_scenario(straight_scenario(seed=1))
    b = run_scenario(straight_scenario(seed=2))
    assert same_log(a, b)


# ---------------------------------------------- hinted projection in the loop

def _serpentine_field():
    """Four 20 m rows joined by 180-degree headland arcs of radius 3 m."""
    descriptors = []
    for i in range(4):
        descriptors.append({"kind": "line", "length_m": 20.0})
        if i < 3:
            descriptors.append({"kind": "arc", "length_m": 3.0 * math.pi,
                                "curvature_per_m": (1.0 if i % 2 == 0 else -1.0) / 3.0})
    return build_path(descriptors)


def _closed_loop_scenarios():
    """A field run (rear optimal, second row and its headland turn) and an
    exp2 run, both with noise on."""
    field_path, exp2_path = _serpentine_field(), build_experiment_path("exp2")
    imp, params = TABLE1[("optimal", "rear")]
    noise = NoiseSpec(enabled=True)
    row_and_turn = 20.0 + 3.0 * math.pi
    field = Scenario(path=field_path, vehicle=CFG, implement=imp, method="optimal",
                     params=params, initial_s=row_and_turn, run_length=2 * row_and_turn + 5.0,
                     initial_y=initial_lateral_for_error(0.5, imp), noise=noise, seed=3)
    exp2 = Scenario(path=exp2_path, vehicle=CFG, implement=REAR_IMPLEMENT, method="optimal",
                    params=TABLE2[3], run_length=math.floor(exp2_path.total_length - 1.0),
                    initial_y=initial_lateral_for_error(0.5, REAR_IMPLEMENT),
                    noise=noise, seed=0)
    return field, exp2


def _run_with_and_without_hints(monkeypatch, scn):
    """The run as it is, and its `project` calls; then the run with every
    hint dropped, each projection the full-scan reference's global minimizer."""
    calls = []
    project = ReferencePath.project
    monkeypatch.setattr(ReferencePath, "project",
                        lambda self, position, heading, s_hint:
                        calls.append(s_hint) or project(self, position, heading, s_hint))
    log = run_scenario(scn)
    monkeypatch.setattr(ReferencePath, "project",
                        lambda self, position, heading, s_hint:
                        full_scan_project(self, position, heading))
    return log, run_scenario(scn), len(calls)


def test_hinted_and_full_projection_give_equal_runs(monkeypatch):
    logs = []
    for scn in _closed_loop_scenarios():
        log, reference, calls = _run_with_and_without_hints(monkeypatch, scn)
        # both projections of a plant step (robot and implement): one per
        # record, and one per step after all but the last record
        assert calls == 2 * len(log.segments) - 1
        assert log.fault is None and len(log.segments) > 3000
        assert same_log(log, reference)
        logs.append(log)
    # the field run went through the headland turn
    assert set(logs[0].segments) >= {"L2", "C2", "L3"}


def test_hinted_run_follows_segments_shorter_than_a_step(monkeypatch):
    # 200 lines and 200 arcs of 0.02 m, and plant steps of 0.1 m: the foot
    # crosses about five segments a step, and the hinted window grows across
    # them, so s keeps up and the run equals the global projection's
    path = build_path([{"kind": "line", "length_m": 1.0},
                       *[{"kind": kind, "length_m": 0.02, "curvature_per_m": c}
                         for _ in range(200) for kind, c in (("line", 0.0), ("arc", 0.5))],
                       {"kind": "line", "length_m": 3.0}])
    imp, params = TABLE1[("optimal", "rear")]
    scn = Scenario(path=path, vehicle=CFG, implement=imp, method="optimal", params=params,
                   run_length=path.total_length - 1.0, dt=0.1, control_period=0.1,
                   initial_y=initial_lateral_for_error(0.5, imp))
    # a hinted call evaluates only segments within two places of its hint's
    # segment or of its result's: the window, never the whole path; and no
    # segment twice
    evaluated, windows = [], []
    candidate, project = ReferencePath._candidate, ReferencePath.project

    def recording_candidate(self, i, px, py):
        evaluated.append(i)
        return candidate(self, i, px, py)

    def recording_project(self, position, heading, s_hint):
        evaluated.clear()
        p = project(self, position, heading, s_hint)
        k = min(bisect.bisect_right(self.cumulative_lengths, s_hint), len(path.segments) - 1)
        assert len(set(evaluated)) == len(evaluated)
        windows.append((min(k, p.segment) - 2, max(k, p.segment) + 2, list(evaluated)))
        return p
    with monkeypatch.context() as mp:
        mp.setattr(ReferencePath, "_candidate", recording_candidate)
        mp.setattr(ReferencePath, "project", recording_project)
        log = run_scenario(scn)
    assert all(lo <= i <= hi for lo, hi, seen in windows for i in seen)
    assert max(len(seen) for _, _, seen in windows) >= 5
    log, reference, _ = _run_with_and_without_hints(monkeypatch, scn)
    assert log.fault is None and len(log.segments) > 100
    assert same_log(log, reference)
    s = log.column("s")
    assert max(b - a for a, b in zip(s, s[1:])) < 0.15


@pytest.mark.parametrize("which", ["field", "line_100hz"])
def test_plant_step_looks_up_no_segment(monkeypatch, which):
    # the plant state carries its segment, and the controller's preview
    # bisects its clamped abscissa itself: only the start pose and the start
    # state look one up
    calls = []
    segment_index = ReferencePath.segment_index
    monkeypatch.setattr(ReferencePath, "segment_index",
                        lambda path, s: calls.append(s) or segment_index(path, s))
    if which == "field":
        scn = _closed_loop_scenarios()[0]
    else:
        scn = straight_scenario(run_length=20.0, control_period=0.01)
    log = run_scenario(scn)
    assert log.fault is None and len(log.segments) > 1000
    assert calls == [scn.initial_s] * 2


def _guard_runs():
    """Each run at a shorter and a longer length: a 100 Hz straight line, a
    field row into its headland turn and a lateral-servoing exp1 run, all
    with noise on."""
    noise = NoiseSpec(enabled=True)
    field = _closed_loop_scenarios()[0]
    imp, params = TABLE1[("lateral_servoing", "rear")]
    servoing = Scenario(path=build_experiment_path("exp1"), vehicle=CFG, implement=imp,
                        method="lateral_servoing", params=params, run_length=10.0,
                        initial_y=initial_lateral_for_error(0.5, imp), noise=noise, seed=2)
    return {
        "line_100hz": [straight_scenario(run_length=length, control_period=0.01, noise=noise)
                       for length in (4.0, 12.0)],
        "field": [replace(field, run_length=field.initial_s + 5.0), field],
        "lateral_servoing": [servoing, replace(servoing, run_length=30.0)],
    }


@pytest.mark.parametrize("which", ["line_100hz", "field", "lateral_servoing"])
def test_plant_step_calls_no_builtin_min_or_max(monkeypatch, which):
    # the per-step clamps and bounds are written inline; a run makes only
    # its start's calls: segment_index of the start state and of the start
    # pose, and the optimal controller's max(I_s, 0.0) for its horizon
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_globals.get("__name__", "").startswith("implement_guidance."):
                calls.append((caller.f_code.co_name, real.__name__))
            return real(*args, **kwargs)
        return wrapper
    runs = _guard_runs()[which]
    counts, lengths = [], []
    for scn in runs:
        calls.clear()
        with monkeypatch.context() as mp:
            mp.setattr(builtins, "min", counting(min))
            mp.setattr(builtins, "max", counting(max))
            log = run_scenario(scn)
        assert log.fault is None
        counts.append(sorted(calls))
        lengths.append(len(log.segments))
    start = [("segment_index", "min")] * 2
    if runs[0].method == "optimal":
        start.append(("OptimalController", "max"))
    assert counts == [sorted(start)] * 2
    assert lengths[1] > 2 * lengths[0] > 500


def test_run_calls_the_names_the_benchmark_traces(monkeypatch):
    # bench/tracer.py patches these names where run_scenario looks them up:
    # one `step` per plant step, one `implement_error_exact` per record, and
    # one `measure` and one `Controller.step` per control step, noisy or not
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in ("step", "measure", "implement_error_exact"):
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    monkeypatch.setattr(Controller, "step", counting("Controller.step", Controller.step))
    for spec in (NoiseSpec(), NoiseSpec(enabled=True)):
        counts.clear()
        scn = straight_scenario(run_length=20.0, noise=spec)
        log = run_scenario(scn)
        n = len(log.segments)
        assert log.fault is None and log.column("s")[-1] >= scn.run_length
        assert counts["step"] == n - 1
        assert counts["implement_error_exact"] == n
        assert counts["measure"] == counts["Controller.step"] == math.ceil(n / 10)


# ------------------------------------------------------------------- faults

def test_fault_truncates_log_without_raising():
    # arc of radius 1: start 1 m outside -> |1 - c y| singular immediately
    path = build_path([{"kind": "arc", "length_m": 6.0, "curvature_per_m": 1.0}])
    imp, params = TABLE1[("optimal", "rear")]
    scn = Scenario(path=path, vehicle=CFG, implement=imp, method="optimal",
                   params=params, run_length=5.0, initial_y=0.999999999)
    log = run_scenario(scn)
    assert log.fault is not None
    assert all(map(math.isfinite, log.column("delta_cmd")))


def _raise_on_call(k, fn, exc):
    """fn, except that its k-th call (from 1) raises exc instead."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if next(calls) == k:
            raise exc
        return fn(*args, **kwargs)
    return wrapper


def _measure_fault(mp):
    mp.setattr(harness, "measure",
               _raise_on_call(3, harness.measure, SingularityError("measure guard")))
    return "measure guard", 21  # at the third control step, plant step 20


def _controller_fault(mp):
    mp.setattr(controllers, "optimal_control_step", _raise_on_call(
        3, controllers.optimal_control_step, DomainError("controller guard")))
    return "controller fail-safe: controller guard", 21


def _step_fault(mp):
    mp.setattr(harness, "step",
               _raise_on_call(25, harness.step, SingularityError("step guard")))
    return "step guard", 26  # recorded at its end time, with its start state


def _budget_fault(mp):
    mp.setattr(harness, "step", lambda pose, proj, *args: (pose, proj))
    # int(3 * 2 / (1 * 0.01)) + 10 plant steps that stay at s = 0
    return "plant-step budget of 610 used up at s = 0.0 m, short of run_length 2.0 m", 611


@pytest.mark.parametrize("fault", [_measure_fault, _controller_fault, _step_fault,
                                   _budget_fault], ids=["measure", "controller", "step",
                                                        "budget"])
def test_each_fault_exit_records_one_faulted_last_record(monkeypatch, fault):
    scn = straight_scenario(run_length=2.0)
    message, n = fault(monkeypatch)
    log = run_scenario(scn)
    assert log.fault == message
    assert list(map(bool, log.faults)) == [False] * (n - 1) + [True]
    t = 0.0
    for _ in range(n - 1):
        t += scn.dt
    assert log.column("t")[-1] == t
    if fault is _step_fault:
        *_, before, last = _rows(log)
        assert last[1:4] == before[1:4]  # s, y and theta_tilde


def test_budget_whose_last_step_reaches_run_length_records_that_step(monkeypatch):
    # each step advances s by just over run_length / max_steps, so only the
    # budget's last step reaches the length: its end state is the last record
    scn = straight_scenario(run_length=2.0)
    ds = scn.run_length / scn.max_steps * (1 + 1e-9)
    monkeypatch.setattr(harness, "step", lambda pose, proj, *args: (
        pose, proj._replace(frenet=proj.frenet._replace(s=proj.frenet.s + ds))))
    log = run_scenario(scn)
    assert log.fault is None
    s = log.column("s")
    assert len(log.segments) == scn.max_steps + 1 == 611
    assert s[-1] >= scn.run_length > s[-2]
    assert not any(log.faults)


@pytest.mark.parametrize("speed, dt", [(1e-200, 1e-200), (1e-300, 1e-10)])
def test_scenario_rejects_a_budget_that_is_not_finite(speed, dt):
    # 3 * run_length / (speed * dt): speed * dt underflows to 0 (a division
    # by zero), or to a subnormal that makes the quotient overflow to inf
    with pytest.raises(ParameterError, match="plant-step budget"):
        straight_scenario(vehicle=VehicleConfig(speed=speed), dt=dt, control_period=dt)


def test_scenario_owns_the_method_rule():
    # an unknown method, and params of the other method's kind, fail when the
    # scenario is built, not when it runs
    with pytest.raises(ParameterError, match="unknown method 'bogus'") as exc:
        straight_scenario(method="bogus")
    assert exc.value.fields == ("method",)
    baseline = TABLE1[("backstepping", "rear")][1]
    with pytest.raises(ParameterError, match="'optimal' takes OptimalParams") as exc:
        straight_scenario(method="optimal", params=baseline)
    assert exc.value.fields == ("method",)
    for method in ("backstepping", "lateral_servoing"):
        with pytest.raises(ParameterError, match="takes BaselineParams") as exc:
            straight_scenario(method=method)
        assert exc.value.fields == ("method",)
        assert straight_scenario(method=method, params=baseline).method == method


def test_run_stops_at_run_length():
    log = run_scenario(straight_scenario())
    assert log.fault is None
    s_end = log.column("s")[-1]
    assert 55.0 <= s_end < 55.0 + CFG.speed * 0.01 + 1e-9


# ---------------------------------------------------------------- summarize

def test_summarize_quantiles_and_windows():
    log = run_scenario(straight_scenario())
    s = column(log, "s")
    e = np.abs(column(log, "e_I_exact"))
    summary = summarize(log, junctions=(20.0,), window=5.0)
    kept = e[s >= s[0] + 5.0]
    assert summary["n_samples"] == kept.size
    assert summary["median_abs_e_m"] == pytest.approx(np.quantile(kept, 0.5))
    assert (summary["q25_m"] <= summary["median_abs_e_m"] <= summary["q75_m"]
            <= summary["max_abs_e_m"])
    win = np.abs(s - 20.0) <= 5.0
    assert summary["junction_overshoot_m"]["20"] == pytest.approx(e[win].max())
    assert summary["fault_count"] == 0
    assert set(summary["per_segment_median_m"]) == {"L1"}


def _reference_summarize(log, junctions=(), window=3.0):
    """summarize as it was written with numpy, kept as the reference."""
    s = column(log, "s")
    e = np.abs(column(log, "e_I_exact"))
    keep = s >= s[0] + 5.0
    sample = e[keep] if keep.any() else e
    per_segment = {}
    for segment, e_I in zip(log.segments, log.column("e_I_exact")):
        per_segment.setdefault(segment, []).append(abs(e_I))
    overshoot = {}
    for sj in junctions:
        win = np.abs(s - sj) <= window
        if win.any():
            overshoot[f"{sj:.6g}"] = float(e[win].max())
    return {
        "median_abs_e_m": float(np.quantile(sample, 0.5, method="linear")),
        "q25_m": float(np.quantile(sample, 0.25, method="linear")),
        "q75_m": float(np.quantile(sample, 0.75, method="linear")),
        "max_abs_e_m": float(sample.max()),
        "per_segment_median_m": {k: float(np.median(v)) for k, v in per_segment.items()},
        "junction_overshoot_m": overshoot,
        "fault_count": sum(1 for f in log.faults if f),
        "n_samples": int(sample.size),
    }


def _exact(obj):
    """obj with every float as float.hex and every dict as its item list, so
    that == also compares signs of zero and key order."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return [(k, _exact(v)) for k, v in obj.items()]
    return obj


def _assert_summaries_equal(log, **kwargs):
    want = _reference_summarize(log, **kwargs)
    got = summarize(log, **kwargs)
    assert got == want
    assert _exact(got) == _exact(want)


# on a grid of quarter metres, windows touch records and each other exactly
_GRID = st.integers(-8, 200).map(lambda k: k / 4)
_ABSCISSA = st.one_of(_GRID, st.floats(-5.0, 60.0))
_LENGTH = st.one_of(st.integers(0, 24).map(lambda k: k / 4), st.floats(0.0, 10.0))


@st.composite
def _logs(draw):
    n = draw(st.integers(1, 40))
    abscissae = draw(st.one_of(
        st.lists(_ABSCISSA, min_size=n, max_size=n),  # repeated and non-monotone
        st.lists(_ABSCISSA, min_size=n, max_size=n).map(sorted)))
    errors = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, 1e-300]),
                                     st.floats(-3.0, 3.0)),
                           min_size=n, max_size=n))
    segments = draw(st.lists(st.sampled_from(["L1", "C1", "L2"]), min_size=n, max_size=n))
    faults = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return log_of((0.01 * i, si, 0.0, 0.0, ei, 0.0, 0.0, 0.0, 0.0, segment, fault)
                  for i, (si, ei, segment, fault)
                  in enumerate(zip(abscissae, errors, segments, faults)))


@settings(max_examples=200, deadline=None)
@given(log=_logs(),
       junctions=st.lists(st.one_of(_ABSCISSA, st.just(1e3)), max_size=5).map(tuple),
       window=st.one_of(_LENGTH, st.floats(0.0, 20.0)))
@example(log=log_of((0.01 * i, s, 0.0, 0.0, e, 0.0, 0.0, 0.0, 0.0, "L1", False)
                    for i, (s, e) in enumerate([(1.0, 0.5), (5.75, -0.25), (3.0, 2.0)])),
         junctions=(2.0, 1e3), window=1.0)
def test_summarize_equals_numpy_reference(log, junctions, window):
    # a log whose records all lie within 5 m of its first abscissa leaves
    # none past the skipped start, so the whole log is the sample; junction
    # 1e3 has an empty window
    _assert_summaries_equal(log, junctions=junctions, window=window)


def test_summarize_equals_numpy_reference_on_a_run():
    scn = straight_scenario(path=build_experiment_path("exp1"), run_length=45.0)
    log = run_scenario(scn)
    rows = list(_rows(log))
    for n in (len(rows), len(rows) - 1):  # even and odd sample sizes
        _assert_summaries_equal(log_of(rows[:n]), junctions=scn.path.junctions(),
                                window=scn.params.s_h + 3.0)


@st.composite
def _summary_logs(draw):
    """Logs whose s rises, falls or is drawn in any order, or stays within
    SKIP_S of its first record; whose |e_I| holds NaN, infinities and signed
    zeros; whose records lie on a quarter-metre grid, so that windows end
    exactly on them; and whose segments are one label or drawn per record,
    so that a label is visited again (L1, C1, L1)."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["rising", "falling", "drawn", "within_skip"]))
    if kind == "within_skip":
        s0 = draw(_GRID)
        abscissae = sorted(s0 + k / 4 for k in draw(
            st.lists(st.integers(0, 19), min_size=n, max_size=n)))
    else:
        abscissae = draw(st.lists(_ABSCISSA, min_size=n, max_size=n))
        if kind != "drawn":
            abscissae.sort(reverse=kind == "falling")
    errors = draw(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, -0.25, math.nan, math.inf, -math.inf]),
        st.floats(-3.0, 3.0)), min_size=n, max_size=n))
    segments = draw(st.one_of(
        st.sampled_from(["L1", "C1"]).map(lambda label: [label] * n),
        st.lists(st.sampled_from(["L1", "C1", "L2"]), min_size=n, max_size=n)))
    faults = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return log_of((0.01 * i, si, 0.0, 0.0, ei, 0.0, 0.0, 0.0, 0.0, segment, fault)
                  for i, (si, ei, segment, fault)
                  in enumerate(zip(abscissae, errors, segments, faults)))


def _summary_log(abscissae, errors, segments):
    return log_of((0.01 * i, si, 0.0, 0.0, ei, 0.0, 0.0, 0.0, 0.0, segment, False)
                  for i, (si, ei, segment) in enumerate(zip(abscissae, errors, segments)))


@settings(max_examples=300, deadline=None)
@given(log=_summary_logs(),
       junctions=st.lists(st.one_of(_GRID, _ABSCISSA, st.just(1e3)), max_size=5).map(tuple),
       window=st.one_of(_LENGTH, st.floats(0.0, 20.0)))
@example(log=_summary_log([2.0], [-0.0], ["L1"]), junctions=(2.0,), window=0.0)
@example(log=_summary_log([0.0, 1.0, 3.0, 5.0, 7.0, 8.0], [1.0, -2.0, 0.5, math.nan, -0.25, 3.0],
                          ["L1"] * 6),
         junctions=(5.0,), window=2.0)  # s - sj == -window and +window
@example(log=_summary_log([0.0, 2.0, 4.0, 6.0, 8.0, 10.0], [0.5, -0.0, 0.25, 2.0, -1.0, 0.75],
                          ["L1", "L1", "C1", "C1", "L1", "L1"]),
         junctions=(4.0, 8.0), window=1.0)
@example(log=_summary_log([9.0, 7.0, 6.0, 1.0], [0.5, math.nan, -0.0, 0.25], ["L1"] * 4),
         junctions=(6.0,), window=1.0)
def test_summarize_equals_the_reference(log, junctions, window):
    # the dicts match float for float (float.hex tells -0.0 from 0.0 and
    # gives every NaN one text) and key for key, in order
    got = summarize(log, junctions=junctions, window=window)
    assert _exact(got) == _exact(reference_summarize(log, junctions=junctions, window=window))


def test_summarize_empty_log_rejected():
    with pytest.raises(ParameterError):
        summarize(RunLog())


# -------------------------------------------------------------------- sweep

def test_sweep_horizon_rows_sorted_and_complete():
    base = straight_scenario(path=build_experiment_path("exp2"), run_length=50.0)
    results = list(sweep_horizon(base, rows=[TABLE2[4], TABLE2[0], TABLE2[6]]))
    hs = [p.s_h for p, _, _ in results]
    assert hs == sorted(hs) and hs == [0.5, 2.5, 3.5]
    for _, _, summary in results:
        assert summary["n_samples"] > 0


# ------------------------------------------------------------------ compare

def test_compare_methods_six_configurations():
    scn = straight_scenario(path=build_experiment_path("exp1"),
                            run_length=45.0,
                            vehicle=VehicleConfig(steer_rate_limit=0.15))
    results = list(compare_methods(scn))
    assert [(placement, method) for placement, method, _, _ in results] == [
        (placement, method) for placement in ("front", "rear")
        for method in ("lateral_servoing", "backstepping", "optimal")]
    for _, _, log, summary in results:
        assert summary["n_samples"] > 0 and log.fault is None
        assert "junction_overshoot_m" in summary


# ------------------------------------------------------------- anticipation

def test_front_optimal_anticipates_junction_at_the_implement():
    # Criterion 5's check for the front placement: the implement crosses the
    # junction I_s before the robot, so the first command change must come
    # within one horizon of the implement reaching it.
    path = build_path([
        {"kind": "line", "length_m": 20.0},
        {"kind": "arc", "length_m": 10.0 * math.pi / 2, "curvature_per_m": 0.1},
    ])
    s_j = 20.0
    imp, params = TABLE1[("optimal", "front")]
    scn = Scenario(path=path, vehicle=CFG, implement=imp, method="optimal",
                   params=params, run_length=30.0,
                   initial_y=initial_lateral_for_error(0.0, imp))
    assert scn.make_controller().horizon == params.s_h + imp.I_s
    rear_imp, rear_params = TABLE1[("optimal", "rear")]
    rear = replace(scn, implement=rear_imp, params=rear_params)
    assert rear.make_controller().horizon == rear_params.s_h
    log = run_scenario(scn)
    s = column(log, "s")
    d = column(log, "delta_cmd")
    steady = d[(s > 5.0) & (s < 10.0)].mean()
    dev = np.abs(d - steady) > 1e-6
    first = float(s[np.nonzero(dev & (s > 10.0))[0][0]])
    assert s_j - imp.I_s - params.s_h <= first < s_j - imp.I_s


# ------------------------------------------------------------ log invariants

def test_run_log_costs_at_most_96_bytes_per_record():
    # nine unboxed floats (72 B), a shared segment label and a fault flag;
    # a record of boxed floats cost 317-361 B
    scn = straight_scenario(path=build_experiment_path("exp1"), run_length=45.0, seed=7,
                            noise=NoiseSpec(enabled=True))
    run_scenario(scn)  # the noise generator's first use is not the log's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = run_scenario(scn)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.segments) > 4000
    assert held / len(log.segments) <= 96


def _line_100hz_scenario():
    """A 100 m line, the optimal controller at the plant rate (control period
    = dt = 0.01 s) with n_h = 70, noise on: ~9,900 records, one segment."""
    return straight_scenario(path=build_path([{"kind": "line", "length_m": 100.0}]),
                             params=replace(TABLE2[6], s_t=0.05), run_length=99.0,
                             control_period=0.01, seed=11, noise=NoiseSpec(enabled=True))


def _field_rows_scenario():
    """One row and headland turn of a serpentine field of 30 rows joined by
    180-degree arcs (59 segments, 58 junctions): ~3,900 records."""
    row, radius = 30.0, 3.0
    descriptors = []
    for i in range(30):
        descriptors.append({"kind": "line", "length_m": row})
        if i < 29:
            descriptors.append({"kind": "arc", "length_m": math.pi * radius,
                                "curvature_per_m": (1.0 if i % 2 == 0 else -1.0) / radius})
    lap = row + math.pi * radius
    return straight_scenario(path=build_path(descriptors), initial_s=12 * lap,
                             run_length=13 * lap)


def _exp2_sweep_scenario():
    """The s_h = 2 m row of the horizon sweep on the five-segment path, noise
    on: ~6,800 records, 5 junctions."""
    path = build_experiment_path("exp2")
    return straight_scenario(path=path, params=TABLE2[3],
                             run_length=math.floor(path.total_length - 1.0),
                             noise=NoiseSpec(enabled=True))


@pytest.mark.parametrize("make_scenario", [_line_100hz_scenario, _field_rows_scenario,
                                           _exp2_sweep_scenario],
                         ids=["line_100hz", "field_rows", "exp2_sweep_sh_2"])
def test_summarize_costs_at_most_48_bytes_per_record(make_scenario):
    # 8 B of s, 32 B for one boxed |e_I| that every list shares, and 8 B for
    # one segment's list or the sample's; it was 68-132 B with a sorted copy
    # per list and the junction windows cut from the records sorted by s
    scn = make_scenario()
    log = run_scenario(scn)
    junctions, window = scn.path.junctions(), scn.params.s_h + WINDOW_PAD
    assert len(log.segments) > 3500
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = summarize(log, junctions, window)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert summary == reference_summarize(log, junctions, window)
    assert peak / len(log.segments) <= 48


def test_log_counts_plant_steps_and_holds_the_records_of_its_csv(monkeypatch):
    scn = straight_scenario(path=build_experiment_path("exp1"), run_length=45.0, seed=7,
                            noise=NoiseSpec(enabled=True))
    steps = []
    step = harness.step
    monkeypatch.setattr(harness, "step", lambda *args: steps.append(1) or step(*args))
    log = run_scenario(scn)
    # the start state, then each step's end; the benchmark counts plant steps
    # with len(log.records)
    assert len(log.records) == len(log.segments) == len(steps) + 1
    monkeypatch.undo()
    # the CSV parsed field by field, column by column: the floats, labels and
    # flags the log holds, as the golden hashes pin its CSV
    rows = [line.split(",") for line in _csv(log).splitlines()[1:]]
    for k, name in enumerate(harness.FLOAT_FIELDS):
        assert log.column(name).tolist() == [float(row[k]) for row in rows]
    assert log.segments == [row[9] for row in rows]
    assert list(log.faults) == [int(row[10]) for row in rows]


def test_logged_steer_respects_actuator_limits():
    log = run_scenario(straight_scenario(path=build_experiment_path("exp1"),
                                         run_length=45.0))
    d = column(log, "delta_actual")
    assert np.all(np.abs(d) <= CFG.steer_limit + 1e-12)
    assert np.all(np.abs(np.diff(d)) <= CFG.steer_rate_limit * 0.01 + 1e-12)


# ---------------------------------------------------------------------- CSV

def _csv(log):
    buf = io.StringIO()
    write_csv(log, buf)
    return buf.getvalue()


def test_csv_round_trip_byte_identical():
    log = run_scenario(straight_scenario(run_length=20.0))
    buf = io.StringIO()
    write_csv(log, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == CSV_HEADER
    reread = read_csv(io.StringIO(text))
    buf2 = io.StringIO()
    write_csv(reread, buf2)
    assert buf2.getvalue() == text


def test_csv_formats_delta_actual_by_value_and_sign():
    # a repeated delta_cmd, delta_actual or theta_d is formatted once;
    # 0.0 == -0.0, but they print apart, and NaN equals nothing
    values = [0.1, 0.1, 0.0, -0.0, -0.0, 0.0, 0.2, 0.1, math.nan, math.nan, 0.1, -0.0]
    columns = [values, values[3:] + values[:3], values[::-1]]
    log = log_of((0.0, 1.0, 0.0, 0.0, 0.0, 0.0, d_cmd, d_actual, theta_d, "L1", False)
                 for d_cmd, d_actual, theta_d in zip(*columns))
    rows = [row.split(",") for row in _csv(log).splitlines()[1:]]
    for k, want in zip((6, 7, 8), columns):  # delta_cmd, delta_actual, theta_d
        assert [row[k] for row in rows] == list(map(repr, want))


def test_csv_reuses_the_text_of_an_equal_float_of_the_row_by_value_and_sign():
    # e_I_measured reuses e_I_exact's text, and delta_actual delta_cmd's,
    # only when the two are equal and nonzero: 0.0 == -0.0, but they print
    # apart, and NaN equals nothing
    pairs = [(0.1, 0.1), (0.1, 0.1), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0),
             (0.2, 0.1), (0.1, 0.1), (math.nan, math.nan), (0.1, math.nan), (math.nan, 0.1),
             (-0.1, -0.1), (-0.1, 0.1), (5e-324, 5e-324), (-0.0, -0.0)]
    shifted = pairs[5:] + pairs[:5]  # a held delta_actual meets other commands
    log = log_of((0.0, 1.0, 0.0, 0.0, e_exact, e_measured, d_cmd, d_actual, 0.0, "L1", False)
                 for (e_exact, e_measured), (d_cmd, d_actual) in zip(pairs, shifted))
    rows = [row.split(",") for row in _csv(log).splitlines()[1:]]
    assert [(row[4], row[5]) for row in rows] == [(repr(a), repr(b)) for a, b in pairs]
    assert [(row[6], row[7]) for row in rows] == [(repr(a), repr(b)) for a, b in shifted]


def test_csv_round_trip_of_a_faulted_run(monkeypatch):
    message, n = _step_fault(monkeypatch)
    log = run_scenario(straight_scenario(run_length=2.0))
    assert log.fault == message
    text = _csv(log)
    assert [row[-1] for row in text.splitlines()[1:]] == ["0"] * (n - 1) + ["1"]
    assert _csv(read_csv(io.StringIO(text))) == text


def test_csv_bad_header_rejected():
    with pytest.raises(ParameterError):
        read_csv(io.StringIO("time,s\n0,0\n"))
    good = "0.0,1.0,0.2,0.1,0.0,0.0,0.0,0.0,0.0,L1,0\n"
    # a short row and a non-number: ParameterError naming the line
    with pytest.raises(ParameterError, match="line 3"):
        read_csv(io.StringIO(CSV_HEADER + "\n" + good + "0.0,1.0,0.2\n"))
    with pytest.raises(ParameterError, match="line 2"):
        read_csv(io.StringIO(CSV_HEADER + "\n" + good.replace("0.2", "abc") + good))
    # a fault flag other than 0 or 1 would not survive write -> read -> write
    for flag in ("yes", "", "01", "true"):
        with pytest.raises(ParameterError, match="line 3: fault field"):
            read_csv(io.StringIO(CSV_HEADER + "\n" + good + good[:-2] + flag + "\n"))


def test_run_and_summarize_reports_junctions():
    scn = straight_scenario(path=build_experiment_path("exp1"), run_length=45.0)
    log, summary = run_and_summarize(scn)
    assert len(summary["junction_overshoot_m"]) == len(scn.path.junctions())
