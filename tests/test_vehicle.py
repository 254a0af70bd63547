import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from implement_guidance.errors import ParameterError, SingularityError
from implement_guidance.paths import (
    FrenetState,
    Projection,
    build_experiment_path,
    build_path,
    wrap_angle,
)
from implement_guidance.presets import FRONT_IMPLEMENT, REAR_IMPLEMENT
from implement_guidance.vehicle import (
    ImplementConfig,
    Measurements,
    VehicleConfig,
    VehiclePose,
    apply_steer_command,
    implement_error_exact,
    implement_error_measured,
    implement_world_position,
    integrate_pose,
    measure,
    pose_on_path,
    step,
    yaw_rate_from_steer,
)

from support import edge_floats

CFG = VehicleConfig()
REAR = ImplementConfig(I_s=-2.0, I_y=-0.5)


def straight(length=60.0):
    return build_path([{"kind": "line", "length_m": length}])


# -------------------------------------------------------------------- config

def test_vehicle_config_validation():
    for kwargs in [{"wheelbase": 0.0}, {"steer_limit": 0.0},
                   {"steer_limit": math.pi / 2}, {"steer_rate_limit": 0.0},
                   {"speed": 0.0}]:
        with pytest.raises(ParameterError):
            VehicleConfig(**kwargs)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("name", ["wheelbase", "steer_limit", "steer_rate_limit", "speed"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_vehicle_config_rejects_non_finite(name, value):
    # NaN passed the `<= 0` checks, and the plant step integrated it silently
    with pytest.raises(ParameterError, match=name):
        VehicleConfig(**{name: value})


@pytest.mark.parametrize("name", ["I_s", "I_y"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_implement_config_rejects_non_finite(name, value):
    with pytest.raises(ParameterError, match=name):
        ImplementConfig(**{"I_s": -2.0, "I_y": -0.5, name: value})


# --------------------------------------------------- implement point geometry

def test_implement_world_position_rotations():
    imp = ImplementConfig(I_s=-2.0, I_y=-0.5)
    p = VehiclePose(x=0.0, y_world=0.0, heading=0.0, steer=0.0)
    assert implement_world_position(p, imp) == (-2.0, -0.5)
    p = VehiclePose(x=0.0, y_world=0.0, heading=math.pi / 2, steer=0.0)
    x, y = implement_world_position(p, imp)
    assert abs(x - 0.5) < 1e-12 and abs(y + 2.0) < 1e-12
    p = VehiclePose(x=1.0, y_world=1.0, heading=math.pi, steer=0.0)
    x, y = implement_world_position(p, ImplementConfig(I_s=2.0, I_y=-0.5))
    assert abs(x + 1.0) < 1e-12 and abs(y - 1.5) < 1e-12


def test_implement_error_exact_on_straight():
    path = straight()
    pose = pose_on_path(path, 10.0)
    assert abs(implement_error_exact(pose, ImplementConfig(-2.0, 0.0), path, 8.0)) < 1e-12
    assert abs(implement_error_exact(pose, ImplementConfig(-2.0, -0.5), path, 8.0) + 0.5) < 1e-12


def test_implement_error_exact_on_arc_chord():
    R = 10.0
    path = build_path([{"kind": "arc", "length_m": R * math.pi, "curvature_per_m": 1.0 / R}])
    pose = pose_on_path(path, R * math.pi / 2)
    e = implement_error_exact(pose, ImplementConfig(-2.0, 0.0), path, R * math.pi / 2 - 2.0)
    assert abs(e - (R - math.sqrt(R * R + 4.0))) < 1e-9


def test_implement_error_measured_values():
    assert implement_error_measured(FrenetState(0, 0.0, 0.0), ImplementConfig(-2, -0.5)) == -0.5
    e = implement_error_measured(FrenetState(0, 0.4, 0.0), ImplementConfig(-2, -0.5))
    assert abs(e + 0.1) < 1e-12


@given(st.floats(-2.0, 2.0))
def test_measured_error_exact_at_zero_heading(y):
    # e(theta~=0) = y + I_y exactly, for all y
    assert implement_error_measured(FrenetState(0, y, 0.0), REAR) == y + REAR.I_y


def test_measured_vs_exact_small_angles():
    path = straight()
    rng = np.random.default_rng(11)
    for _ in range(200):
        y = rng.uniform(-0.5, 0.5)
        th = rng.uniform(-0.1, 0.1)
        pose = pose_on_path(path, 10.0, lateral=y, heading_offset=th)
        exact = implement_error_exact(pose, REAR, path, 10.0 + REAR.I_s)
        measured = implement_error_measured(FrenetState(10.0, y, th), REAR)
        assert abs(measured - exact) <= 5e-3


@pytest.mark.parametrize("imp", [REAR_IMPLEMENT, FRONT_IMPLEMENT])
def test_arc_floor_of_the_measured_error(imp):
    # On an arc of radius R, with e_I_measured = 0 and theta_tilde = 0, the
    # implement point sits on the tangent at the robot's abscissa, |I_s| from
    # it, so sqrt(R^2 + I_s^2) from the center: e_I_exact is that much off the
    # arc, about -c I_s^2 / 2 (-0.20 m on exp1's R10, +0.25 m on its R8)
    path = build_experiment_path("exp1")
    line, r10, r8 = path.segments
    for arc, s0, gap in ((r10, line.length, -0.20), (r8, line.length + r10.length, 0.25)):
        s = s0 + arc.length / 2
        frenet = FrenetState(s, -imp.I_y, 0.0)
        assert implement_error_measured(frenet, imp) == 0.0
        pose = pose_on_path(path, s, lateral=-imp.I_y)
        floor = (implement_error_exact(pose, imp, path, s + imp.I_s)
                 - implement_error_measured(frenet, imp))
        c, R = arc.curvature, 1.0 / abs(arc.curvature)
        assert floor == pytest.approx(math.copysign(1.0, c) * (R - math.hypot(R, imp.I_s)),
                                      abs=1e-9)
        assert floor == pytest.approx(-c * imp.I_s ** 2 / 2, abs=0.01)
        assert floor == pytest.approx(gap, abs=0.01)


# ------------------------------------------------------------------ yaw rate

def test_yaw_rate_from_steer():
    path = straight()
    f = FrenetState(5.0, 0.0, 0.0)
    assert yaw_rate_from_steer(0.0, f, path.point_at(f.s)[2], CFG) == 0.0
    assert abs(yaw_rate_from_steer(0.2, f, path.point_at(f.s)[2], CFG)
               - math.tan(0.2) / 1.2) < 1e-12
    R = 10.0
    arc = build_path([{"kind": "arc", "length_m": R * math.pi, "curvature_per_m": 1.0 / R}])
    delta = math.atan(CFG.wheelbase / R)
    assert abs(yaw_rate_from_steer(delta, FrenetState(5.0, 0.0, 0.0), arc.point_at(5.0)[2],
                                   CFG)) < 1e-12


def test_yaw_rate_singularity_guard():
    arc = build_path([{"kind": "arc", "length_m": 3.0, "curvature_per_m": 1.0}])
    with pytest.raises(SingularityError):
        yaw_rate_from_steer(0.0, FrenetState(1.0, 1.0, 0.0), arc.point_at(1.0)[2], CFG)


# -------------------------------------------------------------------- step()

def test_step_straight_line_advance():
    path = straight()
    pose = pose_on_path(path, 5.0)
    new_pose, p = step(pose, Projection(FrenetState(5.0, 0.0, 0.0), 0), 0.0, 1.0, path, CFG)
    f = p.frenet
    assert abs(f.s - 6.0) < 1e-12
    assert abs(f.y) < 1e-12 and abs(f.theta_tilde) < 1e-12


def test_step_heading_rate_exact_for_constant_steer():
    # psi-dot = v tan(delta)/L is state-independent, so RK4 is exact
    path = straight()
    pose = VehiclePose(x=0.0, y_world=0.0, heading=0.0, steer=0.2)
    moved = integrate_pose(pose, lambda t: 0.2, 0.0, 0.5, CFG)
    assert abs(moved.heading - 0.5 * math.tan(0.2) / 1.2) < 1e-15


def test_step_respects_dt_positive():
    path = straight()
    with pytest.raises(ParameterError):
        step(pose_on_path(path, 1.0), Projection(FrenetState(1.0, 0.0, 0.0), 0), 0.0, 0.0,
             path, CFG)


def test_step_singularity_guard():
    arc = build_path([{"kind": "arc", "length_m": 3.0, "curvature_per_m": 1.0}])
    pose = pose_on_path(arc, 1.0, lateral=1.0)
    with pytest.raises(SingularityError):
        step(pose, Projection(FrenetState(1.0, 1.0, 0.0), 0), 0.0, 0.01, arc, CFG)


def test_frenet_projection_matches_curvilinear_model():
    """Plant truth (projection) vs direct integration of the curvilinear
    equations s' = v cos(t)/(1 - c y), y' = v sin(t),
    t' = v (tan(d)/L - c cos(t)/(1 - c y)), over 10 m: |dy| < 1e-5."""
    R = 10.0
    path = build_path([{"kind": "arc", "length_m": 15.0, "curvature_per_m": 1.0 / R}])
    v, L = CFG.speed, CFG.wheelbase

    def steer_of_t(t):
        # wiggle around the curvature-matched angle so the state stays near
        # the path and the right-hand side stays smooth (no junction crossing)
        return math.atan(L / R) + 0.05 * math.sin(0.5 * t)

    # plant: world RK4 + projection, dt = 1e-3
    dt = 1e-3
    pose = pose_on_path(path, 0.0, lateral=0.2, heading_offset=0.1)
    for i in range(10000):
        pose = integrate_pose(pose, steer_of_t, i * dt, dt, CFG)

    # curvilinear model: RK4 at dt = 1e-4 from the same initial state
    def deriv(t, s, y, th):
        c = path.point_at(min(s, path.total_length))[2]
        denom = 1.0 - c * y
        sdot = v * math.cos(th) / denom
        ydot = v * math.sin(th)
        thdot = v * (math.tan(steer_of_t(t)) / L - c * math.cos(th) / denom)
        return sdot, ydot, thdot

    s, y, th = 0.0, 0.2, 0.1
    h = 1e-4
    t = 0.0
    n = int(round(10.0 / h))
    for _ in range(n):
        k1 = deriv(t, s, y, th)
        k2 = deriv(t + h / 2, s + h / 2 * k1[0], y + h / 2 * k1[1], th + h / 2 * k1[2])
        k3 = deriv(t + h / 2, s + h / 2 * k2[0], y + h / 2 * k2[1], th + h / 2 * k2[2])
        k4 = deriv(t + h, s + h * k3[0], y + h * k3[1], th + h * k3[2])
        s += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        th += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        t += h

    proj = path.project((pose.x, pose.y_world), pose.heading, s)
    assert abs(proj.frenet.y - y) < 1e-5
    assert abs(proj.frenet.s - s) < 1e-4


def test_integrator_fourth_order_convergence():
    def steer_of_t(t):
        return 0.3 * math.sin(t)

    start = VehiclePose(x=0.0, y_world=0.0, heading=0.0, steer=0.0)

    def final(dt):
        pose, t = start, 0.0
        n = int(round(2.0 / dt))
        for _ in range(n):
            pose = integrate_pose(pose, steer_of_t, t, dt, CFG)
            t += dt
        return pose

    ref = final(1e-4)
    errs = []
    for dt in (0.08, 0.04, 0.02, 0.01):
        p = final(dt)
        errs.append(math.hypot(p.x - ref.x, p.y_world - ref.y_world))
    for e1, e2 in zip(errs, errs[1:]):
        assert e1 / e2 >= 2 ** 4 * 0.8


def _reference_integrate_pose(pose, steer_fn, t0, dt, cfg):
    """Reference RK4 with one `deriv` call per stage (steering asked four
    times); `integrate_pose` must equal it bit for bit."""
    v, L = cfg.speed, cfg.wheelbase

    def deriv(t, x, y, psi):
        return (v * math.cos(psi), v * math.sin(psi), v * math.tan(steer_fn(t)) / L)

    x, y, psi = pose.x, pose.y_world, pose.heading
    k1 = deriv(t0, x, y, psi)
    k2 = deriv(t0 + dt / 2, x + dt / 2 * k1[0], y + dt / 2 * k1[1], psi + dt / 2 * k1[2])
    k3 = deriv(t0 + dt / 2, x + dt / 2 * k2[0], y + dt / 2 * k2[1], psi + dt / 2 * k2[2])
    k4 = deriv(t0 + dt, x + dt * k3[0], y + dt * k3[1], psi + dt * k3[2])
    return VehiclePose(
        x=x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        y_world=y + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
        heading=wrap_angle(psi + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])),
        steer=pose.steer,
    )


def _bits(pose):
    return [v.hex() for v in pose]


@given(x=st.floats(-1e4, 1e4), y=st.floats(-1e4, 1e4),
       heading=st.floats(-math.pi, math.pi), steer=st.floats(-0.55, 0.55),
       t0=st.floats(0.0, 1e3), dt=st.floats(1e-4, 0.5),
       speed=st.floats(0.1, 5.0), wheelbase=st.floats(0.5, 3.0),
       amplitude=st.floats(0.0, 0.5), omega=st.floats(0.0, 20.0))
def test_integrate_pose_equals_four_stage_reference_bit_for_bit(
        x, y, heading, steer, t0, dt, speed, wheelbase, amplitude, omega):
    cfg = VehicleConfig(wheelbase=wheelbase, speed=speed)
    pose = VehiclePose(x, y, heading, steer)
    for steer_fn in (lambda t: steer, lambda t: amplitude * math.sin(omega * t) + steer / 2,
                     # equal to the held steer, but a new float object per call
                     lambda t: float.fromhex(steer.hex())):
        new = integrate_pose(pose, steer_fn, t0, dt, cfg)
        assert type(new) is VehiclePose
        assert _bits(new) == _bits(_reference_integrate_pose(pose, steer_fn, t0, dt, cfg))


def test_integrate_pose_bit_for_bit_with_signed_zero_steer():
    # 0.0 == -0.0, but they differ in sign: every mix of signs matches the
    # four-stage reference
    zeros = (0.0, -0.0)
    for x in zeros:
        for heading in zeros:
            pose = VehiclePose(x, x, heading, 0.0)
            for signs in [(a, b, c) for a in zeros for b in zeros for c in zeros]:
                def steer_fn(t, signs=signs):
                    return signs[0] if t == 0.0 else signs[1] if t == 0.005 else signs[2]
                new = integrate_pose(pose, steer_fn, 0.0, 0.01, CFG)
                assert _bits(new) == _bits(
                    _reference_integrate_pose(pose, steer_fn, 0.0, 0.01, CFG))


_HEADINGS_NEAR_PI = st.one_of(
    st.floats(-math.pi, math.pi),
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0)]),
    # the step's heading may end on either side of the wrap
    st.floats(math.pi - 0.01, math.pi), st.floats(-math.pi, -math.pi + 0.01))
_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@given(x=st.floats(-1e4, 1e4), y=st.floats(-1e4, 1e4), heading=_HEADINGS_NEAR_PI,
       steer=st.one_of(_SIGNED_ZEROS, st.floats(-0.55, 0.55)),
       steer_cmd=st.one_of(_SIGNED_ZEROS, st.floats(-0.55, 0.55), st.floats(-10.0, 10.0)),
       dt=st.floats(1e-4, 0.5), speed=st.floats(0.1, 5.0), wheelbase=st.floats(0.5, 3.0),
       rate=st.floats(0.05, 5.0))
@example(x=0.0, y=0.0, heading=math.pi, steer=0.0, steer_cmd=10.0, dt=0.1,
         speed=1.0, wheelbase=1.2, rate=0.8)  # the slew saturates, the heading wraps
@example(x=0.0, y=0.0, heading=-math.pi, steer=0.5, steer_cmd=-10.0, dt=0.5,
         speed=1.0, wheelbase=1.2, rate=5.0)  # the clamp binds, then the slew
@example(x=-0.0, y=-0.0, heading=-0.0, steer=-0.0, steer_cmd=0.0, dt=0.01,
         speed=1.0, wheelbase=1.2, rate=0.8)
@example(x=0.0, y=0.0, heading=0.0, steer=0.0, steer_cmd=-0.0, dt=0.01,
         speed=1.0, wheelbase=1.2, rate=0.8)
def test_step_equals_integrate_pose_of_the_held_command_bit_for_bit(
        x, y, heading, steer, steer_cmd, dt, speed, wheelbase, rate):
    # `step` integrates the held command in place; `integrate_pose` with that
    # command as its steer function is the reference
    cfg = VehicleConfig(wheelbase=wheelbase, steer_rate_limit=rate, speed=speed)
    path = straight()
    start = Projection(FrenetState(10.0, 0.0, 0.0), 0)
    moved, proj = step(VehiclePose(x, y, heading, steer), start, steer_cmd, dt, path, cfg)
    new_steer = apply_steer_command(steer, steer_cmd, dt, cfg)
    expected = integrate_pose(VehiclePose(x, y, heading, new_steer), lambda t: new_steer,
                              0.0, dt, cfg)
    assert type(moved) is VehiclePose
    assert _bits(moved) == _bits(expected)
    assert proj == path.project((expected.x, expected.y_world), expected.heading, 10.0)


def test_integrate_pose_asks_steer_once_per_stage_time():
    times = []
    integrate_pose(VehiclePose(0.0, 0.0, 0.0, 0.1), lambda t: times.append(t) or 0.1,
                   2.0, 0.5, CFG)
    assert times == [2.0, 2.25, 2.5]


def test_per_step_types_are_immutable():
    frenet = FrenetState(1.0, 0.2, 0.1)
    values = [
        frenet,
        Projection(frenet, 0),
        VehiclePose(0.0, 0.0, 0.0, 0.0),
        Measurements(frenet, 0.0, 0.0, 0.0, 0.0),
    ]
    for value in values:
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, 0.0)
        with pytest.raises(AttributeError):
            value.extra = 0.0


def test_curvature_matched_steady_state():
    R = 10.0
    path = build_path([{"kind": "arc", "length_m": 15.0, "curvature_per_m": 1.0 / R}])
    delta = math.atan(CFG.wheelbase / R)
    pose = pose_on_path(path, 0.0, steer=delta)
    proj = Projection(FrenetState(0.0, 0.0, 0.0), 0)
    for _ in range(1000):
        pose, proj = step(pose, proj, delta, 0.01, path, CFG)
        assert abs(proj.frenet.y) < 1e-6


# ------------------------------------------------------------ steer actuator

def test_apply_steer_command_clamps_and_slews():
    assert apply_steer_command(0.0, 10.0, 0.1, CFG) == pytest.approx(CFG.steer_rate_limit * 0.1)
    assert apply_steer_command(0.54, 10.0, 1.0, CFG) == pytest.approx(CFG.steer_limit)
    assert apply_steer_command(0.1, 0.1, 0.1, CFG) == 0.1


def _builtin_apply_steer_command(steer, steer_cmd, dt, cfg):
    """apply_steer_command with its clamps written as builtin min/max."""
    target = max(-cfg.steer_limit, min(cfg.steer_limit, steer_cmd))
    max_step = cfg.steer_rate_limit * dt
    return steer + max(-max_step, min(max_step, target - steer))


@pytest.mark.parametrize("dt", [0.01, 0.1])
def test_apply_steer_command_equals_its_builtin_form_bit_for_bit(dt):
    # float.hex tells NaN, the sign of a zero and one ulp apart; the steers
    # include those one slew step inside each limit, where target - steer is
    # +-max_step or its neighbour
    lim, max_step = CFG.steer_limit, CFG.steer_rate_limit * dt
    commands = edge_floats(lim, seed=1)
    steers = edge_floats(lim, seed=2, n=10) + [lim - max_step, max_step - lim,
                                                math.nextafter(lim - max_step, 0.0)]
    for steer in steers:
        for cmd in commands:
            assert (apply_steer_command(steer, cmd, dt, CFG).hex()
                    == _builtin_apply_steer_command(steer, cmd, dt, CFG).hex()), (steer, cmd)


@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=50))
def test_steer_slew_rate_never_violated(cmds):
    steer = 0.0
    dt = 0.1
    for cmd in cmds:
        new = apply_steer_command(steer, cmd, dt, CFG)
        assert abs(new - steer) <= CFG.steer_rate_limit * dt + 1e-12
        assert abs(new) <= CFG.steer_limit + 1e-12
        steer = new


def test_measure_bundle():
    path = build_path([
        {"kind": "line", "length_m": 5.0},
        {"kind": "arc", "length_m": 10.0, "curvature_per_m": 0.1},
    ])
    pose = pose_on_path(path, 4.0, steer=0.1)
    m = measure(pose, Projection(FrenetState(4.0, 0.0, 0.0), 0), path, CFG, REAR, horizon=2.0)
    assert m.curvature_now == 0.0
    assert m.curvature_at_horizon == 0.1
    assert m.e_I == implement_error_measured(m.frenet, REAR)
    assert m.omega_bar == pytest.approx(math.tan(0.1) / 1.2)


def test_noisy_measure_draws_y_theta_omega_and_reads_e_I_from_the_noisy_state():
    path = build_path([{"kind": "arc", "length_m": 10.0, "curvature_per_m": 0.1}])
    pose = pose_on_path(path, 4.0, 0.2, 0.05, steer=0.1)
    proj = Projection(FrenetState(4.0, 0.2, 0.05), 0)
    clean = measure(pose, proj, path, CFG, REAR, 2.0)
    z = iter([1.5, -2.0, 0.25]).__next__
    m = measure(pose, proj, path, CFG, REAR, 2.0, (0.01, 0.005, 0.1, z))
    # 0.0 + std * z is normal(0.0, std) bit for bit
    assert m.frenet == (4.0, 0.2 + (0.0 + 0.01 * 1.5), 0.05 + (0.0 + 0.005 * -2.0))
    assert m.omega_bar == clean.omega_bar + (0.0 + 0.1 * 0.25)
    assert m.e_I == implement_error_measured(m.frenet, REAR)
    assert (m.curvature_now, m.curvature_at_horizon) == (clean.curvature_now,
                                                         clean.curvature_at_horizon)
    assert clean.e_I == implement_error_measured(proj.frenet, REAR)
