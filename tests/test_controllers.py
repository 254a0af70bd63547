import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from implement_guidance import controllers
from implement_guidance.controllers import (
    MAX_N_H,
    BacksteppingController,
    BaselineParams,
    Controller,
    LateralServoingController,
    OptimalController,
    OptimalParams,
    alpha_gamma,
    backstepping_control_step,
    desired_heading,
    e_I_prime,
    e_I_second,
    lateral_servoing_control_step,
    optimal_control_step,
    predicted_cost,
    sigma_terms,
    steering_command,
    xi_optimal,
)
from implement_guidance.errors import DomainError, ParameterError, SingularityError
from implement_guidance.harness import Scenario, initial_lateral_for_error, run_scenario
from implement_guidance.paths import FrenetState, build_path
from implement_guidance.presets import TABLE1
from implement_guidance.vehicle import (
    ImplementConfig,
    Measurements,
    VehicleConfig,
    implement_error_measured,
    integrate_pose,
    measure,
    pose_on_path,
)

from support import column, edge_floats

CFG = VehicleConfig()
REAR = ImplementConfig(I_s=-2.0, I_y=-0.5)
REAR_PARAMS = OptimalParams(lam=0.1, k_theta=0.6, s_h=2.0, s_t=0.15)


def meas_of(y=0.0, theta=0.0, omega=0.0, c_now=0.0, c_hor=None, imp=REAR, s=0.0):
    f = FrenetState(s, y, theta)
    return Measurements(frenet=f, omega_bar=omega,
                        e_I=implement_error_measured(f, imp),
                        curvature_now=c_now,
                        curvature_at_horizon=c_now if c_hor is None else c_hor)


def golden_section(f, a, b, iters=80):
    invphi = (math.sqrt(5) - 1) / 2
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2


# ----------------------------------------------------------------- parameters

def test_optimal_params_validation():
    with pytest.raises(ParameterError):
        OptimalParams(lam=0.0, k_theta=0.6, s_h=2.0, s_t=0.15)
    with pytest.raises(ParameterError):
        OptimalParams(lam=0.1, k_theta=0.6, s_h=0.1, s_t=0.15)
    with pytest.raises(ParameterError):  # n_h = round(inf) would raise OverflowError
        OptimalParams(lam=0.1, k_theta=0.6, s_h=1e308, s_t=0.15)
    with pytest.raises(ParameterError):
        BaselineParams(k_y=0.0, k_theta=0.6)
    assert REAR_PARAMS.n_h == 13  # round(2.0 / 0.15)


def test_optimal_params_cap_the_horizon_samples():
    # built in code, as the presets are: unchecked, s_h / s_t = 1e9 passed and
    # sigma_terms would loop 1e9 times
    assert OptimalParams(lam=0.1, k_theta=0.6, s_h=1.0, s_t=1e-4).n_h == MAX_N_H
    with pytest.raises(ParameterError, match=f"^the horizon has n_h = {MAX_N_H + 1} samples, "
                                             f"above the limit {MAX_N_H}$") as exc:
        OptimalParams(lam=0.1, k_theta=0.6, s_h=1.0001, s_t=1e-4)
    assert exc.value.fields == ("s_h", "s_t")
    with pytest.raises(ParameterError, match="n_h = 1000000000 samples") as exc:
        OptimalParams(lam=0.1, k_theta=0.6, s_h=1e6, s_t=1e-3)
    assert exc.value.fields == ("s_h", "s_t")


def test_optimal_params_reject_a_horizon_whose_sigma2_underflows():
    # n_h = 1 and (1e-300)^2 = 0.0: sigma2 = 0 made xi_optimal raise at the
    # first control step, after the parameters had been accepted
    with pytest.raises(ParameterError, match=r"^s_t = 1e-300 m is too small: sigma2") as exc:
        OptimalParams(lam=0.1, k_theta=0.6, s_h=1e-300, s_t=1e-300)
    assert exc.value.fields == ("s_t", "s_h")
    with pytest.raises(ParameterError, match="sigma2"):  # n_h = 2: (2e-200)^2 = 0.0 too
        OptimalParams(lam=0.1, k_theta=0.6, s_h=2e-200, s_t=1e-200)
    # (2e-162)^2 rounds up to the least subnormal, 5e-324; (1e-162)^2 to 0.0
    assert sigma_terms(OptimalParams(lam=0.1, k_theta=0.6, s_h=2e-162, s_t=2e-162)).sigma2 > 0.0
    with pytest.raises(ParameterError, match="sigma2"):
        OptimalParams(lam=0.1, k_theta=0.6, s_h=1e-162, s_t=1e-162)


def test_optimal_params_store_n_h_outside_init_compare_and_repr():
    # n_h is computed once, when the parameters are built, not per control step
    params = OptimalParams(lam=0.1, k_theta=0.6, s_h=2.0, s_t=0.15)
    assert vars(params)["n_h"] == 13
    assert "n_h" not in repr(params)
    assert params == REAR_PARAMS and hash(params) == hash(REAR_PARAMS)
    with pytest.raises(TypeError):
        OptimalParams(lam=0.1, k_theta=0.6, s_h=2.0, s_t=0.15, n_h=13)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make, fields, name", [
    (OptimalParams, {"lam": 0.1, "k_theta": 0.6, "s_h": 2.0, "s_t": 0.15}, name)
    for name in ("lam", "k_theta", "s_h", "s_t")] + [
    (BaselineParams, {"k_y": 0.2, "k_theta": 0.6}, name) for name in ("k_y", "k_theta")])
def test_params_reject_non_finite(make, fields, name, value):
    # min(nan, ...) and nan <= 0 let NaN through, and an infinite gain passed
    with pytest.raises(ParameterError, match=name):
        make(**{**fields, name: value})


# ---------------------------------------------------------------- alpha_gamma

def test_alpha_gamma():
    a, g = alpha_gamma(meas_of(y=0.3, c_now=0.0), 1.0)
    assert a == 1.0
    a, g = alpha_gamma(meas_of(y=0.0, omega=0.0), 1.0)
    assert g == 0.0
    a, g = alpha_gamma(meas_of(y=0.5, omega=0.09, c_now=0.1), 1.0)
    assert abs(a - 0.95) < 1e-12 and abs(g - 0.09) < 1e-12
    with pytest.raises(SingularityError):
        alpha_gamma(meas_of(y=10.0, c_now=0.1), 1.0)
    with pytest.raises(ParameterError):
        alpha_gamma(meas_of(), 0.0)


# ---------------------------------------------------------- error derivatives

def test_e_I_prime_values():
    assert e_I_prime(0.0, 1.0, 0.0, REAR) == 0.0
    assert abs(e_I_prime(0.0, 1.0, 0.1, REAR) + 0.2) < 1e-12
    with pytest.raises(DomainError):
        e_I_prime(math.pi / 2, 1.0, 0.0, REAR)


def _simulated_error_derivatives(path, s0, y0, th0, steer, imp=REAR, n=4, h=1e-3):
    """e_I(s) sampled along an exact constant-steer rollout; central stencils."""
    pose = pose_on_path(path, s0, lateral=y0, heading_offset=th0, steer=steer)
    es, ss = [], []
    # walk backward then forward in time around the sample point
    for direction in (-1, 1):
        p = pose
        for i in range(1, n + 1):
            p = integrate_pose(p, lambda t: steer, 0.0, direction * h, CFG)
            f = path.project((p.x, p.y_world), p.heading, s0).frenet
            ss.append(f.s)
            es.append(implement_error_measured(f, imp))
    f0 = path.project((pose.x, pose.y_world), pose.heading, s0).frenet
    ss.append(f0.s)
    es.append(implement_error_measured(f0, imp))
    order = np.argsort(ss)
    return np.array(ss)[order], np.array(es)[order]


def test_e_I_prime_matches_finite_difference():
    path = build_path([{"kind": "arc", "length_m": 30.0, "curvature_per_m": 0.1}])
    rng = np.random.default_rng(5)
    for _ in range(25):
        y0 = rng.uniform(-0.3, 0.3)
        th0 = rng.uniform(-0.2, 0.2)
        steer = rng.uniform(-0.2, 0.3)
        f = FrenetState(10.0, y0, th0)
        m = Measurements(frenet=f, omega_bar=0.0, e_I=0.0, curvature_now=0.1,
                         curvature_at_horizon=0.1)
        alpha = 1.0 - 0.1 * y0
        gamma = (math.tan(steer) / CFG.wheelbase
                 - 0.1 * math.cos(th0) / alpha)
        analytic = e_I_prime(th0, alpha, gamma, REAR)
        ss, es = _simulated_error_derivatives(path, 10.0, y0, th0, steer)
        fit = np.polyfit(ss - 10.0, es, 3)
        fd = fit[-2]
        assert abs(fd - analytic) / max(abs(analytic), 1e-3) < 1e-3


def test_e_I_second_values():
    assert e_I_second(0.0, 1.0, 0.0, 0.0, 1.2) == 0.0
    assert abs(e_I_second(0.0, 1.0, math.atan(1.2 * 0.1), 0.1, 1.2)) < 1e-12
    expected = (0.98 ** 2 / math.cos(0.05)) * (math.tan(0.1) / 1.2
                                               - 0.05 * math.cos(0.05) / 0.98)
    assert abs(e_I_second(0.05, 0.98, 0.1, 0.05, 1.2) - expected) < 1e-12


def test_e_I_second_matches_finite_difference():
    # The second-derivative expression is the curvature of the *point* error
    # (alpha * d theta~/ds); it omits implement-offset curvature terms, so the
    # oracle differences the point error (implement at the origin) at mild
    # heading offsets where the remaining small-angle terms are negligible.
    c = 0.05
    path = build_path([{"kind": "arc", "length_m": 30.0, "curvature_per_m": c}])
    point = ImplementConfig(I_s=0.0, I_y=0.0)
    rng = np.random.default_rng(9)
    for _ in range(25):
        y0 = rng.uniform(-0.3, 0.3)
        th0 = rng.uniform(-0.03, 0.03)
        steer = rng.uniform(0.12, 0.3)
        alpha = 1.0 - c * y0
        analytic = e_I_second(th0, alpha, steer, c, CFG.wheelbase)
        ss, es = _simulated_error_derivatives(path, 10.0, y0, th0, steer,
                                              imp=point, n=6)
        fit = np.polyfit(ss - 10.0, es, 4)
        fd = 2.0 * fit[-3]
        assert abs(fd - analytic) / max(abs(analytic), 1e-2) < 5e-3


# --------------------------------------------------------------------- sigmas

def test_sigma_terms_closed_cases():
    tiny = OptimalParams(lam=1e-12, k_theta=0.6, s_h=2.0, s_t=1.0)  # n_h = 2
    s = sigma_terms(tiny)
    assert (s.sigma1, s.sigma2, s.sigma3) == (3.0, 5.0, 9.0)
    assert abs(s.sigma_e - 3.0) < 1e-9
    single = OptimalParams(lam=1e-12, k_theta=0.6, s_h=0.5, s_t=0.5)  # n_h = 1
    s = sigma_terms(single)
    assert (s.sigma1, s.sigma2, s.sigma3) == (0.5, 0.25, 0.125)
    assert abs(s.sigma_e - 0.5) < 1e-9


def test_sigma_terms_independent_loop():
    s = sigma_terms(REAR_PARAMS)
    s1 = sum(k * 0.15 for k in range(1, 14))          # k = 0 term is zero
    s2 = sum((k * 0.15) ** 2 for k in range(1, 14))
    s3 = sum((k * 0.15) ** 3 for k in range(1, 14))
    se = sum(k * 0.15 * math.exp(-0.1 * k * 0.15) for k in range(1, 14))
    assert abs(s.sigma1 - s1) < 1e-12
    assert abs(s.sigma2 - s2) < 1e-12
    assert abs(s.sigma3 - s3) < 1e-12
    assert abs(s.sigma_e - se) < 1e-12
    assert s.sigma_e < s.sigma1  # strict for lam > 0


# ------------------------------------------------------------------- the cost

def test_predicted_cost_is_quadratic_with_sigma2_curvature():
    sigma = sigma_terms(REAR_PARAMS)
    h = 0.37
    for xi in (-1.0, 0.0, 2.5):
        j0 = predicted_cost(xi, 0.4, 1.0, 0.05, REAR, 0.1, REAR_PARAMS)
        jp = predicted_cost(xi + h, 0.4, 1.0, 0.05, REAR, 0.1, REAR_PARAMS)
        jm = predicted_cost(xi - h, 0.4, 1.0, 0.05, REAR, 0.1, REAR_PARAMS)
        second = (jp - 2 * j0 + jm)
        assert second > 0.0
        assert abs(second - 2 * h * h * sigma.sigma2) < 1e-9


def test_xi_optimal_trivials():
    sigma = sigma_terms(REAR_PARAMS)
    assert xi_optimal(0.0, 1.0, 0.0, REAR, 0.0, sigma) == 0.0
    xi = xi_optimal(0.5, 1.0, 0.0, REAR, 0.0, sigma)
    assert xi < 0.0 and abs(xi + 0.5 * (sigma.sigma1 - sigma.sigma_e) / sigma.sigma2) < 1e-12


def test_xi_optimal_matches_golden_section():
    rng = np.random.default_rng(17)
    for _ in range(100):
        params = OptimalParams(lam=rng.uniform(0.1, 0.25),
                               k_theta=rng.uniform(0.3, 0.6),
                               s_h=rng.uniform(0.5, 3.5),
                               s_t=rng.choice([0.10, 0.15]))
        imp = ImplementConfig(I_s=rng.uniform(-2, 2), I_y=rng.uniform(-0.5, 0.5))
        e = rng.uniform(-1, 1)
        alpha = rng.uniform(0.8, 1.2)
        gamma = rng.uniform(-0.2, 0.2)
        e2 = rng.uniform(-0.5, 0.5)
        xi = xi_optimal(e, alpha, gamma, imp, e2, sigma_terms(params))
        xi_num = golden_section(
            lambda x: predicted_cost(x, e, alpha, gamma, imp, e2, params), -10.0, 10.0)
        assert abs(xi - xi_num) < 1e-6


# ------------------------------------------------------------ heading + steer

def test_desired_heading():
    assert desired_heading(0.0, 1.0, 0.0, REAR) == 0.0
    xi = 1.0 * (1 - 0.09 * REAR.I_y) * math.tan(0.1)
    assert abs(desired_heading(xi, 1.0, 0.09, REAR) - 0.1) < 1e-12
    expected = math.atan(0.2 / (0.95 * (1 - 0.09 * (-0.5))))
    assert abs(desired_heading(0.2, 0.95, 0.09, ImplementConfig(-2, -0.5)) - expected) < 1e-12
    with pytest.raises(SingularityError):
        desired_heading(0.1, 1.0, 2.0, ImplementConfig(0.0, 0.5))


def test_steering_command():
    d, clamped = steering_command(0.1, 0.1, 0.0, 0.0, 0.6, 1.2, 0.55)
    assert d == 0.0 and not clamped
    d, _ = steering_command(0.0, 0.0, 0.1, 0.0, 0.6, 1.2, 0.55)
    assert abs(d - math.atan(0.12)) < 1e-12
    d, _ = steering_command(0.1, 0.0, 0.0, 0.0, 0.6, 1.2, 0.55)
    assert abs(d - math.atan(1.2 * (-0.06) * math.cos(0.1))) < 1e-12 and d < 0
    d, clamped = steering_command(1.2, 0.0, 0.0, 0.0, 5.0, 1.2, 0.55)
    assert clamped and abs(d) == 0.55
    with pytest.raises(SingularityError):
        steering_command(0.0, 0.0, 0.1, 10.0, 0.6, 1.2, 0.55)


def _builtin_clamp(raw, limit):
    """The steering clamp as builtin min/max."""
    return max(-limit, min(limit, raw))


def test_steering_command_clamp_equals_its_builtin_form_bit_for_bit():
    # raw = atan(L (-k_theta (theta - theta_d) + c) cos(theta) / (1 - c y)),
    # taken here at random states, at NaN (theta NaN) and at +-0.0 (c = +-0.0
    # with theta = theta_d = 0); each limit of edge_floats(|raw|) puts the
    # clamp at NaN, +-0.0, +-inf, +-|raw| or one ulp beside it
    rng = random.Random(5)
    states = [(rng.uniform(-1.2, 1.2), rng.uniform(-1.0, 1.0), rng.uniform(-0.4, 0.4),
               rng.uniform(-1.0, 1.0)) for _ in range(30)]
    states += [(math.nan, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, -0.0, 0.0)]
    for theta, theta_d, c, y in states:
        raw = math.atan(1.2 * (-0.6 * (theta - theta_d) + c) * math.cos(theta) / (1.0 - c * y))
        for limit in edge_floats(abs(raw), seed=6, n=5) + [0.55]:
            if math.isnan(raw):  # a guard trip, not a clamp
                with pytest.raises(DomainError, match="NaN"):
                    steering_command(theta, theta_d, c, y, 0.6, 1.2, limit)
                continue
            delta, clamped = steering_command(theta, theta_d, c, y, 0.6, 1.2, limit)
            assert delta.hex() == _builtin_clamp(raw, limit).hex(), (theta, limit)
            assert clamped == (abs(raw) > limit)


def test_lateral_servoing_clamp_equals_its_builtin_form_bit_for_bit():
    # a stand-in for VehicleConfig that skips its checks, so that the clamp
    # also meets the limits NaN, +-0.0, +-inf and -|raw|
    class Cfg:
        speed, wheelbase = 1.0, 1.2

    params = BaselineParams(0.1, 0.8)
    rng = random.Random(7)
    measurements = [meas_of(y=rng.uniform(-1.0, 1.0), theta=rng.uniform(-1.2, 1.2),
                            c_now=rng.uniform(-0.4, 0.4)) for _ in range(30)]
    # raw NaN, 0.0 and -0.0
    on_line = ImplementConfig(I_s=-2.0, I_y=0.0)
    measurements += [meas_of(theta=math.nan), meas_of(imp=on_line),
                     meas_of(c_now=-0.0, imp=on_line)]
    for meas in measurements:
        th, ct = meas.frenet.theta_tilde, math.cos(meas.frenet.theta_tilde)
        alpha = 1.0 - meas.curvature_now * meas.frenet.y
        raw = math.atan(1.2 * (meas.curvature_now * ct / alpha - 0.8 * th - 0.1 * meas.e_I * ct))
        for limit in edge_floats(abs(raw), seed=8, n=5) + [0.55]:
            Cfg.steer_limit = limit
            if math.isnan(raw):  # a guard trip, not a clamp
                with pytest.raises(DomainError, match="NaN"):
                    lateral_servoing_control_step(meas, params, REAR, Cfg)
                continue
            cmd = lateral_servoing_control_step(meas, params, REAR, Cfg)
            assert cmd.delta_desired.hex() == _builtin_clamp(raw, limit).hex(), (th, limit)
            assert cmd.clamped == (abs(raw) > limit)


# --------------------------------------------------------------- optimal step

def test_optimal_zero_error_fixed_point():
    imp = ImplementConfig(I_s=-2.0, I_y=0.0)
    cmd = optimal_control_step(meas_of(imp=imp), REAR_PARAMS, imp, CFG,
                               sigma_terms(REAR_PARAMS))
    assert cmd.delta_desired == 0.0
    assert cmd.theta_desired == 0.0
    assert cmd.xi_desired == 0.0


def test_optimal_independent_script_oracle():
    """Straight-line re-implementation of the full chain at one state."""
    imp = REAR
    params = REAR_PARAMS
    y, th, omega = 0.3, -0.08, 0.02
    c_now, c_hor = 0.1, -0.125
    m = meas_of(y=y, theta=th, omega=omega, c_now=c_now, c_hor=c_hor, imp=imp)
    cmd = optimal_control_step(m, params, imp, CFG, sigma_terms(params))

    v, L = 1.0, 1.2
    alpha = 1.0 - c_now * y
    gamma = omega / v
    e = y + imp.I_s * math.sin(th) + imp.I_y * math.cos(th)
    steer_now = math.atan(L * (gamma + c_now * math.cos(th) / alpha))
    e2 = (alpha * alpha / math.cos(th)) * (math.tan(steer_now) / L
                                           - c_hor * math.cos(th) / alpha)
    n_h = round(params.s_h / params.s_t)
    s1 = sum(k * params.s_t for k in range(n_h + 1))
    s2 = sum((k * params.s_t) ** 2 for k in range(n_h + 1))
    s3 = sum((k * params.s_t) ** 3 for k in range(n_h + 1))
    se = sum(k * params.s_t * math.exp(-params.lam * k * params.s_t)
             for k in range(n_h + 1))
    xi = -(e * s1 + alpha * gamma * imp.I_s * s2 + e2 * s3 - e * se) / s2
    theta_d = math.atan(xi / (alpha * (1.0 - gamma * imp.I_y)))
    delta = math.atan(L * (-params.k_theta * (th - theta_d) + c_now)
                      * math.cos(th) / (1.0 - c_now * y))

    assert abs(cmd.xi_desired - xi) < 1e-12
    assert abs(cmd.theta_desired - theta_d) < 1e-12
    assert abs(cmd.delta_desired - delta) < 1e-12
    # e'' as the public formula gives it from the same measurements
    assert abs(e_I_second(th, alpha, steer_now, c_hor, L) - e2) < 1e-12


def test_optimal_arc_steady_state():
    R = 10.0
    path = build_path([{"kind": "arc", "length_m": 60.0, "curvature_per_m": 1.0 / R}])
    scn = Scenario(path=path, vehicle=CFG, implement=REAR, method="optimal",
                   params=REAR_PARAMS, run_length=55.0,
                   initial_y=initial_lateral_for_error(0.0, REAR))
    log = run_scenario(scn)
    tail = (log.column(name)[-50:] for name in ("theta_d", "theta_tilde", "delta_actual"))
    delta_ss = math.atan(CFG.wheelbase / R)
    for theta_d, theta_tilde, delta_actual in zip(*tail):
        assert abs(theta_d - theta_tilde) < 1e-3
        assert abs(delta_actual - delta_ss) < 2e-2


def test_optimal_command_always_within_limits():
    rng = np.random.default_rng(23)
    ctrl = OptimalController(REAR_PARAMS, REAR, CFG)
    for _ in range(300):
        m = meas_of(y=rng.uniform(-2, 2), theta=rng.uniform(-1.0, 1.0),
                    omega=rng.uniform(-0.5, 0.5), c_now=rng.uniform(-0.2, 0.2),
                    c_hor=rng.uniform(-0.2, 0.2))
        if abs(m.frenet.theta_tilde) >= math.pi / 2:
            continue
        cmd = ctrl.step(m)
        assert abs(cmd.delta_desired) <= CFG.steer_limit
        assert math.isfinite(cmd.delta_desired)


def test_optimal_controller_computes_sigma_once_and_steps_exactly(monkeypatch):
    calls = []

    def counted_sigma_terms(params):
        calls.append(params)
        return sigma_terms(params)
    monkeypatch.setattr(controllers, "sigma_terms", counted_sigma_terms)
    rng = np.random.default_rng(5)
    for imp, params in (TABLE1[("optimal", "rear")], TABLE1[("optimal", "front")]):
        ctrl = OptimalController(params, imp, CFG)
        for _ in range(50):
            m = meas_of(y=rng.uniform(-1, 1), theta=rng.uniform(-1.0, 1.0),
                        omega=rng.uniform(-0.5, 0.5), c_now=rng.uniform(-0.2, 0.2),
                        c_hor=rng.uniform(-0.2, 0.2), imp=imp)
            cmd = ctrl.step(m)
            assert not cmd.fault
            # the same command as with sigma computed fresh
            assert cmd == optimal_control_step(m, params, imp, CFG, sigma_terms(params))
    # once per controller
    assert len(calls) == 2


# ------------------------------------------------------------------ baselines

def test_backstepping_trivials():
    imp = ImplementConfig(I_s=-2.0, I_y=0.0)
    cmd = backstepping_control_step(meas_of(imp=imp), BaselineParams(0.2, 0.6), imp, CFG)
    assert cmd.theta_desired == 0.0 and cmd.delta_desired == 0.0
    # e=0.5, alpha=1, gamma=0, k_y=0.2 -> tan(theta_d) = -0.1
    imp = ImplementConfig(I_s=-2.0, I_y=-0.5)
    f = FrenetState(0.0, 1.0, 0.0)  # e = 1.0 - 0.5 = 0.5
    m = Measurements(frenet=f, omega_bar=0.0, e_I=0.5, curvature_now=0.0,
                     curvature_at_horizon=0.0)
    cmd = backstepping_control_step(m, BaselineParams(0.2, 0.6), imp, CFG)
    assert abs(math.tan(cmd.theta_desired) + 0.1) < 1e-12


def test_backstepping_monotone_decay_on_straight():
    path = build_path([{"kind": "line", "length_m": 60.0}])
    imp, params = TABLE1[("backstepping", "rear")]
    scn = Scenario(path=path, vehicle=CFG, implement=imp, method="backstepping",
                   params=params, run_length=55.0,
                   initial_y=initial_lateral_for_error(0.5, imp))
    log = run_scenario(scn)
    e = np.abs(column(log, "e_I_exact"))
    s = column(log, "s")
    # damped ringing: the per-window peak envelope decays and the run settles
    peaks = [e[(s >= lo) & (s < lo + 10.0)].max() for lo in (0.0, 10.0, 20.0, 30.0, 40.0)]
    assert all(b < a for a, b in zip(peaks, peaks[1:]))
    assert np.all(e[s > 40.0] < 0.02)


def test_lateral_servoing_trivials_and_convergence():
    imp = ImplementConfig(I_s=-2.0, I_y=0.0)
    cmd = lateral_servoing_control_step(meas_of(imp=imp), BaselineParams(0.1, 0.8), imp, CFG)
    assert cmd.delta_desired == 0.0
    imp = REAR
    cmd = lateral_servoing_control_step(meas_of(imp=imp), BaselineParams(0.1, 0.8), imp, CFG)
    # at y = 0 with e_I = -0.5 the robot servos toward y_d = y - e_I = 0.5
    assert abs(cmd.delta_desired - math.atan(1.2 * 0.1 * 0.5)) < 1e-12
    path = build_path([{"kind": "line", "length_m": 120.0}])
    scn = Scenario(path=path, vehicle=CFG, implement=imp, method="lateral_servoing",
                   params=BaselineParams(0.1, 0.8), run_length=115.0,
                   initial_y=initial_lateral_for_error(0.5, imp))
    log = run_scenario(scn)
    assert abs(log.column("e_I_exact")[-1]) < 0.02


def test_backstepping_controller_ignores_measured_yaw_rate():
    imp, params = TABLE1[("backstepping", "rear")]
    still = meas_of(y=0.3, theta=0.1, omega=0.0, imp=imp)
    turning = meas_of(y=0.3, theta=0.1, omega=0.4, imp=imp)
    # the step function itself reads omega_bar; the controller zeroes it first
    assert (backstepping_control_step(still, params, imp, CFG)
            != backstepping_control_step(turning, params, imp, CFG))
    cmd = BacksteppingController(params, imp, CFG).step(turning)
    assert cmd == BacksteppingController(params, imp, CFG).step(still)
    assert not cmd.fault


# ------------------------------------------------------------- construction

@pytest.mark.parametrize("make, params, horizon", [
    (OptimalController, REAR_PARAMS, REAR_PARAMS.s_h),
    (BacksteppingController, BaselineParams(0.2, 0.6), 0.0),
    (LateralServoingController, BaselineParams(0.1, 0.8), 0.0),
])
def test_constructors_return_the_one_controller_class(make, params, horizon):
    ctrl = make(params, REAR, CFG)
    assert type(ctrl) is Controller
    assert ctrl.horizon == horizon


# ------------------------------------------------------------------ fail-safe

def test_controller_failsafe_holds_last_command():
    ctrl = OptimalController(REAR_PARAMS, ImplementConfig(I_s=-2.0, I_y=0.5), CFG)
    good = ctrl.step(meas_of(y=0.2, imp=ImplementConfig(-2.0, 0.5)))
    assert not good.fault
    # 1 - gamma*I_y ~ 0 with gamma = 2.0, I_y = 0.5
    bad = meas_of(y=0.2, omega=2.0, imp=ImplementConfig(-2.0, 0.5))
    cmd = ctrl.step(bad)
    assert cmd.fault
    assert cmd.delta_desired == good.delta_desired
    assert math.isfinite(cmd.delta_desired)


def test_controller_failsafe_on_a_domain_error_names_the_guard():
    # |theta_tilde| >= pi/2 is outside e_I'' and e_I': held, like a singularity
    ctrl = OptimalController(REAR_PARAMS, REAR, CFG)
    good = ctrl.step(meas_of(y=0.2))
    assert not good.fault and ctrl.fault is None
    cmd = ctrl.step(meas_of(y=0.2, theta=1.6))
    assert cmd.fault and cmd.delta_desired == good.delta_desired
    assert ctrl.fault == "|theta_tilde| must be < pi/2"
