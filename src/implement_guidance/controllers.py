"""Steering controllers for the offset implement point.

All controllers share the same interface: a Measurements bundle in, a
ControlCommand out. The optimal predictive controller works in two stages:
a closed-form least-squares choice of the desired heading over a look-ahead
arc length, then a backstepping steering law that tracks that heading. The
lateral-servoing and backstepping baselines are reconstructions of earlier
non-predictive designs (their exact published forms are not available) and
are flagged as such in reports.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DomainError, ParameterError, SingularityError, require_positive
from .paths import _new_tuple
from .vehicle import SINGULARITY_EPS, ImplementConfig, Measurements, VehicleConfig


@dataclass(frozen=True)
class OptimalParams:
    lam: float        # 1/m, convergence shaping
    k_theta: float    # 1/m, heading gain
    s_h: float        # m, prediction horizon
    s_t: float        # m, sampling step
    # horizon samples round(s_h / s_t), computed once here
    n_h: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_positive(self, ("lam", "k_theta", "s_h", "s_t"))
        if self.s_t > self.s_h:
            raise ParameterError("s_t must not exceed s_h")
        if not math.isfinite(self.s_h / self.s_t):
            raise ParameterError("s_h / s_t must be finite")
        object.__setattr__(self, "n_h", round(self.s_h / self.s_t))
        if self.n_h < 1:
            raise ParameterError("horizon must contain at least one sample")


@dataclass(frozen=True)
class BaselineParams:
    k_y: float      # 1/m
    k_theta: float  # 1/m

    def __post_init__(self):
        require_positive(self, ("k_y", "k_theta"))


@dataclass(frozen=True)
class SigmaTerms:
    sigma1: float   # m
    sigma2: float   # m^2
    sigma3: float   # m^3
    sigma_e: float  # m


class ControlCommand(NamedTuple):
    delta_desired: float            # rad, clamped to the steer limit
    theta_desired: float = 0.0      # rad
    xi_desired: float = 0.0
    clamped: bool = False
    fault: bool = False


def alpha_gamma(meas: Measurements, v: float) -> tuple[float, float]:
    """alpha = 1 - c(s) y; gamma = omega_bar / v."""
    if v <= 0:
        raise ParameterError("v must be > 0")
    alpha = 1.0 - meas.curvature_now * meas.frenet.y
    if abs(alpha) < SINGULARITY_EPS:
        raise SingularityError("robot at the center of the osculating circle")
    return alpha, meas.omega_bar / v


def e_I_prime(theta_tilde: float, alpha: float, gamma: float, imp: ImplementConfig) -> float:
    """Spatial first derivative of the implement lateral error."""
    if abs(theta_tilde) >= math.pi / 2:
        raise DomainError("|theta_tilde| must be < pi/2")
    t = math.tan(theta_tilde)
    return alpha * (t + gamma * (imp.I_s - imp.I_y * t))


def e_I_second(theta_tilde: float, alpha: float, steer: float, curvature: float,
               wheelbase: float) -> float:
    """Spatial second derivative of the implement lateral error.

    The curvature argument is the preview value at the end of the horizon,
    c(s + max(I_s, 0) + s_h): the horizon starts at whichever of the robot
    and the implement leads, which is what gives the controller its
    anticipation.
    """
    if abs(theta_tilde) >= math.pi / 2:
        raise DomainError("|theta_tilde| must be < pi/2")
    if abs(alpha) < SINGULARITY_EPS:
        raise SingularityError("alpha ~ 0 in e_I_second")
    ct = math.cos(theta_tilde)
    return (alpha * alpha / ct) * (math.tan(steer) / wheelbase - curvature * ct / alpha)


def sigma_terms(params: OptimalParams) -> SigmaTerms:
    """Power sums over the discretized horizon (the k=0 terms are zero)."""
    s1 = s2 = s3 = se = 0.0
    for k in range(params.n_h + 1):
        u = k * params.s_t
        s1 += u
        s2 += u * u
        s3 += u ** 3
        se += u * math.exp(-params.lam * u)
    return SigmaTerms(sigma1=s1, sigma2=s2, sigma3=s3, sigma_e=se)


def predicted_cost(xi: float, e_I: float, alpha: float, gamma: float,
                   imp: ImplementConfig, e_second: float, params: OptimalParams) -> float:
    """Sum of squared gaps between the predicted error and the exponential
    reference profile over the horizon. Quadratic and convex in xi.

    The prediction is e + e'u + e''u^2 with e'' frozen at its end-of-horizon
    preview value. The u^2 coefficient is e'' itself, not the Taylor e''/2;
    the convergence shaping and gain tuning absorb the scale.
    """
    total = 0.0
    for k in range(1, params.n_h + 1):
        u = k * params.s_t
        pred = e_I + xi * u + alpha * gamma * imp.I_s * u + e_second * u * u
        total += (pred - e_I * math.exp(-params.lam * u)) ** 2
    return total


def xi_optimal(e_I: float, alpha: float, gamma: float, imp: ImplementConfig,
               e_second: float, sigma: SigmaTerms) -> float:
    """Closed-form minimizer of the predicted-cost quadratic."""
    if sigma.sigma2 <= 0:
        raise ParameterError("sigma2 must be > 0 (empty horizon)")
    return -(e_I * sigma.sigma1 + alpha * gamma * imp.I_s * sigma.sigma2
             + e_second * sigma.sigma3 - e_I * sigma.sigma_e) / sigma.sigma2


def desired_heading(xi_d: float, alpha: float, gamma: float, imp: ImplementConfig) -> float:
    """Invert the change of variable xi = alpha (1 - gamma I_y) tan(theta)."""
    denom = 1.0 - gamma * imp.I_y
    if abs(denom) < SINGULARITY_EPS:
        raise SingularityError("1 - gamma*I_y ~ 0")
    if abs(alpha) < SINGULARITY_EPS:
        raise SingularityError("alpha ~ 0 in desired_heading")
    return math.atan(xi_d / (alpha * denom))


def steering_command(theta_tilde: float, theta_desired: float, curvature: float,
                     y: float, k_theta: float, wheelbase: float,
                     steer_limit: float) -> tuple[float, bool]:
    """Backstepping steering law tracking a desired heading; returns (delta, clamped)."""
    denom = 1.0 - curvature * y
    if abs(denom) < SINGULARITY_EPS:
        raise SingularityError("1 - c*y ~ 0 in steering_command")
    e_theta = theta_tilde - theta_desired
    raw = math.atan(wheelbase * (-k_theta * e_theta + curvature)
                    * math.cos(theta_tilde) / denom)
    return _clamp(raw, steer_limit)


def _clamp(raw: float, limit: float) -> tuple[float, bool]:
    """(max(-limit, min(limit, raw)), |raw| > limit); a NaN raw angle is a guard trip."""
    if raw < limit:
        delta = raw
    elif raw == raw:
        delta = limit
    else:
        raise DomainError("the raw steering angle is NaN")
    return (delta if delta > -limit else -limit), abs(raw) > limit


def _steer_from_gamma(gamma: float, curvature: float, theta_tilde: float,
                      alpha: float, wheelbase: float) -> float:
    """Recover the measured steering angle from gamma and the current curvature."""
    return math.atan(wheelbase * (gamma + curvature * math.cos(theta_tilde) / alpha))


def optimal_control_step(meas: Measurements, params: OptimalParams,
                         imp: ImplementConfig, cfg: VehicleConfig,
                         sigma: SigmaTerms | None = None) -> ControlCommand:
    """Two-stage optimal predictive step: closed-form desired heading, then steering.

    sigma is sigma_terms(params), a pure function of the parameters: callers
    that step repeatedly pass it in; without it, it is computed here.
    """
    alpha, gamma = alpha_gamma(meas, cfg.speed)
    th = meas.frenet.theta_tilde
    steer_now = _steer_from_gamma(gamma, meas.curvature_now, th, alpha, cfg.wheelbase)
    e2 = e_I_second(th, alpha, steer_now, meas.curvature_at_horizon, cfg.wheelbase)
    if sigma is None:
        sigma = sigma_terms(params)
    xi_d = xi_optimal(meas.e_I, alpha, gamma, imp, e2, sigma)
    theta_d = desired_heading(xi_d, alpha, gamma, imp)
    delta, clamped = steering_command(th, theta_d, meas.curvature_now, meas.frenet.y,
                                      params.k_theta, cfg.wheelbase, cfg.steer_limit)
    return _new_tuple(ControlCommand, (delta, theta_d, xi_d, clamped, False))


def backstepping_control_step(meas: Measurements, params: BaselineParams,
                              imp: ImplementConfig, cfg: VehicleConfig) -> ControlCommand:
    """Non-predictive baseline: pick the heading that enforces e_I' = -k_y e_I now."""
    alpha, gamma = alpha_gamma(meas, cfg.speed)
    denom = 1.0 - gamma * imp.I_y
    if abs(denom) < SINGULARITY_EPS:
        raise SingularityError("1 - gamma*I_y ~ 0")
    tan_theta_d = (-params.k_y * meas.e_I / alpha - gamma * imp.I_s) / denom
    theta_d = math.atan(tan_theta_d)
    delta, clamped = steering_command(meas.frenet.theta_tilde, theta_d, meas.curvature_now,
                                      meas.frenet.y, params.k_theta, cfg.wheelbase,
                                      cfg.steer_limit)
    return _new_tuple(ControlCommand, (delta, theta_d, 0.0, clamped, False))


def lateral_servoing_control_step(meas: Measurements, params: BaselineParams,
                                  imp: ImplementConfig, cfg: VehicleConfig) -> ControlCommand:
    """Baseline that servos the robot center toward the offset-corrected
    lateral reference y_d = y - e_I (put the implement on the path)."""
    alpha, _ = alpha_gamma(meas, cfg.speed)
    th = meas.frenet.theta_tilde
    ct = math.cos(th)
    y_err = meas.e_I  # y - y_d with y_d = y - e_I
    raw = math.atan(cfg.wheelbase * (meas.curvature_now * ct / alpha
                                     - params.k_theta * th - params.k_y * y_err * ct))
    delta, clamped = _clamp(raw, cfg.steer_limit)
    return _new_tuple(ControlCommand, (delta, 0.0, 0.0, clamped, False))


class Controller:
    """Stateful wrapper: a method's step function plus a fail-safe last-command cache.

    compute(meas) returns the method's command. When a guard trips (a
    singularity, or an angle outside a formula's domain) the last valid
    command is re-issued with the fault flag set, so the actuator never sees
    a non-finite or unbounded value, and `fault` holds the guard's message.
    horizon is the preview distance ahead of the robot's abscissa, m.
    """

    def __init__(self, method: str, compute: Callable[[Measurements], ControlCommand],
                 horizon: float = 0.0):
        self.method = method
        self.horizon = horizon
        self.fault: str | None = None
        self._compute = compute
        self._last = ControlCommand(delta_desired=0.0)

    def step(self, meas: Measurements) -> ControlCommand:
        # loaded first: a call of self._compute(meas) looks the instance
        # attribute up on the slower, unspecialized method path
        compute = self._compute
        try:
            cmd = compute(meas)
        except (SingularityError, DomainError) as exc:
            self.fault = str(exc)
            return ControlCommand(delta_desired=self._last.delta_desired,
                                  theta_desired=self._last.theta_desired,
                                  fault=True)
        self._last = cmd
        return cmd


def OptimalController(params: OptimalParams, imp: ImplementConfig,
                      cfg: VehicleConfig) -> Controller:
    sigma = sigma_terms(params)
    # The horizon starts at the leading point of the robot-implement pair:
    # a front implement crosses a junction I_s before the robot does.
    return Controller("optimal",
                      lambda meas: optimal_control_step(meas, params, imp, cfg, sigma),
                      horizon=params.s_h + max(imp.I_s, 0.0))


def BacksteppingController(params: BaselineParams, imp: ImplementConfig,
                           cfg: VehicleConfig) -> Controller:
    """Non-predictive baseline. In closed loop the yaw-rate coupling term is
    dropped (gamma = 0 in stage 1): feeding the yaw rate implied by the
    measured steering angle straight back into the steering command forms an
    algebraic loop with gain |I_s| * k_theta, which exceeds 1 at the rear
    tuning and destabilizes the cascade. The term vanishes at every steady
    state anyway, so the e_I' = -k_y e_I design target is preserved there.
    """
    return Controller("backstepping", lambda meas: backstepping_control_step(
        _new_tuple(Measurements, (meas.frenet, 0.0, meas.e_I, meas.curvature_now,
                                  meas.curvature_at_horizon)),
        params, imp, cfg))


def LateralServoingController(params: BaselineParams, imp: ImplementConfig,
                              cfg: VehicleConfig) -> Controller:
    return Controller("lateral_servoing",
                      lambda meas: lateral_servoing_control_step(meas, params, imp, cfg))


# method name -> constructor(params, implement, vehicle config)
CONTROLLERS = {
    "optimal": OptimalController,
    "backstepping": BacksteppingController,
    "lateral_servoing": LateralServoingController,
}
