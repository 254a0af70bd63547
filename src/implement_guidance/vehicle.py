"""Bicycle-model plant simulation and implement-point geometry.

World pose integrates the kinematic bicycle model with a fixed-step RK4
scheme; the Frenet state is recomputed by projection each step (ground truth)
rather than by integrating the curvilinear model, so the curvilinear
equations can be validated against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import ParameterError, SingularityError
from .paths import FrenetState, Projection, ReferencePath, wrap_angle

SINGULARITY_EPS = 1e-6


@dataclass(frozen=True)
class VehicleConfig:
    wheelbase: float = 1.2          # m
    steer_limit: float = 0.55       # rad
    steer_rate_limit: float = 0.8   # rad/s
    speed: float = 1.0              # m/s, strictly positive

    def __post_init__(self):
        if self.wheelbase <= 0:
            raise ParameterError("wheelbase must be > 0")
        if not 0 < self.steer_limit < math.pi / 2:
            raise ParameterError("steer_limit must be in (0, pi/2)")
        if self.steer_rate_limit <= 0:
            raise ParameterError("steer_rate_limit must be > 0")
        if self.speed <= 0:
            raise ParameterError("speed must be > 0")


@dataclass(frozen=True)
class ImplementConfig:
    I_s: float  # longitudinal offset from rear-axle center, m, signed
    I_y: float  # lateral offset, m, signed (positive left)


class VehiclePose(NamedTuple):
    x: float
    y_world: float
    heading: float  # rad, wrapped to (-pi, pi]
    steer: float    # rad


class Measurements(NamedTuple):
    """Controller-side measurement bundle taken at one control instant."""
    frenet: FrenetState
    omega_bar: float            # yaw rate from the measured steering angle, rad/s
    e_I: float                  # measured implement lateral error, m
    curvature_now: float        # c(s), 1/m
    curvature_at_horizon: float  # c(s + horizon), 1/m; see Controller.horizon


def implement_world_position(pose: VehiclePose, imp: ImplementConfig) -> tuple[float, float]:
    """World position of the implement point: O + R(psi) (I_s, I_y)."""
    ch, sh = math.cos(pose.heading), math.sin(pose.heading)
    return (pose.x + ch * imp.I_s - sh * imp.I_y,
            pose.y_world + sh * imp.I_s + ch * imp.I_y)


def implement_error_exact(pose: VehiclePose, imp: ImplementConfig, path: ReferencePath,
                          s_hint: float | None = None) -> float:
    """Ground-truth implement lateral error: project the implement point onto the path.

    `s_hint` is passed to `ReferencePath.project`, which then returns the
    nearest point in a window around it rather than on the whole path.
    """
    return path.project(implement_world_position(pose, imp), pose.heading, s_hint).frenet.y


def implement_error_measured(frenet: FrenetState, imp: ImplementConfig) -> float:
    """Controller-side estimate: lateral coordinate of the implement point
    measured along the local y-axis at the robot's abscissa."""
    return frenet.y + imp.I_s * math.sin(frenet.theta_tilde) + imp.I_y * math.cos(frenet.theta_tilde)


def yaw_rate_from_steer(steer: float, frenet: FrenetState, path: ReferencePath,
                        cfg: VehicleConfig) -> float:
    """Yaw rate implied by the measured steering angle and the curvilinear model."""
    return _yaw_rate(steer, frenet, path.curvature_at(frenet.s), cfg)


def _yaw_rate(steer: float, frenet: FrenetState, c: float, cfg: VehicleConfig) -> float:
    """`yaw_rate_from_steer` with the path curvature c = c(s) already looked up."""
    denom = 1.0 - c * frenet.y
    if abs(denom) < SINGULARITY_EPS:
        raise SingularityError(f"1 - c*y = {denom} at s={frenet.s}")
    return cfg.speed * (math.tan(steer) / cfg.wheelbase
                        - c * math.cos(frenet.theta_tilde) / denom)


def measure(pose: VehiclePose, proj: Projection, path: ReferencePath,
            cfg: VehicleConfig, imp: ImplementConfig, horizon: float) -> Measurements:
    """Assemble the measurement bundle the controllers consume at the robot's
    projection; c(s) is read from the segment it carries."""
    frenet = proj.frenet
    c = path.segments[proj.segment].curvature
    # positional, in Measurements field order: keywords cost about twice as much
    return Measurements(frenet, _yaw_rate(pose.steer, frenet, c, cfg),
                        implement_error_measured(frenet, imp), c,
                        path.curvature_ahead(frenet.s, horizon))


def integrate_pose(pose: VehiclePose, steer_fn: Callable[[float], float],
                   t0: float, dt: float, cfg: VehicleConfig) -> VehiclePose:
    """One RK4 step of (x, y, psi) under the bicycle model with steer = steer_fn(t).

    The derivative (v cos psi, v sin psi, v tan(steer) / L) depends on the
    stage state through psi only, and its yaw rate on the stage time only, so
    steer_fn runs once per distinct stage time (t0, t0 + dt/2, t0 + dt). A
    stage whose steer is the same object as stage 1's (a held command) reuses
    stage 1's yaw rate, and then stage 3 has stage 2's heading; an equal but
    distinct float is not reused, so signed zeros stay exact.
    """
    v, L = cfg.speed, cfg.wheelbase
    x, y, psi = pose.x, pose.y_world, pose.heading
    half = dt / 2
    d1 = steer_fn(t0)
    d2 = steer_fn(t0 + half)  # stages 2 and 3
    d4 = steer_fn(t0 + dt)
    w1 = v * math.tan(d1) / L
    w2 = w1 if d2 is d1 else v * math.tan(d2) / L
    w4 = w1 if d4 is d1 else v * math.tan(d4) / L
    psi2 = psi + half * w1
    psi4 = psi + dt * w2
    k1x, k1y = v * math.cos(psi), v * math.sin(psi)
    k2x, k2y = v * math.cos(psi2), v * math.sin(psi2)
    if d2 is d1:  # psi3 = psi + dt/2 * w1 = psi2
        k3x, k3y = k2x, k2y
    else:
        psi3 = psi + half * w2
        k3x, k3y = v * math.cos(psi3), v * math.sin(psi3)
    k4x, k4y = v * math.cos(psi4), v * math.sin(psi4)
    return VehiclePose(x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x),
                       y + dt / 6 * (k1y + 2 * k2y + 2 * k3y + k4y),
                       wrap_angle(psi + dt / 6 * (w1 + 2 * w2 + 2 * w2 + w4)),
                       pose.steer)


def apply_steer_command(steer: float, steer_cmd: float, dt: float, cfg: VehicleConfig) -> float:
    """Clamp the command to the steer limit and slew from the current angle."""
    target = max(-cfg.steer_limit, min(cfg.steer_limit, steer_cmd))
    max_step = cfg.steer_rate_limit * dt
    return steer + max(-max_step, min(max_step, target - steer))


def step(pose: VehiclePose, proj: Projection, steer_cmd: float, dt: float,
         path: ReferencePath, cfg: VehicleConfig) -> tuple[VehiclePose, Projection]:
    """Advance the plant by dt under a zero-order-hold steering command.

    The plant state is the pose and its projection, which carries the segment
    of its abscissa. The moved pose is projected with the old abscissa as its
    hint, so s follows the path from where it was. Raises SingularityError
    when the osculating-circle guard |1 - c*y| trips before or after the step.
    """
    if dt <= 0:
        raise ParameterError("dt must be > 0")
    frenet = proj.frenet
    if abs(1.0 - path.segments[proj.segment].curvature * frenet.y) < SINGULARITY_EPS:
        raise SingularityError(f"1 - c*y guard tripped at s={frenet.s}")
    new_steer = apply_steer_command(pose.steer, steer_cmd, dt, cfg)
    moved = integrate_pose(VehiclePose(pose.x, pose.y_world, pose.heading, new_steer),
                           lambda t: new_steer, 0.0, dt, cfg)
    new_proj = path.project((moved.x, moved.y_world), moved.heading, frenet.s)
    new_frenet = new_proj.frenet
    if abs(1.0 - path.segments[new_proj.segment].curvature * new_frenet.y) < SINGULARITY_EPS:
        raise SingularityError(f"1 - c*y guard tripped at s={new_frenet.s}")
    return moved, new_proj


def pose_on_path(path: ReferencePath, s: float, lateral: float = 0.0,
                 heading_offset: float = 0.0, steer: float = 0.0) -> VehiclePose:
    """Convenience: world pose of a vehicle at (s, lateral, heading offset)."""
    (px, py), th, _ = path.point_at(s)
    nx, ny = -math.sin(th), math.cos(th)
    return VehiclePose(x=px + lateral * nx, y_world=py + lateral * ny,
                       heading=wrap_angle(th + heading_offset), steer=steer)
