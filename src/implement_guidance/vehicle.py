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

from .errors import ParameterError, SingularityError, require_positive
from .paths import FrenetState, Projection, ReferencePath, _new_tuple, wrap_angle

SINGULARITY_EPS = 1e-6


@dataclass(frozen=True)
class VehicleConfig:
    wheelbase: float = 1.2          # m
    steer_limit: float = 0.55       # rad
    steer_rate_limit: float = 0.8   # rad/s
    speed: float = 1.0              # m/s, strictly positive

    def __post_init__(self):
        require_positive(self, ("wheelbase", "steer_rate_limit", "speed"))
        if not 0 < self.steer_limit < math.pi / 2:
            raise ParameterError(f"steer_limit must be in (0, pi/2), got {self.steer_limit!r}",
                                 "steer_limit")


@dataclass(frozen=True)
class ImplementConfig:
    I_s: float  # longitudinal offset from rear-axle center, m, signed
    I_y: float  # lateral offset, m, signed (positive left)

    def __post_init__(self):
        for name in ("I_s", "I_y"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)!r}", name)


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
                          s_hint: float) -> float:
    """Ground-truth implement lateral error: project the implement point onto the path.

    `s_hint` is passed to `ReferencePath.project`, which returns the nearest
    point in a window around it. The point is `implement_world_position`,
    computed here with its floats.
    """
    x, y, heading, _ = pose
    ch, sh = math.cos(heading), math.sin(heading)
    return path.project((x + ch * imp.I_s - sh * imp.I_y, y + sh * imp.I_s + ch * imp.I_y),
                        heading, s_hint).frenet.y


def implement_error_measured(frenet: FrenetState, imp: ImplementConfig) -> float:
    """Controller-side estimate: lateral coordinate of the implement point
    measured along the local y-axis at the robot's abscissa."""
    return frenet.y + imp.I_s * math.sin(frenet.theta_tilde) + imp.I_y * math.cos(frenet.theta_tilde)


def yaw_rate_from_steer(steer: float, frenet: FrenetState, c: float,
                        cfg: VehicleConfig) -> float:
    """Yaw rate implied by the measured steering angle and the curvilinear
    model, at the path curvature c = c(s)."""
    denom = 1.0 - c * frenet.y
    if abs(denom) < SINGULARITY_EPS:
        raise SingularityError(f"1 - c*y = {denom} at s={frenet.s}")
    return cfg.speed * (math.tan(steer) / cfg.wheelbase
                        - c * math.cos(frenet.theta_tilde) / denom)


def measure(pose: VehiclePose, proj: Projection, path: ReferencePath,
            cfg: VehicleConfig, imp: ImplementConfig, horizon: float,
            noise: tuple[float, float, float, Callable[[], float]] | None = None
            ) -> Measurements:
    """Assemble the measurement bundle the controllers consume at the robot's
    projection; c(s) is read from the segment it carries.

    `noise`, when given, is (y_std, theta_std, omega_std, z), z drawing
    standard normals: y, theta_tilde and the yaw rate are measured with
    0.0 + std * z() added (normal(0.0, std) bit for bit), drawn in that order,
    and e_I is read from the noisy Frenet state.
    """
    frenet = proj.frenet
    s, y, theta_tilde = frenet
    c = path.segments[proj.segment].curvature
    omega = yaw_rate_from_steer(pose.steer, frenet, c, cfg)
    if noise is not None:
        y_std, theta_std, omega_std, z = noise
        y += 0.0 + y_std * z()
        theta_tilde += 0.0 + theta_std * z()
        frenet = _new_tuple(FrenetState, (s, y, theta_tilde))
        omega += 0.0 + omega_std * z()
    # implement_error_measured, with its floats
    e_I = y + imp.I_s * math.sin(theta_tilde) + imp.I_y * math.cos(theta_tilde)
    return _new_tuple(Measurements, (frenet, omega, e_I, c, path.curvature_ahead(s, horizon)))


def integrate_pose(pose: VehiclePose, steer_fn: Callable[[float], float],
                   t0: float, dt: float, cfg: VehicleConfig) -> VehiclePose:
    """One RK4 step of (x, y, psi) under the bicycle model with steer = steer_fn(t).

    The derivative (v cos psi, v sin psi, v tan(steer) / L) depends on the
    stage state through psi only, and its yaw rate on the stage time only, so
    steer_fn runs once per distinct stage time (t0, t0 + dt/2, t0 + dt).
    `step` integrates a held command with the same floats in place.
    """
    v, L = cfg.speed, cfg.wheelbase
    x, y, psi = pose.x, pose.y_world, pose.heading
    half = dt / 2
    w1 = v * math.tan(steer_fn(t0)) / L
    w2 = v * math.tan(steer_fn(t0 + half)) / L  # stages 2 and 3
    w4 = v * math.tan(steer_fn(t0 + dt)) / L
    psi2 = psi + half * w1
    psi3 = psi + half * w2
    psi4 = psi + dt * w2
    k1x, k1y = v * math.cos(psi), v * math.sin(psi)
    k2x, k2y = v * math.cos(psi2), v * math.sin(psi2)
    k3x, k3y = v * math.cos(psi3), v * math.sin(psi3)
    k4x, k4y = v * math.cos(psi4), v * math.sin(psi4)
    return VehiclePose(x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x),
                       y + dt / 6 * (k1y + 2 * k2y + 2 * k3y + k4y),
                       wrap_angle(psi + dt / 6 * (w1 + 2 * w2 + 2 * w2 + w4)),
                       pose.steer)


def apply_steer_command(steer: float, steer_cmd: float, dt: float, cfg: VehicleConfig) -> float:
    """Clamp the command to the steer limit and slew from the current angle."""
    lim = cfg.steer_limit
    target = steer_cmd if steer_cmd < lim else lim  # min(lim, steer_cmd)
    target = target if target > -lim else -lim  # max(-lim, target)
    max_step = cfg.steer_rate_limit * dt
    d = target - steer
    d = d if d < max_step else max_step  # min(max_step, d)
    return steer + (d if d > -max_step else -max_step)  # max(-max_step, d)


def step(pose: VehiclePose, proj: Projection, steer_cmd: float, dt: float,
         path: ReferencePath, cfg: VehicleConfig) -> tuple[VehiclePose, Projection]:
    """Advance the plant by dt under a zero-order-hold steering command.

    The plant state is the pose and its projection, which carries the segment
    of its abscissa. The moved pose is projected with the old abscissa as its
    hint, so s follows the path from where it was. Raises SingularityError
    when the osculating-circle guard |1 - c*y| trips before or after the step.

    The pose moves by `integrate_pose` with the new steer held over the step,
    bit for bit, computed in place: every stage has that steer's yaw rate w,
    so stage 3 has stage 2's heading, and one tan and three cos/sin pairs
    remain.
    """
    if dt <= 0:
        raise ParameterError("dt must be > 0")
    frenet = proj.frenet
    if abs(1.0 - path.segments[proj.segment].curvature * frenet.y) < SINGULARITY_EPS:
        raise SingularityError(f"1 - c*y guard tripped at s={frenet.s}")
    new_steer = apply_steer_command(pose.steer, steer_cmd, dt, cfg)
    v = cfg.speed
    x, y, psi, _ = pose
    half = dt / 2
    w = v * math.tan(new_steer) / cfg.wheelbase
    psi2 = psi + half * w
    psi4 = psi + dt * w
    k1x, k1y = v * math.cos(psi), v * math.sin(psi)
    k2x, k2y = v * math.cos(psi2), v * math.sin(psi2)
    k4x, k4y = v * math.cos(psi4), v * math.sin(psi4)
    x = x + dt / 6 * (k1x + 2 * k2x + 2 * k2x + k4x)
    y = y + dt / 6 * (k1y + 2 * k2y + 2 * k2y + k4y)
    psi = psi + dt / 6 * (w + 2 * w + 2 * w + w)
    # wrap_angle, whose result is its argument in (-pi, pi]
    if not -math.pi < psi <= math.pi:
        psi = wrap_angle(psi)
    new_proj = path.project((x, y), psi, frenet.s)
    new_frenet = new_proj.frenet
    if abs(1.0 - path.segments[new_proj.segment].curvature * new_frenet.y) < SINGULARITY_EPS:
        raise SingularityError(f"1 - c*y guard tripped at s={new_frenet.s}")
    return _new_tuple(VehiclePose, (x, y, psi, new_steer)), new_proj


def pose_on_path(path: ReferencePath, s: float, lateral: float = 0.0,
                 heading_offset: float = 0.0, steer: float = 0.0) -> VehiclePose:
    """Convenience: world pose of a vehicle at (s, lateral, heading offset)."""
    (px, py), th, _ = path.point_at(s)
    nx, ny = -math.sin(th), math.cos(th)
    return VehiclePose(x=px + lateral * nx, y_world=py + lateral * ny,
                       heading=wrap_angle(th + heading_offset), steer=steer)
