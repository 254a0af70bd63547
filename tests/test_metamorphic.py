"""Closed-loop metamorphic relations: what the physics owes on any path.

Mirror: a path reflected about its start tangent (every arc's curvature
negated), driven with the implement's lateral offset and the initial error
negated, is the same run reflected, so its implement error is the original's
negated bit for bit.

Speed scaling: the controllers and the plant work per metre of path. A run
at k times the speed and slew rate, sampled at dt / k and control_period / k,
covers the same metres in the same steps, so its implement error is the
original's bit for bit (k a power of two, so every product is exact).

Rigid motion: a path started elsewhere, at another heading, is the same run
moved, so its implement error matches the original's up to rounding.
"""

from functools import cache

import pytest

from implement_guidance.harness import Scenario, initial_lateral_for_error, run_scenario
from implement_guidance.paths import PRESET_DESCRIPTORS, build_path
from implement_guidance.presets import TABLE1
from implement_guidance.vehicle import ImplementConfig, VehicleConfig

# the slew limit of the acceptance gate and of scenarios/exp1_*
SLEW = 0.15
# set before the first run: the largest |delta e_I_exact| seen over exp1's
# rigid motions was 4.8e-12 m
RIGID_TOLERANCE = 1e-9  # m

CONFIGURATIONS = pytest.mark.parametrize("method, placement", sorted(TABLE1))
PRESETS = pytest.mark.parametrize("preset", ["exp1", "exp2"])


def _run(preset: str, method: str, placement: str, sign: float = 1.0, k: float = 1.0,
         start: tuple[float, float, float] = (0.0, 0.0, 0.0)):
    """The run of Table I's configuration on the preset path, noise off,
    mirrored when sign is -1, k times as fast, with the path starting at
    start = (x, y, heading)."""
    imp, params = TABLE1[(method, placement)]
    imp = ImplementConfig(I_s=imp.I_s, I_y=sign * imp.I_y)
    path = build_path([{**d, "curvature_per_m": sign * d["curvature_per_m"]}
                       if d["kind"] == "arc" else d for d in PRESET_DESCRIPTORS[preset]],
                      start[:2], start[2])
    vehicle = VehicleConfig(speed=k, steer_rate_limit=k * SLEW)
    return run_scenario(Scenario(path=path, vehicle=vehicle, implement=imp, method=method,
                                 params=params, run_length=path.total_length - 1.0,
                                 dt=0.01 / k, control_period=0.1 / k,
                                 initial_y=initial_lateral_for_error(sign * 0.5, imp)))


# the unchanged run, which each relation compares against
_base_run = cache(_run)


@CONFIGURATIONS
@PRESETS
def test_mirrored_run_negates_the_implement_error(preset, method, placement):
    log = _base_run(preset, method, placement)
    mirror = _run(preset, method, placement, sign=-1.0)
    assert len(mirror.segments) == len(log.segments) > 100
    assert mirror.fault == log.fault
    assert ([e.hex() for e in mirror.column("e_I_exact")]
            == [(-e).hex() for e in log.column("e_I_exact")])


@pytest.mark.parametrize("k", [2.0, 0.5])
@CONFIGURATIONS
@PRESETS
def test_speed_scaled_run_keeps_the_implement_error(preset, method, placement, k):
    log = _base_run(preset, method, placement)
    scaled = _run(preset, method, placement, k=k)
    assert len(scaled.segments) == len(log.segments) > 100
    assert scaled.fault == log.fault
    assert ([e.hex() for e in scaled.column("e_I_exact")]
            == [e.hex() for e in log.column("e_I_exact")])


@pytest.mark.parametrize("start", [(1234.5, -987.25, 0.0), (0.0, 0.0, 2.2),
                                   (-50.0, 300.0, -1.0)])
@CONFIGURATIONS
@PRESETS
def test_moved_run_keeps_the_implement_error(preset, method, placement, start):
    log = _base_run(preset, method, placement)
    moved = _run(preset, method, placement, start=start)
    assert len(moved.segments) == len(log.segments) > 100
    assert moved.fault == log.fault
    assert max(abs(a - b) for a, b in zip(moved.column("e_I_exact"),
                                          log.column("e_I_exact"))) <= RIGID_TOLERANCE
