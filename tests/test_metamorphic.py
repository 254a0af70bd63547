"""Closed-loop metamorphic relations: what the physics owes on any path.

Mirror: a path reflected about its start tangent (every arc's curvature
negated), driven with the implement's lateral offset and the initial error
negated, is the same run reflected, so its implement error is the original's
negated bit for bit.
"""

import pytest

from implement_guidance.harness import Scenario, initial_lateral_for_error, run_scenario
from implement_guidance.paths import PRESET_DESCRIPTORS, build_path
from implement_guidance.presets import TABLE1
from implement_guidance.vehicle import ImplementConfig, VehicleConfig

# the slew limit of the acceptance gate and of scenarios/exp1_*
VEHICLE = VehicleConfig(steer_rate_limit=0.15)


def _run(preset: str, method: str, placement: str, sign: float):
    """The run of Table I's configuration on the preset path, noise off,
    mirrored when sign is -1."""
    imp, params = TABLE1[(method, placement)]
    imp = ImplementConfig(I_s=imp.I_s, I_y=sign * imp.I_y)
    path = build_path([{**d, "curvature_per_m": sign * d["curvature_per_m"]}
                       if d["kind"] == "arc" else d for d in PRESET_DESCRIPTORS[preset]])
    return run_scenario(Scenario(path=path, vehicle=VEHICLE, implement=imp, method=method,
                                 params=params, run_length=path.total_length - 1.0,
                                 initial_y=initial_lateral_for_error(sign * 0.5, imp)))


@pytest.mark.parametrize("method, placement", sorted(TABLE1))
@pytest.mark.parametrize("preset", ["exp1", "exp2"])
def test_mirrored_run_negates_the_implement_error(preset, method, placement):
    log = _run(preset, method, placement, 1.0)
    mirror = _run(preset, method, placement, -1.0)
    assert len(mirror.segments) == len(log.segments) > 100
    assert mirror.fault == log.fault
    assert ([e.hex() for e in mirror.column("e_I_exact")]
            == [(-e).hex() for e in log.column("e_I_exact")])
