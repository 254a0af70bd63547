"""Named controller parameter presets for the two experiments.

Rear/front optimal and backstepping values come from the published tuning
tables. The lateral-servoing gains were not published; the values here are
reconstruction choices picked for a well-damped straight-line response.
"""

from __future__ import annotations

from .controllers import BaselineParams, OptimalParams
from .vehicle import ImplementConfig

REAR_IMPLEMENT = ImplementConfig(I_s=-2.0, I_y=-0.5)
FRONT_IMPLEMENT = ImplementConfig(I_s=2.0, I_y=-0.5)

# Experiment 1 configurations: (method, placement) -> (implement, params)
TABLE1 = {
    ("lateral_servoing", "rear"): (REAR_IMPLEMENT, BaselineParams(k_y=0.1, k_theta=0.8)),
    ("backstepping", "rear"): (REAR_IMPLEMENT, BaselineParams(k_y=0.2, k_theta=0.6)),
    ("optimal", "rear"): (REAR_IMPLEMENT, OptimalParams(lam=0.1, k_theta=0.6, s_h=2.0, s_t=0.15)),
    ("lateral_servoing", "front"): (FRONT_IMPLEMENT, BaselineParams(k_y=0.1, k_theta=0.5)),
    ("backstepping", "front"): (FRONT_IMPLEMENT, BaselineParams(k_y=0.1, k_theta=0.5)),
    ("optimal", "front"): (FRONT_IMPLEMENT, OptimalParams(lam=0.25, k_theta=0.3, s_h=1.5, s_t=0.15)),
}

# Experiment 2 horizon sweep rows (rear implement throughout).
TABLE2 = [
    OptimalParams(lam=0.15, k_theta=0.35, s_h=0.5, s_t=0.10),
    OptimalParams(lam=0.15, k_theta=0.35, s_h=1.0, s_t=0.10),
    OptimalParams(lam=0.175, k_theta=0.35, s_h=1.5, s_t=0.10),
    OptimalParams(lam=0.175, k_theta=0.4, s_h=2.0, s_t=0.10),
    OptimalParams(lam=0.2, k_theta=0.4, s_h=2.5, s_t=0.10),
    OptimalParams(lam=0.2, k_theta=0.6, s_h=3.0, s_t=0.10),
    OptimalParams(lam=0.2, k_theta=0.6, s_h=3.5, s_t=0.10),
]

