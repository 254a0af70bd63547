"""Path-following control toolkit for an offset implement point on a
bicycle-model vehicle: piecewise line/arc reference paths, a deterministic
plant simulator, a two-stage optimal predictive controller with two
reconstructed baselines, and an experiment harness."""

__version__ = "0.1.0"

from .controllers import (
    BacksteppingController,
    BaselineParams,
    ControlCommand,
    LateralServoingController,
    OptimalController,
    OptimalParams,
    SigmaTerms,
    sigma_terms,
    xi_optimal,
)
from .harness import (
    NoiseSpec,
    RunLog,
    Scenario,
    compare_methods,
    run_scenario,
    summarize,
    sweep_horizon,
)
from .paths import (
    FrenetState,
    PathSegment,
    ReferencePath,
    build_experiment_path,
    build_path,
)
from .vehicle import (
    ImplementConfig,
    Measurements,
    VehicleConfig,
    VehiclePose,
    implement_error_exact,
    implement_error_measured,
    implement_world_position,
    step,
    yaw_rate_from_steer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
