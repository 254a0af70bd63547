"""Exception types shared across the toolkit."""


class GuidanceError(Exception):
    """Base class for all toolkit errors."""


class PathConstructionError(GuidanceError):
    """A path descriptor list violates a segment or continuity invariant."""


class RangeError(GuidanceError):
    """A curvilinear abscissa is outside [0, total_length]."""


class SingularityError(GuidanceError):
    """A model singularity guard tripped (osculating-circle center or 1 - gamma*I_y = 0)."""


class DomainError(GuidanceError):
    """An angle or parameter is outside the formula's validity domain."""


class ParameterError(GuidanceError):
    """Controller or scenario parameters violate their invariants."""


class ScenarioError(GuidanceError):
    """A scenario file failed validation."""

