"""Exception types shared across the toolkit, the field check that
configuration objects share, and the bounded echo of a rejected text that
their messages share."""

import math


# an error echoes at most this many characters of a rejected text
ECHO_CHARS = 40


def quoted(text) -> str:
    """text's repr for an error message: whole up to ECHO_CHARS characters
    (or when it is not a str), else its first ECHO_CHARS and its length."""
    if not isinstance(text, str) or len(text) <= ECHO_CHARS:
        return repr(text)
    return f"{text[:ECHO_CHARS]!r}... ({len(text)} characters)"


class GuidanceError(Exception):
    """Base class for all toolkit errors."""


class PathConstructionError(GuidanceError):
    """A path descriptor list violates a segment or continuity invariant.
    `segment` is the index of the segment (or descriptor) the error blames,
    or None."""

    def __init__(self, message: str, segment: int | None = None):
        super().__init__(message)
        self.segment = segment


class RangeError(GuidanceError):
    """A curvilinear abscissa is outside [0, total_length]."""


class SingularityError(GuidanceError):
    """A model singularity guard tripped (osculating-circle center or 1 - gamma*I_y = 0)."""


class DomainError(GuidanceError):
    """An angle or parameter is outside the formula's validity domain."""


class ParameterError(GuidanceError):
    """Controller or scenario parameters violate their invariants. `fields`
    names the config fields the error blames, in order."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


def require_positive(obj, names: tuple[str, ...]) -> None:
    """Raise ParameterError naming the first of obj's fields `names` that is
    not a finite number > 0 (NaN and +inf included)."""
    for name in names:
        value = getattr(obj, name)
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be finite and > 0, got {value!r}", name)


class ScenarioError(GuidanceError):
    """A scenario file failed validation."""

