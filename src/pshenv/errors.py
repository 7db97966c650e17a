"""Exception types shared across the package."""


class PshenvError(Exception):
    """Base class for package errors."""


class PointNotOnSpace(PshenvError):
    """No branch parameter reproduces the requested ambient point."""


class NotApplicable(PshenvError):
    """Operation does not apply to this space kind."""


class DomainError(PshenvError):
    """Field evaluation hit an undefined combination (division by zero, NaN)."""


class IllConditioned(PshenvError):
    """Least-squares system condition estimate exceeded the configured bound."""


class DegreeOverflow(PshenvError):
    """Composed disc degree would exceed the cap."""


class PointOutsideWindow(PshenvError):
    """Query point violates the space's domain constraint."""


class NotConverged(PshenvError):
    """Iteration hit max_iters before meeting tolerance.

    Carries the last iterate so callers can inspect how far it got.
    """

    def __init__(self, message, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class InterpolationOutOfRange(PshenvError):
    """A disc leaves the region covered by the value grid."""


class SchemaMismatch(PshenvError):
    """Two result files do not share the same structure."""


class ConfigError(PshenvError):
    """Run configuration is missing keys, has unknown keys, or bad values."""
