"""Exception taxonomy shared by all hardy_lab modules.

Every failure mode that callers are expected to handle gets its own class;
generic ValueError/TypeError are reserved for plain programming mistakes.
"""


class HardyLabError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(HardyLabError):
    """A numeric or structural argument is outside its documented range."""


class InconsistentModelError(HardyLabError):
    """Radial data violates the area compatibility identity, or a model
    file's rows break its geometric tail line.

    Carries the first offending radius in ``.radius``.
    """

    def __init__(self, radius, message=None):
        self.radius = radius
        super().__init__(message or f"radial data inconsistent at radius {radius}")


class NoCanonicalRealizationError(HardyLabError):
    """The radial data has no vertex-level realization.

    Raised for data with a non-integer degree or volume, and for integer
    data with k_plus(r) > vol(r + 1), which no simple graph carries.
    """


class SizeLimitExceededError(HardyLabError):
    """A requested expansion or matrix would exceed the configured size cap."""


class UndefinedAtOriginError(HardyLabError):
    """Quantity is deliberately undefined at radius 0 (no inward sphere)."""


class NeedsTailError(HardyLabError):
    """The computation would read radial data beyond the stored depth."""


class NotPositiveError(HardyLabError):
    """A function that must be strictly positive vanishes or goes negative."""


class NoGreenFunctionError(HardyLabError):
    """The model is recurrent, so the minimal positive Green function blows up."""


class InconclusiveTransienceError(HardyLabError):
    """The stored data does not determine convergence of the area series."""


class DimensionTooSmallError(HardyLabError):
    """A continuum formula needs a larger dimension than was supplied."""


class InvalidDensityError(HardyLabError):
    """A volume density is non-positive or otherwise unusable on the grid."""


class OriginSingularityError(HardyLabError):
    """A continuum grid reaches into the r = 0 singularity."""


class SeriesDivergenceRiskError(HardyLabError):
    """The expansion radius is inside or on the boundary of divergence."""
