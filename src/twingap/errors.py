"""Exception hierarchy shared across the package."""


class TwinGapError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TwinGapError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IllConditionedGeometryError(TwinGapError):
    """Gap endpoints too close for reliable double-precision quadrature."""


class AmbiguousRegimeError(TwinGapError):
    """Asymptotic regime selection is contradictory for the given inputs."""
