"""Exception types shared across the package."""


class KaczlabError(Exception):
    """Base class for all kaczlab errors."""


class ZeroRowError(KaczlabError):
    """A matrix row has (numerically) zero Euclidean norm."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has zero norm")


class NotSquareError(KaczlabError):
    """Operation requires a square matrix."""


class NotSymmetricError(KaczlabError):
    """Matrix asymmetry exceeds the allowed tolerance."""


class InconsistentSystemError(KaczlabError):
    """The linear system admits no exact solution."""


class NotNormalizedError(KaczlabError):
    """Operation requires a system with unit-norm rows."""


class BadDimensionsError(KaczlabError):
    """Problem dimensions are incompatible."""


class TooLargeError(KaczlabError):
    """Exhaustive enumeration would exceed the support cap."""


class BadBlockCountError(KaczlabError):
    """Requested number of paving blocks is invalid."""


class BadSpectrumError(KaczlabError):
    """Spectral interval endpoints are invalid for the requested schedule."""


class BadIntervalError(KaczlabError):
    """Interval endpoints must satisfy 0 < lo < hi."""


class NonPositiveConditioningError(KaczlabError):
    """Block conditioning parameter must be positive and finite."""


class MissingSpectrumError(KaczlabError):
    """A required spectral quantity is absent from the report."""


class ConfigMismatchError(KaczlabError):
    """Solver configuration is inconsistent with the system or itself."""
