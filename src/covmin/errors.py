"""Exception types shared across the package."""


class CovminError(Exception):
    """Base class for all package errors."""


class InvalidInput(CovminError):
    """Arguments violate a documented precondition."""


class SingularMatrix(CovminError):
    """A linear solve failed even after regularization."""


class RankDeficient(CovminError):
    """Effective rank is below what the operation requires."""


class UndefinedMetric(CovminError):
    """Metric is undefined for the given inputs (e.g. a single class)."""


class SchemaError(CovminError):
    """CSV input does not match the declared column roles."""


class RankDeficientWarning(UserWarning):
    """Feature matrix was degenerate; a larger ridge was substituted."""
