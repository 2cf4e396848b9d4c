"""Exception hierarchy shared across the package."""


class QprocError(Exception):
    """Base class for every package-specific error."""


class ArgumentError(QprocError, ValueError):
    """Malformed, inconsistent, or out-of-range arguments."""


class InvariantViolation(QprocError):
    """A value failed one of its defining invariants."""


class ResourceLimitError(QprocError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class UnboundedVarianceError(QprocError):
    """The target form has weight in the null space of the Fisher matrix.

    The marginal variance of the corresponding estimate is infinite, so no
    finite bound can be reported.
    """


class InconsistentDerivativeError(QprocError):
    """State derivative has support where the Lyapunov equation is unsolvable."""


class ChainViolation(QprocError):
    """One of the ordered precision bounds was violated."""

    def __init__(self, link: str, message: str):
        super().__init__(message)
        self.link = link


class ConvergenceError(QprocError):
    """Numerical minimization failed to converge; carries the best iterate."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class UnsupportedDimensionError(QprocError):
    """Operation only defined for a restricted number of parameters."""


class EstimationError(QprocError):
    """Estimation cannot proceed (e.g. a branch received no data)."""


class DegenerateModelError(QprocError):
    """Calibration data does not determine an invertible response."""


class SchemaError(QprocError):
    """A configuration or artifact violates its JSON schema."""
