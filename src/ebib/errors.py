"""Exception hierarchy shared across the package."""


class EbibError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EbibError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class CapabilityError(EbibError):
    """Requested operation is not supported by this model family/strategy."""


class CapacityError(EbibError):
    """Problem size exceeds a hard implementation limit."""


class AccuracyError(EbibError):
    """Requested accuracy not reached; carries the best available estimate."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class EstimationError(EbibError):
    """An estimator could not produce a usable result."""


class SamplerError(EbibError):
    """MCMC failure; carries the iteration index where it occurred."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class InsufficientDataError(EbibError):
    """Posterior or marginal is not normalizable with the given sample size."""


class DegenerateOracleError(EbibError):
    """Oracle hyperparameter is undefined for this true parameter."""


class NonDifferentiableError(EbibError):
    """Prior log-density is not differentiable at the requested point."""
