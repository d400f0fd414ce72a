"""Exception types shared across the package."""


class InvalidPointError(ValueError):
    """A point does not satisfy the model-space constraint."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    The achieved absolute error estimate is stored in ``achieved_error``.
    """

    def __init__(self, message, achieved_error=None):
        super().__init__(message)
        self.achieved_error = achieved_error


class MonotonicityError(QuadratureError):
    """A tabulated functional moved the wrong way by more than its quadrature error."""


class UndecidedError(QuadratureError):
    """Condensation windows at a singular radius settled on neither convergence nor divergence.

    It never means divergence: callers report the quantity as undecided.
    """


class ConvergenceError(RuntimeError):
    """An iterative solver stopped before reaching its tolerance.

    ``residual`` carries the best error estimate at the point of failure.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotFormBoundedError(RuntimeError):
    """No resolvent parameter below the search cap achieves the target bound."""


class KernelHandlingError(RuntimeError):
    """A quadratic-form pencil has no finite bound on the kinetic kernel."""


class MeshError(ValueError):
    """A bundle mesh violates one of its structural constraints."""


class ConfigError(ValueError):
    """A run configuration failed schema validation."""
