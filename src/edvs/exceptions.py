"""Exception types shared across the package."""


class EdvsError(Exception):
    """Base class for all package errors."""


class MatrixFormatError(EdvsError):
    """Matrix file cannot be parsed or has an invalid structure."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class PartitionError(EdvsError):
    """Node-to-subdomain partition violates coverage or index ranges."""


class LocalityError(EdvsError):
    """Matrix couples nodes that share no subdomain; blocks `solve_dvs`."""


class ContinuityError(EdvsError):
    """A derived vector required to be continuous is not."""


class InconsistentSystemError(EdvsError):
    """Right-hand side is not in the range of the operator."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidSplitError(EdvsError):
    """Index split fails the null-space containment condition."""


class SingularInteriorError(EdvsError):
    """An interior diagonal block is singular."""

    def __init__(self, subdomain, message=None):
        super().__init__(message or f"interior block of subdomain {subdomain} is singular")
        self.subdomain = subdomain


class ConfigError(EdvsError):
    """Invalid solver configuration."""


class ConvergenceError(EdvsError):
    """Iteration budget exhausted before reaching the residual target."""

    def __init__(self, message, residual_history=(), best=None, solution=None, report=None):
        super().__init__(message)
        self.residual_history = list(residual_history)
        self.best = best
        self.solution = solution
        self.report = report
