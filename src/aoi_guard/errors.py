"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A supplied value violates a documented precondition or invariant."""


class ConvergenceError(RuntimeError):
    """A solver could not certify its answer; `residual` says by how much, when known."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class ConfigError(ValidationError):
    """A config file failed semantic validation; message names the offending key."""
