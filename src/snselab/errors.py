"""Exception types shared across the package."""


class SnseLabError(Exception):
    """Base class for all package errors."""


class StructuralError(SnseLabError):
    """Incompatible shapes, grids, formats, or corrupted on-disk data."""


class ConfigError(SnseLabError):
    """Invalid or inconsistent run configuration.

    Carries the offending field name so command-line users can find it;
    a caller that knows where the field sits may qualify ``field``.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.field is None else f"{self.field}: {message}"


class SolverError(SnseLabError):
    """Implicit solve failed to converge within its iteration budget.

    A march that meets it sets ``step_index``, the step it was taking,
    and the message then names that step.
    """

    def __init__(self, message: str, residual: float | None = None,
                 step_index: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.step_index = step_index

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.step_index is None else f"{message} (step {self.step_index})"


class RangeError(SnseLabError):
    """Field lies outside the numerical range of the forcing operator."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class CapacityError(SnseLabError):
    """Exact transport problem exceeds the configured support limit."""


class FitError(SnseLabError):
    """Rate fit refused (degenerate abscissae or too few points)."""
