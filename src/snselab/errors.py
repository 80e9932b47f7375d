"""Exception types shared across the package."""


class SnseLabError(Exception):
    """Base class for all package errors."""


class StructuralError(SnseLabError):
    """Incompatible shapes, grids, formats, or corrupted on-disk data."""


class ConfigError(SnseLabError):
    """Invalid or inconsistent run configuration.

    Carries the offending field name so command-line users can find it.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class SolverError(SnseLabError):
    """Implicit solve failed to converge within its iteration budget."""

    def __init__(self, message: str, residual: float | None = None,
                 step_index: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.step_index = step_index


class RangeError(SnseLabError):
    """Field lies outside the numerical range of the forcing operator."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class CapacityError(SnseLabError):
    """Exact transport problem exceeds the configured support limit."""


class FitError(SnseLabError):
    """Rate fit refused (degenerate abscissae or too few points)."""
