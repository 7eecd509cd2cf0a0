"""Exception hierarchy shared across the package.

Two broad families matter to callers: :class:`ValidationError` for malformed
inputs (bad shapes, unknown codes, unparsable files) and
:class:`NumericalError` for computations that cannot be completed on valid
inputs (non-convergent iterations, non-productive economies, degenerate
baselines). The CLI maps the families onto distinct exit codes.
"""

from __future__ import annotations


class EnflowError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EnflowError):
    """Invalid input data or arguments."""


class DataFormatError(ValidationError):
    """A data file failed to parse; carries the offending location."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class NumericalError(EnflowError):
    """A numerical procedure failed on otherwise valid input."""


class NonProductiveEconomyError(NumericalError):
    """Input coefficients have spectral radius >= 1, so the total-requirements
    series diverges. Carries the period label when known.
    """

    def __init__(self, message: str, period: int | None = None):
        self.period = period
        super().__init__(message)


class ConvergenceError(NumericalError):
    """An iteration hit its step cap before reaching tolerance."""

    def __init__(self, message: str, residuals: list[float] | None = None):
        self.residuals = residuals or []
        super().__init__(message)


class ReducibleNetworkError(NumericalError):
    """The matrix is reducible, so a positive dominant eigenvector does not exist."""


class ZeroBaselineError(NumericalError):
    """The baseline total max flow is zero, leaving the criticality index undefined."""


class FlowCertificateError(NumericalError):
    """A computed max flow failed its certificate (capacity bounds or
    conservation), so its value cannot be trusted."""
