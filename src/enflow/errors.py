"""Exception hierarchy shared across the package.

Two broad families matter to callers: :class:`ValidationError` for malformed
inputs (bad shapes, unknown codes, unparsable files) and
:class:`NumericalError` for computations that cannot be completed on valid
inputs (non-convergent iterations, non-productive economies, degenerate
baselines). The CLI maps the families onto distinct exit codes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


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
    """The iteration named ``what`` ran its cap of ``steps`` ``unit`` without
    reaching ``tol``. Keeps the trailing ten ``residuals``."""

    def __init__(self, what: str, tol: float, steps: int, unit: str, residuals: Iterable[float] = ()):
        self.residuals = list(residuals)[-10:]
        last = f"{self.residuals[-1]:.3e}" if self.residuals else "n/a"
        super().__init__(f"{what} did not reach tolerance {tol} in {steps} {unit} (last residual {last})")


class ReducibleNetworkError(NumericalError):
    """The matrix is reducible, so a positive dominant eigenvector does not exist."""


class ZeroBaselineError(NumericalError):
    """The baseline total max flow is zero, leaving the criticality index undefined."""


class FlowCertificateError(NumericalError):
    """A computed max flow failed its certificate (capacity bounds or
    conservation), so its value cannot be trusted."""


def first_failure(checks: Iterable[tuple[np.ndarray, object]]) -> tuple[int, object] | None:
    """The one rule by which a strict check names what it rejects: the first
    position that any check flags, with the message of the first check that
    flags it, or None. ``checks`` are (mask, message) pairs of 1-D boolean
    masks of one length; the message is returned as given."""
    checks = list(checks)
    first = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))[:1]
    return next(((int(k), message) for k in first for mask, message in checks if mask[k]), None)
