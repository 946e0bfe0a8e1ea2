"""Exception types raised by input validation and resource guards, and the
integer check that raises them."""

import numpy as np


class SubentropyError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SubentropyError):
    """A matrix or spectrum failed validation."""


class NotHermitianError(ValidationError):
    """Matrix is not Hermitian within tolerance."""


class TraceNotOneError(ValidationError):
    """Matrix trace differs from 1 beyond tolerance."""


class NotPSDError(ValidationError):
    """Matrix has an eigenvalue below the negativity clamp."""


class EmptyMatrixError(ValidationError):
    """Matrix or spectrum has size zero."""


class NoConvergenceError(SubentropyError):
    """Eigensolver sweep limit reached before the off-diagonal vanished."""


class InvalidRError(SubentropyError):
    """Order index r outside 1..n."""


class InvalidIndexError(SubentropyError):
    """Subsystem size or padding count out of range."""


class AlphaOutOfRangeError(SubentropyError):
    """Interpolation parameter outside [0, 1]."""


class CapExceededError(SubentropyError):
    """Closed-form evaluation requested beyond the supported dimension cap."""


class DegenerateContourError(SubentropyError):
    """Spectrum leaves no room to place an enclosing contour."""


class TooFewSamplesError(SubentropyError):
    """Monte Carlo sample count below the minimum for a standard error."""


def _check_int(value, lo, hi, error, what):
    """Return value as an int if it is an integer in [lo, hi], else raise error.

    hi = None leaves the range open above.  bool is rejected although it is
    an int subclass; numpy integers are accepted.
    """
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < lo or (hi is not None and value > hi)):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise error(f"{what} must be an integer {bound}, got {value!r}")
    return int(value)
