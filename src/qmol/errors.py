"""Exception types raised by the public API, and the two rules for scalar inputs."""

import operator
from math import isfinite, nan
from numbers import Real

__all__ = [
    "QmolError",
    "InvalidInput",
    "NonHermitianInput",
    "ConvergenceError",
    "NumericOverflow",
    "NotNormalized",
    "NotResonant",
    "NoRealSolution",
    "InvalidDensityMatrix",
    "ConfigError",
]


class QmolError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(QmolError, ValueError):
    """An argument lies outside the range the called function accepts."""


class NonHermitianInput(QmolError, ValueError):
    """A matrix expected to be Hermitian failed the symmetry check."""


class ConvergenceError(QmolError, ArithmeticError):
    """An iterative routine failed to reach its tolerance."""


class NumericOverflow(QmolError, OverflowError):
    """A result does not fit in the double-precision range."""


class NotNormalized(QmolError, ValueError):
    """A state vector does not have unit norm within tolerance."""


class NotResonant(InvalidInput):
    """An operation that requires zero detuning received a detuned system."""


class NoRealSolution(QmolError, ValueError):
    """The requested oscillation-period ratio admits no real tunneling amplitude."""


class InvalidDensityMatrix(QmolError, ValueError):
    """A density matrix violated Hermiticity, unit trace, or positivity."""


class ConfigError(InvalidInput):
    """Command-line or config-file input could not be turned into a run."""


def _checked_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as a Python int; InvalidInput unless an integer (no bool) in [lo, hi]."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool) or n < lo or (hi is not None and n > hi):
        bound = f"an integer >= {lo}" if hi is None else f"{lo}..{hi}"
        raise InvalidInput(f"{name} must be {bound}, got {value!r}")
    return n


def _checked_float(value, name: str, bound: str = "") -> float:
    """value as a Python float; InvalidInput unless a finite `numbers.Real` (no bool).

    bound "positive" requires value > 0, "nonnegative" value >= 0 (-0.0 passes).
    """
    try:
        x = float(value) if isinstance(value, Real) and type(value) is not bool else nan
    except OverflowError:  # an integer beyond the double range
        x = nan
    below = {"": False, "positive": x <= 0.0, "nonnegative": x < 0.0}[bound]
    if below or not isfinite(x):
        must = f"{bound} and finite" if bound else "finite"
        raise InvalidInput(f"{name} must be {must}, got {value!r}")
    return x
