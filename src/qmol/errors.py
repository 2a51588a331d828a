"""Exception types raised by the public API."""

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
