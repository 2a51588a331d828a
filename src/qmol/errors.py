"""Exception types raised by the public API, and the rules for scalar and array inputs."""

import operator
from math import isfinite, log10, nan
from numbers import Real

import numpy as np

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


def _shown(value) -> str:
    """repr(value), or the length of an int past Python's int-to-str digit limit."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits(), 4300 by default
        if not isinstance(value, int):
            return f"a {type(value).__name__} too long to print"
    a = abs(value)
    digits = int(log10(a)) + 1  # within one of the count
    digits += (a >= 10**digits) - (a < 10 ** (digits - 1))
    return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def _checked_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as a Python int; InvalidInput unless an integer (no bool) in [lo, hi]."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, bool) or n < lo or (hi is not None and n > hi):
        bound = f"an integer >= {lo}" if hi is None else f"{lo}..{hi}"
        raise InvalidInput(f"{name} must be {bound}, got {_shown(value)}")
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
        raise InvalidInput(f"{name} must be {must}, got {_shown(value)}")
    return x


# the dtype kinds `_checked_array` converts to each target dtype, and their names
_ARRAY_KINDS = {float: "iuf", complex: "iufc", None: "iufc", bool: "b"}
_KIND_NAMES = {"iuf": "real numbers", "iufc": "numbers", "b": "bools"}


def _checked_array(value, name, shape=None, dtype=float, error=InvalidInput, finite=False):
    """value as an array of dtype float, complex or bool, by one `np.asarray`, copy=False.

    Integers and floats pass as float, or as complex where dtype is
    complex.  Complex numbers pass only where dtype is complex or None;
    None keeps them complex and makes integers and floats float.  Bools
    pass only as bool.  Strings, objects (None entries, ragged nesting),
    datetimes and records raise `error`, as does a shape that does not
    fit, and with `finite` a NaN or an infinity.  shape None takes any
    shape; a tuple that shape, where None takes any length, and (n,) any
    array of n elements, returned as shape (n,).
    """
    kinds = _ARRAY_KINDS[dtype]
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # ragged nesting, or items numpy cannot read
        a = np.asarray(None)
    if a.dtype.kind not in kinds:
        raise error(f"{name} must be an array of {_KIND_NAMES[kinds]}, got dtype {a.dtype}")
    if shape is not None and a.shape != shape:
        if len(shape) == 1 and a.size == shape[0]:
            a = a.reshape(shape)
        elif a.ndim != len(shape) or any(n not in (None, k) for n, k in zip(shape, a.shape)):
            dims = "x".join("*" if n is None else str(n) for n in shape)
            what = f"have {dims} elements" if len(shape) == 1 else f"be a {dims} matrix"
            raise error(f"{name} must {what}, got shape {a.shape}")
    a = a.astype(dtype or (complex if a.dtype.kind == "c" else float), copy=False)
    if finite and not np.isfinite(a).all():
        raise error(f"{name} must be finite")
    return a
