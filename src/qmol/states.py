"""Four-level state vectors for two charge qubits.

Positional basis ordering is {|LL>, |LR>, |RL>, |RR>}, where the first
letter is the occupied site of molecule 1 and the second of molecule 2.
Bell basis ordering is {|Psi->, |Phi->, |Psi+>, |Phi+>} with

    |Psi+-> = (|RL> +- |LR>) / sqrt(2)
    |Phi+-> = (|RR> +- |LL>) / sqrt(2)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import hypot, sqrt

import numpy as np

from .errors import InvalidInput, NotNormalized, _checked_array

__all__ = [
    "Basis",
    "POSITIONAL_LABELS",
    "BELL_LABELS",
    "BELL_DISPLAY",
    "StateVector",
    "basis_state",
    "canonical_label",
]

POSITIONAL_LABELS = ("LL", "LR", "RL", "RR")
BELL_LABELS = ("PsiMinus", "PhiMinus", "PsiPlus", "PhiPlus")
#: The same labels as tables print them; `basis_state` accepts both spellings.
BELL_DISPLAY = tuple(b.replace("Minus", "-").replace("Plus", "+") for b in BELL_LABELS)

_NORM_TOL = 1e-12


def _check_unit_norm(amps: np.ndarray, tol: float) -> None:
    """NotNormalized unless the complex amplitudes amps have norm 1 within tol."""
    # hypot overflows only where the norm itself does; NaN fails the test
    norm = hypot(*np.ascontiguousarray(amps).view(float).tolist())
    if not abs(norm - 1.0) <= tol:
        if not np.isfinite(amps).all():
            raise NotNormalized("amplitudes contain NaN or Inf")
        raise NotNormalized(f"state norm is {norm!r}, expected 1")


class Basis(enum.Enum):
    POSITIONAL = "positional"
    BELL = "bell"


def _bell_matrix() -> np.ndarray:
    s = 1.0 / sqrt(2.0)
    b = np.array(
        [
            [0.0, -s, s, 0.0],
            [-s, 0.0, 0.0, s],
            [0.0, s, s, 0.0],
            [s, 0.0, 0.0, s],
        ],
        dtype=complex,
    )
    b.setflags(write=False)
    return b


#: Rows are the Bell states expressed over the positional basis; applying it
#: to positional amplitudes yields Bell-basis amplitudes.
BELL_MATRIX = _bell_matrix()


@dataclass(frozen=True)
class StateVector:
    """Unit-norm amplitude vector tagged with the basis it is written in.

    The amplitudes may be any array or nested sequence of four integers,
    floats or complex numbers, whatever its shape; they are stored as a
    read-only complex copy of shape (4,).  Anything else, bools and
    strings among it, raises InvalidInput, as does a basis that is no
    `Basis`; a norm that is not 1 within 1e-12 raises NotNormalized.
    """

    amplitudes: np.ndarray
    basis: Basis = Basis.POSITIONAL

    def __post_init__(self) -> None:
        # a copy, so that freezing it leaves the caller's array writable
        amps = _checked_array(self.amplitudes, "amplitudes", (4,), complex).copy()
        _check_unit_norm(amps, _NORM_TOL)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if not isinstance(self.basis, Basis):
            raise InvalidInput(f"basis must be a Basis member, got {self.basis!r}")

    @property
    def probabilities(self) -> np.ndarray:
        """Squared moduli of the amplitudes, in this state's basis."""
        return np.abs(self.amplitudes) ** 2

    def to_positional(self) -> "StateVector":
        if self.basis is Basis.POSITIONAL:
            return self
        return StateVector(BELL_MATRIX.conj().T @ self.amplitudes, Basis.POSITIONAL)

    def to_bell(self) -> "StateVector":
        if self.basis is Basis.BELL:
            return self
        return StateVector(BELL_MATRIX @ self.amplitudes, Basis.BELL)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>, converting bases if they differ."""
        a = self.to_positional().amplitudes
        b = other.to_positional().amplitudes
        return complex(np.vdot(a, b))

    def density_matrix(self) -> np.ndarray:
        """Rank-one density matrix |self><self| in this state's basis."""
        a = self.amplitudes
        return _product(a[:, None], a.conj())


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The complex product a * b, broadcast, from real products and sums.

    numpy's complex multiply loops fuse a multiply and an add where the
    CPU can, so their bits depend on the loop numpy dispatches; separate
    real operations round alike on every CPU.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def basis_state(label: str) -> StateVector:
    """Build a basis state from a positional or Bell label.

    Positional labels (LL, LR, RL, RR) give positional-basis unit vectors;
    Bell labels (PsiMinus, PhiMinus, PsiPlus, PhiPlus, or as tables print
    them Psi-, Phi-, Psi+, Phi+) give the corresponding Bell state
    expressed in the positional basis.

    Raises:
        InvalidInput: for any other label.
    """
    label = canonical_label(label)
    amps = np.zeros(4, dtype=complex)
    if label in POSITIONAL_LABELS:
        amps[POSITIONAL_LABELS.index(label)] = 1.0
        return StateVector(amps, Basis.POSITIONAL)
    if label in BELL_LABELS:
        return StateVector(BELL_MATRIX[BELL_LABELS.index(label)], Basis.POSITIONAL)
    raise InvalidInput(
        f"unknown state label {label!r}; choose from "
        f"{', '.join(POSITIONAL_LABELS + BELL_LABELS + BELL_DISPLAY)}"
    )


def canonical_label(label: str) -> str:
    """`label`, with a Bell state as tables print it (Psi+) spelled as its name (PsiPlus)."""
    return BELL_LABELS[BELL_DISPLAY.index(label)] if label in BELL_DISPLAY else label
