"""Eigensystem of the coupled-qubit Hamiltonian and its closed form at resonance.

The numeric path (`eigensystem`) works for any parameters.  At full
resonance (both detunings zero) the Hamiltonian splits into two 2x2 Bell
blocks and `resonant_solution` returns the exact eigenpairs; the two
routes validate each other in the test suite.  The closed form squares
nothing: beta = sqrt(j^2 + 16*delta^2) is `math.hypot(j, 4*delta)`, and
the mixing is built from the ratios 4*delta/beta and j/beta, which are at
most 1.  So it works over the whole double range, without the
power-of-two scaling the eigensolvers use, until beta itself overflows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import hypot, isfinite, sqrt

import numpy as np

from .errors import NotResonant, NumericOverflow, _checked_float, _checked_type
from .hamiltonian import SystemParams, build_positional
from .linalg import EigenDecomposition, hermitian_eigensolve, pair_flags_to_states
from .states import BELL_MATRIX, Basis, StateVector

__all__ = [
    "EigenSystem",
    "ResonantBranch",
    "ResonantSolution",
    "ResonanceKind",
    "eigensystem",
    "resonant_solution",
    "classify_resonance",
]


@dataclass(frozen=True)
class EigenSystem:
    """Energies (ascending, ueV) with matched positional-basis eigenstates.

    State labels |0>..|3> are ascending-energy indices.  degenerate_pairs
    flags the adjacent gaps (0,1), (1,2), (2,3) that fall below the
    eigensolver's degeneracy threshold; eigenvectors inside a flagged
    pair are basis-ambiguous up to the deterministic phase convention.
    """

    energies: np.ndarray
    states: tuple[StateVector, StateVector, StateVector, StateVector]
    degenerate_pairs: tuple[bool, bool, bool]

    @property
    def degenerate_states(self) -> tuple[bool, bool, bool, bool]:
        """Per-state flag: True if the state belongs to a flagged pair."""
        return pair_flags_to_states(self.degenerate_pairs)

    @property
    def vectors(self) -> np.ndarray:
        """Eigenvectors as columns of a 4x4 unitary."""
        return np.column_stack([s.amplitudes for s in self.states])


def eigensystem(p: SystemParams) -> EigenSystem:
    """Numerically diagonalize the positional-basis Hamiltonian."""
    dec: EigenDecomposition = hermitian_eigensolve(build_positional(p))
    states = tuple(
        StateVector(dec.vectors[:, k], Basis.POSITIONAL) for k in range(4)
    )
    return EigenSystem(
        energies=dec.values,
        states=states,  # type: ignore[arg-type]
        degenerate_pairs=dec.degenerate_pairs,
    )


@dataclass(frozen=True)
class ResonantBranch:
    """Exact eigenpair of one 2x2 Bell block at full resonance.

    The block over {|Psi_s>, |Phi_s>} is [[-j/4, a], [a, j/4]] with
    coupling a = (delta2 - delta1)/2 for the odd (s = minus) block and
    a = (delta1 + delta2)/2 for the even (s = plus) block.  `mixing` is
    the low-branch coefficient (beta - j)/(4*delta) = 4*delta/(beta + j)
    built from the block's tunneling scale delta (delta_minus or
    delta_plus), computed in the second form; the stored states are exact
    eigenvectors, so their internal mixing sign follows the sign of a.

    Attributes:
        delta: tunneling scale of the block (ueV).
        beta: sqrt(j^2 + 16*delta^2) (ueV).
        energy_low, energy_high: -+beta/4 (ueV).
        mixing: dimensionless low-branch Bell mixing, 0 in the delta->0 limit.
        gamma: normalization 1/sqrt(1 + mixing^2).
        state_low, state_high: positional-basis eigenstates.
    """

    delta: float
    beta: float
    energy_low: float
    energy_high: float
    mixing: float
    gamma: float
    state_low: StateVector
    state_high: StateVector


@dataclass(frozen=True)
class ResonantSolution:
    """Closed-form eigensystem at full resonance, grouped by Bell block.

    Flattened ordering is (minus low, minus high, plus low, plus high),
    which reduces to {|Psi->, |Phi->, |Psi+>, |Phi+>} as the tunnelings
    vanish.
    """

    minus: ResonantBranch
    plus: ResonantBranch

    @property
    def energies(self) -> np.ndarray:
        return np.array(
            [
                self.minus.energy_low,
                self.minus.energy_high,
                self.plus.energy_low,
                self.plus.energy_high,
            ]
        )

    @property
    def states(self) -> tuple[StateVector, StateVector, StateVector, StateVector]:
        return (
            self.minus.state_low,
            self.minus.state_high,
            self.plus.state_low,
            self.plus.state_high,
        )


def _branch(j: float, delta: float, sign: float, psi_row: int, phi_row: int) -> ResonantBranch:
    """The Bell block of coupling sign * delta; NumericOverflow if its beta overflows."""
    beta = hypot(j, 4.0 * delta)
    if not isfinite(beta):
        raise NumericOverflow(
            f"beta = sqrt(j^2 + 16*delta^2) exceeds the floating-point range "
            f"(j = {j!r}, delta = {delta!r})"
        )
    # (beta - j) / (4*delta) as 4*delta / (beta + j), without the
    # cancellation in beta - j, from ratios no larger than 1; both vanish
    # with delta, with no division by it
    sum_ratio = 1.0 + j / beta  # (beta + j) / beta, in (1, 2]
    mixing = 4.0 * delta / beta / sum_ratio
    tilt = -sign * mixing
    gamma = 1.0 / sqrt(1.0 + mixing * mixing)
    psi = BELL_MATRIX[psi_row]
    phi = BELL_MATRIX[phi_row]
    low = StateVector(gamma * (psi + tilt * phi), Basis.POSITIONAL)
    high = StateVector(gamma * (phi - tilt * psi), Basis.POSITIONAL)
    return ResonantBranch(
        delta=delta,
        beta=beta,
        energy_low=-beta / 4.0,
        energy_high=beta / 4.0,
        mixing=mixing,
        gamma=gamma,
        state_low=low,
        state_high=high,
    )


def resonant_solution(p: SystemParams) -> ResonantSolution:
    """Exact eigenpairs of both Bell blocks; requires eps1 = eps2 = 0 exactly.

    Raises:
        NotResonant: if either detuning is nonzero, however small.
        NumericOverflow: if a block's beta does not fit a double.
    """
    _checked_type(p, SystemParams, "p")
    if p.eps1 != 0.0 or p.eps2 != 0.0:
        raise NotResonant(
            f"closed-form solution needs eps1 = eps2 = 0 exactly, got "
            f"({p.eps1!r}, {p.eps2!r})"
        )
    minus = _branch(p.j, p.delta_minus, -1.0, psi_row=0, phi_row=1)
    plus = _branch(p.j, p.delta_plus, 1.0, psi_row=2, phi_row=3)
    return ResonantSolution(minus=minus, plus=plus)


class ResonanceKind(enum.Enum):
    FULL_RESONANCE = "FullResonance"
    EQUAL_DETUNING = "EqualDetuning"
    OPPOSITE_DETUNING = "OppositeDetuning"
    GENERIC = "Generic"


def classify_resonance(p: SystemParams, tol: float = 1e-12) -> ResonanceKind:
    """Classify the detuning pattern with absolute tolerance in ueV.

    Full resonance means both detunings vanish; equal detuning means
    eps1 = eps2 != 0 (the odd Bell block keeps its singlet eigenstate);
    opposite detuning means eps1 = -eps2 != 0 (the even combination
    survives instead).

    Raises:
        InvalidInput: unless tol is a nonnegative and finite real number.
    """
    _checked_type(p, SystemParams, "p")
    tol = _checked_float(tol, "tol", "nonnegative")
    if abs(p.eps1) <= tol and abs(p.eps2) <= tol:
        return ResonanceKind.FULL_RESONANCE
    if abs(p.eps_diff) <= tol:
        return ResonanceKind.EQUAL_DETUNING
    if abs(p.eps_sum) <= tol:
        return ResonanceKind.OPPOSITE_DETUNING
    return ResonanceKind.GENERIC
