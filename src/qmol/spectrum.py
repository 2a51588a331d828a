"""Eigensystem of the coupled-qubit Hamiltonian and its closed form at resonance.

The numeric path (`eigensystem`) works for any parameters.  At full
resonance (both detunings zero) the Hamiltonian splits into two 2x2 Bell
blocks and `resonant_solution` returns the exact eigenpairs; the two
routes validate each other in the test suite.  Like the eigensolvers,
the closed form works at an exact power-of-two scale when the largest of
j and the tunnelings lies outside [2**-500, 2**500], so that squaring
them neither overflows nor underflows.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import ldexp, sqrt

import numpy as np

from .errors import NotResonant, NumericOverflow
from .hamiltonian import SystemParams, build_positional
from .linalg import (
    EigenDecomposition,
    _scale_exponent,
    hermitian_eigensolve,
    pair_flags_to_states,
)
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

_CLASSIFY_TOL = 1e-12


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
    delta_plus), computed in the second form; the
    stored states are exact eigenvectors, so their internal mixing sign
    follows the sign of the actual coupling a.

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


def _branch(
    j: float, delta: float, coupling: float, psi_row: int, phi_row: int, exp: int
) -> ResonantBranch:
    """One Bell block, computed with j, delta and coupling scaled by 2**-exp."""
    js, ds, cs = ldexp(j, -exp), ldexp(delta, -exp), ldexp(coupling, -exp)
    beta_scaled = sqrt(js * js + 16.0 * ds * ds)
    # (beta - j) / (4*delta) without the cancellation in beta - j; both
    # vanish with delta, with no division by it.  |coupling| = |delta|.
    mixing = 4.0 * ds / (beta_scaled + js)
    tilt = -4.0 * cs / (beta_scaled + js)
    gamma = 1.0 / sqrt(1.0 + mixing * mixing)
    try:
        beta = ldexp(beta_scaled, exp)
    except OverflowError:
        raise NumericOverflow(
            f"beta = sqrt(j^2 + 16*delta^2) exceeds the floating-point range "
            f"(j = {j!r}, delta = {delta!r})"
        ) from None
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
    """Exact eigenpairs of both Bell blocks; requires eps1 = eps2 = 0.

    Couplings out of [2**-500, 2**500] are solved at an exact power-of-two
    scale; inside that range the scale is 1 and changes no bit.

    Raises:
        NotResonant: if either detuning is nonzero.
        NumericOverflow: if a block's beta does not fit a double.
    """
    if classify_resonance(p) is not ResonanceKind.FULL_RESONANCE:
        raise NotResonant(
            f"closed-form solution needs eps1 = eps2 = 0, got "
            f"({p.eps1!r}, {p.eps2!r})"
        )
    exp = int(_scale_exponent(max(p.j, abs(p.delta1), abs(p.delta2))))
    minus = _branch(
        p.j, p.delta_minus, (p.delta2 - p.delta1) / 2.0, psi_row=0, phi_row=1, exp=exp
    )
    plus = _branch(
        p.j, p.delta_plus, (p.delta1 + p.delta2) / 2.0, psi_row=2, phi_row=3, exp=exp
    )
    return ResonantSolution(minus=minus, plus=plus)


class ResonanceKind(enum.Enum):
    FULL_RESONANCE = "FullResonance"
    EQUAL_DETUNING = "EqualDetuning"
    OPPOSITE_DETUNING = "OppositeDetuning"
    GENERIC = "Generic"


def classify_resonance(p: SystemParams, tol: float = _CLASSIFY_TOL) -> ResonanceKind:
    """Classify the detuning pattern with absolute tolerance in ueV.

    Full resonance means both detunings vanish; equal detuning means
    eps1 = eps2 != 0 (the odd Bell block keeps its singlet eigenstate);
    opposite detuning means eps1 = -eps2 != 0 (the even combination
    survives instead).
    """
    if abs(p.eps1) <= tol and abs(p.eps2) <= tol:
        return ResonanceKind.FULL_RESONANCE
    if abs(p.eps_diff) <= tol:
        return ResonanceKind.EQUAL_DETUNING
    if abs(p.eps_sum) <= tol:
        return ResonanceKind.OPPOSITE_DETUNING
    return ResonanceKind.GENERIC
