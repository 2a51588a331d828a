"""Hamiltonian of two Coulomb-coupled charge qubits.

Each molecule i contributes a detuning eps_i between its left and right
sites and a tunneling amplitude delta_i; the Coulomb term j/4 raises the
aligned configurations (LL, RR) and lowers the anti-aligned ones.  All
energies are in ueV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

__all__ = ["SystemParams", "build_positional", "build_bell"]


@dataclass(frozen=True)
class SystemParams:
    """Physical couplings of the two-molecule system (all in ueV).

    Attributes:
        eps1, eps2: site detunings of molecule 1 and 2.
        delta1, delta2: tunneling amplitudes of molecule 1 and 2.
        j: Coulomb coupling strength; must be positive.
    """

    eps1: float = 0.0
    eps2: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    j: float = 25.0

    def __post_init__(self) -> None:
        for name in ("eps1", "eps2", "delta1", "delta2", "j"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidInput(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.j <= 0.0:
            raise InvalidInput(f"j must be positive, got {self.j!r}")

    @property
    def eps_sum(self) -> float:
        return self.eps1 + self.eps2

    @property
    def eps_diff(self) -> float:
        return self.eps1 - self.eps2

    @property
    def delta_plus(self) -> float:
        return (self.delta1 + self.delta2) / 2.0

    @property
    def delta_minus(self) -> float:
        return (self.delta1 - self.delta2) / 2.0

    @classmethod
    def from_ratio(cls, ratio: float, j: float = 25.0, eps1: float = 0.0, eps2: float = 0.0) -> "SystemParams":
        """Equal tunnelings set as a fraction of the Coulomb coupling."""
        return cls(eps1=eps1, eps2=eps2, delta1=ratio * j, delta2=ratio * j, j=j)


def build_positional(p: SystemParams) -> np.ndarray:
    """Hamiltonian over the positional basis {|LL>, |LR>, |RL>, |RR>}."""
    es2 = p.eps_sum / 2.0
    ed2 = p.eps_diff / 2.0
    j4 = p.j / 4.0
    d1 = p.delta1 / 2.0
    d2 = p.delta2 / 2.0
    return np.array(
        [
            [es2 + j4, d2, d1, 0.0],
            [d2, ed2 - j4, 0.0, d1],
            [d1, 0.0, -ed2 - j4, d2],
            [0.0, d1, d2, -es2 + j4],
        ],
        dtype=complex,
    )


def build_bell(p: SystemParams) -> np.ndarray:
    """Hamiltonian over the Bell basis {|Psi->, |Phi->, |Psi+>, |Phi+>}.

    Block structure: the (Psi-, Phi-) block carries the Coulomb splitting
    -+j/4 with off-diagonal coupling (delta2 - delta1)/2, the (Psi+, Phi+)
    block the same splitting with coupling (delta1 + delta2)/2, and the
    two blocks are linked only by the detunings, -eps_diff/2 between the
    Psi states and -eps_sum/2 between the Phi states.  Equals
    B @ build_positional(p) @ B^dagger for B = states.BELL_MATRIX.
    """
    j4 = p.j / 4.0
    am = (p.delta2 - p.delta1) / 2.0
    ap = (p.delta1 + p.delta2) / 2.0
    ed2 = p.eps_diff / 2.0
    es2 = p.eps_sum / 2.0
    return np.array(
        [
            [-j4, am, -ed2, 0.0],
            [am, j4, 0.0, -es2],
            [-ed2, 0.0, -j4, ap],
            [0.0, -es2, ap, j4],
        ],
        dtype=complex,
    )
