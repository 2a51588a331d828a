"""Hamiltonian of two Coulomb-coupled charge qubits.

Each molecule i contributes a detuning eps_i between its left and right
sites and a tunneling amplitude delta_i; the Coulomb term j/4 raises the
aligned configurations (LL, RR) and lowers the anti-aligned ones.  All
energies are in ueV.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, _checked_float, _checked_type

__all__ = ["SystemParams", "build_positional", "build_bell"]


@dataclass(frozen=True)
class SystemParams:
    """Physical couplings of the two-molecule system (all in ueV).

    Attributes (finite real numbers, stored as floats; else InvalidInput):
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
            bound = "positive" if name == "j" else ""
            value = _checked_float(getattr(self, name), name, bound)
            object.__setattr__(self, name, value)

    @property
    def eps_sum(self) -> float:
        return self.eps1 + self.eps2

    @property
    def eps_diff(self) -> float:
        return self.eps1 - self.eps2

    @property
    def delta_plus(self) -> float:
        return self.delta1 / 2.0 + self.delta2 / 2.0

    @property
    def delta_minus(self) -> float:
        return self.delta1 / 2.0 - self.delta2 / 2.0

    @classmethod
    def from_ratio(cls, ratio: float, j: float = 25.0, eps1: float = 0.0, eps2: float = 0.0) -> "SystemParams":
        """Equal tunnelings set as a fraction of the Coulomb coupling."""
        delta = _checked_float(ratio, "ratio") * _checked_float(j, "j", "positive")
        return cls(eps1=eps1, eps2=eps2, delta1=delta, delta2=delta, j=j)


def build_positional(p: SystemParams) -> np.ndarray:
    """Hamiltonian over the positional basis {|LL>, |LR>, |RL>, |RR>}."""
    _checked_type(p, SystemParams, "p")
    return _positional_matrices(p.eps1, p.eps2, p.delta1, p.delta2, p.j).astype(complex)


def _positional_matrices(eps1, eps2, delta1, delta2, j) -> np.ndarray:
    """Real positional-basis Hamiltonians for scalar or array couplings.

    The arguments broadcast against each other; the result has their
    broadcast shape followed by (4, 4).  Types and finiteness are not checked:
    this is the matrix arithmetic of `build_positional` without the
    SystemParams checks, so a sweep can build many cells at once.

    Raises InvalidInput where a cell's couplings are all subnormal, that
    is its largest |coupling| lies below 2**-1022 ueV: such couplings carry
    fewer than 53 bits (3e-321 has 10), so the matrix no longer spells
    the system asked for.
    """
    # j > 0 is one of each cell's couplings, so a normal float j settles it
    if not isinstance(j, float) or j < sys.float_info.min:
        couplings = np.broadcast_arrays(eps1, eps2, delta1, delta2, j)
        largest = np.max(np.abs(couplings), axis=0).min()
        if largest < sys.float_info.min:
            raise InvalidInput(
                f"couplings all below 2**-1022 ueV have lost digits: the largest "
                f"|coupling| is {float(largest)!r}"
            )
    # halved before they are added, so that eps1 +- eps2 cannot overflow;
    # halving a normal double is exact
    es2 = eps1 / 2.0 + eps2 / 2.0
    ed2 = eps1 / 2.0 - eps2 / 2.0
    j4 = j / 4.0
    d1 = delta1 / 2.0
    d2 = delta2 / 2.0
    # built entry-major, so each entry of a stack is one contiguous block
    h = np.zeros((4, 4) + np.broadcast(es2, ed2, j4, d1, d2).shape)
    # a diagonal entry that overflows is left inf for the eigensolver to
    # reject, silently, as Python float arithmetic leaves a scalar one
    with np.errstate(over="ignore"):
        h[0, 0] = es2 + j4
        h[1, 1] = ed2 - j4
        h[2, 2] = -ed2 - j4
        h[3, 3] = -es2 + j4
    h[0, 1] = h[1, 0] = h[2, 3] = h[3, 2] = d2
    h[0, 2] = h[2, 0] = h[1, 3] = h[3, 1] = d1
    return h.transpose(tuple(range(2, h.ndim)) + (0, 1))


def build_bell(p: SystemParams) -> np.ndarray:
    """Hamiltonian over the Bell basis {|Psi->, |Phi->, |Psi+>, |Phi+>}.

    Block structure: the (Psi-, Phi-) block carries the Coulomb splitting
    -+j/4 with off-diagonal coupling (delta2 - delta1)/2, the (Psi+, Phi+)
    block the same splitting with coupling (delta1 + delta2)/2, and the
    two blocks are linked only by the detunings, -eps_diff/2 between the
    Psi states and -eps_sum/2 between the Phi states.  Equals
    B @ build_positional(p) @ B^dagger for B = states.BELL_MATRIX.
    """
    _checked_type(p, SystemParams, "p")
    j4 = p.j / 4.0
    am = p.delta2 / 2.0 - p.delta1 / 2.0
    ap = p.delta1 / 2.0 + p.delta2 / 2.0
    ed2 = p.eps1 / 2.0 - p.eps2 / 2.0
    es2 = p.eps1 / 2.0 + p.eps2 / 2.0
    return np.array(
        [
            [-j4, am, -ed2, 0.0],
            [am, j4, 0.0, -es2],
            [-ed2, 0.0, -j4, ap],
            [0.0, -es2, ap, j4],
        ],
        dtype=complex,
    )
