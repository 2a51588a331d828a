"""Dense 4x4 complex linear algebra with a deterministic Hermitian eigensolver.

The eigensolver is a cyclic complex Jacobi iteration.  For 4x4 problems it
converges in a handful of sweeps, needs no pivot search, and, together with
the phase convention applied to the eigenvectors, makes repeated solves of
the same matrix bitwise identical.  That determinism is what the sweep and
CLI layers rely on for byte-stable output files.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ConvergenceError, NonHermitianInput

__all__ = [
    "EigenDecomposition",
    "pair_flags_to_states",
    "expectation",
    "hermitian_eigensolve",
]

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_OFF_TOL = 1e-14
_HERM_TOL = 1e-12
_PHASE_FLOOR = 1e-9
_DEGENERACY_TOL = 1e-9
_MAX_SWEEPS = 60


def expectation(m: np.ndarray, psi: np.ndarray) -> float:
    """Real expectation value <psi|m|psi> of a Hermitian operator."""
    psi = np.asarray(psi)
    return float(np.real(np.vdot(psi, np.asarray(m) @ psi)))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues and eigenvectors of a 4x4 Hermitian matrix.

    Attributes:
        values: real eigenvalues, ascending.
        vectors: unitary matrix whose column k is the eigenvector for
            values[k], with the first component of modulus above 1e-9
            made real and positive.
        degenerate_pairs: flags for the adjacent pairs (0,1), (1,2),
            (2,3); True where the gap falls below 1e-9 * max(1, |m|_F).
    """

    values: np.ndarray
    vectors: np.ndarray
    degenerate_pairs: tuple[bool, bool, bool]

    @property
    def degenerate_states(self) -> tuple[bool, bool, bool, bool]:
        """Per-state flag: True if the state belongs to a flagged pair."""
        return pair_flags_to_states(self.degenerate_pairs)


def pair_flags_to_states(
    pairs: tuple[bool, bool, bool],
) -> tuple[bool, bool, bool, bool]:
    """Per-state flags from the adjacent-pair flags (0,1), (1,2), (2,3)."""
    return (pairs[0], pairs[0] or pairs[1], pairs[1] or pairs[2], pairs[2])


def _require_hermitian_4x4(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise NonHermitianInput(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise NonHermitianInput("matrix contains NaN or Inf entries")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.conj().T).max()) > _HERM_TOL * scale:
        raise NonHermitianInput("matrix is not Hermitian within tolerance")
    return m


def hermitian_eigensolve(m: np.ndarray) -> EigenDecomposition:
    """Diagonalize a 4x4 Hermitian matrix by cyclic complex Jacobi rotations.

    Raises:
        NonHermitianInput: if m is not 4x4 Hermitian with finite entries.
        ConvergenceError: if the off-diagonal norm does not fall below
            1e-14 * |m|_F (not reachable for well-formed input).
    """
    m = _require_hermitian_4x4(m)
    norm = float(np.linalg.norm(m))
    a = [[complex(m[i, j]) for j in range(4)] for i in range(4)]
    v = [[1.0 + 0.0j if i == j else 0.0 + 0.0j for j in range(4)] for i in range(4)]

    if norm > 0.0:
        threshold = _OFF_TOL * norm
        skip = threshold / 8.0
        for _ in range(_MAX_SWEEPS):
            off = 0.0
            for p, q in _PAIRS:
                off += abs(a[p][q]) ** 2
            if sqrt(2.0 * off) <= threshold:
                break
            for p, q in _PAIRS:
                apq = a[p][q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                alpha = a[p][p].real
                beta = a[q][q].real
                tau = (alpha - beta) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                cross = 2.0 * r * c * s
                a[p][p] = complex(alpha * c * c + cross + beta * s * s)
                a[q][q] = complex(alpha * s * s - cross + beta * c * c)
                a[p][q] = 0.0 + 0.0j
                a[q][p] = 0.0 + 0.0j
                sphc = s * phase.conjugate()
                sph = s * phase
                for i in range(4):
                    if i == p or i == q:
                        continue
                    aip = a[i][p]
                    aiq = a[i][q]
                    a[i][p] = c * aip + sphc * aiq
                    a[i][q] = c * aiq - sph * aip
                    a[p][i] = a[i][p].conjugate()
                    a[q][i] = a[i][q].conjugate()
                for i in range(4):
                    vip = v[i][p]
                    viq = v[i][q]
                    v[i][p] = c * vip + sphc * viq
                    v[i][q] = c * viq - sph * vip
        else:
            raise ConvergenceError("Jacobi iteration did not converge in 60 sweeps")

    values = np.array([a[k][k].real for k in range(4)])
    vectors = np.array(v, dtype=complex)
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]

    for k in range(4):
        col = vectors[:, k]
        for comp in col:
            h = abs(comp)
            if h > _PHASE_FLOOR:
                vectors[:, k] = col * (comp.conjugate() / h)
                break

    gap_tol = _DEGENERACY_TOL * max(1.0, norm)
    flags = tuple(bool(values[k + 1] - values[k] < gap_tol) for k in range(3))
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(values=values, vectors=vectors, degenerate_pairs=flags)
