"""Wootters concurrence for two charge qubits.

Wootters (PRL 80, 2245, 1998) defines C = max(0, l1 - l2 - l3 - l4), the
l_i being the square roots, descending, of the eigenvalues of
rho @ rho_tilde, with rho_tilde the spin-flipped density matrix.  The l_i
are also the singular values of tau = L^T Y L, where rho = L L^H and
Y = sigma_y (x) sigma_y (Wootters 1998; Uhlmann, PRA 62, 032307, 2000,
for any antilinear conjugation).  `concurrence` uses that form: one
Jacobi solve of rho gives L = V sqrt(D), Y is a signed reversal of rows,
and a values-only solve of the Gram matrix tau^H tau gives the l_i
squared.  No matrix square root is formed and nothing cancels near the
separable states, where the l_i are small.  The Gram solve runs to
1e-32 |tau^H tau|_F rather than the usual 1e-14, because its small
eigenvalues enter C through their square roots.  For pure states the
closed form 2|c_LL*c_RR - c_LR*c_RL| serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDensityMatrix,
    NonHermitianInput,
    NotNormalized,
    NumericOverflow,
)
from .linalg import _hermitian_eigenpairs, _hermitian_eigenvalues
from .states import Basis, StateVector

__all__ = [
    "ConcurrenceResult",
    "spin_flip",
    "concurrence",
    "concurrence_pure",
    "concurrence_from_amplitudes",
]

# sigma_y (x) sigma_y over {|LL>, |LR>, |RL>, |RR>} is the reversal of the
# basis with these signs: row i of Y @ m is _SIGNS[i] * m[3 - i]
_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])
_SIGNS.setflags(write=False)
_FLIP_SIGNS = _SIGNS * _SIGNS.T
_FLIP_SIGNS.setflags(write=False)

_TRACE_TOL = 1e-12
_EIG_FLOOR = -1e-12
_PURE_NORM_TOL = 1e-9
# so that the l_i carry absolute errors near 1e-16 |tau|, as from an SVD
_GRAM_OFF_TOL = 1e-32


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence value with the spectrum behind it.

    Attributes:
        value: max(0, lambda1 - lambda2 - lambda3 - lambda4), clipped to [0, 1].
        lambdas: square roots of the R-matrix eigenvalues, descending.
        rho_tilde: the spin-flipped density matrix used in R.
    """

    value: float
    lambdas: np.ndarray
    rho_tilde: np.ndarray


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Spin-flipped matrix (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return _FLIP_SIGNS * rho.conj()[::-1, ::-1]


def _check_trace(rho: np.ndarray) -> None:
    trace = complex(rho.trace())
    if abs(trace - 1.0) > _TRACE_TOL:
        raise InvalidDensityMatrix(f"trace is {trace!r}, expected 1 within 1e-12")


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix.

    The factor solve of rho is also its finiteness and Hermiticity check,
    within 1e-12 * max(1, max |rho_ij|); the checks run, and report, in
    the order finite, Hermitian, trace, positive.

    Raises:
        InvalidDensityMatrix: if rho fails the Hermiticity, trace, or
            positivity checks (eigenvalues below -1e-12).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidDensityMatrix(f"expected a 4x4 matrix, got shape {rho.shape}")
    try:
        values, vectors = _hermitian_eigenpairs(rho)
    except NonHermitianInput:
        if not np.isfinite(rho).all():
            raise InvalidDensityMatrix("density matrix contains NaN or Inf") from None
        raise InvalidDensityMatrix(
            "density matrix is not Hermitian within 1e-12"
        ) from None
    except NumericOverflow:
        # eigenvalues beyond the double range: a bad trace is reported first
        _check_trace(rho)
        raise
    _check_trace(rho)
    lowest = values.min()
    if lowest < _EIG_FLOOR:
        raise InvalidDensityMatrix(f"negative eigenvalue {lowest!r} below tolerance")
    factor = vectors * np.sqrt(np.maximum(values, 0.0))
    tau = factor.T @ (_SIGNS * factor[::-1])
    r_vals = _hermitian_eigenvalues(tau.conj().T @ tau, off_tol=_GRAM_OFF_TOL)
    lambdas = np.sqrt(np.maximum(r_vals, 0.0))[::-1].copy()
    value = lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]
    value = min(max(float(value), 0.0), 1.0)
    lambdas.setflags(write=False)
    return ConcurrenceResult(value=value, lambdas=lambdas, rho_tilde=spin_flip(rho))


def concurrence_pure(psi: StateVector | np.ndarray) -> float:
    """Concurrence 2|c_LL*c_RR - c_LR*c_RL| of a positional-basis pure state.

    Raises:
        NotNormalized: if the amplitudes do not have unit norm.
    """
    if isinstance(psi, StateVector):
        if psi.basis is not Basis.POSITIONAL:
            psi = psi.to_positional()
        amps = psi.amplitudes
    else:
        amps = np.asarray(psi, dtype=complex).reshape(-1)
        if amps.shape != (4,):
            raise NotNormalized(f"expected 4 amplitudes, got {amps.shape}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > _PURE_NORM_TOL:
            raise NotNormalized(f"state norm is {norm!r}, expected 1")
    value = 2.0 * abs(amps[0] * amps[3] - amps[1] * amps[2])
    return min(max(float(value), 0.0), 1.0)


def concurrence_from_amplitudes(amps: np.ndarray) -> np.ndarray:
    """Concurrence 2|c_LL*c_RR - c_LR*c_RL|, clipped to [0, 1], over the last axis.

    The array form behind trajectories and eigen maps: amps holds
    positional-basis amplitudes along its last axis (length 4), and their
    normalization is the caller's to guarantee.
    """
    value = 2.0 * np.abs(amps[..., 0] * amps[..., 3] - amps[..., 1] * amps[..., 2])
    return np.clip(value, 0.0, 1.0)
