"""Wootters concurrence for two charge qubits.

The general construction takes the square roots of the eigenvalues of
R = rho @ rho_tilde, where rho_tilde is the spin-flipped density matrix.
R itself is not Hermitian; its spectrum is obtained from the Hermitian
proxy sqrt(rho) @ rho_tilde @ sqrt(rho), which shares it, so the core
Jacobi eigensolver can be reused.  For pure states the closed-form
shortcut 2|c_LL*c_RR - c_LR*c_RL| serves as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDensityMatrix, NotNormalized
from .linalg import hermitian_eigensolve
from .states import Basis, StateVector

__all__ = [
    "ConcurrenceResult",
    "spin_flip",
    "concurrence",
    "concurrence_pure",
    "concurrence_from_amplitudes",
]

# sigma_y (x) sigma_y over {|LL>, |LR>, |RL>, |RR>}: real, symmetric, involutive.
_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)
_FLIP.setflags(write=False)

_TRACE_TOL = 1e-12
_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-12
_PURE_NORM_TOL = 1e-9
# R-eigenvalues this far below the largest one sit at the round-off floor
# of the sqrt(rho) sandwich; their square roots would inject O(1e-8) noise
# (worst for rank-deficient rho), so they are zeroed before the sqrt.
_R_RELATIVE_FLOOR = 1e-13


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
    return _FLIP @ rho.conj() @ _FLIP


def _validate_density(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidDensityMatrix(f"expected a 4x4 matrix, got shape {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise InvalidDensityMatrix("density matrix contains NaN or Inf")
    if float(np.abs(rho - rho.conj().T).max()) > _HERM_TOL:
        raise InvalidDensityMatrix("density matrix is not Hermitian within 1e-12")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > _TRACE_TOL:
        raise InvalidDensityMatrix(f"trace is {trace!r}, expected 1 within 1e-12")
    return rho


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix.

    Raises:
        InvalidDensityMatrix: if rho fails the Hermiticity, trace, or
            positivity checks (eigenvalues below -1e-12).
    """
    rho = _validate_density(rho)
    spectral = hermitian_eigensolve(rho)
    if float(spectral.values[0]) < _EIG_FLOOR:
        raise InvalidDensityMatrix(
            f"negative eigenvalue {spectral.values[0]!r} below tolerance"
        )
    root_vals = np.sqrt(np.clip(spectral.values, 0.0, None))
    sqrt_rho = (spectral.vectors * root_vals) @ spectral.vectors.conj().T
    tilde = spin_flip(rho)
    proxy = sqrt_rho @ tilde @ sqrt_rho
    proxy = (proxy + proxy.conj().T) / 2.0
    r_vals = hermitian_eigensolve(proxy).values
    if float(r_vals[0]) < _EIG_FLOOR:
        raise InvalidDensityMatrix(
            f"R-matrix eigenvalue {r_vals[0]!r} below tolerance"
        )
    floor = _R_RELATIVE_FLOOR * max(float(r_vals[-1]), 0.0)
    r_vals = np.where(r_vals < floor, 0.0, r_vals)
    lambdas = np.sqrt(np.clip(r_vals, 0.0, None))[::-1].copy()
    value = lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]
    value = min(max(float(value), 0.0), 1.0)
    lambdas.setflags(write=False)
    return ConcurrenceResult(value=value, lambdas=lambdas, rho_tilde=tilde)


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
