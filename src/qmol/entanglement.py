"""Wootters concurrence for two charge qubits.

Wootters (PRL 80, 2245, 1998) defines C = max(0, l1 - l2 - l3 - l4), the
l_i being the square roots, descending, of the eigenvalues of
rho @ rho_tilde, with rho_tilde the spin-flipped density matrix.  The l_i
are also the singular values of tau = L^T Y L, where rho = L L^H and
Y = sigma_y (x) sigma_y (Wootters 1998; Uhlmann, PRA 62, 032307, 2000,
for any antilinear conjugation), and tau's singular values are the same
for every L with L L^H = rho, since L -> L U leaves them unchanged.
`concurrence` takes L from a diagonal-pivoted Cholesky factorization of
rho, Y is a signed reversal of rows, and a values-only Jacobi solve of
the Gram matrix tau^H tau gives the l_i squared.  The factor's residue
also certifies that rho is positive within tolerance; only where it
cannot does a solve of rho's eigenvalues decide.  No matrix square root
is formed and nothing cancels near the separable states, where the l_i
are small.  The Gram solve runs to 1e-32 |tau^H tau|_F rather than the
usual 1e-14, because its small eigenvalues enter C through their square
roots.
For pure states the closed form 2|c_LL*c_RR - c_LR*c_RL| serves as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDensityMatrix,
    NonHermitianInput,
    NotNormalized,
    NumericOverflow,
    _checked_array,
)
from .linalg import _hermitian_eigenvalues, _pivoted_cholesky
from .states import StateVector, _check_unit_norm

__all__ = [
    "ConcurrenceResult",
    "spin_flip",
    "concurrence",
    "concurrence_pure",
]

# sigma_y (x) sigma_y over {|LL>, |LR>, |RL>, |RR>} is the reversal of the
# basis with these signs: row i of Y @ m is _SIGNS[i] * m[3 - i]
_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])
_SIGNS.setflags(write=False)
_FLIP_SIGNS = _SIGNS * _SIGNS.T
_FLIP_SIGNS.setflags(write=False)

_TRACE_TOL = 1e-12
_EIG_FLOOR = -1e-12
# A residue R of at most 1e-13 leaves rho = L L^H + R + E, with |E| near
# n u |rho|, so no eigenvalue of rho lies below -4e-13 - |E| > _EIG_FLOOR.
_CERTIFIED_RESIDUE = 1e-13
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
    """Spin-flipped matrix (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y).

    Raises:
        InvalidInput: unless rho is a 4x4 array of finite numbers.
    """
    return _flipped(_checked_array(rho, "rho", (4, 4), complex, finite=True))


def _flipped(rho: np.ndarray) -> np.ndarray:
    """`spin_flip` of a checked 4x4 complex rho with finite entries.

    An infinite entry times its sign, taken as complex, would give NaN.
    """
    return _FLIP_SIGNS * rho.conj()[::-1, ::-1]


def _check_trace(rho: np.ndarray) -> None:
    # rho.trace() in its own order, a pairwise sum after numpy's zero
    # start, but in Python arithmetic, which overflows to inf without the
    # RuntimeWarning that numpy's reduction prints
    d0, d1, d2, d3 = rho.diagonal().tolist()
    trace = 0j + ((d0 + d1) + (d2 + d3))
    try:
        # not <=, so that a NaN trace (inf - inf) fails
        bad = not abs(trace - 1.0) <= _TRACE_TOL
    except OverflowError:  # a complex trace whose modulus is no double
        bad = True
    if bad:
        raise InvalidDensityMatrix(f"trace is {trace!r}, expected 1 within 1e-12")


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Wootters concurrence of a two-qubit density matrix.

    The factorization of rho is also its finiteness and Hermiticity
    check, within 1e-12 * max(1, max |rho_ij|); the checks run, and
    report, in the order finite, Hermitian, trace, positive.  A residue
    of at most 1e-13 certifies positivity; a larger one leaves the
    decision to rho's lowest eigenvalue.

    Raises:
        InvalidDensityMatrix: unless rho is a 4x4 array of numbers, or
            if it fails the Hermiticity, trace, or positivity checks
            (eigenvalues below -1e-12).
    """
    rho = _checked_array(rho, "rho", (4, 4), complex, InvalidDensityMatrix)
    try:
        factor, residue = _pivoted_cholesky(rho)
    except NonHermitianInput:
        if not np.isfinite(rho).all():
            raise InvalidDensityMatrix("density matrix contains NaN or Inf") from None
        raise InvalidDensityMatrix(
            "density matrix is not Hermitian within 1e-12"
        ) from None
    except NumericOverflow:
        # a modulus beyond the double range: a bad trace is reported first
        _check_trace(rho)
        raise
    _check_trace(rho)
    if not residue <= _CERTIFIED_RESIDUE:
        # not certified positive: the eigenvalues decide
        lowest = _hermitian_eigenvalues(rho).min()
        if lowest < _EIG_FLOOR:
            raise InvalidDensityMatrix(f"negative eigenvalue {lowest!r} below tolerance")
        if lowest < 0.0:
            # rho - R may lie farther from rho than the tolerance; rho
            # shifted by -lowest is positive and lies within it
            factor, _ = _pivoted_cholesky(rho - lowest * np.eye(4))
    tau = factor.T @ (_SIGNS * factor[::-1])
    r_vals = _hermitian_eigenvalues(tau.conj().T @ tau, off_tol=_GRAM_OFF_TOL)
    lambdas = np.sqrt(np.maximum(r_vals, 0.0))[::-1].copy()
    value = lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]
    value = min(max(float(value), 0.0), 1.0)
    lambdas.setflags(write=False)
    return ConcurrenceResult(value=value, lambdas=lambdas, rho_tilde=_flipped(rho))


def concurrence_pure(psi: StateVector | np.ndarray) -> float:
    """Concurrence |a^T Y a| = 2|c_LL*c_RR - c_LR*c_RL| of a positional-basis pure state.

    `_flip_form` of the numpy scalars amps[0]..amps[3], rounded as Python complex numbers.

    Raises:
        NotNormalized: unless psi is a StateVector or an array of four
            numbers with unit norm.
    """
    if isinstance(psi, StateVector):
        amps = psi.to_positional().amplitudes
    else:
        amps = _checked_array(psi, "psi", (4,), complex, NotNormalized)
        _check_unit_norm(amps, _PURE_NORM_TOL)
    return min(float(abs(_flip_form(amps, amps))), 1.0)


def _flip_form(a, b):
    """a^T Y b, Y = sigma_y (x) sigma_y, the four positional components on axis 0.

    The one pure-state contraction, of `concurrence_pure`, eigen-map cells
    and the pair table of `qmol.dynamics`; for a = b it is exactly
    2(a_LR a_RL - a_LL a_RR).  Python numbers, numpy scalars and real
    arrays only: on complex arrays, 0-d ones too, its bits would follow
    numpy's SIMD complex-multiply loops, which differ between CPUs.
    """
    return (a[1] * b[2] + a[2] * b[1]) - (a[0] * b[3] + a[3] * b[0])
