"""Dense 4x4 linear algebra with deterministic cyclic Jacobi eigensolvers.

Both eigensolvers run the same cyclic Jacobi iteration: a fixed pair
order, no pivot search, relative thresholds, and a phase convention on
the eigenvectors, so repeated solves of the same matrix are bitwise
identical.  That determinism is what the sweep and CLI layers rely on for
byte-stable output files.

There are two kernels because the callers come in two shapes.
`hermitian_eigensolve` takes one complex Hermitian matrix and iterates in
plain Python; it serves every single solve (spectra, propagation,
Wootters concurrence).  `symmetric_eigensolve_batch` takes a stack of
real symmetric matrices and runs the iteration on numpy arrays, one lane
per matrix; it serves every map, eigen and dynamics, where one Python
solve per grid cell or row used to dominate the run time.  For a single
matrix the numpy call overhead makes the batch kernel several times
slower, so it does not replace the scalar one.  The batch kernel repeats the scalar kernel's
arithmetic operation for operation, and both share the input checks, the
Frobenius norm and the power-of-two scaling below, so for a real
symmetric matrix the two return the same bits.

Matrices whose largest entry lies outside [2**-461, 2**500] are scaled by
an exact power of two before the iteration, so that squares and the
norm neither overflow nor underflow, and their eigenvalues are scaled
back afterwards.  Matrices inside that range are not touched.  Every
tolerance, the degeneracy gap included, is relative to the norm of the
matrix the iteration runs on, so such scaling changes no flag or vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import ConvergenceError, NonHermitianInput, NumericOverflow

__all__ = [
    "EigenDecomposition",
    "pair_flags_to_states",
    "expectation",
    "hermitian_eigensolve",
    "symmetric_eigensolve_batch",
]

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_OFF_TOL = 1e-14
_HERM_TOL = 1e-12
_PHASE_FLOOR = 1e-9
_DEGENERACY_TOL = 1e-9
_MAX_SWEEPS = 60
# The squares of the off-diagonal entries the iteration rotates (those above
# threshold / 8, with threshold = 1e-14 * |m|_F >= 1e-14 * max|m_ij|) stay
# normal, and so round alike at every power-of-two scale, when
# (1e-14 * max|m_ij| / 8)**2 >= 2**-1022, i.e. max|m_ij| >= 2**-461.49...
_SCALE_MIN = 2.0**-461
_SCALE_MAX = 2.0**500


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
            (2,3); True where the gap is at most 1e-9 * |m|_F.
    """

    values: np.ndarray
    vectors: np.ndarray
    degenerate_pairs: tuple[bool, bool, bool]

    @property
    def degenerate_states(self) -> tuple[bool, bool, bool, bool]:
        """Per-state flag: True if the state belongs to a flagged pair."""
        return pair_flags_to_states(self.degenerate_pairs)


def pair_flags_to_states(pairs):
    """Per-state flags from the adjacent-pair flags (0,1), (1,2), (2,3).

    The flags may be bools or boolean arrays of one shape; the rule then
    applies elementwise.
    """
    return (pairs[0], pairs[0] | pairs[1], pairs[1] | pairs[2], pairs[2])


def _checked_max_abs(m: np.ndarray) -> np.ndarray:
    """Largest |m_ij| of each matrix in a (..., 4, 4) stack.

    Raises NonHermitianInput unless every entry is finite and each matrix
    equals its conjugate transpose within 1e-12 * max(1, max |m_ij|).
    """
    if not np.isfinite(m).all():
        raise NonHermitianInput("matrix contains NaN or Inf entries")
    big = np.abs(m).max(axis=(-2, -1))
    asym = np.abs(m - np.swapaxes(m, -2, -1).conj()).max(axis=(-2, -1))
    if np.any(asym > _HERM_TOL * np.maximum(1.0, big)):
        raise NonHermitianInput("matrix is not Hermitian within tolerance")
    return big


def _scale_exponent(big: np.ndarray) -> np.ndarray:
    """Exponent e with 2**-e * big in [0.5, 1) where big is out of range, else 0."""
    _, exp = np.frexp(big)
    outside = (big > _SCALE_MAX) | ((big > 0.0) & (big < _SCALE_MIN))
    return np.where(outside, exp, 0)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a (..., 4, 4) stack.

    Computed as np.linalg.norm computes it for one complex matrix: one
    BLAS dot over the real parts and one over the imaginary parts, both
    read from the complex layout.  Real input is laid out as complex
    first, because a dot over contiguous reals sums in another order and
    can differ in the last bit; this way both kernels get the same norm,
    and so the same thresholds, for the same matrix.
    """
    flat = np.asarray(m, dtype=complex).reshape(m.shape[:-2] + (16,))
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def _unscale(values: np.ndarray, exp: np.ndarray, big: np.ndarray) -> np.ndarray:
    """Eigenvalues of the unscaled matrices; NumericOverflow if they do not fit."""
    with np.errstate(over="ignore"):
        values = np.ldexp(values, exp)
    if not np.isfinite(values).all():
        raise NumericOverflow(
            f"eigenvalues exceed the floating-point range "
            f"(largest matrix entry {float(np.max(big)):.3e})"
        )
    return values


def hermitian_eigensolve(m: np.ndarray) -> EigenDecomposition:
    """Diagonalize a 4x4 Hermitian matrix by cyclic complex Jacobi rotations.

    Raises:
        NonHermitianInput: if m is not 4x4 Hermitian with finite entries.
        ConvergenceError: if the off-diagonal norm does not fall below
            1e-14 * |m|_F (not reachable for well-formed input).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise NonHermitianInput(f"expected a 4x4 matrix, got shape {m.shape}")
    big = float(_checked_max_abs(m))
    exp = 0 if _SCALE_MIN <= big <= _SCALE_MAX else int(_scale_exponent(big))
    if exp:
        scaled = np.ldexp(m.real, -exp).astype(complex)
        scaled.imag = np.ldexp(m.imag, -exp)
        m = scaled
    norm = float(_frobenius(m))
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

    # <=, so that exact ties such as those of the zero matrix are flagged
    gap_tol = _DEGENERACY_TOL * norm
    flags = tuple(bool(values[k + 1] - values[k] <= gap_tol) for k in range(3))
    if exp:
        values = _unscale(values, exp, big)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(values=values, vectors=vectors, degenerate_pairs=flags)


def symmetric_eigensolve_batch(
    h: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize a stack of real symmetric 4x4 matrices, one lane per matrix.

    Each lane runs the iteration of `hermitian_eigensolve` on its own
    matrix, with its own norm, thresholds and convergence test, and leaves
    the iteration as soon as it has converged.  Order, phase and
    degeneracy rules are those of `hermitian_eigensolve`, whose results
    for a real symmetric matrix are real and equal these bit for bit.

    Returns:
        values: (N, 4) eigenvalues, ascending per matrix.
        vectors: (N, 4, 4); vectors[n, :, k] belongs to values[n, k].
        degenerate_pairs: (N, 3) flags for the adjacent pairs.

    Raises:
        NonHermitianInput: if h is not an (N, 4, 4) stack of finite real
            symmetric matrices.
        ConvergenceError: if any matrix is unconverged after 60 sweeps.
        NumericOverflow: if the eigenvalues of a matrix with entries above
            2**500 do not fit in a double.
    """
    h = np.asarray(h)
    if np.iscomplexobj(h) or h.ndim != 3 or h.shape[1:] != (4, 4):
        raise NonHermitianInput(
            f"expected a real (N, 4, 4) stack, got {h.dtype} of shape {h.shape}"
        )
    h = h.astype(float, copy=False)
    big = _checked_max_abs(h)
    exp = _scale_exponent(big)
    scaled = bool(exp.any())
    if scaled:
        h = np.ldexp(h, -exp[:, None, None])
    norm = _frobenius(h)
    values, vectors = _jacobi_lanes(h, norm)

    order = np.argsort(values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)

    # first component above the floor in each column, made positive; the
    # factor is comp * (1 / |comp|), as numpy evaluates the scalar
    # kernel's comp.conjugate() / h, not comp / |comp|
    above = np.abs(vectors) > _PHASE_FLOOR
    found = above.any(axis=1)
    lead = np.take_along_axis(vectors, np.argmax(above, axis=1)[:, None, :], axis=1)
    lead = np.where(found, lead[:, 0, :], 1.0)
    vectors = vectors * (lead * (1.0 / np.abs(lead)))[:, None, :]

    flags = np.diff(values, axis=1) <= (_DEGENERACY_TOL * norm)[:, None]
    if scaled:
        values = _unscale(values, exp[:, None], big)
    return values, vectors, flags


def _jacobi_lanes(h: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted eigenvalues (N, 4) and eigenvectors (N, 4, 4) of a checked stack.

    a[i][j] holds entry (i, j) of every unconverged matrix as one array,
    with a[j][i] the same object; v[i, j] likewise for the eigenvectors.
    Converged lanes are copied out and dropped at the start of a sweep.
    """
    n = h.shape[0]
    values = np.empty((n, 4))
    vectors = np.empty((n, 4, 4))
    a = _symmetric_lanes(np.ascontiguousarray(h.transpose(1, 2, 0)), slice(None))
    v = np.zeros((4, 4, n))
    for k in range(4):
        v[k, k] = 1.0
    lanes = np.arange(n)
    threshold = _OFF_TOL * norm
    skip = threshold / 8.0
    for _ in range(_MAX_SWEEPS):
        # abs(x) ** 2 as the scalar kernel computes it: libm pow, which
        # differs from x * x in the last bit for about 1 input in 1000
        off = np.float_power(np.abs(a[0][1]), 2.0)
        for p, q in _PAIRS[1:]:
            off = off + np.float_power(np.abs(a[p][q]), 2.0)
        done = np.sqrt(2.0 * off) <= threshold
        if done.any():
            out = lanes[done]
            for k in range(4):
                values[out, k] = a[k][k][done]
            vectors[out] = np.moveaxis(v[:, :, done], 2, 0)
            keep = ~done
            lanes, threshold, skip = lanes[keep], threshold[keep], skip[keep]
            a = _symmetric_lanes(a, keep)
            v = v[:, :, keep]
        if not lanes.size:
            break
        for p, q in _PAIRS:
            _rotate_lanes(a, v, p, q, skip)
    else:
        raise ConvergenceError("Jacobi iteration did not converge in 60 sweeps")
    return values, vectors


def _symmetric_lanes(a, keep) -> list[list[np.ndarray]]:
    """a restricted to the lanes `keep`, sharing a[i][j] with a[j][i]."""
    out: list[list] = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            out[i][j] = out[j][i] = a[i][j][keep]
    return out


def _rotate_lanes(
    a: list[list[np.ndarray]], v: np.ndarray, p: int, q: int, skip: np.ndarray
) -> None:
    """One Jacobi rotation in the (p, q) plane of every lane with |a_pq| > skip.

    The arithmetic is that of `hermitian_eigensolve` with every imaginary
    part zero: the phase a_pq / |a_pq| is +-1 and s * phase is exact.
    Lanes at or below `skip` keep their entries; they get a harmless
    stand-in |a_pq| = 1 so that no division by zero is evaluated.
    """
    apq = a[p][q]
    r = np.abs(apq)
    rot = r > skip
    every = bool(rot.all())
    if not every:
        if not rot.any():
            return
        r = np.where(rot, r, 1.0)
    alpha = a[p][p]
    beta = a[q][q]
    tau = (alpha - beta) / (2.0 * r)
    # both signs of the scalar kernel's branch, with -0.0 taking the + one
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    cross = 2.0 * r * c * s
    sph = s * (apq / r)
    new = {
        (p, p): alpha * c * c + cross + beta * s * s,
        (q, q): alpha * s * s - cross + beta * c * c,
        (p, q): np.zeros_like(r),
    }
    for i in range(4):
        if i != p and i != q:
            aip = a[i][p]
            aiq = a[i][q]
            new[i, p] = c * aip + sph * aiq
            new[i, q] = c * aiq - sph * aip
    vp = v[:, p]
    vq = v[:, q]
    new_vp = c * vp + sph * vq
    new_vq = c * vq - sph * vp
    if not every:
        new = {ij: np.where(rot, x, a[ij[0]][ij[1]]) for ij, x in new.items()}
        new_vp = np.where(rot, new_vp, vp)
        new_vq = np.where(rot, new_vq, vq)
    for (i, j), x in new.items():
        a[i][j] = a[j][i] = x
    v[:, p] = new_vp
    v[:, q] = new_vq
