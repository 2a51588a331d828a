"""Dense 4x4 linear algebra with deterministic cyclic Jacobi eigensolvers.

Both eigensolvers run the same cyclic Jacobi iteration: a fixed pair
order, no pivot search, relative thresholds, and a phase convention on
the eigenvectors, so repeated solves of the same matrix are bitwise
identical.  That determinism is what the sweep and CLI layers rely on for
byte-stable output files.

There are two kernels because the callers come in two shapes.
`hermitian_eigensolve` takes one Hermitian matrix and iterates on plain
Python numbers: floats when the matrix has no imaginary part, complex
numbers otherwise, in one rotation loop.  It serves every single solve
(spectra, propagation); `_hermitian_eigenvalues` runs the same loop
without the eigenvector update for callers that read only the values,
Wootters concurrence among them.  `symmetric_eigensolve_batch` takes a
stack of real symmetric matrices and runs the iteration on numpy arrays,
one lane per matrix; it serves every map, eigen and dynamics.  For a
single matrix the numpy call overhead makes the batch kernel several
times slower, so it does not replace the scalar one.

`_pivoted_cholesky` is no eigensolver: it factors a density matrix for
Wootters concurrence, after the single solves' input check, in a few
dozen complex operations where an eigenvector solve takes hundreds.

For a real symmetric matrix the two kernels return the same bits because
they do the same IEEE operations: the same input check (`_max_abs` on
Python floats, `_checked_max_abs` on arrays), the same norm
(`_frobenius` over the 16 real entries), the same stop test (a sum of
squares of the off-diagonal entries, in pair order) and the same
rotation arithmetic.  The batch kernel's sort is a network of adjacent
compare-exchanges on strict >, stable as the scalar kernel's sorted() is.

Matrices whose largest entry lies outside [2**-461, 2**500] are scaled by
an exact power of two before the iteration, so that squares and the
norm neither overflow nor underflow, and their eigenvalues are scaled
back afterwards.  Matrices inside that range are not touched.  Every
tolerance, the degeneracy gap included, is relative to the norm of the
matrix the iteration runs on, so such scaling changes no flag or vector.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass
from math import frexp, sqrt

import numpy as np

from .errors import ConvergenceError, NonHermitianInput, NumericOverflow, _checked_array

__all__ = [
    "EigenDecomposition",
    "pair_flags_to_states",
    "expectation",
    "hermitian_eigensolve",
    "symmetric_eigensolve_batch",
]

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# each pair with the two indices it leaves, whose entries a rotation mixes
_ROTATIONS = tuple((p, q, tuple(i for i in range(4) if i not in (p, q))) for p, q in _PAIRS)
_UPPER = tuple((i, j) for i in range(4) for j in range(i, 4))
_OFF_TOL = 1e-14
_HERM_TOL = 1e-12
_PHASE_FLOOR = 1e-9
_DEGENERACY_TOL = 1e-9
_MAX_SWEEPS = 60
# `_pivoted_cholesky` stops at a pivot this small, of rounding size for a
# trace-1 density matrix
_PIVOT_FLOOR = 1e-15
# the compare-exchanges (i, i + 1) of a bubble sort of four values
_SORT_NETWORK = (0, 1, 2, 0, 1, 0)
# The squares of the off-diagonal entries the iteration rotates (those above
# threshold / 8, with threshold = 1e-14 * |m|_F >= 1e-14 * max|m_ij|) stay
# normal, and so round alike at every power-of-two scale, when
# (1e-14 * max|m_ij| / 8)**2 >= 2**-1022, i.e. max|m_ij| >= 2**-461.49...
_SCALE_MIN = 2.0**-461
_SCALE_MAX = 2.0**500


def expectation(m: np.ndarray, psi: np.ndarray) -> float:
    """Real expectation value <psi|m|psi> of a Hermitian operator.

    Raises:
        InvalidInput: unless m is a 4x4 array and psi an array of four
            elements, both of finite numbers.
        NumericOverflow: if the value does not fit a double.
    """
    m = _checked_array(m, "m", (4, 4), dtype=None, finite=True)
    psi = _checked_array(psi, "psi", (4,), dtype=None, finite=True)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in inf or NaN
        value = float(np.real(np.vdot(psi, m @ psi)))
    if not isfinite(value):
        raise NumericOverflow("<psi|m|psi> exceeds the double range")
    return value


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
    """Largest |m_ij| of each matrix in a real (..., 4, 4) stack.

    Raises NonHermitianInput unless every entry is finite and each matrix
    is symmetric within 1e-12 * max(1, max |m_ij|).
    """
    if not np.isfinite(m).all():
        raise NonHermitianInput("matrix contains NaN or Inf entries")
    big = np.abs(m).max(axis=(-2, -1))
    with np.errstate(over="ignore"):  # a difference beyond the double range is inf
        asym = np.abs(m - np.swapaxes(m, -2, -1)).max(axis=(-2, -1))
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

    One dot over each matrix's entries in C order, a complex matrix read
    as its 32 real and imaginary parts.  The dot's rounding depends on the
    memory layout, so the entries are made contiguous first; a real matrix
    then gets the same norm from both kernels.
    """
    flat = np.ascontiguousarray(m).reshape(m.shape[:-2] + (16,)).view(float)
    return np.sqrt(np.vecdot(flat, flat))


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
    """Diagonalize a 4x4 Hermitian matrix by cyclic Jacobi rotations.

    The rotations run on Python floats when m has no imaginary part, with
    the batch kernel's arithmetic for one lane, and on Python complex
    numbers otherwise.  Both give the same bits for a real matrix: the
    imaginary parts complex arithmetic would carry are zeros, and they
    reach neither a diagonal entry nor an eigenvector.  For the
    eigenvalues alone, `_hermitian_eigenvalues` skips the eigenvectors.

    Raises:
        NonHermitianInput: unless m is a 4x4 array of numbers, Hermitian
            with finite entries.
        ConvergenceError: if the off-diagonal norm does not fall below
            1e-14 * |m|_F (not reachable for well-formed input).
        NumericOverflow: if an entry's modulus or an eigenvalue does not
            fit in a double.
    """
    diagonal, v, norm, exp, big = _jacobi(m, vectors=True)
    order = sorted(range(4), key=diagonal.__getitem__)
    ordered = [diagonal[k] for k in order]
    values = np.array(ordered)
    columns = [[row[k] for row in v] for k in order]
    for col in columns:
        for comp in col:
            h = abs(comp)
            if h > _PHASE_FLOOR:
                # the batch kernel's factor, in Python arithmetic: the same
                # bits whichever SIMD loops numpy would have dispatched
                factor = comp.conjugate() * (1.0 / h)
                col[:] = [x * factor for x in col]
                break
    # built from its columns, so that each column is contiguous: products
    # with the vectors round by layout
    vectors = np.array(columns, dtype=complex).T

    # <=, so that exact ties such as those of the zero matrix are flagged
    gap_tol = _DEGENERACY_TOL * norm
    flags = tuple(ordered[k + 1] - ordered[k] <= gap_tol for k in range(3))
    if exp:
        values = _unscale(values, exp, big)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(values=values, vectors=vectors, degenerate_pairs=flags)


def _hermitian_eigenvalues(m: np.ndarray, off_tol: float = _OFF_TOL) -> np.ndarray:
    """`hermitian_eigensolve(m).values`, bit for bit, without the eigenvectors.

    A smaller off_tol runs the iteration on until the off-diagonal norm is
    at most off_tol * |m|_F, so that eigenvalues far below |m|_F carry
    absolute errors near that bound instead of near 1e-14 * |m|_F; the
    values then need not match `hermitian_eigensolve`'s bits.
    """
    diagonal, _, _, exp, big = _jacobi(m, vectors=False, off_tol=off_tol)
    values = np.array(sorted(diagonal))
    return _unscale(values, exp, big) if exp else values


def _pivoted_cholesky(m: np.ndarray) -> tuple[np.ndarray, float]:
    """A factor L with L L^H = m - R, by outer-product Cholesky with diagonal pivoting.

    m is a 4x4 array.  Each step takes the largest remaining real diagonal
    as pivot, and the factorization stops once that is at most _PIVOT_FLOOR
    (Higham 1990, the semidefinite case).  Returns L, 4x4 with its columns
    past the rank zero, and the largest |R_ij| of the residue R left in
    the unpivoted rows and columns: NaN or inf if the arithmetic
    overflowed.  For a positive semidefinite m the residue is at rounding
    level.  Only the lower triangle is read, the strict upper one taken as
    its conjugate; m is checked as by the solves, with their errors and
    messages.
    """
    a = m.tolist()
    _max_abs(a)
    columns = []
    rest = [0, 1, 2, 3]
    while rest:
        d, p = max((a[k][k].real, k) for k in rest)
        if not d > _PIVOT_FLOOR:
            break
        rest.remove(p)
        s = sqrt(d)
        col = [0j] * 4
        col[p] = s
        for i in rest:
            col[i] = (a[i][p] if i > p else a[p][i].conjugate()) / s
        for k, i in enumerate(rest):
            ai = a[i]
            ci = col[i]
            for j in rest[: k + 1]:
                ai[j] -= ci * col[j].conjugate()
        columns.append(col)
    residue = 0.0
    try:
        for k, i in enumerate(rest):
            for j in rest[: k + 1]:
                r = abs(a[i][j])
                if r > residue or r != r:  # a NaN, once met, is kept
                    residue = r
    except OverflowError:  # a modulus beyond the double range
        residue = float("inf")
    columns += [[0j] * 4] * (4 - len(columns))
    return np.array(columns).T, residue


def _max_abs(a: list[list]) -> float:
    """Largest |a_ij| of one matrix given as rows of Python numbers.

    Raises NonHermitianInput, with `_checked_max_abs`'s messages, unless
    every entry is finite and a equals its conjugate transpose within
    1e-12 * max(1, max |a_ij|).  On real rows these are the IEEE
    operations of `_checked_max_abs`, so both accept the same real
    matrices.  A complex entry whose modulus exceeds the double range
    raises NumericOverflow: such a matrix has an eigenvalue at least as
    large.
    """
    flat = [x for row in a for x in row]
    if not all(map(isfinite, flat)):
        raise NonHermitianInput("matrix contains NaN or Inf entries")
    try:
        big = max(map(abs, flat))
    except OverflowError:  # a complex entry whose modulus is not a double
        raise NumericOverflow("a matrix entry's modulus exceeds the double range") from None
    bound = _HERM_TOL * max(1.0, big)
    try:
        hermitian = all(abs(a[i][j] - a[j][i].conjugate()) <= bound for i, j in _UPPER)
    except OverflowError:  # a difference far beyond the bound
        hermitian = False
    if not hermitian:
        raise NonHermitianInput("matrix is not Hermitian within tolerance")
    return big


def _jacobi(
    m: np.ndarray, vectors: bool, off_tol: float = _OFF_TOL
) -> tuple[list, list | None, float, int, float]:
    """The cyclic Jacobi iteration on one checked matrix.

    The iteration stops once the off-diagonal norm is at most
    off_tol * |m|_F.  Returns the final diagonal (unsorted, at the
    iteration's scale), the eigenvector rows (None unless `vectors`), the
    norm the tolerances are relative to, the scale exponent and the
    largest |m_ij|.
    """
    m = _checked_array(m, "m", (4, 4), complex, NonHermitianInput)
    kind = complex if m.imag.any() else float
    if kind is float:
        m = m.real
    a = m.tolist()
    big = _max_abs(a)
    exp = 0 if _SCALE_MIN <= big <= _SCALE_MAX else frexp(big)[1]
    if exp:
        m = np.ldexp(np.ascontiguousarray(m).view(float), -exp).view(m.dtype)
        a = m.tolist()
    norm = float(_frobenius(m))
    v = [[kind(i == j) for j in range(4)] for i in range(4)] if vectors else None
    zero = kind(0)

    if norm > 0.0:
        threshold = off_tol * norm
        skip = threshold / 8.0
        for _ in range(_MAX_SWEEPS):
            off = 0.0
            for p, q, _ in _ROTATIONS:
                r = abs(a[p][q])
                off += r * r
            if sqrt(2.0 * off) <= threshold:
                break
            for p, q, others in _ROTATIONS:
                ap = a[p]
                aq = a[q]
                apq = ap[q]
                r = abs(apq)
                if r <= skip:
                    continue
                phase = apq / r
                alpha = ap[p].real
                beta = aq[q].real
                tau = (alpha - beta) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + sqrt(1.0 + tau * tau))
                c = 1.0 / sqrt(1.0 + t * t)
                s = t * c
                cross = 2.0 * r * c * s
                ap[p] = alpha * c * c + cross + beta * s * s
                aq[q] = alpha * s * s - cross + beta * c * c
                ap[q] = aq[p] = zero
                sphc = s * phase.conjugate()
                sph = s * phase
                for i in others:
                    ai = a[i]
                    aip = ai[p]
                    aiq = ai[q]
                    ai[p] = x = c * aip + sphc * aiq
                    ai[q] = y = c * aiq - sph * aip
                    ap[i] = x.conjugate()
                    aq[i] = y.conjugate()
                if v is not None:
                    for vi in v:
                        vip = vi[p]
                        viq = vi[q]
                        vi[p] = c * vip + sphc * viq
                        vi[q] = c * viq - sph * vip
        else:
            raise ConvergenceError(f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps")
    return [a[k][k].real for k in range(4)], v, norm, exp, big


def symmetric_eigensolve_batch(
    h: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize a stack of real symmetric 4x4 matrices, one lane per matrix.

    Each lane runs the iteration of `hermitian_eigensolve` on its own
    matrix, with its own norm, thresholds and convergence test, and leaves
    the iteration as soon as it has converged.  Order, phase and
    degeneracy rules are those of `hermitian_eigensolve`, whose results
    for a real symmetric matrix are real and equal these bit for bit.
    Sort and phase rule run on the iteration's lane-major arrays; only the
    returned arrays are laid out (N, ...), C-contiguous.  The input stack
    is never written to.

    Returns:
        values: (N, 4) eigenvalues, ascending per matrix.
        vectors: (N, 4, 4); vectors[n, :, k] belongs to values[n, k].
        degenerate_pairs: (N, 3) flags for the adjacent pairs.

    Raises:
        NonHermitianInput: unless h is an (N, 4, 4) stack of finite real
            symmetric matrices, of integers or floats.
        ConvergenceError: if any matrix is unconverged after 60 sweeps.
        NumericOverflow: if the eigenvalues of a matrix with entries above
            2**500 do not fit in a double.
    """
    h = _checked_array(h, "h", (None, 4, 4), float, NonHermitianInput)
    big = _checked_max_abs(h)
    exp = _scale_exponent(big)
    scaled = bool(exp.any())
    if scaled:
        h = np.ldexp(h, -exp[:, None, None])
    norm = _frobenius(h)
    values, vectors = _jacobi_lanes(h, norm)

    # a stable sort of each lane: bubble sort's compare-exchanges of
    # adjacent values on strict >, so that equal values (exact ties, -0.0
    # and 0.0) keep their order, as in the scalar kernel's sorted()
    for i in _SORT_NETWORK:
        swap = values[i] > values[i + 1]
        pair = values[i : i + 2]
        pair[...] = np.where(swap, pair[::-1], pair)
        cols = vectors[:, i : i + 2]
        cols[...] = np.where(swap, cols[:, ::-1], cols)

    # first component above the floor in each column (rows taken from the
    # last up, so that the first one wins), made positive; the factor is
    # comp * (1 / |comp|), as the scalar kernel's, not comp / |comp|
    above = np.abs(vectors) > _PHASE_FLOOR
    lead = np.where(above[3], vectors[3], 1.0)
    for i in (2, 1, 0):
        lead = np.where(above[i], vectors[i], lead)
    vectors *= lead * (1.0 / np.abs(lead))

    flags = values[1:] - values[:-1] <= _DEGENERACY_TOL * norm
    if scaled:
        values = _unscale(values, exp, big)
    # C-contiguous (N, 4, 4) vectors, as the callers' products with them
    # round by memory layout
    return (
        np.ascontiguousarray(values.T),
        np.ascontiguousarray(vectors.transpose(2, 0, 1)),
        np.ascontiguousarray(flags.T),
    )


def _jacobi_lanes(h: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted eigenvalues (4, N) and eigenvectors (4, 4, N) of a checked stack.

    a[i][j] holds entry (i, j) of every unconverged matrix as one array,
    with a[j][i] the same object; v[i, j] likewise for the eigenvectors.
    Both results are lane-major, as the iteration holds them: values[k, n]
    is diagonal entry k of lane n, and vectors[:, k, n] its eigenvector.
    Converged lanes are copied out and dropped at the start of a sweep.
    """
    n = h.shape[0]
    values = np.empty((4, n))
    vectors = np.empty((4, 4, n))
    a = _symmetric_lanes(np.ascontiguousarray(h.transpose(1, 2, 0)), slice(None))
    v = np.zeros((4, 4, n))
    for k in range(4):
        v[k, k] = 1.0
    lanes = np.arange(n)
    threshold = _OFF_TOL * norm
    skip = threshold / 8.0
    for _ in range(_MAX_SWEEPS):
        off = a[0][1] * a[0][1]
        for p, q in _PAIRS[1:]:
            off = off + a[p][q] * a[p][q]
        done = np.sqrt(2.0 * off) <= threshold
        if done.any():
            out = lanes[done]
            for k in range(4):
                values[k, out] = a[k][k][done]
            vectors[:, :, out] = v[:, :, done]
            keep = ~done
            lanes, threshold, skip = lanes[keep], threshold[keep], skip[keep]
            a = _symmetric_lanes(a, keep)
            v = v[:, :, keep]
        if not lanes.size:
            break
        for p, q in _PAIRS:
            _rotate_lanes(a, v, p, q, skip)
    else:
        raise ConvergenceError(f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps")
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
