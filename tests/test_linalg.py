import itertools
from math import sqrt

import numpy as np
import pytest

from qmol import entanglement, linalg
from qmol.entanglement import concurrence
from qmol.errors import (
    ConvergenceError,
    InvalidDensityMatrix,
    NonHermitianInput,
    NumericOverflow,
)
from qmol.hamiltonian import _positional_matrices
from qmol.linalg import (
    _DEGENERACY_TOL,
    _MAX_SWEEPS,
    _OFF_TOL,
    _PAIRS,
    _PHASE_FLOOR,
    _SCALE_MAX,
    _SCALE_MIN,
    EigenDecomposition,
    _frobenius,
    _hermitian_eigenvalues,
    _max_abs,
    _scale_exponent,
    _unscale,
    expectation,
    hermitian_eigensolve,
    pair_flags_to_states,
    symmetric_eigensolve_batch,
)
from qmol.verify import _random_hermitian as random_hermitian


def test_eigenvalues_match_numpy_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(300):
        m = random_hermitian(rng)
        dec = hermitian_eigensolve(m)
        ref = np.linalg.eigvalsh(m)
        assert np.allclose(dec.values, ref, atol=1e-11)


def test_eigenvalues_sorted_ascending():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dec = hermitian_eigensolve(random_hermitian(rng))
        assert np.all(np.diff(dec.values) >= 0.0)


def test_reconstruction_and_orthonormality():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = random_hermitian(rng)
        dec = hermitian_eigensolve(m)
        rebuilt = (dec.vectors * dec.values) @ dec.vectors.conj().T
        assert np.abs(rebuilt - m).max() < 1e-11
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.abs(gram - np.eye(4)).max() < 1e-12


def test_eigenvector_residuals():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_hermitian(rng)
        dec = hermitian_eigensolve(m)
        for k in range(4):
            v = dec.vectors[:, k]
            assert np.abs(m @ v - dec.values[k] * v).max() < 1e-12 * max(
                1.0, np.abs(m).max()
            )


def test_diagonal_matrix_is_fixed_point():
    m = np.diag([-2.0, -1.0, 0.5, 3.0]).astype(complex)
    dec = hermitian_eigensolve(m)
    assert np.array_equal(dec.values, [-2.0, -1.0, 0.5, 3.0])
    assert np.array_equal(np.abs(dec.vectors), np.eye(4))


def test_phase_convention_largest_component_real_positive():
    rng = np.random.default_rng(19)
    for _ in range(50):
        dec = hermitian_eigensolve(random_hermitian(rng))
        for k in range(4):
            v = dec.vectors[:, k]
            lead = v[np.argmax(np.abs(v) > 1e-9)]
            assert lead.real > 0.0
            assert abs(lead.imag) < 1e-12


def test_known_two_level_block():
    # [[1, 2], [2, -1]] inside a 4x4 identity padding: eigenvalues +-sqrt(5)
    m = np.eye(4, dtype=complex) * 7.0
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = 1.0, 2.0, 2.0, -1.0
    dec = hermitian_eigensolve(m)
    s5 = np.sqrt(5.0)
    assert np.allclose(dec.values, [-s5, s5, 7.0, 7.0], atol=1e-13)


def test_degenerate_pair_detection():
    m = np.diag([1.0, 1.0, 2.0, 3.0]).astype(complex)
    dec = hermitian_eigensolve(m)
    assert dec.degenerate_pairs == (True, False, False)
    assert dec.degenerate_states == (True, True, False, False)
    m2 = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    assert hermitian_eigensolve(m2).degenerate_pairs == (False, False, False)
    # the gap is relative to |m|_F: the same flags at any scale
    for scale in (1e-200, 1e200):
        assert hermitian_eigensolve(m * scale).degenerate_pairs == (True, False, False)
        assert hermitian_eigensolve(m2 * scale).degenerate_pairs == (False,) * 3
        assert not symmetric_eigensolve_batch(m2.real[None] * scale)[2].any()
    # exact ties count, so the zero matrix has every pair flagged
    zero = np.zeros((4, 4))
    assert hermitian_eigensolve(zero.astype(complex)).degenerate_pairs == (True,) * 3
    assert symmetric_eigensolve_batch(zero[None])[2].all()


def test_complex_phases_handled():
    # coupling with a nontrivial phase must not break convergence or accuracy
    rng = np.random.default_rng(23)
    m = random_hermitian(rng)
    m[0, 1] = 0.5j
    m[1, 0] = -0.5j
    m = (m + m.conj().T) / 2.0
    dec = hermitian_eigensolve(m)
    assert np.allclose(dec.values, np.linalg.eigvalsh(m), atol=1e-12)


def test_rejects_non_hermitian():
    m = np.arange(16, dtype=float).reshape(4, 4).astype(complex)
    with pytest.raises(NonHermitianInput):
        hermitian_eigensolve(m)


def test_rejects_nan_and_wrong_shape():
    m = np.eye(4, dtype=complex)
    m[2, 2] = np.nan
    with pytest.raises(NonHermitianInput):
        hermitian_eigensolve(m)
    with pytest.raises(NonHermitianInput):
        hermitian_eigensolve(np.eye(3, dtype=complex))


def test_outputs_read_only():
    dec = hermitian_eigensolve(np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        dec.values[0] = 9.0
    with pytest.raises(ValueError):
        dec.vectors[0, 0] = 9.0


def test_scale_invariance_of_accuracy():
    """Tolerances are relative, so large and tiny matrices both converge."""
    rng = np.random.default_rng(31)
    base = random_hermitian(rng)
    for scale in (1e-8, 1.0, 1e8):
        m = base * scale
        dec = hermitian_eigensolve(m)
        assert np.allclose(dec.values, np.linalg.eigvalsh(m), rtol=1e-10, atol=0.0)


def test_helpers():
    rng = np.random.default_rng(5)
    a = random_hermitian(rng)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = v / np.linalg.norm(v)
    assert expectation(a, v) == pytest.approx((v.conj() @ a @ v).real)


def random_symmetric(rng, n):
    g = rng.standard_normal((n, 4, 4))
    return g + g.transpose(0, 2, 1)


def assert_batch_matches_scalar(h):
    """Batch and scalar kernels agree bit for bit on every matrix of h."""
    values, vectors, flags = symmetric_eigensolve_batch(h)
    assert values.shape == (len(h), 4)
    assert vectors.shape == (len(h), 4, 4)
    assert flags.shape == (len(h), 3)
    for k, m in enumerate(h):
        dec = hermitian_eigensolve(m.astype(complex))
        assert values[k].tobytes() == dec.values.tobytes()
        assert np.array_equal(vectors[k], dec.vectors.real)
        assert not dec.vectors.imag.any()
        assert tuple(flags[k].tolist()) == dec.degenerate_pairs


def test_batch_matches_scalar_on_random_matrices():
    rng = np.random.default_rng(101)
    h = random_symmetric(rng, 400)
    h *= np.exp(rng.uniform(-20.0, 20.0, (400, 1, 1)))
    assert_batch_matches_scalar(h)


def test_batch_matches_scalar_on_special_matrices():
    signed_zeros = np.zeros((4, 4))
    signed_zeros[0, 1] = signed_zeros[1, 0] = -0.0
    signed_zeros[2, 2] = -0.0
    h = np.array(
        [
            np.zeros((4, 4)),
            signed_zeros,
            np.diag([-2.0, -1.0, 0.5, 3.0]),
            np.diag([3.0, 1.0, 1.0, -0.0]),
            np.diag([2.0, 2.0, 2.0, 2.0]),
            np.eye(4)[::-1] * -0.0 + np.diag([1.0, 1.0, 2.0, 2.0]),
        ]
    )
    assert_batch_matches_scalar(h)


def test_batch_matches_scalar_on_zero_tunneling_grid():
    # without tunneling the cells are diagonal, with exact ties on the
    # lines where a detuning equals +-j/2 and at the origin
    e = np.linspace(-25.0, 25.0, 21)
    e1, e2 = np.meshgrid(e, e)
    h = _positional_matrices(e1.ravel(), e2.ravel(), 0.0, 0.0, 25.0)
    _, _, flags = symmetric_eigensolve_batch(h)
    assert flags.any()
    assert_batch_matches_scalar(h)


def test_batch_handles_an_empty_stack():
    values, vectors, flags = symmetric_eigensolve_batch(np.zeros((0, 4, 4)))
    assert values.shape == (0, 4) and vectors.shape == (0, 4, 4)
    assert flags.shape == (0, 3)


def _random_stacks():
    rng = np.random.default_rng(1401)
    real = random_symmetric(rng, 40)
    cplx = real + 1j * rng.standard_normal((40, 4, 4))
    entry_major = np.ascontiguousarray(real.transpose(1, 2, 0)).transpose(2, 0, 1)
    e = np.linspace(-25.0, 25.0, 9)
    zeros = np.zeros((3, 4, 4))
    zeros[1] = -0.0
    zeros[2, 0, 1] = zeros[2, 1, 0] = -0.0
    stacks = [real, cplx, entry_major, _positional_matrices(e, e[::-1], 1.5, 2.5, 25.0), zeros]
    stacks.append(np.ascontiguousarray(cplx.transpose(1, 2, 0)).transpose(2, 0, 1))
    stacks += [real * 2.0**k for k in (-600, -500, 500, 600)]
    stacks += [np.zeros((0, 4, 4)), real[:1], cplx[:1], real[0], cplx[0]]
    return stacks


def test_frobenius_is_one_dot_over_each_matrix(monkeypatch):
    """Each norm is the square root of one dot over the matrix's entries in
    C order, a complex matrix read as 32 floats, whatever the stack's
    layout; the scalar kernel reads a real matrix, typed float or complex,
    as 16 floats, and so gets the batch kernel's norm."""
    for m in _random_stacks():
        with np.errstate(over="ignore"):
            norms = _frobenius(m)
            expected = []
            for a in m.reshape(-1, 4, 4):
                x = np.array(a, order="C").reshape(16).view(float)
                expected.append(np.sqrt(np.dot(x, x)))
            summed = np.sqrt(np.sum(np.abs(m) ** 2, axis=(-2, -1)))
        assert norms.tobytes() == np.array(expected).reshape(m.shape[:-2]).tobytes()
        finite = np.isfinite(norms)
        assert np.all(np.abs(norms[finite] - summed[finite]) <= 1e-15 * summed[finite])

    lane_norms = []
    jacobi_lanes = linalg._jacobi_lanes

    def record(h, norm):
        lane_norms.append(norm)
        return jacobi_lanes(h, norm)

    monkeypatch.setattr(linalg, "_jacobi_lanes", record)
    real = [m for m in _random_stacks() if m.ndim == 3 and len(m) and m.dtype == float]
    complex_layout_differs = 0
    for h in real:
        lane_norms.clear()
        symmetric_eigensolve_batch(h)
        for m, lane_norm in zip(h, lane_norms[0]):
            assert linalg._jacobi(m, vectors=False)[2] == lane_norm
            complex_m = m.astype(complex)
            assert linalg._jacobi(complex_m, vectors=False)[2] == lane_norm
            with np.errstate(over="ignore"):
                complex_layout_differs += float(_frobenius(complex_m)) != lane_norm
    # read as 32 floats, a real matrix's norm can differ in the last bit
    assert complex_layout_differs > 0


def _square_sum(h):
    """2 * sum of x * x over the off-diagonal pairs of each matrix, in pair order."""
    off = h[:, 0, 1] * h[:, 0, 1]
    for p, q in _PAIRS[1:]:
        off = off + h[:, p, q] * h[:, p, q]
    return 2.0 * off


def test_lane_stop_test_decides_at_the_square_sum_norm(monkeypatch):
    """A lane stops exactly where sqrt(2 * sum x * x) <= threshold, with the
    threshold at that norm or one ulp either side of it, and the scalar
    kernel's stop test takes the same sum, on the matrices where libm
    pow(|x|, 2), which the scalar kernel once summed, moves the norm."""
    rng = np.random.default_rng(1301)
    h = random_symmetric(rng, 20000)
    norm = np.sqrt(_square_sum(h))
    pow_off = 0.0
    for p, q in _PAIRS:
        pow_off = pow_off + np.float_power(np.abs(h[:, p, q]), 2.0)
    differ = np.sqrt(2.0 * pow_off) != norm
    assert differ.any()
    h = np.concatenate([h[differ], h[~differ][:20]])
    norm = np.sqrt(_square_sum(h))
    # with _OFF_TOL = 1 the threshold of a lane is the norm passed in
    monkeypatch.setattr(linalg, "_OFF_TOL", 1.0)
    for threshold in (np.nextafter(norm, 0.0), norm, np.nextafter(norm, np.inf)):
        values, vectors = linalg._jacobi_lanes(h, threshold)
        # a lane that stops at the first test is returned as it came in
        stopped = (vectors == np.eye(4)[:, :, None]).all(axis=(0, 1))
        assert np.array_equal(stopped, norm <= threshold)
        diagonal = np.diagonal(h[stopped], axis1=1, axis2=2).T
        assert np.array_equal(values[:, stopped], diagonal)

    # the scalar kernel's first math.sqrt call is its first stop test
    roots = []

    def record(x):
        roots.append(x)
        return sqrt(x)

    monkeypatch.setattr(linalg, "sqrt", record)
    for m, off in zip(h, _square_sum(h)):
        for typed in (m, m.astype(complex)):
            roots.clear()
            linalg._jacobi(typed, vectors=False)
            assert roots[0] == off


def test_sorting_network_keeps_ties_and_signed_zeros_in_order():
    """The compare-exchanges swap only on strict >, so equal values, -0.0
    beside 0.0 among them, keep the order of the scalar kernel's stable
    sort: values and vectors bit for bit."""
    # every ordering, kept in a list: a set would merge -0.0 into 0.0
    diagonals = list(itertools.product((0.0, -0.0), repeat=4))
    for entries in ((1.0, 1.0, -0.0, 0.0), (-1.0, -0.0, 0.0, 2.0), (3.0, 3.0, 3.0, -3.0)):
        diagonals += itertools.permutations(entries)
    h = np.zeros((len(diagonals), 4, 4))
    h[:, range(4), range(4)] = diagonals
    # two blocks whose rotations end in the exact ties -1, -1, 1, 1
    swap_pairs = np.zeros((4, 4))
    swap_pairs[0, 1] = swap_pairs[1, 0] = swap_pairs[2, 3] = swap_pairs[3, 2] = 1.0
    h = np.concatenate([h, swap_pairs[None], -swap_pairs[None]])
    values, vectors, flags = symmetric_eigensolve_batch(h)
    for k, m in enumerate(h):
        dec = hermitian_eigensolve(m.astype(complex))
        assert values[k].tobytes() == dec.values.tobytes()
        assert vectors[k].tobytes() == np.ascontiguousarray(dec.vectors.real).tobytes()
        assert tuple(flags[k].tolist()) == dec.degenerate_pairs


@pytest.mark.parametrize("case", ["empty", "one", "entry_major"])
def test_batch_leaves_the_input_stack_unchanged(case):
    """The lanes start as views of the input wherever numpy allows one: for
    one matrix, h.transpose(1, 2, 0) is already contiguous, and for a
    stack from _positional_matrices it is the entry-major array itself."""
    if case == "empty":
        h = np.zeros((0, 4, 4))
    elif case == "one":
        h = random_symmetric(np.random.default_rng(1302), 1)
    else:
        e = np.linspace(-25.0, 25.0, 7)
        h = _positional_matrices(e, e[::-1], 1.5, 2.5, 25.0)
        assert h.transpose(1, 2, 0).flags.c_contiguous
    before = h.copy()
    values, vectors, flags = symmetric_eigensolve_batch(h)
    assert h.tobytes() == before.tobytes()
    for out in (values, vectors, flags):
        assert out.flags.c_contiguous
        assert not np.shares_memory(out, h)
    if len(h):
        assert_batch_matches_scalar(h)


def test_batch_rejects_bad_input():
    good = random_symmetric(np.random.default_rng(2), 3)
    with_nan = good.copy()
    with_nan[1, 2, 2] = np.nan
    with_inf = good.copy()
    with_inf[2, 0, 3] = with_inf[2, 3, 0] = np.inf
    skewed = good.copy()
    skewed[0, 0, 1] += 1e-6
    for bad in (with_nan, with_inf, skewed, good[:, :3, :3], good[0], good + 0j):
        with pytest.raises(NonHermitianInput):
            symmetric_eigensolve_batch(bad)


def test_both_kernels_raise_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    h = random_symmetric(np.random.default_rng(4), 5)
    with pytest.raises(ConvergenceError, match="^Jacobi iteration did not converge in 1 sweeps$"):
        hermitian_eigensolve(h[0])
    with pytest.raises(ConvergenceError, match="^Jacobi iteration did not converge in 1 sweeps$"):
        symmetric_eigensolve_batch(h)


def test_pair_flags_rule_applies_to_arrays():
    pairs = np.array([[True, False, False], [False, True, False], [False, False, False]])
    states = np.column_stack(pair_flags_to_states(pairs.T))
    assert states.tolist() == [
        [True, True, False, False],
        [False, True, True, False],
        [False, False, False, False],
    ]
    assert pair_flags_to_states((False, False, True)) == (False, False, True, True)


@pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
def test_out_of_range_matrices_are_scaled_exactly(power):
    """Outside [2**-461, 2**500] a matrix is solved at a power-of-two scale;
    the iteration commutes with that scale, so vectors and (scaled)
    values keep their bits."""
    h = random_symmetric(np.random.default_rng(8), 20)
    values, vectors, _ = symmetric_eigensolve_batch(h)
    big = h * 2.0**power
    big_values, big_vectors, _ = symmetric_eigensolve_batch(big)
    assert np.array_equal(big_values, values * 2.0**power)
    assert np.array_equal(big_vectors, vectors)
    assert_batch_matches_scalar(big)


def test_scaling_fixes_overflow_and_underflow():
    m = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    m[0, 1] = m[1, 0] = 0.5
    for scale in (1e-170, 1e170, 1e300):
        dec = hermitian_eigensolve(m * scale)
        assert np.allclose(dec.values, np.linalg.eigvalsh(m) * scale, rtol=1e-13, atol=0.0)


def test_eigenvalues_beyond_the_double_range_raise():
    h = np.full((1, 4, 4), 1.7e308)
    with pytest.raises(NumericOverflow):
        hermitian_eigensolve(h[0])
    with pytest.raises(NumericOverflow):
        symmetric_eigensolve_batch(h)


def test_complex_entry_whose_modulus_overflows_raises_numeric_overflow():
    # |1.7e308 + 1.7e308j| is not a double; such a matrix has an eigenvalue
    # at least that large
    m = np.zeros((4, 4), dtype=complex)
    m[0, 1] = 1.7e308 + 1.7e308j
    m[1, 0] = m[0, 1].conjugate()
    with pytest.raises(NumericOverflow, match="modulus exceeds the double range"):
        hermitian_eigensolve(m)
    # a difference whose modulus overflows fails the Hermiticity check
    m[0, 1], m[1, 0] = 0.75e308 + 0.75e308j, -0.75e308 + 0.75e308j
    with pytest.raises(NonHermitianInput):
        hermitian_eigensolve(m)


def _reference_eigensolve(m: np.ndarray) -> EigenDecomposition:
    """Reference scalar kernel: complex arithmetic for every input up to the
    phase step, the Python input check and argsort.  The single-matrix
    solves must give its bits."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise NonHermitianInput(f"m must be a 4x4 matrix, got shape {m.shape}")
    big = _max_abs(m.tolist())
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
                r = abs(a[p][q])
                off += r * r
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

    # the phase step on Python numbers of the kernel's kind: on the real
    # parts when m has no imaginary part (the loop above leaves the
    # kernel's real parts and zero imaginary parts then), as a complex
    # product with the factor's signed zero imaginary part would flip the
    # signs of some zeros
    real = not m.imag.any()
    for k in range(4):
        col = (vectors[:, k].real if real else vectors[:, k]).tolist()
        for comp in col:
            h = abs(comp)
            if h > _PHASE_FLOOR:
                factor = comp.conjugate() * (1.0 / h)
                vectors[:, k] = [x * factor for x in col]
                break

    # <=, so that exact ties such as those of the zero matrix are flagged
    gap_tol = _DEGENERACY_TOL * norm
    flags = tuple(bool(values[k + 1] - values[k] <= gap_tol) for k in range(3))
    if exp:
        values = _unscale(values, exp, big)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(values=values, vectors=vectors, degenerate_pairs=flags)


def assert_same_bits(m):
    """Both single-matrix solves give the reference kernel's bits for m."""
    ref = _reference_eigensolve(m)
    dec = hermitian_eigensolve(m)
    assert dec.values.tobytes() == ref.values.tobytes()
    assert dec.vectors.tobytes() == ref.vectors.tobytes()
    # products with the vectors (propagation) round by their layout
    assert dec.vectors.strides == ref.vectors.strides
    assert dec.degenerate_pairs == ref.degenerate_pairs
    assert _hermitian_eigenvalues(m).tobytes() == ref.values.tobytes()


def test_same_bits_on_random_complex_matrices():
    rng = np.random.default_rng(1001)
    for _ in range(300):
        assert_same_bits(random_hermitian(rng) * np.exp(rng.uniform(-20.0, 20.0)))


def test_same_bits_on_positional_hamiltonians():
    # zero detuning and zero tunneling give exact ties; the matrices are
    # complex-typed with zero imaginary parts, as build_positional makes them
    e = np.linspace(-25.0, 25.0, 11)
    e1, e2 = np.meshgrid(e, e)
    for d1, d2 in ((0.0, 0.0), (1.5, 0.0), (0.0, 2.5), (1.5, 2.5)):
        for h in _positional_matrices(e1.ravel(), e2.ravel(), d1, d2, 25.0):
            assert_same_bits(h.astype(complex))
            assert_same_bits(h)


def test_same_bits_on_density_matrices_and_r_proxies(monkeypatch):
    proxies = []

    def record(m, **kwargs):
        proxies.append(np.array(m))
        return _hermitian_eigenvalues(m, **kwargs)

    monkeypatch.setattr(entanglement, "_hermitian_eigenvalues", record)
    rng = np.random.default_rng(1002)
    singlet = np.array([0.0, -1.0, 1.0, 0.0]) / np.sqrt(2.0)
    rhos = [
        p * np.outer(singlet, singlet) + (1.0 - p) / 4.0 * np.eye(4)
        for p in np.linspace(0.0, 1.0, 11)
    ]
    for rank in (1, 2, 3, 4):
        for _ in range(20):
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            rho = g @ g.conj().T
            rhos.append(rho / np.trace(rho).real)
    for rho in rhos:
        assert_same_bits(rho)
        concurrence(rho)
    assert len(proxies) == len(rhos)
    for proxy in proxies:
        assert_same_bits(proxy)


@pytest.mark.parametrize("power", [-600, 600])
def test_same_bits_on_scaled_matrices(power):
    rng = np.random.default_rng(1003)
    for _ in range(40):
        assert_same_bits(random_hermitian(rng) * 2.0**power)
        assert_same_bits(random_symmetric(rng, 1)[0] * 2.0**power)


def test_same_bits_on_signed_zeros_and_the_zero_matrix():
    for m in (np.diag([1.0, -0.0, 0.0, 2.0]), np.zeros((4, 4))):
        assert_same_bits(m)
        assert_same_bits(m.astype(complex))


def _outcome(solve, m):
    try:
        solve(m)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_same_matrices_rejected():
    """Asymmetries within a few ulps of the Hermiticity tolerance, entries
    at the edges of the scaling range and non-finite entries are accepted
    or rejected by every single-solve route as by the reference, with the
    same error."""
    rng = np.random.default_rng(1004)
    cases = [np.eye(3), np.full((4, 4), 1.7e308)]
    for edge in (_SCALE_MIN, _SCALE_MAX):
        for ulps in (-1, 0, 1):
            cases.append(np.diag([edge * (1.0 + ulps * 2.0**-52), 1e-300, 0.0, 0.0]))
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        cases.append(m)
    for _ in range(300):
        m = random_hermitian(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        if rng.integers(2):
            m = m.real.copy()
        i, j = rng.choice(4, 2, replace=False)
        m[i, j] = m[j, i] = 0.0
        tol = 1e-12 * max(1.0, float(np.abs(m).max()))
        # |m_ij - conj(m_ji)| = |m_ij| within a few ulps of the tolerance
        m[i, j] = tol * (1.0 + int(rng.integers(-8, 9)) * 2.0**-52)
        if m.dtype == complex:
            m[i, j] *= np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        cases.append(m)
    # numpy's vectorized abs and Python's (libm hypot) can round |m_ij| to
    # opposite sides of the tolerance; Python's side decides
    hypot_decides = []
    for theta in rng.uniform(0.0, 2.0 * np.pi, 2000):
        m = np.diag([2.0, 1.0, 0.0, 0.0]).astype(complex)
        m[0, 3] = 2e-12 * np.exp(1j * theta)
        if (float(np.abs(m)[0, 3]) <= 2e-12) != (abs(complex(m[0, 3])) <= 2e-12):
            cases.append(m)
            hypot_decides.append(m)
    assert hypot_decides
    rejected = 0
    for m in cases:
        expected = _outcome(_reference_eigensolve, m)
        assert _outcome(hermitian_eigensolve, m) == expected
        assert _outcome(_hermitian_eigenvalues, m) == expected
        if expected is None:
            assert_same_bits(m)
        rejected += expected is not None
    assert 50 < rejected < len(cases) - 50
    for m in hypot_decides:
        assert (_outcome(hermitian_eigensolve, m) is None) == (abs(complex(m[0, 3])) <= 2e-12)


def test_concurrence_rejects_what_the_single_solves_reject():
    """Density matrices with an asymmetry where numpy's abs and Python's
    round |rho_03| to opposite sides of the 1e-12 tolerance: `concurrence`
    rejects exactly those the single solves reject."""
    rng = np.random.default_rng(1005)
    rhos = []
    for theta in rng.uniform(0.0, 2.0 * np.pi, 4000):
        rho = np.diag([2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0]).astype(complex)
        rho[0, 3] = 1e-12 * np.exp(1j * theta)
        if (float(np.abs(rho)[0, 3]) <= 1e-12) != (abs(complex(rho[0, 3])) <= 1e-12):
            rhos.append(rho)
    assert rhos
    rejected = 0
    for rho in rhos:
        expected = _outcome(_reference_eigensolve, rho)
        for solve in (hermitian_eigensolve, _hermitian_eigenvalues):
            assert _outcome(solve, rho) == expected
        if expected is None:
            concurrence(rho)
        else:
            with pytest.raises(InvalidDensityMatrix, match="not Hermitian"):
                concurrence(rho)
        rejected += expected is not None
    assert 0 < rejected < len(rhos)


def test_both_kernels_reject_the_same_real_matrices():
    """Non-finite entries, real asymmetries within 8 ulps of the
    Hermiticity tolerance and entries one ulp around the edges of the
    scaling range get the same outcome and message from the scalar and
    the batch kernel."""
    rng = np.random.default_rng(1006)
    cases = []
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(4)
        m[1, 2] = bad
        cases.append(m.copy())
        m[2, 1] = bad
        cases.append(m)
    for edge in (_SCALE_MIN, _SCALE_MAX):
        for ulps in (-1, 0, 1):
            cases.append(np.diag([edge * (1.0 + ulps * 2.0**-52), 1e-300, 0.0, 0.0]))
            skewed = random_symmetric(rng, 1)[0] * (edge / 8.0)
            skewed[0, 0] = edge * (1.0 + ulps * 2.0**-52)
            skewed[1, 2] += 1e-12 * max(1.0, edge)
            cases.append(skewed)
    for ulps in range(-8, 9):
        for _ in range(20):
            m = random_symmetric(rng, 1)[0] * 10.0 ** rng.uniform(-3.0, 3.0)
            i, j = rng.choice(4, 2, replace=False)
            m[i, j] = m[j, i] = 0.0
            tol = 1e-12 * max(1.0, float(np.abs(m).max()))
            m[i, j] = tol * (1.0 + ulps * 2.0**-52) * rng.choice([-1.0, 1.0])
            cases.append(m)
    rejected = 0
    for m in cases:
        expected = _outcome(hermitian_eigensolve, m)
        assert _outcome(symmetric_eigensolve_batch, m[None]) == expected
        # the kernels read the two sides of an accepted asymmetry differently
        if expected is None and np.array_equal(m, m.T):
            assert_batch_matches_scalar(m[None])
        rejected += expected is not None
    assert 50 < rejected < len(cases) - 50


def test_every_solve_reads_the_stop_tolerance_at_the_call(monkeypatch):
    """_OFF_TOL patched at run time moves the stop of all three solves.  No
    off-diagonal norm exceeds |m|_F, so at _OFF_TOL = 1 each stops before
    its first rotation and returns the sorted diagonal with permuted unit
    vectors; an explicit off_tol, as `concurrence`'s Gram solve passes,
    keeps its own stop."""
    real = random_symmetric(np.random.default_rng(6), 1)[0]
    complex_ = random_hermitian(np.random.default_rng(7))
    explicit = [_hermitian_eigenvalues(m) for m in (real, complex_)]
    monkeypatch.setattr(linalg, "_OFF_TOL", 1.0)
    for m, values in zip((real, complex_), explicit):
        order = np.argsort(m.diagonal().real, kind="stable")
        diagonal = m.diagonal().real[order]
        dec = hermitian_eigensolve(m)
        assert np.array_equal(dec.values, diagonal)
        assert np.array_equal(dec.vectors, np.eye(4)[:, order])
        assert np.array_equal(_hermitian_eigenvalues(m), diagonal)
        assert np.array_equal(_hermitian_eigenvalues(m, off_tol=_OFF_TOL), values)
    batch_values, batch_vectors, _ = symmetric_eigensolve_batch(real[None])
    order = np.argsort(real.diagonal(), kind="stable")
    assert np.array_equal(batch_values[0], real.diagonal()[order])
    assert np.array_equal(batch_vectors[0], np.eye(4)[:, order])


def test_every_single_solve_raises_when_sweeps_run_out(monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    real = random_symmetric(np.random.default_rng(4), 1)[0]
    complex_ = random_hermitian(np.random.default_rng(5))
    for m in (real, real.astype(complex), complex_):
        with pytest.raises(ConvergenceError, match=" did not converge in 1 sweeps$"):
            hermitian_eigensolve(m)
        with pytest.raises(ConvergenceError, match=" did not converge in 1 sweeps$"):
            _hermitian_eigenvalues(m)
