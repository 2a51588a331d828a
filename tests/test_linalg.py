import numpy as np
import pytest

from qmol import linalg
from qmol.errors import ConvergenceError, NonHermitianInput, NumericOverflow
from qmol.hamiltonian import _positional_matrices
from qmol.linalg import (
    expectation,
    hermitian_eigensolve,
    pair_flags_to_states,
    symmetric_eigensolve_batch,
)


def random_hermitian(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (g + g.conj().T) / 2.0


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
    with pytest.raises(ConvergenceError):
        hermitian_eigensolve(h[0])
    with pytest.raises(ConvergenceError):
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
    """Outside [2**-500, 2**500] a matrix is solved at a power-of-two scale;
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
