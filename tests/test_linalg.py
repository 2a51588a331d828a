import numpy as np
import pytest

from qmol.errors import NonHermitianInput
from qmol.linalg import expectation, hermitian_eigensolve


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
