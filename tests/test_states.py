from math import hypot

import numpy as np
import pytest

from qmol.errors import NotNormalized
from qmol.states import (
    BELL_LABELS,
    BELL_MATRIX,
    POSITIONAL_LABELS,
    Basis,
    StateVector,
    basis_state,
)


def test_bell_matrix_is_real_orthogonal():
    assert np.abs(BELL_MATRIX @ BELL_MATRIX.conj().T - np.eye(4)).max() < 1e-15
    assert np.abs(BELL_MATRIX.conj().T @ BELL_MATRIX - np.eye(4)).max() < 1e-15
    assert np.abs(BELL_MATRIX.imag).max() == 0.0


@pytest.mark.parametrize(
    "label,expected",
    [
        ("PsiMinus", (0.0, -1.0, 1.0, 0.0)),
        ("PhiMinus", (-1.0, 0.0, 0.0, 1.0)),
        ("PsiPlus", (0.0, 1.0, 1.0, 0.0)),
        ("PhiPlus", (1.0, 0.0, 0.0, 1.0)),
    ],
)
def test_bell_states_in_positional_basis(label, expected):
    psi = basis_state(label).to_positional()
    assert np.allclose(psi.amplitudes, np.array(expected) / np.sqrt(2.0), atol=1e-15)


@pytest.mark.parametrize("label,index", list(zip(POSITIONAL_LABELS, range(4))))
def test_positional_basis_states(label, index):
    psi = basis_state(label)
    assert psi.basis is Basis.POSITIONAL
    expected = np.zeros(4)
    expected[index] = 1.0
    assert np.array_equal(psi.amplitudes.real, expected)


def test_basis_state_rejects_unknown_label():
    with pytest.raises(ValueError):
        basis_state("XY")


def test_round_trip_positional_bell():
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        psi = StateVector(a, Basis.POSITIONAL)
        back = psi.to_bell().to_positional()
        assert np.abs(back.amplitudes - a).max() < 1e-14


def test_conversion_is_identity_when_already_there():
    psi = basis_state("LL")
    assert psi.to_positional() is psi
    # Bell labels produce positional-basis amplitudes; converting picks out
    # a single Bell coordinate
    chi = basis_state("PsiPlus").to_bell()
    assert chi.basis is Basis.BELL
    assert np.allclose(chi.amplitudes, [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_bell_basis_state_converts_to_itself():
    chi = basis_state("PsiPlus").to_bell()
    assert chi.to_bell() is chi


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(21)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a /= np.linalg.norm(a)
    psi = StateVector(a, Basis.POSITIONAL)
    assert psi.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(psi.probabilities >= 0.0)


def test_overlap_bell_with_positional():
    # <Psi+|RL> = 1/sqrt(2) regardless of which basis each side is stored in
    val = basis_state("PsiPlus").overlap(basis_state("RL"))
    assert val == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)


def test_density_matrix_is_projector():
    psi = basis_state("PhiPlus")
    rho = psi.density_matrix()
    assert np.abs(rho - rho.conj().T).max() < 1e-15
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    assert np.abs(rho @ rho - rho).max() < 1e-14


def test_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        StateVector(np.array([1.0, 1.0, 0.0, 0.0]), Basis.POSITIONAL)


def test_rejects_wrong_shape_and_nan():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0]), Basis.POSITIONAL)
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 0.0, 0.0, 0.0]), Basis.POSITIONAL)


def test_amplitudes_read_only():
    psi = basis_state("LR")
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0


def test_bell_labels_align_with_matrix_rows():
    for row, label in enumerate(BELL_LABELS):
        psi = basis_state(label).to_positional()
        assert np.abs(psi.amplitudes - BELL_MATRIX[row]).max() < 1e-15


def _rejection(amps):
    with pytest.raises(NotNormalized) as exc:
        StateVector(amps, Basis.POSITIONAL)
    return str(exc.value)


@pytest.mark.parametrize("offset", [-0.9e-12, 0.9e-12, -1.1e-12, 1.1e-12])
def test_norm_tolerance_edges(offset):
    amps = np.array([0.5, 0.5j, -0.5, 0.5]) * (1.0 + offset)
    norm = float(np.linalg.norm(amps))
    if abs(offset) < 1e-12:
        assert np.array_equal(StateVector(amps).amplitudes, amps)
    else:
        assert _rejection(amps) == f"state norm is {norm!r}, expected 1"


def test_states_near_the_tolerance_are_judged_by_hypot():
    rng = np.random.default_rng(33)
    accepted = 0
    for _ in range(400):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a *= (1.0 + rng.uniform(-2e-12, 2e-12)) / np.linalg.norm(a)
        norm = hypot(*a.view(float).tolist())
        # numpy's norm differs from it in the last bit at most
        assert abs(norm - float(np.linalg.norm(a))) <= 2.0**-52
        if abs(norm - 1.0) <= 1e-12:
            StateVector(a)
            accepted += 1
        else:
            assert _rejection(a) == f"state norm is {norm!r}, expected 1"
    assert 0 < accepted < 400


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, -np.inf)]
)
def test_non_finite_amplitudes_rejected(bad):
    for amps in ([bad, 0.0, 0.0, 0.0], [0.6, 0.0, 0.8j, bad]):
        assert _rejection(np.array(amps)) == "amplitudes contain NaN or Inf"


def test_finite_amplitudes_whose_norm_overflows_rejected():
    # their squares overflow, but the norm is found without them and
    # without a warning; it is inf only where the norm itself overflows
    for amps, norm in (
        ([1e200, 0.0, 0.0, 0.0], "1e+200"),
        ([1e200, 1e200j, -1e200, 1e200], "2e+200"),
        ([1.5e308, 0.0, -1.5e308j, 0.0], "inf"),
    ):
        assert _rejection(np.array(amps)) == f"state norm is {norm}, expected 1"
