import numpy as np
import pytest

from qmol.hamiltonian import (
    SystemParams,
    build_bell,
    build_positional,
)
from qmol.states import BELL_MATRIX


def test_positional_entries_explicit():
    p = SystemParams(eps1=3.0, eps2=1.0, delta1=4.0, delta2=6.0, j=8.0)
    # eps_sum=4, eps_diff=2, j/4=2
    expected = np.array(
        [
            [4.0, 3.0, 2.0, 0.0],
            [3.0, -1.0, 0.0, 2.0],
            [2.0, 0.0, -3.0, 3.0],
            [0.0, 2.0, 3.0, 0.0],
        ]
    )
    assert np.array_equal(build_positional(p), expected)


def test_positional_is_hermitian_and_traceless():
    rng = np.random.default_rng(2)
    for _ in range(20):
        e1, e2, d1, d2 = rng.uniform(-30.0, 30.0, 4)
        p = SystemParams(eps1=e1, eps2=e2, delta1=d1, delta2=d2, j=25.0)
        h = build_positional(p)
        assert np.abs(h - h.conj().T).max() == 0.0
        assert abs(np.trace(h)) < 1e-12


def test_bell_form_matches_conjugation():
    rng = np.random.default_rng(4)
    b = BELL_MATRIX
    for _ in range(100):
        e1, e2, d1, d2 = rng.uniform(-30.0, 30.0, 4)
        p = SystemParams(eps1=e1, eps2=e2, delta1=d1, delta2=d2, j=float(rng.uniform(1, 40)))
        h_bell = b @ build_positional(p) @ b.conj().T
        assert np.abs(h_bell - build_bell(p)).max() < 1e-13


def test_bell_blocks_decouple_at_full_resonance():
    p = SystemParams(delta1=5.0, delta2=3.0, j=20.0)
    h = build_bell(p)
    # detunings are the only couplings between the minus and plus pairs
    assert h[0, 2] == 0.0 and h[1, 3] == 0.0
    assert h[0, 1] == pytest.approx(-1.0)  # (delta2 - delta1) / 2
    assert h[2, 3] == pytest.approx(4.0)  # (delta1 + delta2) / 2
    assert h[0, 0] == pytest.approx(-5.0) and h[1, 1] == pytest.approx(5.0)


def test_bell_detuning_couplings():
    p = SystemParams(eps1=7.0, eps2=3.0, delta1=0.0, delta2=0.0, j=4.0)
    h = build_bell(p)
    assert h[0, 2] == pytest.approx(-2.0)  # -eps_diff / 2
    assert h[1, 3] == pytest.approx(-5.0)  # -eps_sum / 2
    assert h[0, 1] == 0.0 and h[2, 3] == 0.0


def test_param_properties():
    p = SystemParams(eps1=3.0, eps2=-1.0, delta1=2.0, delta2=6.0, j=10.0)
    assert p.eps_sum == 2.0
    assert p.eps_diff == 4.0
    assert p.delta_plus == 4.0
    assert p.delta_minus == -2.0


def test_from_ratio():
    p = SystemParams.from_ratio(0.25, j=20.0)
    assert p.delta1 == 5.0 and p.delta2 == 5.0
    assert p.eps1 == 0.0 and p.eps2 == 0.0 and p.j == 20.0


def test_defaults():
    p = SystemParams()
    assert (p.eps1, p.eps2, p.delta1, p.delta2, p.j) == (0.0, 0.0, 0.0, 0.0, 25.0)


@pytest.mark.parametrize("bad_j", [0.0, -3.0, np.nan, np.inf])
def test_rejects_bad_coupling(bad_j):
    with pytest.raises(ValueError):
        SystemParams(j=bad_j)


def test_rejects_non_finite_detuning():
    with pytest.raises(ValueError):
        SystemParams(eps1=np.inf)


def test_params_coerce_to_float():
    p = SystemParams(eps1=1, eps2=2, delta1=3, delta2=4, j=5)
    assert isinstance(p.eps1, float) and isinstance(p.j, float)


def test_coulomb_sign_structure():
    """The interaction raises aligned charges (LL, RR) and lowers mixed ones."""
    p = SystemParams(j=8.0)
    h = build_positional(p)
    assert h[0, 0].real == 2.0 and h[3, 3].real == 2.0
    assert h[1, 1].real == -2.0 and h[2, 2].real == -2.0
