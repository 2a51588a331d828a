import re
import warnings

import numpy as np
import pytest

from qmol.entanglement import concurrence, concurrence_pure, spin_flip
from qmol.errors import InvalidDensityMatrix, NotNormalized, NumericOverflow, QmolError
from qmol.states import BELL_LABELS, Basis, StateVector, basis_state


def random_pure(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return StateVector(a / np.linalg.norm(a), Basis.POSITIONAL)


def random_su2(rng):
    theta, alpha, beta = rng.uniform(0.0, 2.0 * np.pi, 3)
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c * np.exp(1j * alpha), s * np.exp(1j * beta)],
            [-s * np.exp(-1j * beta), c * np.exp(-1j * alpha)],
        ]
    )


def werner(p):
    """p |Psi-><Psi-| + (1-p)/4 identity; concurrence max(0, (3p-1)/2)."""
    bell = basis_state("PsiMinus").density_matrix()
    return p * bell + (1.0 - p) * np.eye(4) / 4.0


@pytest.mark.parametrize("label", BELL_LABELS)
def test_bell_states_maximally_entangled(label):
    psi = basis_state(label)
    assert concurrence_pure(psi) == pytest.approx(1.0, abs=1e-15)
    assert concurrence(psi.density_matrix()).value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("label", ["LL", "LR", "RL", "RR"])
def test_product_states_unentangled(label):
    psi = basis_state(label)
    assert concurrence_pure(psi) == 0.0
    assert concurrence(psi.density_matrix()).value == pytest.approx(0.0, abs=1e-12)


def test_known_partially_entangled_state():
    # cos(x)|LL> + sin(x)|RR> has concurrence |sin(2x)|
    x = 0.3
    amps = np.array([np.cos(x), 0.0, 0.0, np.sin(x)], dtype=complex)
    assert concurrence_pure(amps) == pytest.approx(abs(np.sin(2 * x)), abs=1e-14)


@pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0])
def test_werner_states_against_closed_form(p):
    expected = max(0.0, (3.0 * p - 1.0) / 2.0)
    result = concurrence(werner(p))
    assert result.value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_bell_diagonal_states(q):
    rho = q * basis_state("PhiPlus").density_matrix() + (1.0 - q) * basis_state(
        "PsiPlus"
    ).density_matrix()
    assert concurrence(rho).value == pytest.approx(abs(2.0 * q - 1.0), abs=1e-12)


def test_pure_formula_matches_wootters():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        psi = random_pure(rng)
        gap = abs(concurrence_pure(psi) - concurrence(psi.density_matrix()).value)
        worst = max(worst, gap)
    assert worst < 1e-12


def test_local_unitary_invariance():
    rng = np.random.default_rng(55)
    for _ in range(100):
        psi = random_pure(rng)
        u = np.kron(random_su2(rng), random_su2(rng))
        rotated = StateVector(u @ psi.amplitudes, Basis.POSITIONAL)
        assert concurrence_pure(rotated) == pytest.approx(
            concurrence_pure(psi), abs=1e-12
        )


def test_mixed_state_local_unitary_invariance():
    rng = np.random.default_rng(77)
    rho = werner(0.7)
    for _ in range(20):
        u = np.kron(random_su2(rng), random_su2(rng))
        rotated = u @ rho @ u.conj().T
        rotated = (rotated + rotated.conj().T) / 2.0
        assert concurrence(rotated).value == pytest.approx(
            concurrence(rho).value, abs=1e-10
        )


def test_lambdas_descending_and_value_consistent():
    rng = np.random.default_rng(13)
    # random mixed state from a few pure pieces
    rho = np.zeros((4, 4), dtype=complex)
    weights = (0.5, 0.3, 0.2)
    for w in weights:
        rho += w * random_pure(rng).density_matrix()
    result = concurrence(rho)
    lam = result.lambdas
    assert np.all(np.diff(lam) <= 1e-15)
    assert np.all(lam >= 0.0)
    raw = lam[0] - lam[1] - lam[2] - lam[3]
    assert result.value == pytest.approx(max(0.0, raw), abs=1e-15)


def test_rank_one_spectrum():
    result = concurrence(basis_state("PhiMinus").density_matrix())
    assert result.lambdas[0] == pytest.approx(1.0, abs=1e-8)
    assert np.abs(result.lambdas[1:]).max() < 1e-8


def _unit(v):
    return v / np.linalg.norm(v)


def test_product_state_has_zero_concurrence():
    psi = np.kron([0.6, 0.8j], [0.8, -0.6])
    result = concurrence(np.outer(psi, psi.conj()))
    assert result.value <= 1e-15
    assert result.lambdas[0] <= 1e-8


@pytest.mark.parametrize("distance", [0.0, 1e-12, 1e-9, 1e-6, 1e-3])
def test_near_product_pure_states_match_pure_formula(distance):
    # psi = product + distance * w, normalized: no Gaussian draw comes this
    # close to the separable states, where rounding in the construction
    # matters most
    rng = np.random.default_rng(2011)
    worst = 0.0
    for _ in range(200):
        a, b = (_unit(rng.standard_normal(2) + 1j * rng.standard_normal(2)) for _ in "ab")
        w = _unit(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        psi = StateVector(_unit(np.kron(a, b) + distance * w), Basis.POSITIONAL)
        gap = abs(concurrence(psi.density_matrix()).value - concurrence_pure(psi))
        worst = max(worst, gap)
    assert worst <= 1e-13


# (concurrence, [(weight, vector), ...]): rho is the weighted sum of
# |vector><vector| over its trace.  The entries are Gaussian integers and
# the traces powers of two, so rho is exact in floating point; the
# concurrences were computed from the same exact rho with 60-digit mpmath
# (sqrt(rho) rho_tilde sqrt(rho) through mpmath.eighe).
MIXED_REFERENCES = [
    (0.9100137361600648, [(1, [-2 + 1j, 2j, -1 - 1j, 2 + 1j])]),
    (0.3535533905932737, [(1, [0j, -1, -1 + 1j, 1 - 2j])]),
    (0.39528470752104744, [(1, [2j, 1 + 1j, -2 + 1j, -2 + 1j])]),
    (0.27950849718747367, [(2, [-1 + 1j, 1 - 2j, -1j, 2 + 2j])]),
    (0.0, [(1, [1 + 1j, -1 + 1j, 1 + 1j, -1 + 1j])]),
    (0.5561384555315796, [(2, [0j, 1, 2 + 2j, -1]), (2, [-2 + 1j, -2 + 2j, -1j, 2 + 2j])]),
    (0.721238042226488, [(2, [-2j, -2, -2, 1 - 1j]), (2, [-2j, -2 + 1j, -2 - 2j, 1])]),
    (0.328229025476364, [(1, [2j, -2 - 2j, 1, -2j]), (3, [0j, 1j, 2j, 0j])]),
    (0.3502600227060792, [(2, [-2 + 2j, 1j, 1j, 2 + 1j]), (2, [-2 + 2j, 1 + 2j, 1 + 1j, 1 - 1j])]),
    (0.0, [(1, [1 + 1j, -1 + 1j, 1 + 1j, -1 + 1j]), (2, [1, 1, 1, 1])]),
    (
        0.3825574223880636,
        [(1, [-2, 1 - 1j, 2, 2 + 2j]), (2, [-2j, 2 + 1j, -1j, -2 + 2j]), (1, [-2, 2, 1 - 1j, 0j])],
    ),
    (
        0.1414811000612647,
        [
            (2, [-2 + 2j, -1 - 2j, 1, 2 - 1j]),
            (2, [2 - 2j, 2j, 2j, -1 + 1j]),
            (3, [-2 - 1j, -2j, 1, -2 + 2j]),
        ],
    ),
    (
        0.6040314952577619,
        [(1, [-2, 2j, -2j, 1 + 2j]), (2, [2j, 1 - 2j, -1 - 1j, -1 - 1j]), (1, [-2 + 2j, 2, -2j, -1 - 2j])],
    ),
    (
        0.0,
        [(2, [1j, 2j, 2 - 2j, 0j]), (3, [1 + 2j, 2 + 2j, -1 + 2j, -1 + 2j]), (3, [-2j, 1 + 2j, 1, 1])],
    ),
    (
        0.07351624785389109,
        [
            (3, [2, 0j, -1, -2]),
            (2, [-2 - 1j, 1 - 2j, -2j, 1]),
            (3, [-1 - 2j, 2j, -1 + 1j, 2]),
            (2, [-1 + 1j, -1 + 2j, -2j, -1 - 1j]),
        ],
    ),
    (
        0.13009348725119502,
        [
            (1, [-2 - 2j, -2 + 1j, -2, -1]),
            (2, [-2j, -1 + 1j, 1 + 1j, 1 - 2j]),
            (2, [1 + 1j, -2 - 2j, -2 - 1j, -2 - 1j]),
            (2, [1 - 2j, 2, 2 - 2j, -2 - 1j]),
        ],
    ),
    (
        0.1410497030273925,
        [
            (2, [-1 - 2j, -1 - 2j, 1 - 1j, 1 + 2j]),
            (1, [1j, -1j, -1 - 1j, 1]),
            (2, [2 + 2j, 2 - 2j, -1, -2 - 1j]),
            (3, [1 + 2j, 1 - 2j, 0j, 2 + 1j]),
        ],
    ),
    (
        0.0,
        [
            (1, [2 + 2j, 2j, 2 - 1j, 1 - 2j]),
            (3, [-1j, 1 + 1j, 1j, -2 - 2j]),
            (2, [-2 - 1j, -2 + 2j, 1 + 1j, -1 - 1j]),
            (3, [1j, 1 + 2j, -1 + 1j, 2j]),
        ],
    ),
]


@pytest.mark.parametrize(
    "expected, parts", MIXED_REFERENCES, ids=[f"rank{len(p)}-{i}" for i, (_, p) in enumerate(MIXED_REFERENCES)]
)
def test_mixed_states_against_high_precision_references(expected, parts):
    rho = sum(w * np.outer(v, np.conj(v)) for w, v in parts).astype(complex)
    trace = np.trace(rho).real
    assert trace == 2.0 ** round(np.log2(trace))  # so that rho / trace is exact
    rho = rho / trace
    assert np.linalg.matrix_rank(rho) == len(parts)
    assert abs(concurrence(rho).value - expected) <= 1e-13


def test_negative_eigenvalue_reported_at_the_scale_of_rho():
    # a 1e300 entry sends the solve of rho to a power-of-two scale; the
    # message must carry rho's own eigenvalue, 1/4 - 1e300
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[1, 0] = 1e300
    with pytest.raises(InvalidDensityMatrix, match="negative eigenvalue") as info:
        concurrence(rho)
    reported = float(re.search(r"np\.float64\((\S+)\)", str(info.value)).group(1))
    assert reported == pytest.approx(-1e300, rel=1e-12)


def test_spin_flip_involution_and_bell_invariance():
    rng = np.random.default_rng(3)
    rho = werner(0.4)
    assert np.abs(spin_flip(spin_flip(rho)) - rho).max() < 1e-14
    # Bell states are fixed points of the flip
    for label in BELL_LABELS:
        bell = basis_state(label).density_matrix()
        assert np.abs(spin_flip(bell) - bell).max() < 1e-14
    psi = random_pure(rng).density_matrix()
    assert abs(np.trace(spin_flip(psi)) - 1.0) < 1e-13


def test_concurrence_result_rho_tilde_field():
    rho = werner(0.9)
    result = concurrence(rho)
    assert np.abs(result.rho_tilde - spin_flip(rho)).max() == 0.0


def test_rejects_non_hermitian_density():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 0.3
    with pytest.raises(InvalidDensityMatrix):
        concurrence(rho)


def test_rejects_bad_trace():
    with pytest.raises(InvalidDensityMatrix):
        concurrence(np.eye(4, dtype=complex))


def test_rejects_negative_eigenvalue():
    rho = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
    with pytest.raises(InvalidDensityMatrix):
        concurrence(rho)


def test_rejects_nan():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[2, 2] = np.nan
    with pytest.raises(InvalidDensityMatrix):
        concurrence(rho)


# trace 2, and eigenvalues near 5e308 that do not fit in a double
_HUGE_OFF_DIAGONAL = np.full((4, 4), 1.7e308) * (1.0 - np.eye(4)) + np.eye(4) / 2.0


def _rho_with(diagonal, **entries):
    rho = np.diag(diagonal).astype(complex)
    for key, value in entries.items():
        rho[int(key[1]), int(key[2])] = value
    return rho


@pytest.mark.parametrize(
    "rho, message",
    [
        (_rho_with([0.25] * 4, e22=np.nan), "contains NaN or Inf"),
        # every check fails: finiteness is reported first
        (_rho_with([1.0] * 4, e03=np.inf), "contains NaN or Inf"),
        (_rho_with([1.0] * 4, e01=0.3), "not Hermitian within 1e-12"),
        (_rho_with([2.0, 0.5, -0.1, 0.0]), "trace is"),
        # eigenvalues beyond the double range: the trace is reported, not the overflow
        (_HUGE_OFF_DIAGONAL, r"trace is \(2\+0j\)"),
        (_rho_with([0.6, 0.5, -0.1, 0.0]), "negative eigenvalue"),
        (np.eye(3) / 3.0, "rho must be a 4x4 matrix"),
    ],
)
def test_density_checks_report_in_order(rho, message):
    """Finite, Hermitian, trace, positive: the first check that fails names the fault."""
    with pytest.raises(InvalidDensityMatrix, match=message):
        concurrence(rho)


def test_overflowing_trace_raises_the_trace_error_without_a_warning():
    # the suite turns warnings into errors, so a RuntimeWarning from the
    # trace's sum would replace the typed error
    message = "trace is (inf+0j), expected 1 within 1e-12"
    with pytest.raises(InvalidDensityMatrix, match=re.escape(message)):
        concurrence(np.full((4, 4), 1.7e308, dtype=complex))


def test_complex_entry_whose_modulus_overflows_raises_numeric_overflow():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho[0, 1] = 1.7e308 + 1.7e308j
    rho[1, 0] = rho[0, 1].conjugate()
    with pytest.raises(NumericOverflow, match="modulus exceeds the double range"):
        concurrence(rho)


def test_residue_whose_modulus_overflows_ends_in_a_typed_error_without_a_warning():
    # every entry is below 1.5e154, but the factor's first update leaves
    # -1.5e308 * (1 - 1j) in the residue, whose modulus is not a double
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    rho[1, 0] = 1.5e154
    rho[2, 0] = 1e154 * (1 - 1j)
    rho[0, 1], rho[0, 2] = rho[1, 0].conjugate(), rho[2, 0].conjugate()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmolError) as raised:
            concurrence(rho)
    assert not isinstance(raised.value, OverflowError)
    assert not isinstance(raised.value.__context__, OverflowError)


def test_trace_error_reports_numpys_trace():
    rng = np.random.default_rng(1401)
    cases = [np.zeros((4, 4)), np.full((4, 4), -0.0), np.diag([-0.0, 0.0, -0.0, -0.0])]
    for _ in range(200):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        cases.append((g + g.conj().T) * 10.0 ** rng.uniform(-3, 3))
    for rho in cases:
        rho = np.asarray(rho, dtype=complex)
        message = f"trace is {complex(rho.trace())!r}, expected 1"
        with pytest.raises(InvalidDensityMatrix, match=re.escape(message)):
            concurrence(rho)


def test_hermiticity_tolerance_follows_the_largest_entry():
    # the solve of rho checks Hermiticity within 1e-12 * max|rho_ij|; a
    # matrix with an entry above 1 is no density matrix and still raises
    rho = _rho_with([0.25] * 4, e01=5.0, e10=5.0 + 2e-12)
    with pytest.raises(InvalidDensityMatrix, match="negative eigenvalue"):
        concurrence(rho)
    rho[1, 0] = 5.0 + 1e-10
    with pytest.raises(InvalidDensityMatrix, match="not Hermitian"):
        concurrence(rho)


def test_pure_rejects_unnormalized_array():
    with pytest.raises(NotNormalized):
        concurrence_pure(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_pure_rejects_non_finite_arrays(bad):
    # a NaN norm used to pass the tolerance test and return nan
    for amps in ([bad, 0.0, 0.0, 0.0], [0.6, 0.0, 0.8j, bad]):
        with pytest.raises(NotNormalized, match="^amplitudes contain NaN or Inf$"):
            concurrence_pure(np.array(amps))


def test_pure_norm_of_huge_amplitudes_is_found_without_overflow():
    # squares of 1e200 overflow; the suite turns numpy's warning into an error
    for amps, norm in (([1e200, 0.0, 0.0, 0.0], "1e+200"), ([1.5e308, 1.5e308j, 0, 0], "inf")):
        with pytest.raises(NotNormalized) as exc:
            concurrence_pure(np.array(amps))
        assert str(exc.value) == f"state norm is {norm}, expected 1"
    # a strided view is read as its own four amplitudes
    amps = np.array([[0.6, 9.0], [0.0, 9.0], [0.0, 9.0], [0.8, 9.0]])[:, 0]
    assert concurrence_pure(amps) == pytest.approx(0.96, abs=1e-15)


def test_pure_accepts_bell_basis_state_vector():
    # conversion to the positional basis happens internally
    psi = basis_state("RL").to_bell()
    assert concurrence_pure(psi) == pytest.approx(0.0, abs=1e-15)


def test_pure_concurrence_keeps_pythons_complex_arithmetic():
    # numpy's loops over complex arrays, 0-d ones included, round some of
    # these products differently on some CPUs; the numpy scalars
    # concurrence_pure works on must give the bits of Python's complex
    rng = np.random.default_rng(29)
    states = rng.standard_normal((10_000, 4)) + 1j * rng.standard_normal((10_000, 4))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    for amps in states:
        c = amps.tolist()
        expected = min(max(2.0 * abs(c[0] * c[3] - c[1] * c[2]), 0.0), 1.0)
        assert concurrence_pure(amps) == expected
        assert concurrence_pure(StateVector(amps, Basis.POSITIONAL)) == expected


def test_value_clipped_to_unit_interval():
    rng = np.random.default_rng(31)
    for _ in range(200):
        value = concurrence_pure(random_pure(rng))
        assert 0.0 <= value <= 1.0
