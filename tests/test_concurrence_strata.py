"""Wootters concurrence at the edges of its input range; skipped without hypothesis.

Each stratum holds the mixed-state route to an oracle that shares none
of its code: the Werner closed form, a numpy route (an eigh factor and
an SVD of tau), or the density checks' documented errors.  The draws are
derandomized, so each run sees the same matrices.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmol.entanglement import concurrence  # noqa: E402
from qmol.errors import InvalidDensityMatrix, NumericOverflow  # noqa: E402
from qmol.linalg import _hermitian_eigenvalues  # noqa: E402
from qmol.states import basis_state  # noqa: E402

_BELL = basis_state("PsiMinus").density_matrix()
# sigma_y (x) sigma_y over {|LL>, |LR>, |RL>, |RR>}
_Y = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))
_MAX = np.finfo(float).max


def _reference(rho):
    """Concurrence by numpy: L = V sqrt(max(D, 0)) from eigh, and the SVD of L^T Y L."""
    w, v = np.linalg.eigh(rho)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    s = np.linalg.svd(factor.T @ _Y @ factor, compute_uv=False)
    return max(0.0, s[0] - s[1] - s[2] - s[3])


def _unitary(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return np.linalg.qr(g)[0]


def _density(u, weights):
    rho = (u * weights) @ u.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


# -- Werner states around p = 1/3 ------------------------------------------------

_WERNER_P = list(np.linspace(0.0, 1.0, 201)) + [
    1.0 / 3.0 + sign * 10.0**-k for sign in (-1.0, 1.0) for k in range(3, 16)
]


def test_werner_states_against_closed_form():
    worst = 0.0
    for p in _WERNER_P:
        rho = p * _BELL + (1.0 - p) * np.eye(4) / 4.0
        worst = max(worst, abs(concurrence(rho).value - max(0.0, (3.0 * p - 1.0) / 2.0)))
    # (3p - 1)/2 itself rounds; this bound is about four ulps of 1/2
    assert worst <= 1e-15


# -- mixed states of rank 2 to 4 near the separable boundary ---------------------


def _product_state(rng):
    a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in "ab")
    return np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))


@st.composite
def _near_boundary(draw):
    """A rank 2-4 state within 1e-3 to 1e-15 (relative) of the separable edge.

    sigma mixes `rank` product states, so it is separable; tau is a
    random state on the same support.  Along (1 - p) sigma + p tau the
    concurrence is convex, zero at p = 0, so zero up to one edge p* and
    growing after it.  Every nonzero eigenvalue stays above 1e-3, where
    the concurrence is well conditioned; near-singular states are not
    (an eigenvalue of 1e-18 moves it by about 1e-9).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(2, 4))
    products = np.array([_product_state(rng) for _ in range(rank)]).T
    sigma = _density(products, rng.random(rank) + 0.2)
    support = np.linalg.qr(products)[0]
    g = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
    tau = support @ g @ g.conj().T @ support.conj().T

    def rho(p):
        m = (1.0 - p) * sigma + p * tau / np.trace(tau).real
        m = (m + m.conj().T) / 2.0
        return m / np.trace(m).real

    assume(_reference(rho(1.0)) > 1e-3)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if _reference(rho(mid)) == 0.0 else (lo, mid)
    offset = draw(st.integers(3, 15))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    m = rho(hi * (1.0 + sign * 10.0**-offset))
    assert np.sum(np.linalg.eigvalsh(m) > 1e-3) == rank
    return m


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_near_boundary())
def test_mixed_states_near_the_separable_boundary(rho):
    assert abs(concurrence(rho).value - _reference(rho)) <= 1e-13


# -- complex entries near the double range ---------------------------------------


@st.composite
def _huge_entries(draw):
    """A trace-1 Hermitian matrix with one to three off-diagonal pairs above 1e300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.random(4)
    rho = np.diag(weights / weights.sum()).astype(complex)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for k in rng.choice(6, draw(st.integers(1, 3)), replace=False):
        i, j = pairs[k]
        re, im = (draw(st.floats(1e300, _MAX)) * rng.choice([-1.0, 1.0]) for _ in "ri")
        if draw(st.booleans()):
            im *= 10.0 ** -rng.uniform(0.0, 20.0)
        rho[i, j] = complex(re, im)
        rho[j, i] = complex(re, -im)
    return rho


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_huge_entries())
def test_complex_entries_near_the_double_range(rho):
    """An entry whose modulus is no double raises NumericOverflow; otherwise
    an eigenvalue near -|rho_ij| is reported at rho's scale, or
    NumericOverflow if some eigenvalue is no double."""
    with pytest.raises((InvalidDensityMatrix, NumericOverflow)) as info:
        concurrence(rho)
    with np.errstate(over="ignore"):
        moduli = np.hypot(rho.real, rho.imag)  # inf where a modulus overflows
    if not np.isfinite(moduli).all():
        assert info.type is NumericOverflow
        assert str(info.value) == "a matrix entry's modulus exceeds the double range"
        return
    # the spectrum at an exact power-of-two scale, where it fits
    scaled = np.linalg.eigvalsh(rho * 2.0**-1000)
    ratio = np.abs(scaled).max() / (_MAX * 2.0**-1000)
    assume(abs(ratio - 1.0) > 1e-9)  # no verdict at the overflow edge itself
    if ratio > 1.0:
        assert info.type is NumericOverflow
        assert str(info.value).startswith("eigenvalues exceed the floating-point range")
    else:
        assert info.type is InvalidDensityMatrix
        reported = float(re.search(r"np\.float64\((\S+)\)", str(info.value)).group(1))
        assert reported == pytest.approx(scaled[0] * 2.0**1000, rel=1e-12)


# -- the positivity boundary -----------------------------------------------------

# The positive matrices within 1e-12 of an indefinite rho, such as rho
# with its negative eigenvalues clipped or rho shifted by the lowest one,
# differ in concurrence by up to about 1e-10.
_AMBIGUITY = 3e-10

_LOWEST = st.one_of(
    st.floats(-2e-12, 1e-9),
    st.floats(-2e-12, -5e-13),
    st.floats(-16.0, np.log10(2e-12)).map(lambda x: -(10.0**x)),
    st.floats(-18.0, -9.0).map(lambda x: 10.0**x),
)


@st.composite
def _near_positive(draw):
    """A trace-1 matrix whose lowest eigenvalues lie between -2e-12 and 1e-9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    small = draw(st.lists(_LOWEST, min_size=1, max_size=3))
    large = rng.random(4 - len(small)) + 0.01
    large *= (1.0 - sum(small)) / large.sum()
    return _density(_unitary(rng), np.concatenate([small, large]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_near_positive())
def test_positivity_decided_as_by_the_eigenvalues(rho):
    """`concurrence` accepts rho exactly where its lowest eigenvalue, from the
    values-only solve, is at least -1e-12, and otherwise reports that
    eigenvalue's bits."""
    lowest = _hermitian_eigenvalues(rho).min()
    if lowest < -1e-12:
        message = f"negative eigenvalue {lowest!r} below tolerance"
        with pytest.raises(InvalidDensityMatrix, match=f"^{re.escape(message)}$"):
            concurrence(rho)
        return
    value = concurrence(rho).value
    assert abs(value - _reference(rho)) <= (1e-13 if lowest >= 0.0 else _AMBIGUITY)


@st.composite
def _tiny_pivot(draw):
    """An accepted indefinite rho = B + S: B of rank 2, and S = [[d, e], [e, 0]]
    in rows and columns 2, 3, with d from 1e-14.5 to 1e-12.5 and e from
    1e-13 to 1e-12.  B's rows 0 and 1 are the larger, so the factor
    pivots on them first and is left with S, whose diagonal d it would
    pivot on too."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    v[2:] *= 0.3
    rho = v @ v.conj().T
    rho /= np.trace(rho).real
    d = 10.0 ** rng.uniform(-14.5, -12.5)
    e = 10.0 ** rng.uniform(-13.0, -12.0)
    rho[2, 2] += d
    rho[2, 3] += e
    rho[3, 2] += e
    assume(_hermitian_eigenvalues(rho).min() >= -1e-12)
    return rho


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tiny_pivot())
def test_indefinite_rho_is_factored_within_the_tolerance(rho):
    # pivoting on d would leave L L^H = rho - R with |R| near e^2 / d, up
    # to 1e-10 from rho, and move the concurrence by up to 2.5e-9; rho
    # shifted by its lowest eigenvalue is factored instead, within 1e-12
    assert abs(concurrence(rho).value - _reference(rho)) <= _AMBIGUITY


# -- non-finite and overflowing entries ------------------------------------------


def _rho_with(diagonal, entries):
    rho = np.diag(diagonal).astype(complex)
    for (i, j), value in entries.items():
        rho[i, j] = value
        if i != j:
            rho[j, i] = np.conj(value)
    return rho


def _trace(text):
    return InvalidDensityMatrix, f"trace is {text}, expected 1 within 1e-12"


_NAN_OR_INF = (InvalidDensityMatrix, "density matrix contains NaN or Inf")
_MODULUS = (NumericOverflow, "a matrix entry's modulus exceeds the double range")
_NEGATIVE = (InvalidDensityMatrix, "negative eigenvalue")
_SPECTRUM = (NumericOverflow, "eigenvalues exceed the floating-point range")
_BIG = complex(1.3e308, -1.3e308)  # a modulus of 1.84e308, no double


@pytest.mark.parametrize(
    "diagonal, entries, expected",
    [
        ([0.25] * 4, {(2, 2): np.nan}, _NAN_OR_INF),
        ([0.25] * 4, {(0, 1): complex(np.nan, 0.0)}, _NAN_OR_INF),
        ([0.25] * 4, {(3, 0): complex(0.0, np.inf)}, _NAN_OR_INF),
        # every check fails: finiteness is reported first
        ([2.0, 0.5, -0.1, 0.0], {(0, 1): -np.inf}, _NAN_OR_INF),
        ([0.25] * 4, {(0, 1): _BIG}, _MODULUS),
        ([0.25] * 4, {(0, 3): _BIG.conjugate()}, _MODULUS),
        # an overflowing modulus and a bad trace: the trace is reported
        ([2.0, 0.5, -0.1, 0.0], {(0, 1): _BIG}, _trace("(2.4+0j)")),
        # a trace whose modulus is no double, and one that is NaN
        ([0.25, 0.25, 0.0, 0.5], {(2, 2): _BIG}, _trace("(1.3e+308-1.3e+308j)")),
        ([1.7e308, 1.7e308, -1.7e308, -1.7e308], {}, _trace("(nan+0j)")),
        # a modulus that fits, far beyond the tolerance of a trace-1 matrix
        ([0.25] * 4, {(0, 3): complex(1e307, 1e307)}, _NEGATIVE),
        # eigenvalues +-1.5e308 * sqrt(2) with a good trace: the factor
        # overflows, and the eigenvalue solve reports it
        ([1.5e308, -1.5e308, 0.5, 0.5], {(0, 1): 1.5e308}, _SPECTRUM),
    ],
    ids=[
        "nan-diagonal",
        "nan-entry",
        "inf-imaginary",
        "inf-and-bad-trace",
        "modulus",
        "modulus-conjugate",
        "modulus-and-bad-trace",
        "trace-modulus",
        "trace-nan",
        "negative",
        "spectrum",
    ],
)
def test_typed_errors_in_check_order(diagonal, entries, expected):
    kind, message = expected
    with pytest.raises(kind) as info:
        concurrence(_rho_with(diagonal, entries))
    assert info.type is kind
    assert str(info.value).startswith(message)
