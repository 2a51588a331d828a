"""Property tests of the eigensolvers; skipped without hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_linalg import assert_batch_matches_scalar, assert_same_bits  # noqa: E402

from qmol.hamiltonian import _positional_matrices  # noqa: E402
from qmol.linalg import _frobenius, hermitian_eigensolve  # noqa: E402

_entries = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_entries, min_size=10, max_size=10), min_size=1, max_size=8))
def test_batch_matches_scalar_property(rows):
    upper = np.triu_indices(4)
    h = np.zeros((len(rows), 4, 4))
    for k, row in enumerate(rows):
        h[k][upper] = row
        h[k].T[upper] = row
    assert_batch_matches_scalar(h)


@st.composite
def _near_ties(draw):
    """A Hamiltonian whose closest eigenvalue pair is 0.3 to 3 x 1e-9 |H|_F apart.

    eps2 sits within a few 1e-9 * j of a crossing of two diagonal entries
    (eps2 = -j/2, j/2, eps1 or -eps1) and the tunnelings are of the same
    size, so the pair is split by an avoided crossing, not tied.
    """
    j = draw(st.floats(0.1, 100.0))
    eps1 = draw(st.floats(-2.0, 2.0)) * j
    crossing = draw(st.sampled_from([-j / 2, j / 2, eps1, -eps1]))
    eps2 = crossing + draw(st.floats(-3e-9, 3e-9)) * j
    delta1, delta2 = (draw(st.floats(0.0, 3e-9)) * j for _ in range(2))
    h = _positional_matrices(eps1, eps2, delta1, delta2, j)
    gap = float(np.diff(np.linalg.eigvalsh(h)).min())
    norm = float(np.linalg.norm(h))
    assume(0.3e-9 * norm <= gap <= 3e-9 * norm)
    return h


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_near_ties())
def test_near_degenerate_spectra(h):
    assert_batch_matches_scalar(h[None])
    dec = hermitian_eigensolve(h.astype(complex))
    # the kernels' norm: one dot over the 16 real entries
    gap_tol = 1e-9 * _frobenius(h)
    assert dec.degenerate_pairs == tuple(
        bool(dec.values[k + 1] - dec.values[k] <= gap_tol) for k in range(3)
    )
    _, vectors = np.linalg.eigh(h)
    for k, flagged in enumerate(dec.degenerate_states):
        if not flagged:
            overlap = abs(np.vdot(vectors[:, k], dec.vectors[:, k]))
            assert abs(overlap - 1.0) <= 1e-9


@st.composite
def _hermitian(draw):
    """A complex Hermitian matrix at a scale 2**k, k in [-600, 600].

    Half the draws have free entries, some of them signed zeros or small
    integers; the other half are near ties from `_near_ties` turned
    complex by a diagonal unitary, which keeps their spectrum and so a
    gap of 0.3 to 3 x 1e-9 |H|_F.
    """
    if draw(st.booleans()):
        angles = draw(st.lists(st.floats(0.0, 6.3), min_size=4, max_size=4))
        phases = np.exp(1j * np.array(angles))
        m = phases[:, None] * draw(_near_ties()) * phases.conj()[None, :]
    else:
        finite = _entries.filter(lambda e: abs(e) < 1e299)
        x = draw(st.lists(finite, min_size=16, max_size=16))
        m = np.diag(x[:4]).astype(complex)
        m[np.triu_indices(4, 1)] = np.array(x[4:10]) + 1j * np.array(x[10:])
        m += np.triu(m, 1).conj().T
    return m * 2.0 ** draw(st.integers(-600, 600))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_hermitian())
def test_same_bits_as_reference_property(m):
    assert_same_bits(m)
