"""Property tests of the eigensolvers; skipped without hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_linalg import assert_batch_matches_scalar  # noqa: E402

from qmol.hamiltonian import _positional_matrices  # noqa: E402
from qmol.linalg import hermitian_eigensolve  # noqa: E402

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
    # the kernels' norm is np.linalg.norm's for the complex matrix
    gap_tol = 1e-9 * np.linalg.norm(h.astype(complex))
    assert dec.degenerate_pairs == tuple(
        bool(dec.values[k + 1] - dec.values[k] <= gap_tol) for k in range(3)
    )
    _, vectors = np.linalg.eigh(h)
    for k, flagged in enumerate(dec.degenerate_states):
        if not flagged:
            overlap = abs(np.vdot(vectors[:, k], dec.vectors[:, k]))
            assert abs(overlap - 1.0) <= 1e-9
