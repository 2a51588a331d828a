"""Property test of the batched eigensolver; skipped without hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_linalg import assert_batch_matches_scalar  # noqa: E402

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
