"""Property tests of the per-column print rule; skipped without hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmol.cli import build_config, build_parser, render_spectrum  # noqa: E402
from qmol.serialize import _fmt6_blocks  # noqa: E402
from qmol.states import BELL_DISPLAY, BELL_LABELS, basis_state  # noqa: E402

#: a unit column: one scale from 1e-300 to 1e300 times multipliers in [-10, 10]
_unit_columns = st.tuples(
    st.integers(-300, 300),
    st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12),
).map(lambda c: ([10.0 ** c[0] * m for m in c[1]], False))
_bounded_columns = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).map(
    lambda values: (values, True)
)


def _half_unit(field: str) -> float:
    """Half a unit of the field's last printed digit."""
    exponent = int(field.split("e")[1]) if "e" in field else 0
    return 0.5 * 10.0 ** (exponent - 6)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_unit_columns, _bounded_columns), min_size=1, max_size=4))
def test_every_field_is_within_half_a_unit_of_its_last_digit(columns):
    rows = min(len(values) for values, _ in columns)
    columns = [(np.array(values[:rows]), bounded) for values, bounded in columns]
    text = b"".join(_fmt6_blocks(*columns)).decode("ascii")
    fields = np.array([line.split(",") for line in text.splitlines()]).T
    for (values, bounded), printed in zip(columns, fields):
        assert len({"e" in field for field in printed}) == 1  # one format a column
        assert not (bounded and "e" in printed[0])
        for x, field in zip(values, printed):
            back = float(field)
            assert abs(back - x) <= _half_unit(field) + np.spacing(abs(x)), (x, field)
            if "e" in field:
                assert (back == 0.0) == (x == 0.0), (x, field)
        big = np.abs(values).max()
        if not bounded and big:
            # the column's largest value never prints as zero
            assert float(printed[np.abs(values).argmax()]) != 0.0


_couplings = st.tuples(
    st.floats(0.1, 100.0), *[st.floats(0.0, 100.0)] * 4
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_couplings)
def test_every_bell_label_spectrum_prints_reads_back(values):
    flags = [f"--{key}={value!r}" for key, value in zip(("j", "d1", "d2", "e1", "e2"), values)]
    config = build_config(build_parser().parse_args(["spectrum", *flags]))
    rows = render_spectrum(config).decode("ascii").splitlines()[-4:]
    for label in (row.split(",")[3] for row in rows):
        name = BELL_LABELS[BELL_DISPLAY.index(label)]
        assert np.array_equal(basis_state(label).amplitudes, basis_state(name).amplitudes)
        argv = ["dynamics", f"--init={label}"]
        assert build_config(build_parser().parse_args(argv)).init == name
