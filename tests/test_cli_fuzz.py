"""Fuzz of the command line over extreme and malformed values.

Every argv must end in a documented exit code (0, 2, 3 or 4) without a
traceback and without any warning.  Grids and time steps stay small so
that each example runs in milliseconds.  Skipped without hypothesis.
"""

import contextlib
import io
import warnings

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmol.cli import main  # noqa: E402

_EDGE_NUMBERS = (
    "0", "-0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-300",
    "-1e-300", "1e300", "-1e300", "1.7e308", "-1.7e308", "inf", "-inf", "nan",
    "1e15", "0.433013", "25", "-25", "1", "abc", "",
)
_ordinary = st.sampled_from(["0", "0.5", "1", "3", "25", "-2"])
# half ordinary values, so that many runs get past the input checks
_number = st.one_of(
    _ordinary, _ordinary, st.sampled_from(_EDGE_NUMBERS), st.floats().map(repr)
)
_count = st.one_of(st.integers(2, 40).map(str), st.sampled_from(["1", "1.5", "x"]))
_steps = st.one_of(st.integers(2, 50).map(str), st.sampled_from(["1", "2.5", "x"]))
_grid_ends = st.one_of(
    st.sampled_from(["-1:1", "0:1", "-25:25"]),
    st.builds("{}:{}".format, _number, _number),
)
# ratio and d1/d2 conflict, so most draws give one or the other
_TUNNELING = ([], ["ratio"], ["ratio"], ["d1"], ["d1", "d2"], ["ratio", "d2"])


def _flags(draw) -> list[str]:
    chosen = draw(st.lists(st.sampled_from(["j", "e1", "e2"]), unique=True))
    chosen += draw(st.sampled_from(_TUNNELING))
    return [f"--{name}={draw(_number)}" for name in chosen]


@st.composite
def _argv(draw) -> list[str]:
    command = draw(
        st.sampled_from(
            ["spectrum", "dynamics", "eigen", "tunneling-dynamics",
             "detuning-dynamics", "bell-times"]
        )
    )
    argv = _flags(draw)
    timing = ["--tmax=" + draw(_number), "--steps=" + draw(_steps)]
    init = ["--init=" + draw(st.sampled_from(["RL", "LL", "PsiPlus", "XX"]))]
    if command == "spectrum":
        return ["spectrum"] + argv
    if command == "dynamics":
        return ["dynamics"] + argv + draw(st.sampled_from([[], init])) + timing
    if command == "bell-times":
        small = st.one_of(st.integers(1, 30).map(str), st.sampled_from(["0", "x"]))
        return ["bell-times", "--n=" + draw(small), "--m=" + draw(small)] + argv
    argv = ["sweep", command] + argv + [f"--grid={draw(_grid_ends)}:{draw(_count)}"]
    if command == "eigen":
        return argv + ["--state=" + draw(st.sampled_from(["0", "3", "4", "x"]))]
    argv += timing
    if command == "detuning-dynamics":
        argv.append("--sign=" + draw(st.sampled_from(["1", "-1", "2"])))
    return argv


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_argv())
def test_cli_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
