"""Fuzz of the library's float parameters with hostile scalars.

Every public call that takes an energy, a time, a ratio or an axis
endpoint must end in a result or a QmolError, without a warning, whatever
scalar it is given: strings, bools, complex numbers, None, NaN, infinities,
integers beyond the double range, -0.0 and subnormals among them.  A numpy
scalar must give the bytes of the equal Python float.  Grids and time
steps stay small so that each example runs in milliseconds.  Skipped
without hypothesis.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmol import (  # noqa: E402
    Axis,
    QmolError,
    StateVector,
    SweepGrid,
    SystemParams,
    Trajectory,
    analytic_populations,
    basis_state,
    bell_condition,
    dynamics_detuning_map,
    dynamics_tunneling_map,
    eigen_concurrence_map,
    propagate,
    propagate_rk4,
    trajectory,
)

_P = SystemParams(delta1=1.5, delta2=1.5, j=25.0)  # resonant, equal tunnelings
_PSI = basis_state("RL")

#: Each entry point, as a function of its float parameters only.
_CALLS = {
    "SystemParams": lambda e1, e2, d1, d2, j: SystemParams(e1, e2, d1, d2, j),
    "from_ratio": lambda ratio, j: SystemParams.from_ratio(ratio, j),
    "Axis": lambda lo, hi: Axis("x", lo, hi, 3, ""),
    "propagate": lambda t: propagate(_P, _PSI, t),
    "propagate_rk4": lambda t, step: propagate_rk4(_P, _PSI, t, step),
    "trajectory": lambda t_max: trajectory(_P, _PSI, t_max, 3),
    "analytic_populations": lambda t: analytic_populations(_P, t),
    "bell_condition": lambda j: bell_condition(2, 1, j),
    "eigen_concurrence_map": lambda lo, hi: eigen_concurrence_map(_P, 1, lo, hi, 3),
    "dynamics_tunneling_map": lambda t_max, lo, hi: dynamics_tunneling_map(
        SystemParams(), t_max, 3, lo, hi, 3, _PSI
    ),
    "dynamics_detuning_map": lambda t_max, lo, hi: dynamics_detuning_map(
        _P, t_max, 3, lo, hi, 3, _PSI, 1
    ),
}

_HOSTILE = (
    "1", "nan", "", True, False, 1j, 1 + 0j, None, float("nan"), float("inf"),
    -float("inf"), 10**400, -(10**400), -0.0, 5e-324, -5e-324,
)
_ORDINARY = (0.0, 0.5, 1.0, 3, 25.0, -2.0, 1e-300, 1e300)
# values float32 holds without an overflow warning
_NUMPY = (
    [np.float32(v) for v in (0.0, 0.5, 1.0, 25.0, -2.0, -0.0, float("nan"), float("inf"))]
    + [np.float64(v) for v in _ORDINARY + (-0.0, 5e-324, float("nan"))]
    + [np.int64(v) for v in (0, 1, 3, 25, -2)]
)
_scalar = st.one_of(
    st.sampled_from(_ORDINARY), st.sampled_from(_ORDINARY),
    st.sampled_from(_HOSTILE), st.sampled_from(_NUMPY), st.floats(),
)


@st.composite
def _call(draw):
    name = draw(st.sampled_from(sorted(_CALLS)))
    arity = _CALLS[name].__code__.co_argcount
    return name, draw(st.lists(_scalar, min_size=arity, max_size=arity))


def _outcome(name: str, args: list):
    """The result's bytes, or the QmolError subclass the call raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = _CALLS[name](*args)
        except QmolError as exc:
            return type(exc)
    if isinstance(result, StateVector):
        return result.amplitudes.tobytes()
    if isinstance(result, Trajectory):
        return b"".join(
            a.tobytes()
            for a in (result.times, result.amplitudes, result.populations, result.concurrence)
        )
    if isinstance(result, SweepGrid):
        return result.values.tobytes() + repr((result.x_axis, result.y_axis)).encode()
    if isinstance(result, tuple):  # analytic_populations
        return b"".join(np.asarray(a).tobytes() for a in result)
    # SystemParams, Axis and BellCondition hold Python floats, whose repr is exact
    return repr(result).encode()


@settings(derandomize=True, max_examples=800, deadline=None)
@given(_call())
def test_float_parameters_end_in_a_result_or_a_qmol_error(call):
    name, args = call
    outcome = _outcome(name, args)
    if any(isinstance(a, np.generic) for a in args):
        python = [float(a) if isinstance(a, np.generic) else a for a in args]
        assert _outcome(name, python) == outcome, (name, args)
