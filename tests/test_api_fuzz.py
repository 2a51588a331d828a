"""Fuzz of the library's float parameters and array inputs with hostile values.

Every public call that takes an energy, a time, a ratio, a tolerance or an
axis endpoint must end in a result or a QmolError, without a warning,
whatever scalar it is given: strings, bools, complex numbers, None, NaN,
infinities, integers beyond the double range and past the digits Python
prints, -0.0 and subnormals among them.  A numpy scalar must give the
bytes of the equal Python float.  Every step count, state index, sign and
Bell order must do the same whatever integer it is given, up to 5 001 digits.
Every call that takes an array (amplitudes, 4x4 matrices, stacks, times,
map values and masks) or an initial state must do the same whatever array
it is given: wrong sizes and ranks, bools, strings, objects, None entries,
complex numbers where reals belong, NaN, infinities and ragged nesting.
A nested list must give the bytes of the equal array.  Grids and time
steps stay small so that each example runs in milliseconds.  Skipped
without hypothesis.
"""

import warnings
from dataclasses import fields, is_dataclass
from math import prod

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
    classify_resonance,
    concurrence,
    concurrence_pure,
    dynamics_detuning_map,
    dynamics_tunneling_map,
    eigen_concurrence_map,
    hermitian_eigensolve,
    propagate,
    propagate_rk4,
    spin_flip,
    trajectory,
)
from qmol.linalg import (  # noqa: E402
    _hermitian_eigenvalues,
    expectation,
    symmetric_eigensolve_batch,
)
from qmol.serialize import pgm_bytes  # noqa: E402

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
    "classify_resonance": lambda tol: classify_resonance(_P, tol),
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
    -float("inf"), 10**400, -(10**400), 10**5000, -(10**5000), -0.0, 5e-324, -5e-324,
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


#: Each entry point, as a function of one of its integer parameters.
_INT_CALLS = {
    "trajectory steps": lambda n: trajectory(_P, _PSI, 0.5, n),
    "Axis count": lambda n: Axis("x", 0.0, 1.0, n, ""),
    "eigen_concurrence_map state_index": lambda n: eigen_concurrence_map(_P, n, eps_steps=3),
    "eigen_concurrence_map eps_steps": lambda n: eigen_concurrence_map(_P, 1, eps_steps=n),
    "dynamics_tunneling_map t_steps": lambda n: dynamics_tunneling_map(
        SystemParams(), 0.5, n, 0.0, 1.0, 3, _PSI
    ),
    "dynamics_tunneling_map ratio_steps": lambda n: dynamics_tunneling_map(
        SystemParams(), 0.5, 3, 0.0, 1.0, n, _PSI
    ),
    "dynamics_detuning_map t_steps": lambda n: dynamics_detuning_map(
        _P, 0.5, n, -1.0, 1.0, 3, _PSI, 1
    ),
    "dynamics_detuning_map eps_steps": lambda n: dynamics_detuning_map(
        _P, 0.5, 3, -1.0, 1.0, n, _PSI, 1
    ),
    "dynamics_detuning_map sign": lambda n: dynamics_detuning_map(
        _P, 0.5, 3, -1.0, 1.0, 3, _PSI, n
    ),
    "bell_condition n": lambda n: bell_condition(n, 1),
    "bell_condition m": lambda m: bell_condition(2, m),
    "bell_condition n = m": lambda n: bell_condition(n, n),
}
#: Integers at and past the double range, and past the digits Python prints.
_HUGE_INTS = [
    s * (2**k + d) for s in (1, -1) for k in range(1020, 1025) for d in (-1, 0, 1)
] + [10**4300, 10**5000, -(10**5000), 10**5000 + 1, -(10**5000 + 1)]
_int = st.one_of(
    st.sampled_from((-2, -1, 0, 1, 2, 3, 5)),
    st.sampled_from([np.int64(v) for v in (-1, 0, 1, 3)]),
    st.sampled_from(_HUGE_INTS),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_INT_CALLS)), _int)
def test_integer_parameters_end_in_a_result_or_a_qmol_error(name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _INT_CALLS[name](value)
        except QmolError:
            pass


_AXIS = Axis("x", 0.0, 1.0, 3, "")

#: Each entry point, as a function of one array input (the others fixed),
#: with the shape that input takes.
_ARRAY_CALLS = {
    "StateVector": ((4,), StateVector),
    "concurrence_pure": ((4,), concurrence_pure),
    "concurrence": ((4, 4), concurrence),
    "spin_flip": ((4, 4), spin_flip),
    "hermitian_eigensolve": ((4, 4), hermitian_eigensolve),
    "_hermitian_eigenvalues": ((4, 4), _hermitian_eigenvalues),
    "symmetric_eigensolve_batch": ((2, 4, 4), symmetric_eigensolve_batch),
    "expectation m": ((4, 4), lambda m: expectation(m, [0.6, 0.0, 0.0, 0.8j])),
    "expectation psi": ((4,), lambda psi: expectation(np.diag([1.0, 2.0, 3.0, 4.0]), psi)),
    "analytic_populations": ((3,), lambda t: analytic_populations(_P, t)),
    "pgm_bytes": ((3, 3), pgm_bytes),
    "SweepGrid values": ((3, 3), lambda values: SweepGrid(_AXIS, _AXIS, values)),
    "SweepGrid mask": ((3, 3), lambda mask: SweepGrid(_AXIS, _AXIS, np.zeros((3, 3)), mask)),
    "propagate psi0": ((4,), lambda psi0: propagate(_P, psi0, 0.5)),
    "propagate_rk4 psi0": ((4,), lambda psi0: propagate_rk4(_P, psi0, 0.01)),
    "trajectory psi0": ((4,), lambda psi0: trajectory(_P, psi0, 0.5, 3)),
    "dynamics_tunneling_map psi0": (
        (4,), lambda psi0: dynamics_tunneling_map(SystemParams(), 0.5, 3, 0.0, 1.0, 3, psi0)
    ),
    "dynamics_detuning_map psi0": (
        (4,), lambda psi0: dynamics_detuning_map(_P, 0.5, 3, -1.0, 1.0, 3, psi0, 1)
    ),
}

_NAN, _INF = float("nan"), float("inf")
_SHAPES = ((), (3,), (4,), (5,), (1, 4), (2, 2), (3, 3), (4, 4), (4, 4, 1), (0, 4, 4), (2, 4, 4))
#: The entries drawn for each dtype; float32 and complex64 stay in their range.
_ENTRIES = {
    "float64": (0.0, -0.0, 0.25, 0.5, 0.6, 0.8, 1.0, -0.5, 1.7e308, -1.7e308, 5e-324),
    "float32": (0.0, 0.25, 0.5, 0.6, 0.8, 1.0, -0.5),
    "int64": (0, 1, -1, 2),
    "uint8": (0, 1, 2),
    "complex128": (0j, 1 + 0j, 0.6j, 0.8 + 0j, 0.5 - 0.5j, 1e300j, -1.7e308 + 0j),
    "complex64": (0j, 1 + 0j, 0.6j, 0.8 + 0j, 0.5 - 0.5j),
    "bool": (True, False),
    "<U3": ("1", "0", "0.5", "a", "nan"),
    "object": (None, 0.0, 1.0, 0.5j, "a"),
}
#: Entries that, one to an array, make half the drawn float arrays non-finite.
_NON_FINITE = {
    "float64": (_NAN, _INF, -_INF),
    "float32": (_NAN, _INF),
    "complex128": (complex(_NAN, 0.0), complex(0.0, _INF)),
}
#: Inputs that some entry points accept, so that results are compared too.
_ACCEPTED = (
    np.eye(4) / 4.0,
    np.diag([0.5, 0.0, 0.0, 0.5]),
    np.full((4, 4), 0.25),
    np.diag([1, 0, 0, 0]),
    np.array([0.6, 0.0, 0.0, 0.8j]),
    np.array([[0.6, 0.0], [0.0, 0.8]], dtype=np.float32),
    np.array([0, 1, 0, 0], dtype=np.int8),
    np.diag([1.0, -2.0, 3.0, 0.5])[None],
    np.stack([np.eye(4), np.ones((4, 4))]),
    np.linspace(0.0, 0.5, 5),
    np.zeros((3, 3), dtype=np.float32),
    np.eye(3, dtype=bool),
    np.array([[0.0, 0.5, 1.0]] * 3),
    np.float64(0.25),
)
#: Nested lists of unequal lengths, and values no array holds.
_RAGGED = (
    [[0.6, 0.0], [0.8]],
    [[0.25] * 4] * 3 + [[0.25] * 3],
    [0.6, [0.0, 0.0], 0.8],
    [None, 1.0, 0.0, 0.0],
    None,
    "RL",
    basis_state("RL").to_bell(),
)


@st.composite
def _array_call(draw):
    """An entry point's name and a value for its array input, of its own shape half the time."""
    name = draw(st.sampled_from(sorted(_ARRAY_CALLS)))
    return name, draw(_array(_ARRAY_CALLS[name][0]))


@st.composite
def _array(draw, natural):
    which = draw(st.sampled_from(("drawn", "drawn", "accepted", "accepted", "ragged")))
    if which == "accepted":
        return np.array(draw(st.sampled_from(_ACCEPTED)))  # a fresh copy
    if which == "ragged":
        return draw(st.sampled_from(_RAGGED))
    dtype = draw(st.sampled_from(sorted(_ENTRIES)))
    shape = draw(st.sampled_from((natural,) * len(_SHAPES) + _SHAPES))
    size = prod(shape)
    entries = draw(st.lists(st.sampled_from(_ENTRIES[dtype]), min_size=size, max_size=size))
    if dtype in _NON_FINITE and size and draw(st.booleans()):
        entries[draw(st.integers(0, size - 1))] = draw(st.sampled_from(_NON_FINITE[dtype]))
    a = np.empty(size, dtype=dtype)
    a[:] = entries
    return a.reshape(shape)


def _bytes(result) -> bytes:
    """The bytes of every array and number a result holds, with dtypes and shapes."""
    if isinstance(result, np.ndarray):
        return f"{result.dtype.str}{result.shape}".encode() + result.tobytes()
    if is_dataclass(result):
        return _bytes(tuple(getattr(result, f.name) for f in fields(result)))
    if isinstance(result, (tuple, list)):
        return b"(" + b",".join(map(_bytes, result)) + b")"
    return result if isinstance(result, bytes) else repr(result).encode()


def _array_outcome(name: str, value):
    """The result's bytes, or the QmolError subclass the call raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return _bytes(_ARRAY_CALLS[name][1](value))
        except QmolError as exc:
            return type(exc)


@settings(derandomize=True, max_examples=1200, deadline=None)
@given(_array_call())
def test_array_inputs_end_in_a_result_or_a_qmol_error(call):
    name, value = call
    outcome = _array_outcome(name, value)
    # an empty array's list, [], has lost its shape
    if isinstance(value, np.ndarray) and value.dtype.kind in "iufc" and value.size:
        assert _array_outcome(name, value.tolist()) == outcome, (name, value)
