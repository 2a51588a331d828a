"""Scalar parameters: any integer or real type is its value; the rest is InvalidInput.

Time steps, map counts, the Bell orders n and m and the eigenstate index
all pass one integer rule, so numpy's integers give the bits Python ints
give, and floats, bools and out-of-range values raise the typed error.
Energies, times, ratios and axis endpoints pass one float rule, so
strings, bools, complex numbers, None and values beyond the double range
raise the typed error too.
Array inputs (amplitudes, 4x4 matrices, stacks, times, map values and
masks) pass one array rule, so a wrong size, a bool, string or object
array, or a NaN where finiteness is checked raises the site's typed
error, and an initial state that is no StateVector, parameters that are
no SystemParams or axes that are no Axis raise InvalidInput.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from qmol.dynamics import (
    Trajectory,
    analytic_populations,
    bell_condition,
    propagate,
    propagate_rk4,
    trajectory,
)
from qmol.entanglement import concurrence, concurrence_pure, spin_flip
from qmol.errors import (
    InvalidDensityMatrix,
    InvalidInput,
    NoRealSolution,
    NonHermitianInput,
    NotNormalized,
    NumericOverflow,
    QmolError,
)
from qmol.hamiltonian import SystemParams, build_bell, build_positional
from qmol.linalg import expectation, hermitian_eigensolve, symmetric_eigensolve_batch
from qmol.serialize import pgm_bytes
from qmol.spectrum import classify_resonance, eigensystem, resonant_solution
from qmol.states import StateVector, basis_state
from qmol.sweep import (
    Axis,
    SweepGrid,
    dynamics_detuning_map,
    dynamics_tunneling_map,
    eigen_concurrence_map,
)

_TUNNELED = SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0)


def _runs(i):
    """Each entry point taking integers, called with the integer type i."""
    traj = trajectory(_TUNNELED, basis_state("RL"), 0.5, i(5))
    eigen = eigen_concurrence_map(_TUNNELED, i(1), eps_steps=i(5))
    return [
        traj.times, traj.amplitudes, traj.populations, traj.concurrence,
        eigen.values, eigen.degenerate_mask,
        dynamics_tunneling_map(
            SystemParams(j=25.0), 0.5, i(6), 0.0, 1.0, i(4), basis_state("RL")
        ).values,
        dynamics_detuning_map(_TUNNELED, 0.5, i(6), -5.0, 5.0, i(4), basis_state("LR"), -1).values,
    ]


@pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
def test_numpy_integer_counts_give_the_bits_of_python_ints(integer):
    for got, expected in zip(_runs(integer), _runs(int), strict=True):
        assert got.tobytes() == expected.tobytes()
    assert bell_condition(integer(2), integer(1)) == bell_condition(2, 1)
    assert type(bell_condition(integer(2), integer(1)).n) is int
    assert type(Axis("x", 0.0, 1.0, integer(3), "").count) is int


@pytest.mark.parametrize("index", [1.0, True, 4, np.float64(1.0)])
def test_state_index_outside_the_integers_0_to_3_is_invalid_input(index):
    with pytest.raises(InvalidInput, match=r"^state_index must be 0\.\.3, got "):
        eigen_concurrence_map(_TUNNELED, index, eps_steps=3)


@pytest.mark.parametrize("steps", [2.0, True, np.float64(5.0)])
def test_steps_that_are_no_integer_of_at_least_2_are_invalid_input(steps):
    with pytest.raises(InvalidInput, match=r"^steps must be an integer >= 2, got "):
        trajectory(_TUNNELED, basis_state("RL"), 1.0, steps)


@pytest.mark.parametrize(
    "t_max, t_steps, message",
    [
        (1.0, 1, r"^steps must be an integer >= 2, got 1$"),
        (1.0, 2.0, r"^steps must be an integer >= 2, got 2\.0$"),
        (1.0, True, r"^steps must be an integer >= 2, got True$"),
        (0.0, 3, r"^tmax must be positive and finite, got 0\.0$"),
        (-1.0, 3, r"^tmax must be positive and finite, got -1\.0$"),
        (float("inf"), 3, r"^tmax must be positive and finite, got inf$"),
        ("1", 3, r"^tmax must be positive and finite, got '1'$"),
    ],
    ids=["steps=1", "steps=2.0", "steps=True", "tmax=0", "tmax=-1", "tmax=inf", "tmax='1'"],
)
@pytest.mark.parametrize(
    "dynamics_map",
    [
        lambda t_max, t_steps: dynamics_tunneling_map(
            SystemParams(j=25.0), t_max, t_steps, 0.0, 1.0, 2, basis_state("RL")
        ),
        lambda t_max, t_steps: dynamics_detuning_map(
            _TUNNELED, t_max, t_steps, -1.0, 1.0, 2, basis_state("RL"), 1
        ),
    ],
    ids=["tunneling", "detuning"],
)
def test_dynamics_maps_check_their_time_grid_as_trajectory_does(
    dynamics_map, t_max, t_steps, message
):
    with pytest.raises(InvalidInput, match=message):
        dynamics_map(t_max, t_steps)
    with pytest.raises(InvalidInput, match=message):
        trajectory(_TUNNELED, basis_state("RL"), t_max, t_steps)


@pytest.mark.parametrize("n, m", [(True, 1), (1, True), (np.int64(1), 0)])
def test_bell_orders_that_are_no_positive_integers_are_invalid_input(n, m):
    with pytest.raises(InvalidInput, match=r"^[nm] must be an integer >= 1, got "):
        bell_condition(n, m)


@pytest.mark.parametrize(
    "call",
    [
        lambda: trajectory(_TUNNELED, basis_state("RL"), 1.0, 2**24 + 1),
        lambda: eigen_concurrence_map(_TUNNELED, 0, eps_steps=4097),
        lambda: dynamics_tunneling_map(
            SystemParams(j=25.0), 1.0, 2**23 + 1, 0.0, 1.0, 2, basis_state("RL")
        ),
        lambda: dynamics_detuning_map(
            _TUNNELED, 1.0, 2**23, -1.0, 1.0, np.int64(3), basis_state("RL"), 1
        ),
    ],
)
def test_outputs_beyond_2_to_the_24_values_are_invalid_input(call):
    with pytest.raises(InvalidInput, match=r"exceeds the limit of 2\*\*24 = 16777216 values$"):
        call()


_PSI = basis_state("RL")


@pytest.mark.parametrize(
    "call",
    [
        lambda: SystemParams(j="25"),
        lambda: SystemParams(j=None),
        lambda: SystemParams(j=10**400),
        lambda: SystemParams(delta1=True),
        lambda: SystemParams(eps1=1j),
        lambda: SystemParams.from_ratio("0.1"),
        lambda: SystemParams.from_ratio(0.1, j=True),
        lambda: trajectory(_TUNNELED, _PSI, "1", 3),
        lambda: Axis("x", 0.0, "1", 3, ""),
        lambda: Axis("x", None, 1.0, 3, ""),
        lambda: propagate_rk4(_TUNNELED, _PSI, 0.1, step="a"),
        lambda: propagate_rk4(_TUNNELED, _PSI, 0.1, step=float("inf")),
        lambda: propagate_rk4(_TUNNELED, _PSI, True),
        lambda: eigen_concurrence_map(_TUNNELED, 1, "a", 1.0, 3),
        lambda: eigen_concurrence_map(_TUNNELED, 1, 10**400, 1.0, 3),
        lambda: propagate(_TUNNELED, _PSI, "1"),
        lambda: propagate(_TUNNELED, _PSI, True),
        lambda: propagate(_TUNNELED, _PSI, 10**400),
        lambda: analytic_populations(_TUNNELED, "1"),
        lambda: analytic_populations(_TUNNELED, True),
        lambda: analytic_populations(_TUNNELED, 1j),
        lambda: analytic_populations(_TUNNELED, [0.0, None]),
        lambda: analytic_populations(_TUNNELED, 10**400),
        lambda: bell_condition(1, 1, "25"),
        lambda: bell_condition(1, 1, True),
        lambda: dynamics_tunneling_map(SystemParams(), "1", 3, 0.0, 1.0, 3, _PSI),
        lambda: dynamics_tunneling_map(SystemParams(), 1.0, 3, 0.0, True, 3, _PSI),
        lambda: dynamics_detuning_map(_TUNNELED, 1.0, 3, -1.0, "1", 3, _PSI, 1),
    ],
)
def test_scalars_that_are_no_finite_real_numbers_are_invalid_input(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput):
            call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SystemParams(j="25"), "j must be positive and finite, got '25'"),
        (lambda: SystemParams(delta1=True), "delta1 must be finite, got True"),
        (lambda: Axis("x", 0.0, "1", 3, ""), "axis 'x' maximum must be finite, got '1'"),
        (lambda: propagate(_TUNNELED, _PSI, None), "t must be nonnegative and finite, got None"),
        (lambda: analytic_populations(_TUNNELED, "1"), "times must be finite"),
    ],
)
def test_the_float_rule_names_the_parameter_and_the_value(call, message):
    with pytest.raises(InvalidInput) as info:
        call()
    assert str(info.value) == message


_BIG = 10**5000  # past the 4300 digits Python prints of an int by default


@pytest.mark.parametrize(
    "call, error, shown",
    [
        (lambda: trajectory(_TUNNELED, _PSI, 1.0, _BIG), InvalidInput, "an integer of 5001"),
        (lambda: eigen_concurrence_map(_TUNNELED, 1, eps_steps=_BIG), InvalidInput, "digits x"),
        (lambda: eigen_concurrence_map(_TUNNELED, _BIG), InvalidInput, "an integer of 5001"),
        (lambda: bell_condition(-_BIG, 1), InvalidInput, "a negative integer of 5001"),
        (lambda: bell_condition(1, _BIG + 1), NoRealSolution, "m=an integer of 5001"),
        (lambda: bell_condition(1, _BIG), InvalidInput, "m must be odd, got an integer of 5001"),
        (lambda: SystemParams(j=_BIG), InvalidInput, "finite, got an integer of 5001 digits"),
        (lambda: SystemParams(j=-_BIG), InvalidInput, "got a negative integer of 5001"),
        (lambda: propagate(_TUNNELED, _PSI, _BIG), InvalidInput, "an integer of 5001"),
        (lambda: propagate(_TUNNELED, _PSI, Fraction(_BIG, 3)), InvalidInput, "Fraction too long"),
        (
            lambda: dynamics_detuning_map(_TUNNELED, 1.0, 3, -1.0, 1.0, -_BIG, _PSI, 1),
            InvalidInput,
            "eps1' count must be an integer >= 2, got a negative integer of 5001 digits",
        ),
    ],
)
def test_integers_python_does_not_print_end_in_the_typed_error(call, error, shown):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert shown in str(info.value)


@pytest.mark.parametrize("sign", [True, 1.0, np.float64(-1.0), 0, 2])
def test_detuning_map_sign_that_is_no_integer_plus_or_minus_1_is_invalid_input(sign):
    with pytest.raises(InvalidInput, match=r"^sign must be "):
        dynamics_detuning_map(_TUNNELED, 1.0, 3, -1.0, 1.0, 3, _PSI, sign)


def _float_runs(x):
    """Each entry point taking floats, called with the real type x."""
    p = SystemParams(x(0.5), x(-0.25), x(1.5), x(1.5), x(25.0))
    traj = trajectory(p, _PSI, x(0.5), 5)
    return [
        traj.amplitudes,
        propagate(p, _PSI, x(0.25)).amplitudes,
        propagate_rk4(p, _PSI, x(0.25), step=x(0.125)).amplitudes,
        np.array(analytic_populations(_TUNNELED, x(0.75))),
        eigen_concurrence_map(p, 1, x(-2.0), x(2.0), 4).values,
        dynamics_tunneling_map(
            SystemParams(j=x(25.0)), x(0.5), 4, x(0.0), x(1.0), 3, _PSI
        ).values,
        dynamics_detuning_map(p, x(0.5), 4, x(-5.0), x(5.0), 3, _PSI, -1).values,
        np.array([bell_condition(2, 1, x(25.0)).t_e]),
    ]


# every value passed is exact in float32, so real(x) equals x
@pytest.mark.parametrize("real", [np.float64, np.float32])
def test_numpy_real_scalars_give_the_bits_of_python_floats(real):
    for got, expected in zip(_float_runs(real), _float_runs(float), strict=True):
        assert got.tobytes() == expected.tobytes()


_AX = Axis("x", 0, 1, 3, "")
_RL = np.array([0.0, 0.0, 1.0, 0.0])
# a stack whose asymmetry, h[0, 0, 1] - h[0, 1, 0], overflows
_ASYMMETRIC_HUGE = np.zeros((1, 4, 4))
_ASYMMETRIC_HUGE[0, 0, 1], _ASYMMETRIC_HUGE[0, 1, 0] = 1.7e308, -1.7e308


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: StateVector(np.zeros(5)), InvalidInput),
        (lambda: StateVector(None), InvalidInput),
        (lambda: StateVector("abcd"), InvalidInput),
        (lambda: StateVector(["1", "0", "0", "0"]), InvalidInput),
        (lambda: StateVector([True, False, False, False]), InvalidInput),
        (lambda: StateVector([[1.0, 0.0], [0.0]]), InvalidInput),
        (lambda: StateVector(_RL, "positional"), InvalidInput),
        (lambda: spin_flip(np.eye(3)), InvalidInput),
        (lambda: spin_flip("x"), InvalidInput),
        (lambda: spin_flip(np.diag([np.inf * 1j, 0.0, 0.0, 0.0])), InvalidInput),
        (lambda: concurrence("x"), InvalidDensityMatrix),
        (lambda: concurrence_pure("abcd"), NotNormalized),
        (lambda: hermitian_eigensolve("x"), NonHermitianInput),
        (lambda: symmetric_eigensolve_batch(np.full((1, 4, 4), "a")), NonHermitianInput),
        (lambda: expectation(np.eye(3), _RL), InvalidInput),
        (lambda: expectation(np.eye(4), [np.nan, 0.0, 0.0, 1.0]), InvalidInput),
        (lambda: expectation(np.full((4, 4), 1e300), [1e10, 0.0, 0.0, 0.0]), NumericOverflow),
        (lambda: symmetric_eigensolve_batch(_ASYMMETRIC_HUGE), NonHermitianInput),
        (lambda: pgm_bytes(np.zeros(3)), InvalidInput),
        (lambda: pgm_bytes([["a"]]), InvalidInput),
        (lambda: pgm_bytes(np.full((2, 2), np.nan)), InvalidInput),
        (lambda: SweepGrid(_AX, _AX, np.zeros((2, 3))), InvalidInput),
        (lambda: SweepGrid(_AX, _AX, [[0] * 3] * 3, np.zeros((3, 3))), InvalidInput),
        (lambda: propagate(_TUNNELED, [1, 0, 0, 0], 1.0), InvalidInput),
        (lambda: propagate_rk4(_TUNNELED, _RL, 1.0), InvalidInput),
        (lambda: trajectory(_TUNNELED, np.array([1, 0, 0, 0]), 1.0, 3), InvalidInput),
        (lambda: dynamics_tunneling_map(SystemParams(), 1.0, 3, 0.0, 1.0, 3, "RL"), InvalidInput),
        (lambda: dynamics_detuning_map(_TUNNELED, 1.0, 3, -1.0, 1.0, 3, None, 1), InvalidInput),
        (lambda: classify_resonance(_TUNNELED, tol="a"), InvalidInput),
        (lambda: classify_resonance(_TUNNELED, tol=float("nan")), InvalidInput),
        (lambda: classify_resonance(_TUNNELED, tol=-1.0), InvalidInput),
        (lambda: eigensystem(None), InvalidInput),
        (lambda: build_positional("x"), InvalidInput),
        (lambda: build_bell({"j": 25.0}), InvalidInput),
        (lambda: resonant_solution(None), InvalidInput),
        (lambda: classify_resonance(None), InvalidInput),
        (lambda: trajectory(None, basis_state("RL"), 1.0, 3), InvalidInput),
        (lambda: analytic_populations(None, 1.0), InvalidInput),
        (lambda: eigen_concurrence_map(None, 1), InvalidInput),
        (lambda: dynamics_tunneling_map(None, 1.0, 3, 0.0, 1.0, 3, basis_state("RL")), InvalidInput),
        (lambda: SweepGrid(None, None, [[0.0]]), InvalidInput),
        (lambda: SweepGrid(_AX, 3, [[0.0] * 3] * 3), InvalidInput),
        (lambda: basis_state("RL").overlap(None), InvalidInput),
    ],
)
def test_bad_arrays_states_and_tolerances_raise_the_sites_typed_error(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: spin_flip(np.eye(3)), "rho must be a 4x4 matrix, got shape (3, 3)"),
        (lambda: StateVector(np.zeros(5)), "amplitudes must have 4 elements, got shape (5,)"),
        (
            lambda: Trajectory([0.0, 1.0], np.zeros((2, 4)), [[1, 0, 0, 0]] * 2, [0.0] * 3),
            "concurrence must have 2 elements, got shape (3,)",
        ),
        (
            lambda: SweepGrid(_AX, _AX, np.zeros((2, 3))),
            "values must be a 3x3 matrix, got shape (2, 3)",
        ),
        (
            lambda: StateVector([True, False, False, False]),
            "amplitudes must be an array of numbers, got dtype bool",
        ),
        (
            lambda: symmetric_eigensolve_batch(np.zeros((2, 4, 4), dtype=complex)),
            "h must be an array of real numbers, got dtype complex128",
        ),
        (lambda: pgm_bytes(np.full((2, 2), np.inf)), "values must be finite"),
        (lambda: propagate(_TUNNELED, [1, 0, 0, 0], 1.0), "psi0 must be a StateVector, got list"),
        (lambda: eigensystem(None), "p must be a SystemParams, got NoneType"),
    ],
)
def test_the_array_rule_names_the_fault(call, message):
    with pytest.raises(QmolError) as info:
        call()
    assert str(info.value) == message


def test_array_inputs_of_any_integer_or_float_dtype_give_the_bits_of_float64():
    # |Phi+><Phi+|, exact in every dtype below, and twice it, exact in integers
    rho = np.array([[1.0, 0.0, 0.0, 1.0], [0.0] * 4, [0.0] * 4, [1.0, 0.0, 0.0, 1.0]]) / 2.0
    for same in (rho.astype(np.float32), rho.astype(np.float16), rho.tolist()):
        assert concurrence(same).lambdas.tobytes() == concurrence(rho).lambdas.tobytes()
        assert pgm_bytes(same) == pgm_bytes(rho)
    for same in ((2 * rho).astype(np.int64), (2 * rho).astype(np.uint8), (2 * rho).tolist()):
        assert spin_flip(same).tobytes() == spin_flip(2 * rho).tobytes()
        assert pgm_bytes(same) == pgm_bytes(2 * rho)
    times = np.array([0.0, 1.0, 2.0])
    for same in (times.astype(np.int64), times.astype(np.float32), times.tolist()):
        expected = np.array(analytic_populations(_TUNNELED, times))
        assert np.array(analytic_populations(_TUNNELED, same)).tobytes() == expected.tobytes()
