"""Integer parameters: any integer type is taken as its value; the rest is InvalidInput.

Time steps, map counts, the Bell orders n and m and the eigenstate index
all pass one integer rule, so numpy's integers give the bits Python ints
give, and floats, bools and out-of-range values raise the typed error.
"""

import numpy as np
import pytest

from qmol.dynamics import bell_condition, trajectory
from qmol.errors import InvalidInput
from qmol.hamiltonian import SystemParams
from qmol.states import basis_state
from qmol.sweep import (
    Axis,
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
