import numpy as np
import pytest

from qmol.dynamics import bell_condition
from qmol.errors import InvalidInput, NotResonant
from qmol.hamiltonian import SystemParams
from qmol.states import basis_state
from qmol.sweep import (
    Axis,
    dynamics_detuning_map,
    dynamics_tunneling_map,
    eigen_concurrence_map,
)


def test_axis_values():
    axis = Axis("eps1", -10.0, 10.0, 5, "ueV")
    assert np.array_equal(axis.values, [-10.0, -5.0, 0.0, 5.0, 10.0])


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("x", 0.0, 1.0, 1, "")
    with pytest.raises(ValueError):
        Axis("x", 1.0, 0.0, 5, "")
    with pytest.raises(ValueError):
        Axis("x", 0.0, 1.0, 4.5, "")


def test_eigen_map_defaults_span_coulomb_coupling():
    base = SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0)
    grid = eigen_concurrence_map(base, 1, eps_steps=5)
    assert grid.x_axis.minimum == -25.0 and grid.x_axis.maximum == 25.0
    assert grid.values.shape == (5, 5)


def test_eigen_map_diagonal_is_maximally_entangled():
    # equal detunings keep the singlet eigenstate exact, so state |1>
    # carries concurrence 1 all along eps2 = eps1
    base = SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0)
    grid = eigen_concurrence_map(base, 1, eps_steps=21)
    diag = np.diag(grid.values)
    assert diag.min() >= 1.0 - 1e-9


def test_eigen_map_antidiagonal_state_two():
    base = SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0)
    grid = eigen_concurrence_map(base, 2, eps_steps=21)
    anti = np.diag(grid.values[::-1])
    assert anti.min() >= 1.0 - 1e-9


def test_eigen_map_inversion_symmetry():
    """Flipping both detuning signs is a local operation, so the
    concurrence map is symmetric under inversion through the origin."""
    base = SystemParams(delta1=3.0, delta2=7.0, j=25.0)
    grid = eigen_concurrence_map(base, 0, eps_steps=9)
    assert np.abs(grid.values - grid.values[::-1, ::-1]).max() < 1e-10


def test_eigen_map_swap_covariance():
    # exchanging the two molecules swaps the axes and the tunnelings
    a = eigen_concurrence_map(SystemParams(delta1=3.0, delta2=7.0, j=25.0), 0, eps_steps=9)
    b = eigen_concurrence_map(SystemParams(delta1=7.0, delta2=3.0, j=25.0), 0, eps_steps=9)
    assert np.abs(a.values - b.values.T).max() < 1e-10


def test_eigen_map_degenerate_mask_zero_tunneling():
    base = SystemParams(j=25.0)
    grid = eigen_concurrence_map(base, 0, eps_steps=5)
    # with no tunneling the crossings happen where a detuning equals +-j/2;
    # the center point eps1 = eps2 = 0 is doubly degenerate in both pairs
    assert grid.degenerate_mask is not None
    assert grid.degenerate_mask[2, 2]
    assert grid.values[2, 2] == pytest.approx(0.0, abs=1e-9)


def test_eigen_map_rejects_bad_state_index():
    with pytest.raises(ValueError):
        eigen_concurrence_map(SystemParams(delta1=1.0, delta2=1.0), 4)


def test_tunneling_map_bell_row():
    bc = bell_condition(1, 1, 25.0)
    base = SystemParams(j=25.0)
    # put the Bell ratio exactly on the grid: (0, r, 2r) and t_e on the
    # time axis: 4 t_e over 5 points
    grid = dynamics_tunneling_map(
        base, 4.0 * bc.t_e, 5, 0.0, 2.0 * bc.ratio, 3, basis_state("RL")
    )
    assert grid.values.shape == (3, 5)
    row = grid.values[1]
    assert row[1] >= 1.0 - 1e-9  # t_e
    assert row[2] <= 1e-9  # 2 t_e, complete swap
    assert row[3] >= 1.0 - 1e-9  # 3 t_e
    assert abs(row[4]) <= 1e-9  # 4 t_e, full revival
    zero_row = grid.values[0]
    assert np.abs(zero_row).max() <= 1e-12  # no tunneling, no entanglement


def test_tunneling_map_requires_resonance():
    with pytest.raises(NotResonant):
        dynamics_tunneling_map(
            SystemParams(eps1=1.0), 1.0, 5, 0.0, 1.0, 3, basis_state("RL")
        )


def test_tunneling_map_resonance_check_is_exact():
    # a detuning below classify_resonance's tolerance is still a detuning
    with pytest.raises(InvalidInput):
        dynamics_tunneling_map(
            SystemParams(eps2=1e-13), 1.0, 5, 0.0, 1.0, 3, basis_state("RL")
        )


def test_detuning_map_center_row_matches_resonant_dynamics():
    bc = bell_condition(1, 1, 25.0)
    base = bc.params()
    grid = dynamics_detuning_map(
        base, 4.0 * bc.t_e, 5, -10.0, 10.0, 5, basis_state("RL"), 1
    )
    center = grid.values[2]  # eps1 = 0
    assert center[1] >= 1.0 - 1e-9
    assert center[2] <= 1e-9


def test_detuning_map_mirror_symmetries():
    """Exchanging the molecules and relabeling L<->R on both at once maps
    (eps1, eps2) to (-eps2, -eps1) while sending |RL> back to itself, so
    the equal-detuning map from |RL> is symmetric under eps1 -> -eps1.
    Relabeling alone maps |RL> to |LR| and flips both detunings, which
    mirrors the opposite-detuning maps of the two preparations."""
    base = SystemParams.from_ratio(0.3, j=25.0)
    common = dict(t_max=1.0, t_steps=40, eps_min=-12.0, eps_max=12.0, eps_steps=7)
    plus_rl = dynamics_detuning_map(base, psi0=basis_state("RL"), sign=1, **common)
    assert np.abs(plus_rl.values - plus_rl.values[::-1]).max() < 1e-10
    minus_rl = dynamics_detuning_map(base, psi0=basis_state("RL"), sign=-1, **common)
    minus_lr = dynamics_detuning_map(base, psi0=basis_state("LR"), sign=-1, **common)
    assert np.abs(minus_rl.values - minus_lr.values[::-1]).max() < 1e-10


def test_detuning_map_requires_equal_tunnelings():
    base = SystemParams(delta1=1.0, delta2=2.0, j=25.0)
    with pytest.raises(ValueError):
        dynamics_detuning_map(base, 1.0, 5, -5.0, 5.0, 3, basis_state("RL"), 1)
    with pytest.raises(ValueError):
        dynamics_detuning_map(
            SystemParams.from_ratio(0.3), 1.0, 5, -5.0, 5.0, 3, basis_state("RL"), 2
        )


@pytest.mark.parametrize("label", ["LL", "LR", "RL", "RR"])
@pytest.mark.parametrize("sign", [1, -1])
def test_detuning_map_accepts_all_positional_preparations(label, sign):
    base = SystemParams.from_ratio(0.4330127018922193, j=25.0)
    grid = dynamics_detuning_map(
        base, 0.3, 4, -5.0, 5.0, 3, basis_state(label), sign
    )
    assert grid.values.shape == (3, 4)
    assert np.all((grid.values >= 0.0) & (grid.values <= 1.0))


def test_each_kind_repeats_bitwise():
    base = SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0)

    def maps():
        return (
            eigen_concurrence_map(base, 1, eps_steps=9),
            dynamics_tunneling_map(
                SystemParams(j=25.0), 0.5, 6, 0.0, 1.0, 4, basis_state("RL")
            ),
            dynamics_detuning_map(base, 0.5, 6, -5.0, 5.0, 4, basis_state("LR"), -1),
        )

    first, second = maps(), maps()
    for grid, again in zip(first, second):
        assert np.array_equal(grid.values, again.values)
    assert np.array_equal(first[0].degenerate_mask, second[0].degenerate_mask)


def test_grid_values_read_only():
    grid = eigen_concurrence_map(SystemParams(delta1=1.0, delta2=1.0), 0, eps_steps=3)
    with pytest.raises(ValueError):
        grid.values[0, 0] = 0.5


def test_grid_shape_validation():
    x = Axis("t", 0.0, 1.0, 3, "ns")
    y = Axis("r", 0.0, 1.0, 4, "")
    from qmol.sweep import SweepGrid

    with pytest.raises(ValueError):
        SweepGrid(x, y, np.zeros((3, 4)))  # must be (len(y), len(x))
