import re
import tracemalloc
from dataclasses import replace
from math import isqrt

import numpy as np
import pytest

from qmol import sweep
from qmol.dynamics import bell_condition, trajectory
from qmol.entanglement import concurrence_pure
from qmol.errors import ConvergenceError, InvalidInput, NonHermitianInput, NotResonant
from qmol.hamiltonian import SystemParams, build_positional
from qmol.linalg import hermitian_eigensolve
from qmol.states import BELL_LABELS, POSITIONAL_LABELS, basis_state
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


@pytest.mark.parametrize(
    "lo, hi", [(-1e308, 1e308), (0.0, float("inf")), (float("-inf"), 0.0)]
)
def test_axis_rejects_infinite_span(lo, hi):
    with pytest.raises(InvalidInput, match="axis 'eps2'.*finite"):
        Axis("eps2", lo, hi, 3, "ueV")


def reference_map(base, state_index, lo, hi, eps_steps):
    """The eigen map cell by cell: one scalar solve and concurrence_pure each."""
    eps = np.linspace(float(lo), float(hi), eps_steps)
    values = np.empty((eps_steps, eps_steps))
    mask = np.empty((eps_steps, eps_steps), dtype=bool)
    for iy, e2 in enumerate(eps):
        for ix, e1 in enumerate(eps):
            cell = replace(base, eps1=float(e1), eps2=float(e2))
            dec = hermitian_eigensolve(build_positional(cell))
            values[iy, ix] = concurrence_pure(dec.vectors[:, state_index])
            mask[iy, ix] = dec.degenerate_states[state_index]
    return values, mask


def orbit_sources(steps, symmetric, swap):
    """The flat index of each cell's source, cell by cell: its inversion
    mirror past the antidiagonal, then, with swap, the ordered pair."""
    sources = np.empty((steps, steps), dtype=int)
    for iy in range(steps):
        for ix in range(steps):
            sy, sx = iy, ix
            if symmetric and iy + ix > steps - 1:
                sy, sx = steps - 1 - iy, steps - 1 - ix
            if symmetric and swap:
                sy, sx = min(sy, sx), max(sy, sx)
            sources[iy, ix] = sy * steps + sx
    return sources.ravel()


def assert_matches_reference(base, state_index, eps_steps, lo=None, hi=None):
    """Solved cells have the scalar route's bits, every other cell its
    source's, and an unflagged copy lies within 1e-11 of its own solve."""
    lo, hi = (-base.j, base.j) if lo is None else (lo, hi)
    grid = eigen_concurrence_map(base, state_index, lo, hi, eps_steps)
    values, mask = (a.ravel() for a in reference_map(base, state_index, lo, hi, eps_steps))
    got_values, got_mask = grid.values.ravel(), grid.degenerate_mask.ravel()
    src = orbit_sources(eps_steps, float(lo) == -float(hi), base.delta1 == base.delta2)
    solved = src == np.arange(src.size)
    assert got_values[solved].tobytes() == values[solved].tobytes()
    assert np.array_equal(got_mask[solved], mask[solved])
    assert got_values.tobytes() == got_values[src].tobytes()
    assert np.array_equal(got_mask, got_mask[src])
    unflagged = ~solved & ~got_mask & ~mask
    assert np.abs(got_values - values)[unflagged].max(initial=0.0) < 1e-11
    return solved


TUNNELINGS = {
    "zero": SystemParams(j=25.0),
    "equal": SystemParams(delta1=5.0, delta2=5.0, j=25.0),
    "unequal": SystemParams(delta1=25.0 / 4, delta2=25.0 / 8, j=25.0),
}


@pytest.mark.parametrize("state_index", [0, 1, 2, 3])
@pytest.mark.parametrize("tunneling", sorted(TUNNELINGS))
def test_eigen_map_matches_per_cell_reference(tunneling, state_index):
    assert_matches_reference(TUNNELINGS[tunneling], state_index, 17)


def test_eigen_map_larger_than_one_block_matches_reference():
    # a grid that is not symmetric solves every cell, bit for bit
    steps = isqrt(sweep._BLOCK_CELLS) + 2
    assert steps * steps > sweep._BLOCK_CELLS
    solved = assert_matches_reference(TUNNELINGS["unequal"], 1, steps, -10.0, 30.0)
    assert solved.all()


@pytest.mark.parametrize("tunneling", ["equal", "unequal"])
def test_eigen_map_blocks_need_not_align_with_rows(monkeypatch, tunneling):
    monkeypatch.setattr(sweep, "_BLOCK_CELLS", 7)
    assert_matches_reference(TUNNELINGS[tunneling], 2, 9)


@pytest.mark.parametrize("lo, hi", [(-30.0, 30.0), (-10.0, 30.0), (-30.0, 7.5)])
@pytest.mark.parametrize("steps", [16, 17])
@pytest.mark.parametrize("tunneling", ["equal", "unequal"])
def test_eigen_map_orbits_on_odd_and_even_grids(tunneling, steps, lo, hi):
    solved = assert_matches_reference(TUNNELINGS[tunneling], 1, steps, lo, hi)
    assert solved.all() == (lo != -hi)


def test_eigen_map_copies_match_their_own_solves_on_random_maps():
    rng = np.random.default_rng(36)
    for _ in range(8):
        j = rng.uniform(5.0, 50.0)
        d1, d2 = rng.uniform(-j, j, 2)
        base = SystemParams(delta1=d1, delta2=d1 if rng.random() < 0.5 else d2, j=j)
        half = rng.uniform(0.1, 2.0) * j
        steps = int(rng.integers(9, 20))
        assert_matches_reference(base, int(rng.integers(4)), steps, -half, half)


def solved_cells(monkeypatch, *args):
    """How many cells `eigen_concurrence_map(*args)` hands to the batch solver."""
    solve, count = sweep.symmetric_eigensolve_batch, []

    def counted(h):
        count.append(len(h))
        return solve(h)

    monkeypatch.setattr(sweep, "symmetric_eigensolve_batch", counted)
    grid = eigen_concurrence_map(*args)
    monkeypatch.setattr(sweep, "symmetric_eigensolve_batch", solve)
    return grid, sum(count)


@pytest.mark.parametrize(
    "steps, lo, hi, equal_cells, unequal_cells",
    [
        # the quarter with iy <= ix and iy + ix <= n - 1, or the half with iy + ix <= n - 1
        (21, -20.0, 20.0, 11 * 11, 21 * 22 // 2),
        (20, -20.0, 20.0, 10 * 11, 20 * 21 // 2),
        (21, -20.0, 30.0, 21 * 21, 21 * 21),
    ],
)
def test_eigen_map_solves_one_cell_per_orbit(monkeypatch, steps, lo, hi, equal_cells, unequal_cells):
    for tunneling, cells in (("equal", equal_cells), ("unequal", unequal_cells)):
        _, solved = solved_cells(monkeypatch, TUNNELINGS[tunneling], 1, lo, hi, steps)
        assert solved == cells, tunneling


@pytest.mark.parametrize(
    "lo, hi",
    [
        (-20, 20),
        (np.int64(-20), np.float32(20.0)),
        (np.float64(-20.0), 20),
        # these integers differ, but both round to the double 2**53
        (-(2**53 + 1), 2**53),
    ],
)
def test_eigen_map_symmetry_test_reads_the_checked_floats(monkeypatch, lo, hi):
    base = TUNNELINGS["equal"]
    grid, solved = solved_cells(monkeypatch, base, 1, lo, hi, 21)
    plain, plain_solved = solved_cells(monkeypatch, base, 1, float(lo), float(hi), 21)
    assert solved == plain_solved == 11 * 11
    assert grid.values.tobytes() == plain.values.tobytes()
    assert np.array_equal(grid.degenerate_mask, plain.degenerate_mask)


def test_eigen_map_memory_is_bounded_by_the_block():
    # an unblocked solve of these 90 601 cells would need 11.6 MB for its
    # input stack alone; the outputs take 0.8 MB
    base = TUNNELINGS["equal"]
    tracemalloc.start()
    try:
        eigen_concurrence_map(base, 1, eps_steps=301)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("power", [1000, -1000])
def test_eigen_map_is_exact_under_power_of_two_scaling(power):
    base = SystemParams(delta1=3.0, delta2=7.0, j=25.0)
    scale = 2.0**power
    big = SystemParams(delta1=3.0 * scale, delta2=7.0 * scale, j=25.0 * scale)
    for state_index in range(4):
        plain = eigen_concurrence_map(base, state_index, -20.0, 20.0, 17)
        scaled = eigen_concurrence_map(
            big, state_index, -20.0 * scale, 20.0 * scale, 17
        )
        assert scaled.values.tobytes() == plain.values.tobytes()


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
    concurrence map is symmetric under inversion through the origin: the
    quadrant [-20, 0]^2, which the map solves, mirrors a map of [0, 20]^2,
    which is not symmetric and so solves every cell."""
    base = SystemParams(delta1=3.0, delta2=7.0, j=25.0)
    grid = eigen_concurrence_map(base, 0, eps_steps=9, eps_min=-20.0, eps_max=20.0)
    direct = eigen_concurrence_map(base, 0, eps_steps=5, eps_min=0.0, eps_max=20.0)
    assert np.abs(grid.values[:5, :5] - direct.values[::-1, ::-1]).max() < 1e-10


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


def reference_dynamics_map(kind, base, t_max, t_steps, lo, hi, steps, psi0, sign=1):
    """A dynamics map row by row: one scalar `trajectory` per row."""
    rows = []
    for y in np.linspace(lo, hi, steps):
        if kind == "tunneling":
            p = replace(base, delta1=float(y) * base.j, delta2=float(y) * base.j)
        else:
            p = replace(base, eps1=float(y), eps2=sign * float(y))
        rows.append(trajectory(p, psi0, t_max, t_steps).concurrence)
    return np.array(rows)


def dynamics_map(kind, base, t_max, t_steps, lo, hi, steps, psi0, sign=1):
    if kind == "tunneling":
        return dynamics_tunneling_map(base, t_max, t_steps, lo, hi, steps, psi0)
    return dynamics_detuning_map(base, t_max, t_steps, lo, hi, steps, psi0, sign)


def assert_dynamics_matches_reference(*args, **kwargs):
    grid = dynamics_map(*args, **kwargs)
    assert grid.values.tobytes() == reference_dynamics_map(*args, **kwargs).tobytes()


@pytest.mark.parametrize("label", POSITIONAL_LABELS + BELL_LABELS)
def test_tunneling_map_matches_per_row_reference(label):
    assert_dynamics_matches_reference(
        "tunneling", SystemParams(j=25.0), 2.0, 61, -0.2, 1.0, 25, basis_state(label)
    )


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("label", POSITIONAL_LABELS + BELL_LABELS)
def test_detuning_map_matches_per_row_reference(label, sign):
    base = SystemParams.from_ratio(0.433, j=25.0)
    assert_dynamics_matches_reference(
        "detuning", base, 2.0, 61, -25.0, 25.0, 25, basis_state(label), sign
    )


@pytest.mark.parametrize("kind", ["tunneling", "detuning"])
def test_dynamics_map_split_across_blocks_matches_reference(monkeypatch, kind):
    monkeypatch.setattr(sweep, "_BLOCK_CELLS", 3)
    base = SystemParams(j=25.0) if kind == "tunneling" else SystemParams.from_ratio(0.3)
    assert_dynamics_matches_reference(
        kind, base, 1.5, 40, -0.7, 0.9, 11, basis_state("PsiPlus"), -1
    )


def dynamics_peak_bytes(rows):
    tracemalloc.start()
    try:
        grid = dynamics_detuning_map(
            SystemParams.from_ratio(0.3), 1.0, 2, -5.0, 5.0, rows, basis_state("RL"), 1
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - grid.values.nbytes


def test_dynamics_map_memory_grows_with_the_block_not_the_rows(monkeypatch):
    # beside the output, a map keeps only its y axis (8 bytes a row) for
    # all rows; the block's matrices alone take 128 bytes a row
    monkeypatch.setattr(sweep, "_BLOCK_CELLS", 256)
    small, large = dynamics_peak_bytes(2_000), dynamics_peak_bytes(20_000)
    assert large - small < 12 * 18_000
    monkeypatch.setattr(sweep, "_BLOCK_CELLS", 4096)
    assert dynamics_peak_bytes(20_000) - large > 128 * (4096 - 256)


@pytest.mark.parametrize(
    "args, error, message",
    [
        # row 0 fails the phase bound before the last row's ratio * j overflows
        (("tunneling", SystemParams(j=1e10), 1.0, 3, 1e290, 1e301, 3),
         InvalidInput, "max|E| * t / hbar"),
        (("tunneling", SystemParams(j=1e10), 1e-300, 3, 1e300, 1e301, 3),
         InvalidInput, "delta1 must be finite, got inf"),
        # row 0 fails the phase bound before the last row's matrix overflows
        (("detuning", SystemParams(j=1e308), 1e-300, 3, 1e307, 1.7e308, 3),
         InvalidInput, "max|E| * t / hbar"),
        (("detuning", SystemParams(j=1e308), 1e-310, 3, 1e307, 1.7e308, 3),
         NonHermitianInput, "NaN or Inf"),
    ],
)
def test_dynamics_map_raises_what_its_first_failing_row_raises(args, error, message):
    for build in (dynamics_map, reference_dynamics_map):
        with pytest.raises(error, match=re.escape(message)):
            build(*args, basis_state("RL"))


def test_map_normalization_check_rejects_non_unitary_vectors(monkeypatch):
    # map rows form no amplitudes, so they check V^T V and |c|^2 instead;
    # both scale by s**2: within 2e-11 of 1 for s = 1 + 1e-12, not for 1 + 1e-9
    solve = sweep.symmetric_eigensolve_batch

    def run(distort):
        def distorted(h):
            values, vectors, pairs = solve(h)
            return values, distort(vectors), pairs

        monkeypatch.setattr(sweep, "symmetric_eigensolve_batch", distorted)
        return dynamics_tunneling_map(
            SystemParams(j=25.0), 2.0, 101, 0.1, 0.9, 5, basis_state("RL")
        )

    run(lambda v: v * (1.0 + 1e-12))

    def with_nan(v):
        v = v.copy()
        v[-1, 2, 1] = np.nan
        return v

    for distort in (
        lambda v: v * (1.0 + 1e-9),
        lambda v: v[..., ::-1] * [1.0, 1.0, 1.0, 0.5],
        with_nan,
    ):
        with pytest.raises(ConvergenceError, match="lost normalization"):
            run(distort)


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
