import math
from types import SimpleNamespace

import numpy as np
import pytest

from qmol.dynamics import trajectory
from qmol.hamiltonian import SystemParams
from qmol.serialize import (
    _BLOCK_VALUES,
    _KERNEL_LIMIT,
    _fmt6_blocks,
    fmt6,
    metadata_lines,
    parse_metadata,
    pgm_bytes,
    sweep_csv_bytes,
    table_csv_bytes,
    trajectory_csv_bytes,
)
from qmol.states import basis_state
from qmol.sweep import dynamics_tunneling_map, eigen_concurrence_map


def test_fmt6_basic():
    assert fmt6(0.5) == "0.500000"
    assert fmt6(-1.25) == "-1.250000"
    assert fmt6(1.0 / 3.0) == "0.333333"
    assert fmt6(2) == "2.000000"


def test_fmt6_negative_zero_normalized():
    assert fmt6(-0.0) == "0.000000"
    assert fmt6(-1e-9) == "0.000000"


def test_metadata_round_trip_preserves_floats():
    meta = {"j": 25.0, "d1": 10.825317547305483, "steps": 301, "init": "RL"}
    text = "\n".join(metadata_lines(meta)) + "\nbody\n"
    back = parse_metadata(text)
    assert float(back["j"]) == 25.0
    assert float(back["d1"]) == 10.825317547305483  # repr survives exactly
    assert int(back["steps"]) == 301
    assert back["init"] == "RL"


def test_metadata_lines_format():
    assert metadata_lines({"a": 1.5}) == ["# a = 1.5"]


def test_parse_metadata_stops_at_first_data_line():
    text = "# a = 1\n# b = 2\nx,y\n# not metadata\n"
    assert parse_metadata(text) == {"a": "1", "b": "2"}


def test_parse_metadata_skips_comment_lines_without_a_key():
    text = "# a = 1\n#\n# note\n# b = 2\nx,y\n"
    assert parse_metadata(text) == {"a": "1", "b": "2"}


def test_metadata_rejects_boolean():
    with pytest.raises(TypeError):
        metadata_lines({"flag": True})
    with pytest.raises(TypeError):
        metadata_lines({"flag": np.True_})


def test_table_csv_layout():
    data = table_csv_bytes({"k": "v"}, ("a", "b"), [("1", "2"), ("3", "4")])
    assert data == b"# k = v\na,b\n1,2\n3,4\n"


def test_trajectory_csv_columns_and_values():
    p = SystemParams(delta1=2.0, delta2=2.0, j=25.0)
    traj = trajectory(p, basis_state("RL"), 0.2, 3)
    data = trajectory_csv_bytes(traj, {"command": "dynamics"}).decode("ascii")
    lines = data.splitlines()
    assert lines[0] == "# command = dynamics"
    assert lines[1] == "t_ns,P_LL,P_LR,P_RL,P_RR,concurrence"
    first = lines[2].split(",")
    assert first == ["0.000000", "0.000000", "0.000000", "1.000000", "0.000000", "0.000000"]
    assert len(lines) == 2 + 3


def test_sweep_csv_layout():
    grid = eigen_concurrence_map(
        SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0), 1,
        eps_min=-25.0, eps_max=25.0, eps_steps=3,
    )
    data = sweep_csv_bytes(grid, {"kind": "eigen"}).decode("ascii")
    lines = data.splitlines()
    assert lines[0] == "# kind = eigen"
    assert lines[1] == ",-25.000000,0.000000,25.000000"
    assert lines[2].startswith("-25.000000,")
    assert len(lines[2].split(",")) == 4
    assert len(lines) == 1 + 1 + 3
    # the (0, 0) corner sits on the eps2 = eps1 line where C = 1
    assert lines[2].split(",")[1] == "1.000000"


def test_pgm_header_and_pixels():
    values = np.array([[0.0, 0.5], [1.0, 0.25]])
    data = pgm_bytes(values)
    assert data.startswith(b"P5\n2 2\n255\n")
    pixels = data[len(b"P5\n2 2\n255\n"):]
    assert list(pixels) == [0, 128, 255, 64]  # row 0 written first


def test_pgm_clips_out_of_range():
    data = pgm_bytes(np.array([[-0.2, 1.7]]))
    header = b"P5\n2 1\n255\n"
    assert data.startswith(header)
    assert list(data[len(header):]) == [0, 255]


def test_pgm_rejects_non_matrix():
    with pytest.raises(ValueError):
        pgm_bytes(np.zeros(4))


def test_outputs_are_ascii_bytes():
    data = table_csv_bytes({"x": 1.0}, ("c",), [("0.000000",)])
    assert isinstance(data, bytes)
    data.decode("ascii")


# Per-column formatting, one value at a time, kept as the kernel's reference.
def reference_column(values, bounded=False):
    """`fmt6` of each value, or `%.6e` for a unit column whose largest finite
    |x| `fmt6` prints as zero or with more than 17 significant digits."""
    values = [float(v) for v in values]
    big = max((abs(v) for v in values if math.isfinite(v)), default=0.0)
    digits = fmt6(big).replace(".", "").lstrip("0")
    if bounded or not (big and not digits or len(digits) > 17):
        return [fmt6(v) for v in values]
    return [f"{v:.6e}".replace("-0.000000e", "0.000000e") for v in values]


def reference_trajectory_csv(traj, meta):
    columns = [reference_column(traj.times)]
    columns += [reference_column(c, bounded=True) for c in np.asarray(traj.populations).T]
    columns.append(reference_column(traj.concurrence, bounded=True))
    header = ("t_ns", "P_LL", "P_LR", "P_RL", "P_RR", "concurrence")
    return table_csv_bytes(meta, header, zip(*columns))


def reference_sweep_csv(grid, meta):
    lines = metadata_lines(meta)
    lines.append("," + ",".join(reference_column(grid.x_axis.values)))
    for y, row in zip(reference_column(grid.y_axis.values), grid.values):
        lines.append(y + "," + ",".join(fmt6(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


EDGE_VALUES = [
    0.0, -0.0, -1e-7, -4.9999999e-7, -5e-7, -5.0000001e-7, 5e-7, 0.9999995,
    -0.9999995, 5e-324, -5e-324, 1e300, -1e300, float("inf"), float("-inf"),
    float("nan"),
]


def _values(rng, shape):
    """Edge values first, then random signs and magnitudes 1e-12..1e12."""
    random = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-12, 12, shape)
    flat = random.ravel()
    flat[: len(EDGE_VALUES)] = EDGE_VALUES[: flat.size]
    return flat.reshape(shape)


def _grid(rng, rows, cols):
    return SimpleNamespace(
        x_axis=SimpleNamespace(values=_values(rng, cols)),
        y_axis=SimpleNamespace(values=_values(rng, rows)[::-1].copy()),
        values=_values(rng, (rows, cols)),
    )


@pytest.mark.parametrize("steps", [1, 2, 40, 3000])
def test_trajectory_csv_matches_per_value_reference(steps):
    rng = np.random.default_rng(steps)
    traj = SimpleNamespace(
        times=_values(rng, steps),
        populations=_values(rng, (steps, 4))[::-1],
        concurrence=_values(rng, steps),
    )
    meta = {"command": "dynamics"}
    assert trajectory_csv_bytes(traj, meta) == reference_trajectory_csv(traj, meta)


@pytest.mark.parametrize(
    "rows, cols",
    [(1, 30), (30, 2), (40, 40), (3, 9000)],
    ids=["one-row", "two-columns", "square", "wider-than-a-block"],
)
def test_sweep_csv_matches_per_value_reference(rows, cols):
    grid = _grid(np.random.default_rng(rows * cols), rows, cols)
    meta = {"kind": "eigen"}
    assert sweep_csv_bytes(grid, meta) == reference_sweep_csv(grid, meta)


def test_csv_matches_reference_on_real_outputs():
    p = SystemParams(delta1=3.0, delta2=1.0, j=25.0)
    traj = trajectory(p, basis_state("LR"), 2.0, 2001)
    assert trajectory_csv_bytes(traj, {}) == reference_trajectory_csv(traj, {})
    grid = eigen_concurrence_map(p, 2, -30.0, 30.0, 51)
    assert sweep_csv_bytes(grid, {}) == reference_sweep_csv(grid, {})


# -- the kernel against the per-value `fmt6` reference -------------------------


def _fmt6_reference(block):
    lines = "".join(",".join(fmt6(v) for v in row) + "\n" for row in block)
    return lines.encode("ascii")


def _assert_kernel_matches(values, width=6):
    block = np.asarray(values, dtype=float).reshape(-1, width)
    assert np.abs(block).max() < _KERNEL_LIMIT  # every value takes the kernel
    assert b"".join(_fmt6_blocks((block, True))) == _fmt6_reference(block)


def _with_neighbours_and_signs(x):
    x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    return np.concatenate([x, -x])


def test_kernel_on_ties_and_their_neighbours():
    # x * 1e6 is an exact half-integer only at the odd multiples of 1/128
    top = 2 * (int(_KERNEL_LIMIT * 128) // 2) - 1
    odd = np.concatenate([np.arange(1, 25_600, 2), top - 2 * np.arange(128)])
    ties = _with_neighbours_and_signs(odd / 128.0)
    _assert_kernel_matches(ties)


def test_kernel_on_products_that_round_onto_a_half():
    m = np.concatenate([np.arange(20_000), 7919 * np.arange(1, 11_000) ** 2])
    half = m + 0.5
    x = _with_neighbours_and_signs(half / 1e6)
    x = x[(np.abs(x) * 1e6 == np.tile(half, 6)) & (x * 128 != np.floor(x * 128))]
    # half of them round the other way from rint(x * 1e6)
    rint = np.rint(np.abs(x) * 1e6)
    exact = np.array([abs(int(fmt6(v).replace(".", ""))) for v in x])
    assert len(x) > 60_000 and np.sum(exact != rint) > 30_000
    _assert_kernel_matches(x, width=2)  # x holds both signs, so its length is even
    # time grids whose products land on a half thousands of times
    for t_max, count in [(2.05, 8514), (0.25, 6868)]:
        t = np.linspace(0.0, t_max, 20001)
        assert np.sum(np.abs(t * 1e6 - np.rint(t * 1e6)) == 0.5) == count
        _assert_kernel_matches(t[:-1], width=4)
        _assert_kernel_matches(-t[:-1], width=4)


def test_kernel_on_signed_zeros_and_the_domain_edge():
    largest = np.nextafter(_KERNEL_LIMIT, 0.0)
    edges = [0.0, -0.0, -4.9999999e-7, -5e-7, 5e-324, -5e-324, largest, -largest]
    assert [fmt6(v) for v in edges[:6]] == ["0.000000"] * 6
    _assert_kernel_matches(edges, width=4)
    above = np.nextafter(largest, np.inf)
    beyond = np.array([[above, -1.0], [-above, np.nan], [np.inf, -np.inf]])
    assert b"".join(_fmt6_blocks((beyond, True))) == _fmt6_reference(beyond)


@pytest.mark.parametrize("width", [1, 2, 6, 7])
def test_rows_that_straddle_a_block_boundary(width):
    rows = _BLOCK_VALUES // width + 1
    values = np.arange(rows * width, dtype=float).reshape(rows, width) / 7.0 - 100.0
    assert len(_fmt6_blocks((values, True))) == 2
    _assert_kernel_matches(values, width)
    # a NaN sends this block of [0, 1] columns to `%`
    values[-1, 0] = np.nan
    assert b"".join(_fmt6_blocks((values, True))) == _fmt6_reference(values)


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 300), (300, 1)])
def test_sweep_csv_one_row_and_one_column_shapes(rows, cols):
    grid = SimpleNamespace(
        x_axis=SimpleNamespace(values=np.linspace(-25.0, 25.0, cols)),
        y_axis=SimpleNamespace(values=np.linspace(-3.0, 3.0, rows)),
        values=np.linspace(0.0, 1.0, rows * cols).reshape(rows, cols),
    )
    meta = {"kind": "eigen"}
    assert sweep_csv_bytes(grid, meta) == reference_sweep_csv(grid, meta)


def test_trajectory_with_1_128_ns_steps_prints_its_ties():
    p = SystemParams(delta1=2.0, delta2=1.0, j=25.0)
    traj = trajectory(p, basis_state("RL"), 1.0, 129)
    assert traj.times[1] == 1.0 / 128.0 and fmt6(traj.times[1]) == "0.007812"
    assert trajectory_csv_bytes(traj, {}) == reference_trajectory_csv(traj, {})


def test_field_bytes_are_pinned_on_every_host():
    # the '<u8' words fix the byte order, so these bytes do not depend on
    # the host's endianness
    assert _fmt6_blocks((np.array([[-12.5, 3.0]]), True)) == [b"-12.500000,3.000000\n"]
    row = np.array([[1 / 128, -3 / 128, -5e-7, 123456.789, 999999.4999999999, 1.0]])
    assert _fmt6_blocks((row, True)) == [
        b"0.007812,-0.023438,0.000000,123456.789000,999999.500000,1.000000\n"
    ]


# -- one-digit unsigned columns: packed 9-byte records, nothing to delete --------


def _narrow_values():
    odd = np.arange(1, 10 * 128, 2)  # the ties below 10
    ties = odd / 128.0
    ties = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
    # 9.9999995 * 1e6 rounds onto 9999999.5, which rint would take to 10**7
    edges = [0.0, -0.0, -4.9999999e-7, -5e-7, 5e-324, -5e-324, 9.9999994, 9.9999995]
    rng = np.random.default_rng(1401)
    return np.concatenate([edges, ties, rng.uniform(0.0, 9.9999994, 4000)])


@pytest.mark.parametrize("width", [1, 2, 6, 7])
def test_narrow_blocks_take_the_record_route(width):
    values = _narrow_values()
    values = values[: len(values) // width * width].reshape(-1, width)
    assert all(len(fmt6(v)) == 8 and fmt6(v)[0] != "-" for v in values.flat)
    assert b"".join(_fmt6_blocks((values, True))) == _fmt6_reference(values)


@pytest.mark.parametrize("width", [1, 6, 7])
def test_narrow_rows_that_straddle_a_block_boundary(width):
    rows = _BLOCK_VALUES // width + 1
    values = np.linspace(0.0, 9.99, rows * width).reshape(rows, width)
    assert len(_fmt6_blocks((values, True))) == 2
    assert b"".join(_fmt6_blocks((values, True))) == _fmt6_reference(values)


@pytest.mark.parametrize("wide", [10.0, -1e-6, 9.999999500000001, -5.0000001e-7])
def test_one_wide_value_in_a_narrow_block(wide):
    values = _narrow_values()[:600].reshape(-1, 6)
    values[17, 3] = wide
    assert fmt6(wide) in ("10.000000", "-0.000001")
    assert fmt6(np.nextafter(9.999999500000001, 0.0)) == "9.999999"
    assert b"".join(_fmt6_blocks((values, True))) == _fmt6_reference(values)


def test_trajectory_and_tunneling_map_bodies_are_narrow():
    p = SystemParams(delta1=3.0, delta2=1.0, j=25.0)
    traj = trajectory(p, basis_state("LR"), 9.9999994, 3001)
    data = trajectory_csv_bytes(traj, {})
    assert data == reference_trajectory_csv(traj, {})
    assert _all_narrow(data.split(b"\n", 1)[1])
    grid = dynamics_tunneling_map(SystemParams(), 2.0, 301, 0.0, 1.0, 41, basis_state("RL"))
    data = sweep_csv_bytes(grid, {})
    assert data == reference_sweep_csv(grid, {})
    assert _all_narrow(data[1:])  # the header row starts with an empty field


def _all_narrow(body):
    """Whether every field of a CSV body reads `d.dddddd`."""
    fields = body.replace(b"\n", b",").split(b",")[:-1]
    return all(len(f) == 8 and f[1:2] == b"." for f in fields)
