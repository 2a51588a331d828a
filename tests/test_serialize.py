from types import SimpleNamespace

import numpy as np
import pytest

from qmol.dynamics import trajectory
from qmol.hamiltonian import SystemParams
from qmol.serialize import (
    fmt6,
    metadata_lines,
    parse_metadata,
    pgm_bytes,
    sweep_csv_bytes,
    table_csv_bytes,
    trajectory_csv_bytes,
)
from qmol.states import basis_state
from qmol.sweep import eigen_concurrence_map


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


def test_metadata_rejects_boolean():
    with pytest.raises(TypeError):
        metadata_lines({"flag": True})


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


# The per-value formatting the block formatter replaced, kept as its reference.
def reference_trajectory_csv(traj, meta):
    rows = (
        [fmt6(traj.times[i])]
        + [fmt6(v) for v in traj.populations[i]]
        + [fmt6(traj.concurrence[i])]
        for i in range(traj.times.shape[0])
    )
    header = ("t_ns", "P_LL", "P_LR", "P_RL", "P_RR", "concurrence")
    return table_csv_bytes(meta, header, rows)


def reference_sweep_csv(grid, meta):
    lines = metadata_lines(meta)
    lines.append("," + ",".join(fmt6(x) for x in grid.x_axis.values))
    for y, row in zip(grid.y_axis.values, grid.values):
        lines.append(fmt6(y) + "," + ",".join(fmt6(v) for v in row))
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
