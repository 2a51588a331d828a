import argparse
import dataclasses
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qmol.cli
from qmol.cli import (
    RunConfig,
    build_config,
    build_parser,
    config_from_metadata,
    main,
    render_dynamics,
    render_sweep,
)
from qmol.errors import ConfigError
from qmol.hamiltonian import SystemParams
from qmol.serialize import parse_metadata, pgm_bytes
from qmol.spectrum import eigensystem, resonant_solution
from qmol.states import BELL_DISPLAY, BELL_LABELS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_full_resonance_table(capsys):
    code, out, err = run(
        capsys, "spectrum", "--j", "25", "--d1", "1.5625", "--d2", "1.5625",
        "--e1", "0", "--e2", "0",
    )
    assert code == 0
    lines = out.splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert rows[1].startswith("1,-6.250000,1.000000,Psi-,1.000000,no")
    assert rows[0].split(",")[1] == "-6.442353"
    assert rows[0].split(",")[2] == "0.970143"


def test_spectrum_degenerate_flags(capsys):
    code, out, _ = run(capsys, "spectrum", "--j", "25")
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    for row in rows:
        assert row.endswith(",yes")
        assert row.split(",")[1] in ("-6.250000", "6.250000")


def test_spectrum_degenerate_column_is_scale_free(capsys):
    # energies -+3.5e-201 and -+7.9e-201 are distinct relative to |H|_F
    columns = []
    for scale in ("1", "1e-200"):
        code, out, _ = run(
            capsys, "spectrum", f"--j={scale}", f"--d1={scale}", f"--d2={float(scale) / 2!r}"
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        columns.append([row.rsplit(",", 1)[1] for row in rows])
    assert columns == [["no"] * 4, ["no"] * 4]


def test_spectrum_detuned_tunnelings_never_reach_unity(capsys):
    code, out, _ = run(capsys, "spectrum", "--j", "25", "--d1", "6.25", "--d2", "3.125")
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    concurrences = [float(r.split(",")[2]) for r in rows]
    assert max(concurrences) < 1.0
    assert concurrences == [0.8, 0.970143, 0.970143, 0.8]


def test_dynamics_rows_and_normalization(capsys):
    code, out, _ = run(
        capsys, "dynamics", "--init", "RL", "--j", "25", "--ratio", "0.43301",
        "--tmax", "1", "--steps", "1000",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 1000
    peaks = 0.0
    for row in rows:
        fields = [float(x) for x in row.split(",")]
        assert abs(sum(fields[1:5]) - 1.0) < 2.1e-6  # four 6-decimal roundings
        peaks = max(peaks, fields[5])
    assert peaks >= 0.99999


def test_dynamics_rejects_zero_tmax(capsys):
    code, _, err = run(capsys, "dynamics", "--tmax", "0")
    assert code == 2
    assert "tmax" in err


def test_dynamics_rejects_bad_init(capsys):
    code, _, err = run(capsys, "dynamics", "--init", "XX")
    assert code == 2
    assert "label" in err


def test_ratio_conflicts_with_explicit_tunnelings(capsys):
    code, _, err = run(capsys, "dynamics", "--ratio", "0.4", "--d1", "2")
    assert code == 2
    assert "ratio" in err


def test_bell_times_output(capsys):
    code, out, _ = run(capsys, "bell-times", "--n", "1", "--m", "1", "--j", "25")
    assert code == 0
    values = dict(line.split(" = ") for line in out.splitlines())
    assert values["ratio"] == "0.433013"
    assert values["t_e_ns"] == "0.165427"
    assert abs(float(values["t_e_ns"]) - 0.16542) < 1e-5
    assert values["concurrence_at_t_e"] == "1.000000"
    assert values["delta1_ueV"] == "10.825318"


def test_bell_times_second_branch(capsys):
    code, out, _ = run(capsys, "bell-times", "--n", "2", "--m", "1", "--j", "25")
    assert code == 0
    values = dict(line.split(" = ") for line in out.splitlines())
    assert values["ratio"] == "0.968246"
    assert values["concurrence_at_t_e"] == "1.000000"


def test_bell_times_at_seven_million_quarter_periods(capsys):
    # phase n*pi = 2.2e7 rad, inside MAX_PHASE; the quarter-period check
    # at t_e once failed here with exit 3
    code, out, err = run(capsys, "bell-times", "--n", "7000001", "--m", "7000001")
    assert (code, err) == (0, "")
    assert "concurrence_at_t_e = 1.000000\n" in out


@pytest.mark.parametrize("j", ["1e300", "1e-300"])
def test_bell_times_at_extreme_couplings(j, capsys):
    code, out, err = run(capsys, "bell-times", "--j", j)
    assert (code, err) == (0, "")
    values = dict(line.split(" = ") for line in out.splitlines())
    assert values["ratio"] == "0.433013"
    assert values["concurrence_at_t_e"] == "1.000000"
    # six fixed decimals would print 0.000000 or hundreds of digits here
    exponent_form = {
        "1e300": ("1.000000e+300", "4.330127e+299", "4.135668e-300"),
        "1e-300": ("1.000000e-300", "4.330127e-301", "4.135668e+300"),
    }
    assert (values["j_ueV"], values["delta1_ueV"], values["t_e_ns"]) == exponent_form[j]


def _body_rows(out):
    return [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]


def test_spectrum_at_tiny_energies_prints_them_in_exponent_form(capsys):
    # %.6f printed all four energies as 0.000000
    code, out, err = run(capsys, "spectrum", "--j", "1e-200", "--d1", "1e-200", "--d2", "5e-201")
    assert (code, err) == (0, "")
    rows = _body_rows(out)
    energies = eigensystem(SystemParams(j=1e-200, delta1=1e-200, delta2=5e-201)).energies
    assert [r[1] for r in rows] == [f"{e:.6e}" for e in energies]
    assert all(float(r[1]) != 0.0 for r in rows)
    assert [",".join(r[2:]) for r in rows] == [
        "0.316228,Psi+,0.658114,no",
        "0.707107,Psi-,0.853553,no",
        "0.707107,Phi-,0.853553,no",
        "0.316228,Phi+,0.658114,no",
    ]


def test_dynamics_over_a_tiny_time_span_keeps_its_time_axis(capsys):
    # %.6f printed t_ns as 0.000000 on every row
    code, out, err = run(
        capsys, "dynamics", "--j", "1e10", "--ratio", "0.25", "--tmax", "1e-8", "--steps", "3"
    )
    assert (code, err) == (0, "")
    rows = _body_rows(out)
    assert [r[0] for r in rows] == ["0.000000e+00", "5.000000e-09", "1.000000e-08"]
    assert [",".join(r[1:]) for r in rows] == [
        "0.000000,0.000000,1.000000,0.000000,0.000000",
        "0.122075,0.404446,0.351404,0.122075,0.529275",
        "0.011426,0.976078,0.001070,0.011426,0.071567",
    ]


def test_sweep_over_a_tiny_grid_keeps_its_axes(capsys):
    code, out, err = run(capsys, "sweep", "eigen", "--j", "1e-7", "--grid=-1e-7:1e-7:3")
    assert (code, err) == (0, "")
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    assert [float(x) for x in lines[0].split(",")[1:]] == [-1e-7, 0.0, 1e-7]
    assert [float(line.split(",")[0]) for line in lines[1:]] == [-1e-7, 0.0, 1e-7]
    assert [line.split(",", 1)[1] for line in lines[1:]] == ["0.000000,0.000000,0.000000"] * 3


@pytest.mark.parametrize("label", BELL_DISPLAY)
def test_init_accepts_the_bell_labels_spectrum_prints(label, capsys):
    name = BELL_LABELS[BELL_DISPLAY.index(label)]
    printed = run(capsys, "dynamics", "--init", label, "--steps", "3")
    assert printed[0] == 0
    assert printed == run(capsys, "dynamics", "--init", name, "--steps", "3")
    assert f"# init = {name}\n" in printed[1]


def test_bell_times_no_solution_exit_code(capsys):
    code, _, err = run(capsys, "bell-times", "--n", "1", "--m", "3")
    assert code == 4
    assert "no real" in err.lower()


@pytest.mark.parametrize(
    "n, m, expected",
    [
        # ratio sqrt(3)/4, but t_e = 1.7e159 ns is past the propagation's phase bound
        ("1" + "0" * 160, "1" + "0" * 159 + "1", 2),
        # n is past 2**1024, so no double holds it
        ("1" + "0" * 400, "1", 3),
    ],
    ids=["1e160,1e160+1", "1e400,1"],
)
def test_bell_times_beyond_the_double_range_exits_with_one_error_line(n, m, expected, capsys):
    # int to float conversion raised a bare OverflowError here
    code, out, err = run(capsys, "bell-times", "--n", n, "--m", m)
    assert (code, out) == (expected, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bell_times_past_the_phase_limit_names_n_m_and_the_bound(capsys):
    # the phase at t_e is n * pi, so n = 31830988 is the last order that answers
    code, out, err = run(capsys, "bell-times", "--n", "31830989", "--m", "1")
    assert (code, out) == (2, "")
    assert err == (
        "error: n = 31830989, m = 1: the concurrence check propagates through a "
        "phase of n * pi rad, which exceeds 1e+08 rad for n above 31830988\n"
    )
    assert run(capsys, "bell-times", "--n", "31830988", "--m", "1")[0] == 0


def test_bell_times_rejects_even_m(capsys):
    code, _, _ = run(capsys, "bell-times", "--n", "2", "--m", "2")
    assert code == 2


def test_sweep_rerun_is_byte_identical(tmp_path, capsys):
    args = [
        "sweep", "eigen", "--d1", "1.5625", "--d2", "1.5625",
        "--grid=-25:25:7", "--state", "1",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    assert main(args + ["--out", str(a), "--pgm", str(pa)]) == 0
    assert main(args + ["--out", str(b), "--pgm", str(pb)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("kind", ["eigen", "tunneling-dynamics"])
def test_sweep_renders_the_pgm_only_when_asked(monkeypatch, tmp_path, kind):
    calls = []

    def counted(values):
        calls.append(values.shape)
        return pgm_bytes(values)

    monkeypatch.setattr(qmol.cli, "pgm_bytes", counted)
    args = ["sweep", kind, "--tmax", "0.5", "--steps", "5", "--grid=0:1:3"]
    assert main(args + ["--out", str(tmp_path / "map.csv")]) == 0
    assert calls == []
    pgm = tmp_path / "map.pgm"
    assert main(args + ["--out", str(tmp_path / "map.csv"), "--pgm", str(pgm)]) == 0
    assert len(calls) == 1 and pgm.read_bytes().startswith(b"P5\n")


def test_sweep_csv_metadata_reproduces_file(tmp_path):
    out = tmp_path / "map.csv"
    assert main([
        "sweep", "detuning-dynamics", "--ratio", "0.433013", "--sign", "-1",
        "--tmax", "0.5", "--steps", "5", "--grid=-5:5:3", "--out", str(out),
    ]) == 0
    data = out.read_bytes()
    config = config_from_metadata(parse_metadata(data.decode("ascii")))
    regenerated, _ = render_sweep(config)
    assert regenerated == data


def test_dynamics_csv_metadata_reproduces_file(tmp_path):
    out = tmp_path / "run.csv"
    assert main([
        "dynamics", "--ratio", "0.25", "--tmax", "0.4", "--steps", "9",
        "--out", str(out),
    ]) == 0
    data = out.read_bytes()
    config = config_from_metadata(parse_metadata(data.decode("ascii")))
    assert render_dynamics(config) == data


def test_sweep_constant_zero_map_gives_black_pgm(tmp_path, capsys):
    # no tunneling: every eigenstate is a product state, C = 0 everywhere
    pgm = tmp_path / "flat.pgm"
    code = main(["sweep", "eigen", "--state", "0", "--grid=-10:10:5",
                 "--pgm", str(pgm), "--out", str(tmp_path / "flat.csv")])
    assert code == 0
    data = pgm.read_bytes()
    header = b"P5\n5 5\n255\n"
    assert data.startswith(header)
    assert set(data[len(header):]) == {0}


def test_sweep_tunneling_kind_requires_resonance(capsys):
    code, _, err = run(capsys, "sweep", "tunneling-dynamics", "--e1", "3")
    assert code == 2
    assert "e1" in err


def test_sweep_detuning_kind_requires_equal_tunnelings(capsys):
    code, _, err = run(capsys, "sweep", "detuning-dynamics", "--d1", "1", "--d2", "2",
                       "--tmax", "0.2", "--steps", "3", "--grid=-1:1:3")
    assert code == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nj = 20\nd1 = 5\nd2 = 5\n\ntmax = 0.3\nsteps = 4\n")
    code, out, _ = run(capsys, "dynamics", "--config", str(cfg))
    assert code == 0
    meta = parse_metadata(out)
    assert float(meta["j"]) == 20.0
    assert float(meta["d1"]) == 5.0
    assert int(meta["steps"]) == 4


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("j = 20\ntmax = 0.3\nsteps = 4\n")
    code, out, _ = run(capsys, "dynamics", "--config", str(cfg), "--j", "30")
    assert code == 0
    assert float(parse_metadata(out)["j"]) == 30.0


def test_flag_tunneling_group_overrides_config_ratio(tmp_path, capsys):
    # giving --d1/--d2 on the command line discards the file's ratio
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ratio = 0.9\ntmax = 0.2\nsteps = 3\n")
    code, out, _ = run(capsys, "dynamics", "--config", str(cfg), "--d1", "2", "--d2", "2")
    assert code == 0
    meta = parse_metadata(out)
    assert float(meta["d1"]) == 2.0 and float(meta["d2"]) == 2.0


def test_config_key_range_is_checked_where_it_is_used(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("state = 7\n")
    # spectrum does not use state: the key is parsed, not range-checked
    code, out, err = run(capsys, "spectrum", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert out == run(capsys, "spectrum")[1]
    code, _, err = run(capsys, "sweep", "eigen", "--grid=-1:1:3", "--config", str(cfg))
    assert code == 2 and "state_index must be 0..3" in err
    cfg.write_text("state = seven\n")
    code, _, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2 and "expected an integer" in err


# config names a source of keys, not a key of its own
@pytest.mark.parametrize("key", ["jj", "config"])
def test_config_file_unknown_key(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 20\n")
    code, _, err = run(capsys, "dynamics", "--config", str(cfg))
    assert code == 2
    assert f"unknown key {key!r}" in err


def _subcommand_parsers():
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return commands.choices


#: a value other than the default for every key a command takes as a flag
FLAG_VALUES = {
    "j": "20", "d1": "2", "d2": "3", "e1": "0.5", "e2": "-1", "ratio": "0.4",
    "init": "Psi+", "tmax": "0.5", "steps": "7", "grid": "-2:2:5", "state": "2",
    "sign": "-1", "out": "x.csv", "pgm": "x.pgm", "n": "3", "m": "5",
}


@pytest.mark.parametrize("command", ["spectrum", "dynamics", "sweep", "bell-times"])
def test_flag_and_config_line_give_one_run(command, tmp_path):
    parser, cfg = build_parser(), tmp_path / "run.cfg"
    flags = [
        a.dest for a in _subcommand_parsers()[command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    ]
    default = build_config(parser.parse_args([command]))
    for key in flags:
        by_flag = build_config(parser.parse_args([command, f"--{key}={FLAG_VALUES[key]}"]))
        cfg.write_text(f"{key} = {FLAG_VALUES[key]}\n")
        by_file = build_config(parser.parse_args([command, "--config", str(cfg)]))
        assert by_flag == by_file != default, key
    if command == "sweep":  # kind, the one key that is a positional
        cfg.write_text("kind = detuning-dynamics\n")
        assert build_config(parser.parse_args(["sweep", "detuning-dynamics"])) == build_config(
            parser.parse_args(["sweep", "--config", str(cfg)])
        )
    assert len(flags) == {"spectrum": 7, "dynamics": 10, "sweep": 14, "bell-times": 8}[command]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--steps", "3"],
        ["bell-times", "--out", "x"],
        ["dynamics", "--grid", "0:1:3"],
        ["verify", "--j", "1"],
        ["verify", "--config", "x"],
    ],
)
def test_flags_a_command_does_not_take_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


def test_every_default_a_help_line_names_is_the_default():
    # defaults live in RunConfig and SystemParams; help text only repeats them
    fields = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    fields |= {
        key: getattr(SystemParams(), name) for key, name in qmol.cli._PARAM_FIELDS.items()
    }
    named = set()
    for command, subparser in _subcommand_parsers().items():
        for action in subparser._actions:
            said = re.search(r"\(default (\w+)\)", action.help or "")
            if said:
                default = fields[action.dest]
                text = default if isinstance(default, str) else f"{default:g}"
                assert said.group(1) == text, (command, action.dest)
                named.add(action.dest)
    assert named == {"j", "init", "tmax", "steps", "kind", "n", "m"}


def test_config_file_not_ascii(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"j = 2\xc3\xa9\n")
    code, _, err = run(capsys, "dynamics", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:")


def test_config_file_missing(capsys):
    code, _, err = run(capsys, "dynamics", "--config", "/nonexistent/path.cfg")
    assert code == 2


def test_bad_grid_strings(capsys):
    assert run(capsys, "sweep", "eigen", "--grid", "1:2")[0] == 2
    assert run(capsys, "sweep", "eigen", "--grid", "2:1:5")[0] == 2
    assert run(capsys, "sweep", "eigen", "--grid", "1:2:1")[0] == 2
    assert run(capsys, "sweep", "eigen", "--grid", "a:b:5")[0] == 2


def test_grid_with_overflowing_span_exits_2_without_warnings(capsys):
    # both endpoints are finite, but maximum - minimum is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sweep", "eigen", "--grid=-1e308:1e308:3")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: axis 'eps1'") and "finite" in err


def halved_hamiltonian(e1, e2, d1, d2, j):
    """Positional Hamiltonian written out with every detuning halved first."""
    es, ed = e1 / 2 + e2 / 2, e1 / 2 - e2 / 2
    return np.array(
        [
            [es + j / 4, d2 / 2, d1 / 2, 0.0],
            [d2 / 2, ed - j / 4, 0.0, d1 / 2],
            [d1 / 2, 0.0, -ed - j / 4, d2 / 2],
            [0.0, d1 / 2, d2 / 2, -es + j / 4],
        ]
    )


@pytest.mark.parametrize("grid", ["1e308:1.7e308:5", "-8.9e307:8.9e307:5"])
def test_eigen_grid_with_overflowing_detuning_sum_answers(capsys, grid):
    # eps1 + eps2 overflows on the first grid; the halves do not, so every
    # cell matches np.linalg.eigh except where the state is degenerate
    couplings = dict(d1=2e307, d2=1e307, j=2e307)
    flags = [f"--{k}={v!r}" for k, v in couplings.items()]
    axis = np.linspace(*(float(x) for x in grid.split(":")[:2]), 5)
    for state in range(4):
        code, out, err = run(
            capsys, "sweep", "eigen", f"--grid={grid}", f"--state={state}", *flags
        )
        assert code == 0 and err == ""
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        values = np.array([[float(x) for x in r.split(",")[1:]] for r in rows])
        assert values.shape == (5, 5)
        for (iy, ix), value in np.ndenumerate(values):
            h = halved_hamiltonian(axis[ix], axis[iy], **couplings)
            w, v = np.linalg.eigh(h)
            gaps = np.diff(w / np.abs(w).max())  # w[3] - w[0] may overflow
            if min(gaps[i] for i in (state - 1, state) if 0 <= i < 3) < 1e-6:
                continue  # degenerate: the eigenvector is basis-ambiguous
            a = v[:, state]
            expect = 2.0 * abs(a[0] * a[3] - a[1] * a[2])
            assert abs(value - expect) <= 0.5e-6 + 1e-9, (grid, state, iy, ix)


def test_eigen_grid_whose_entries_overflow_exits_3_without_warnings(capsys):
    # 1.7e308 + j/4 is not a double: the cell's matrix is rejected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "sweep", "eigen", "--grid=1e308:1.7e308:3", "--j=1e308"
        )
    assert (code, out) == (3, "")
    assert err == "error: matrix contains NaN or Inf entries\n"


def test_tunneling_map_with_overflowing_tunneling_exits_2_without_warnings(capsys):
    # ratio * j = 1e310 on the first row: SystemParams' message, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "sweep", "tunneling-dynamics", "--j=1e10", "--grid=1e300:1e301:3",
            "--steps=3", "--tmax=1e-300",
        )
    assert (code, out) == (2, "")
    assert err == "error: delta1 must be finite, got inf\n"


def test_spectrum_with_overflowing_detuning_sum_answers(capsys):
    # eps1 + eps2 = 3.4e308 does not fit a double; eps1/2 + eps2/2 does
    code, out, err = run(capsys, "spectrum", "--e1", "1.7e308", "--e2", "1.7e308")
    assert code == 0 and err == ""
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    energies = np.array([float(r.split(",")[1]) for r in rows])
    exact = np.sort(np.linalg.eigvalsh(halved_hamiltonian(1.7e308, 1.7e308, 0.0, 0.0, 25.0)))
    assert np.array_equal(energies, exact)


def test_spectrum_at_huge_energies(capsys):
    code, out, err = run(capsys, "spectrum", "--j", "1e300", "--d1", "1e300")
    assert code == 0, err
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    energies = eigensystem(SystemParams(j=1e300, delta1=1e300)).energies
    # the closed form itself overflows at j = 1e300, so scale it up from j = 1
    exact = np.sort(resonant_solution(SystemParams(j=1.0, delta1=1.0)).energies) * 1e300
    assert np.all(np.abs(energies - exact) <= 1e-12 * np.abs(exact))
    # %.6f would print 300 integer digits: the column takes %.6e
    assert [r.split(",")[1] for r in rows] == [f"{e:.6e}" for e in energies]


def test_bad_state_and_sign(capsys):
    assert run(capsys, "sweep", "eigen", "--state", "7")[0] == 2
    assert run(capsys, "sweep", "detuning-dynamics", "--sign", "0",
               "--tmax", "0.1", "--steps", "3", "--grid=-1:1:3")[0] == 2


def test_rejects_nonpositive_coupling(capsys):
    assert run(capsys, "spectrum", "--j", "-5")[0] == 2
    assert run(capsys, "spectrum", "--j", "abc")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamics", "--steps", "1"],
        ["sweep", "tunneling-dynamics", "--tmax", "0"],
        ["sweep", "detuning-dynamics", "--steps", "1", "--grid=-1:1:3"],
        ["bell-times", "--n", "0"],
        ["sweep", "tunneling-dynamics", "--e1", "1e-13"],
        # output size caps (2**24 values), checked before any allocation
        ["dynamics", "--steps", "16777217"],
        ["dynamics", "--steps", "100000000000"],
        ["sweep", "eigen", "--grid=-1:1:4097"],
        ["sweep", "eigen", "--grid=-1:1:10000000000"],
        ["sweep", "tunneling-dynamics", "--steps", "16777216", "--grid", "0:1:2"],
        ["sweep", "detuning-dynamics", "--steps", "8388609", "--grid=-1:1:2"],
        # ranges the CLI leaves to the library
        ["sweep", "eigen", "--grid", "2:1:5"],
        ["sweep", "eigen", "--grid", "1:2:1"],
        ["sweep", "eigen", "--grid=1:inf:3"],
        ["sweep", "eigen", "--state", "-1"],
        ["sweep", "detuning-dynamics", "--sign", "2", "--steps", "3", "--grid=-1:1:3"],
        ["dynamics", "--init", "XX"],
        ["dynamics", "--tmax", "inf"],
        # phases beyond MAX_PHASE would not hold the six printed decimals
        ["dynamics", "--ratio", "0.433013", "--tmax", "1e15"],
        ["dynamics", "--tmax=1.7e308", "--steps", "2"],
        ["spectrum", "--d1", "nan"],
        ["bell-times", "--j", "inf"],
    ],
)
def test_library_argument_checks_exit_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value",
    [("--steps", "1"), ("--steps", "-3"), ("--tmax", "0"), ("--tmax", "-1"), ("--tmax", "inf")],
)
@pytest.mark.parametrize("kind", ["tunneling-dynamics", "detuning-dynamics"])
def test_dynamic_sweeps_report_their_time_grid_as_dynamics_does(kind, flag, value, capsys):
    expected = run(capsys, "dynamics", flag, value)
    assert expected[0] == 2
    assert run(capsys, "sweep", kind, flag, value) == expected


def test_spectrum_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, text, _ = run(capsys, "spectrum", "--d1", "3", "--d2", "3", "--out", str(out))
    assert code == 0
    assert out.read_bytes().decode("ascii") == text


def test_verify_subcommand_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 10
    assert all(line.startswith("PASS") for line in lines)


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["wat"])
    assert info.value.code == 2


def test_main_builds_one_parser_and_keeps_no_values_between_calls(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(qmol.cli, "build_parser", lambda: built.append(1) or build_parser())
    qmol.cli._parser.cache_clear()
    try:
        outputs = []
        for argv in (["--ratio", "0.1"], ["--d1", "2.5"], []):
            code, out, err = run(capsys, "spectrum", *argv)
            assert (code, err) == (0, "")
            outputs.append(parse_metadata(out))
    finally:
        qmol.cli._parser.cache_clear()
    assert len(built) == 1
    assert (outputs[0]["d1"], outputs[0]["d2"]) == ("2.5", "2.5")
    # neither --ratio nor --d1 leaks into the next call
    assert (outputs[1]["d1"], outputs[1]["d2"]) == ("2.5", "0.0")
    assert (outputs[2]["d1"], outputs[2]["d2"]) == ("0.0", "0.0")
    assert build_parser() is not build_parser()


def test_config_from_metadata_round_trip_values():
    config = RunConfig(
        command="sweep",
        params=SystemParams(delta1=1.5, delta2=1.5, j=25.0),
        kind="eigen",
        state=2,
        grid=(-25.0, 25.0, 9),
    )
    from qmol.cli import _metadata

    rebuilt = config_from_metadata(
        {k: str(v) if not isinstance(v, float) else repr(v)
         for k, v in _metadata(config).items()}
    )
    assert rebuilt == config


def test_config_from_metadata_rejects_bad_headers():
    header = {"command": "spectrum", "j": "25.0", "e1": "0.0", "e2": "0.0",
              "d1": "0.0", "d2": "0.0"}
    assert config_from_metadata(header) == RunConfig("spectrum", SystemParams())
    for key in header:
        with pytest.raises(ConfigError, match=f"missing {key}"):
            config_from_metadata({k: v for k, v in header.items() if k != key})
    with pytest.raises(ConfigError, match="metadata header: j must be positive"):
        config_from_metadata(header | {"j": "-1.0"})
    with pytest.raises(ConfigError, match="metadata header: expected an integer"):
        config_from_metadata(header | {"steps": "many"})
    # keys the reader does not know are not part of the run
    assert config_from_metadata(header | {"note": "x"}) == config_from_metadata(header)


# small runs of every command and sweep kind that writes a CSV
CSV_RUNS = [
    ["spectrum", "--d1", "2"],
    ["dynamics", "--ratio", "0.25", "--tmax", "0.2", "--steps", "3"],
    ["sweep", "eigen", "--d1", "1", "--d2", "1", "--state", "2", "--grid=-2:2:3"],
    ["sweep", "tunneling-dynamics", "--tmax", "0.2", "--steps", "3", "--grid=0:1:3"],
    ["sweep", "detuning-dynamics", "--ratio", "0.4", "--sign", "-1", "--tmax", "0.2",
     "--steps", "3", "--grid=-1:1:3"],
]


def test_config_from_metadata_requires_every_key_the_run_writes(tmp_path):
    for argv in CSV_RUNS:
        out = tmp_path / "run.csv"
        assert main(argv + ["--out", str(out)]) == 0
        data = out.read_bytes()
        meta = parse_metadata(data.decode("ascii"))
        assert build_config(build_parser().parse_args(argv)) == config_from_metadata(meta)
        for key in meta:
            with pytest.raises(ConfigError, match="metadata header: missing ") as info:
                config_from_metadata({k: v for k, v in meta.items() if k != key})
            assert key in str(info.value).partition("missing ")[2].split(", "), (argv, key)


@pytest.mark.parametrize("command", ["bell-times", "verify", "nonsense"])
def test_config_from_metadata_rejects_commands_that_write_no_csv(command):
    header = {"command": command, "j": "25.0", "e1": "0.0", "e2": "0.0",
              "d1": "0.0", "d2": "0.0"}
    with pytest.raises(ConfigError, match=f"metadata header: command '{command}' writes no CSV"):
        config_from_metadata(header)


def test_sweep_kind_is_checked_by_the_config_reader(capsys):
    code, out, err = run(capsys, "sweep", "bogus")
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown sweep kind 'bogus'; "
        "choose from eigen, tunneling-dynamics, detuning-dynamics\n"
    )


def _qmol_process(argv, unbuffered, stdout):
    src = os.path.dirname(os.path.dirname(qmol.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # PYTHONUNBUFFERED="" is off; "1" makes stdout's binary layer the raw file
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
    return subprocess.Popen(
        [sys.executable, "-m", "qmol", *argv], stdout=stdout, stderr=subprocess.PIPE, env=env
    )


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_reader_closing_the_pipe_mid_write_exits_141_quietly(unbuffered):
    # about 10.8 MB of CSV: the pipe fills, so the reader leaves mid-write
    with _qmol_process(["dynamics", "--steps", "200001"], unbuffered, subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"# command = dynamics\n"
        proc.stdout.close()
        assert (proc.wait(timeout=120), proc.stderr.read()) == (141, b"")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_reader_gone_before_the_flush_exits_141_quietly(unbuffered):
    # a table far smaller than stdout's buffer: buffered, it reaches the
    # pipe only when main flushes
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with _qmol_process(["spectrum"], unbuffered, write_end) as proc:
            assert (proc.wait(timeout=120), proc.stderr.read()) == (141, b"")
    finally:
        os.close(write_end)


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["qmol", "sweep"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_help_into_a_closed_pipe_exits_141_quietly(argv, unbuffered):
    # argparse prints the help and exits while parsing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with _qmol_process(argv, unbuffered, write_end) as proc:
            assert (proc.wait(timeout=120), proc.stderr.read()) == (141, b"")
    finally:
        os.close(write_end)


#: the usage block of each --help, as the per-command parsers printed it
#: before one table declared every key
USAGE = {
    "qmol": """\
usage: qmol [-h] {spectrum,dynamics,sweep,bell-times,verify} ...
""",
    "spectrum": """\
usage: qmol spectrum [-h] [--j UEV] [--d1 UEV] [--d2 UEV] [--e1 UEV]
                     [--e2 UEV] [--ratio R] [--config PATH] [--out PATH]
""",
    "dynamics": """\
usage: qmol dynamics [-h] [--j UEV] [--d1 UEV] [--d2 UEV] [--e1 UEV]
                     [--e2 UEV] [--ratio R] [--config PATH] [--init LABEL]
                     [--tmax NS] [--steps N] [--out PATH]
""",
    "sweep": """\
usage: qmol sweep [-h] [--j UEV] [--d1 UEV] [--d2 UEV] [--e1 UEV] [--e2 UEV]
                  [--ratio R] [--config PATH] [--init LABEL] [--tmax NS]
                  [--steps N] [--grid MIN:MAX:COUNT] [--state 0..3]
                  [--sign +1|-1] [--out PATH] [--pgm PATH]
                  [KIND]
""",
    "bell-times": """\
usage: qmol bell-times [-h] [--j UEV] [--d1 UEV] [--d2 UEV] [--e1 UEV]
                       [--e2 UEV] [--ratio R] [--config PATH] [--n N] [--m M]
""",
    "verify": """\
usage: qmol verify [-h]
""",
}


@pytest.mark.parametrize("command", USAGE)
def test_help_into_an_open_pipe_exits_0(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
    with pytest.raises(SystemExit) as info:
        main([command, "--help"] if command != "qmol" else ["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.partition("\n\n")[0] + "\n" == USAGE[command]


EIGEN_MAP = ["sweep", "eigen", "--d1", "1.5625", "--d2", "1.5625", "--state", "1"]


def _fresh_sweep_bytes(tmp_path, grid):
    csv, pgm = tmp_path / f"fresh-{grid}.csv", tmp_path / f"fresh-{grid}.pgm"
    assert main(EIGEN_MAP + [f"--grid={grid}", "--out", str(csv), "--pgm", str(pgm)]) == 0
    return csv.read_bytes(), pgm.read_bytes()


def test_shorter_rewrite_leaves_no_stale_tail(tmp_path):
    csv, pgm = tmp_path / "map.csv", tmp_path / "map.pgm"
    for grid in ("-25:25:9", "-25:25:3"):
        assert main(EIGEN_MAP + [f"--grid={grid}", "--out", str(csv), "--pgm", str(pgm)]) == 0
    assert (csv.read_bytes(), pgm.read_bytes()) == _fresh_sweep_bytes(tmp_path, "-25:25:3")


def test_out_to_dev_null(capsys):
    code, out, err = run(capsys, "dynamics", "--steps", "5", "--out", os.devnull)
    assert (code, out, err) == (0, "", "")


def test_out_through_symlink_keeps_the_link(tmp_path):
    target = tmp_path / "target.csv"
    target.write_bytes(b"x" * 100_000)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(EIGEN_MAP + ["--grid=-25:25:3", "--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == _fresh_sweep_bytes(tmp_path, "-25:25:3")[0]


def test_rewrite_keeps_permission_bits(tmp_path):
    out = tmp_path / "run.csv"
    out.write_bytes(b"old")
    out.chmod(0o640)
    assert main(["dynamics", "--steps", "5", "--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_bytes().startswith(b"# command = dynamics")


def test_out_and_pgm_on_one_path_leave_the_pgm(tmp_path):
    both = tmp_path / "both"
    assert main(EIGEN_MAP + ["--grid=-25:25:3", "--out", str(both), "--pgm", str(both)]) == 0
    assert both.read_bytes() == _fresh_sweep_bytes(tmp_path, "-25:25:3")[1]


#: qmol.__all__ before it was composed from the modules' own lists
_EARLIER_PACKAGE_NAMES = """__version__ HBAR_UEV_NS Basis StateVector basis_state POSITIONAL_LABELS
    BELL_LABELS BELL_MATRIX SystemParams build_positional build_bell EigenDecomposition
    hermitian_eigensolve EigenSystem eigensystem ResonantBranch ResonantSolution
    resonant_solution ResonanceKind classify_resonance ConcurrenceResult concurrence
    concurrence_pure spin_flip propagate propagate_rk4 analytic_populations BellCondition
    bell_condition Trajectory trajectory Axis SweepGrid eigen_concurrence_map
    dynamics_tunneling_map dynamics_detuning_map QmolError InvalidInput NonHermitianInput
    ConvergenceError NumericOverflow NotNormalized NotResonant NoRealSolution
    InvalidDensityMatrix ConfigError""".split()


def test_package_exports_every_error_class():
    # exit codes 2, 3 and 4 are documented per error class, so a caller
    # of `from qmol import *` must see each of them; every other public
    # name of the model modules is re-exported the same way
    import qmol

    assert set(qmol.errors.__all__) <= set(qmol.__all__)
    order = "units states hamiltonian linalg spectrum entanglement dynamics sweep errors"
    modules = [getattr(qmol, name) for name in order.split()]
    assert qmol.__all__ == ["__version__"] + [name for m in modules for name in m.__all__]
    assert len(set(qmol.__all__)) == len(qmol.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(qmol, name) is getattr(module, name), (module.__name__, name)
    star = {}
    exec("from qmol import *", star)
    assert set(star) - {"__builtins__"} == set(qmol.__all__)
    for name in _EARLIER_PACKAGE_NAMES:
        assert name in qmol.__all__ and hasattr(qmol, name), name
