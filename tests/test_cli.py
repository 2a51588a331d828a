import warnings

import numpy as np
import pytest

from qmol.cli import (
    RunConfig,
    build_parser,
    config_from_metadata,
    main,
    render_dynamics,
    render_sweep,
)
from qmol.hamiltonian import SystemParams
from qmol.serialize import parse_metadata
from qmol.spectrum import resonant_solution


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


def test_bell_times_no_solution_exit_code(capsys):
    code, _, err = run(capsys, "bell-times", "--n", "1", "--m", "3")
    assert code == 4
    assert "no real" in err.lower()


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


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jj = 20\n")
    code, _, err = run(capsys, "dynamics", "--config", str(cfg))
    assert code == 2
    assert "jj" in err


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


def test_spectrum_at_huge_energies(capsys):
    code, out, err = run(capsys, "spectrum", "--j", "1e300", "--d1", "1e300")
    assert code == 0, err
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    energies = np.array([float(r.split(",")[1]) for r in rows])
    # the closed form itself overflows at j = 1e300, so scale it up from j = 1
    exact = np.sort(resonant_solution(SystemParams(j=1.0, delta1=1.0)).energies) * 1e300
    assert np.all(np.abs(energies - exact) <= 1e-12 * np.abs(exact))


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
    ],
)
def test_library_argument_checks_exit_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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
