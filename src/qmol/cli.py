"""Command-line front end.

Subcommands:
    spectrum    table of eigenenergies, concurrences, and Bell weights
    dynamics    CSV trajectory of populations and concurrence
    sweep       CSV concurrence map (eigen, tunneling-dynamics, or
                detuning-dynamics kind) with optional PGM heatmap
    bell-times  tunneling ratio and earliest maximal-entanglement time
    verify      run the built-in invariant battery

Parameter precedence is command-line flags over config-file keys over
defaults (j = 25 ueV, detunings and tunnelings 0).  Config files are
line-oriented `key = value` text with `#` comments.  Every CSV starts
with the `# key = value` header `_metadata` writes, which reruns only
if it holds all of its keys; exit codes are 0 (ok), 2 (bad input),
3 (numeric failure), 4 (no solution), 141 (output pipe closed).
Flags, config-file keys and CSV-header keys are declared in one table,
`_KEYS`, and read by one function, `_run_config`, which only converts
text; each range is checked by the library function that uses the value.
Each command renders its output as bytes (`_outputs`) and `main` writes
them through `_emit`.

Output files are rewritten in place: `_emit` opens an existing file
without truncating it, writes the new bytes over the old ones and then
cuts a regular file at the new length.  Truncating to zero length on open
(`open(path, "wb")`) makes ext4, with its default `auto_da_alloc`, start
write-back of the new data on close, and the next such open of the same
path waits for that write-back, about 20-50 ms per file; writing a temp
file and renaming it over the path stalls the same way.  Rewriting in
place keeps symlinks, hard links, permission bits and special files such
as FIFOs and /dev/null working as they did.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from dataclasses import dataclass
from math import pi

import numpy as np

from .dynamics import MAX_PHASE, bell_condition, propagate, trajectory
from .entanglement import concurrence_pure
from .errors import ConfigError, InvalidInput, NoRealSolution, QmolError
from .hamiltonian import SystemParams
from .serialize import (
    _column_fields,
    pgm_bytes,
    sweep_csv_bytes,
    table_csv_bytes,
    trajectory_csv_bytes,
)
from .spectrum import eigensystem
from .states import BELL_DISPLAY, basis_state, canonical_label
from .sweep import SweepGrid, dynamics_detuning_map, dynamics_tunneling_map, eigen_concurrence_map
from .verify import run_all

__all__ = ["RunConfig", "main", "build_config", "config_from_metadata"]

SWEEP_KINDS = ("eigen", "tunneling-dynamics", "detuning-dynamics")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved inputs of one CLI invocation."""

    command: str
    params: SystemParams
    init: str = "RL"
    tmax: float = 3.0
    steps: int = 301
    kind: str = "eigen"
    state: int = 1
    sign: int = 1
    grid: tuple[float, float, int] | None = None
    n: int = 1
    m: int = 1
    out: str | None = None
    pgm: str | None = None


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _kind(text: str) -> str:
    # checked here, not where it is used: _sweep_grid runs every
    # unknown kind as detuning-dynamics
    if text not in SWEEP_KINDS:
        raise ConfigError(
            f"unknown sweep kind {text!r}; choose from {', '.join(SWEEP_KINDS)}"
        )
    return text


def _grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be MIN:MAX:COUNT, got {text!r}")
    return _float(parts[0]), _float(parts[1]), _int(parts[2])


_COMMANDS = {
    "spectrum": "eigenvalues and eigenstate concurrences",
    "dynamics": "time evolution of one initial state",
    "sweep": "two-parameter concurrence map",
    "bell-times": "maximal-entanglement condition",
    "verify": "run the built-in invariant battery",
}

_MODEL_COMMANDS = tuple(command for command in _COMMANDS if command != "verify")

#: Every key of a flag, config file or CSV header, in `--help` order: its
#: text-to-value conversion, the commands that take it as a flag, and that
#: flag's metavar and help.  Ranges are not checked here but by the library
#: function that uses the value, which raises InvalidInput; a key the
#: command does not use is parsed and otherwise ignored.  Defaults live in
#: RunConfig and SystemParams; a help text that names one repeats it.
_KEYS = {
    "j": (_float, _MODEL_COMMANDS, "UEV", "Coulomb coupling (default 25)"),
    "d1": (_float, _MODEL_COMMANDS, "UEV", "tunneling amplitude of qubit 1"),
    "d2": (_float, _MODEL_COMMANDS, "UEV", "tunneling amplitude of qubit 2"),
    "e1": (_float, _MODEL_COMMANDS, "UEV", "detuning of qubit 1"),
    "e2": (_float, _MODEL_COMMANDS, "UEV", "detuning of qubit 2"),
    "ratio": (_float, _MODEL_COMMANDS, "R", "set d1 = d2 = R * j"),
    "init": (canonical_label, ("dynamics", "sweep"), "LABEL", "initial state (default RL)"),
    "tmax": (_float, ("dynamics", "sweep"), "NS", "time span (default 3)"),
    "steps": (_int, ("dynamics", "sweep"), "N", "time grid points (default 301)"),
    "kind": (_kind, (), None, None),  # the sweep's positional KIND
    "grid": (_grid, ("sweep",), "MIN:MAX:COUNT", "swept-axis grid"),
    "state": (_int, ("sweep",), "0..3", "eigenstate index (eigen kind)"),
    "sign": (_int, ("sweep",), "+1|-1", "e2 = sign * e1 (detuning kind)"),
    "out": (str, ("spectrum", "dynamics", "sweep"), "PATH",
            "write the CSV here, not to stdout (spectrum: to both)"),
    "pgm": (str, ("sweep",), "PATH", "also write a P5 graymap"),
    "n": (_int, ("bell-times",), "N", "plus-block half-periods (default 1)"),
    "m": (_int, ("bell-times",), "M", "minus-block quarter-periods, odd (default 1)"),
}

#: Keys that become SystemParams fields rather than RunConfig fields.
_PARAM_FIELDS = {"j": "j", "e1": "eps1", "e2": "eps2", "d1": "delta1", "d2": "delta2"}

#: ratio is shorthand for equal tunnelings; giving either side on the
#: command line overrides the whole group from the config file.
_TUNNELING_KEYS = ("ratio", "d1", "d2")

def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="ascii") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def _run_config(command: str, raw: dict[str, str]) -> RunConfig:
    """The RunConfig of `command` from `key = value` text; absent keys default."""
    if "ratio" in raw and ("d1" in raw or "d2" in raw):
        raise ConfigError("--ratio conflicts with --d1/--d2; give one or the other")
    values = {key: _KEYS[key][0](text) for key, text in raw.items()}
    physical = {
        field: values.pop(key) for key, field in _PARAM_FIELDS.items() if key in values
    }
    if "ratio" in values:
        params = SystemParams.from_ratio(values.pop("ratio"), **physical)
    else:
        params = SystemParams(**physical)
    return RunConfig(command=command, params=params, **values)


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags over config-file keys into a RunConfig."""
    flag_raw = {
        key: value
        for key, value in vars(args).items()
        if key in _KEYS and value is not None
    }
    file_raw = _read_config_file(args.config) if getattr(args, "config", None) else {}
    if any(key in flag_raw for key in _TUNNELING_KEYS):
        for key in _TUNNELING_KEYS:
            file_raw.pop(key, None)
    return _run_config(args.command, file_raw | flag_raw)


def _resolved_grid(config: RunConfig) -> tuple[float, float, int]:
    if config.grid is not None:
        return config.grid
    if config.kind == "tunneling-dynamics":
        return 0.0, 1.0, 201
    return -config.params.j, config.params.j, 201


def _grid_text(grid: tuple[float, float, int]) -> str:
    return f"{grid[0]!r}:{grid[1]!r}:{grid[2]}"


def _metadata(config: RunConfig) -> dict:
    kind = config.kind if config.command == "sweep" else None
    meta: dict = {"command": config.command}
    if kind:
        meta["kind"] = kind
    meta |= {key: getattr(config.params, field) for key, field in _PARAM_FIELDS.items()}
    if kind:
        meta["grid"] = _grid_text(_resolved_grid(config))
    if kind == "eigen":
        meta["state"] = config.state
    elif kind or config.command == "dynamics":
        meta |= {key: getattr(config, key) for key in ("init", "tmax", "steps")}
    if kind == "detuning-dynamics":
        meta["sign"] = f"{config.sign:+d}"
    return meta


def config_from_metadata(meta: dict[str, str]) -> RunConfig:
    """Rebuild the RunConfig of a CSV header that holds every key `_metadata` writes."""
    try:
        command = meta.get("command")
        if command not in _KEYS["out"][1]:
            why = f"command {command!r} writes no CSV" if command else "missing command"
            raise ConfigError(why)
        raw = {key: value for key, value in meta.items() if key in _KEYS}
        config = _run_config(command, raw)
        missing = [key for key in _metadata(config) if key not in meta]
        if missing:
            raise ConfigError(f"missing {', '.join(missing)}")
        return config
    except InvalidInput as exc:
        raise ConfigError(f"incomplete or invalid metadata header: {exc}") from None


def render_spectrum(config: RunConfig) -> bytes:
    system = eigensystem(config.params)
    weights = [state.to_bell().probabilities for state in system.states]
    dominant = [int(np.argmax(w)) for w in weights]
    rows = zip(
        "0123",
        _column_fields(system.energies),
        _column_fields([concurrence_pure(s) for s in system.states], bounded=True),
        [BELL_DISPLAY[k] for k in dominant],
        _column_fields([w[k] for w, k in zip(weights, dominant)], bounded=True),
        ["yes" if flag else "no" for flag in system.degenerate_states],
    )
    header = ("state", "energy_ueV", "concurrence", "dominant_bell", "weight", "degenerate")
    return table_csv_bytes(_metadata(config), header, rows)


def render_dynamics(config: RunConfig) -> bytes:
    traj = trajectory(
        config.params, basis_state(config.init), config.tmax, config.steps
    )
    return trajectory_csv_bytes(traj, _metadata(config))


def render_sweep(config: RunConfig) -> tuple[bytes, bytes]:
    grid = _sweep_grid(config)
    return sweep_csv_bytes(grid, _metadata(config)), pgm_bytes(grid.values)


def _sweep_grid(config: RunConfig) -> SweepGrid:
    lo, hi, count = _resolved_grid(config)
    if config.kind == "eigen":
        return eigen_concurrence_map(config.params, config.state, lo, hi, count)
    if config.kind == "tunneling-dynamics":
        return dynamics_tunneling_map(
            config.params, config.tmax, config.steps, lo, hi, count,
            basis_state(config.init),
        )
    return dynamics_detuning_map(
        config.params, config.tmax, config.steps, lo, hi, count,
        basis_state(config.init), config.sign,
    )


def render_bell_times(config: RunConfig) -> bytes:
    condition = bell_condition(config.n, config.m, config.params.j)
    try:
        evolved = propagate(condition.params(), basis_state("RL"), condition.t_e)
    except InvalidInput:  # its phase limit, which at t_e is n * pi whatever m and j are
        raise InvalidInput(
            f"n = {condition.n}, m = {condition.m}: the concurrence check propagates "
            f"through a phase of n * pi rad, which exceeds {MAX_PHASE:g} rad for "
            f"n above {int(MAX_PHASE / pi)}"
        ) from None
    checked = concurrence_pure(evolved)
    lines = [
        f"n = {condition.n}",
        f"m = {condition.m}",
        f"j_ueV = {_column_fields([condition.j])[0]}",
        f"ratio = {_column_fields([condition.ratio])[0]}",
        f"delta1_ueV = {_column_fields([condition.delta1])[0]}",
        f"t_e_ns = {_column_fields([condition.t_e])[0]}",
        f"concurrence_at_t_e = {_column_fields([checked], bounded=True)[0]}",
    ]
    return ("\n".join(lines) + "\n").encode("ascii")


def _outputs(config: RunConfig) -> list[tuple[bytes, str | None]]:
    """The files a command writes, in order, as (bytes, path); None is stdout."""
    if config.command == "spectrum":
        data = render_spectrum(config)
        return [(data, None)] + ([(data, config.out)] if config.out else [])
    if config.command == "dynamics":
        return [(render_dynamics(config), config.out)]
    if config.command == "sweep":
        # the PGM only when asked: rendering one takes a map-sized temporary
        grid = _sweep_grid(config)
        csv_out = [(sweep_csv_bytes(grid, _metadata(config)), config.out)]
        return csv_out + ([(pgm_bytes(grid.values), config.pgm)] if config.pgm else [])
    return [(render_bell_times(config), None)]


def _emit(data: bytes, path: str | None) -> None:
    if path is None:
        binary = getattr(sys.stdout, "buffer", None)
        if binary is None:  # a text-only stream such as io.StringIO
            sys.stdout.write(data.decode("ascii"))
            return
        # past the text layer: under `python -u` it writes once to the raw
        # file and drops what a short write leaves, such as at a closed pipe
        sys.stdout.flush()
        view = memoryview(data)
        while view:
            view = view[binary.write(view):]
    else:
        # no O_TRUNC: see the module docstring
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as handle:
            handle.write(data)
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate()


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print drops an OSError, so that help into a closed
        # pipe would exit 0; main reports it as the other writes
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmol",
        description="Coupled charge-qubit spectra, dynamics, and entanglement maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMANDS.items():
        subparser = sub.add_parser(command, help=summary)
        if command == "sweep":
            subparser.add_argument(
                "kind", nargs="?", metavar="KIND",
                help=f"map kind: {', '.join(SWEEP_KINDS)} (default eigen)",
            )
        for key, (_, commands, metavar, text) in _KEYS.items():
            if command in commands:
                subparser.add_argument(f"--{key}", metavar=metavar, help=text)
                if key == "ratio":  # then --config, which names a source of keys
                    subparser.add_argument(
                        "--config", metavar="PATH", help="key = value config file"
                    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use and kept for the process.

    Building it takes about a millisecond, which a small request would
    otherwise pay on every call; parsing leaves no state in it, since each
    `parse_args` fills a new Namespace.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
        finally:
            # --help prints and exits: its text reaches a closed pipe here,
            # not in the exit flush
            sys.stdout.flush()
        config = build_config(args)
        if config.command == "verify":
            code = 0 if run_all(functools.partial(print, flush=True)) else 3
        else:
            for data, path in _outputs(config):
                _emit(data, path)
            code = 0
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # exit quietly as if killed by SIGPIPE; /dev/null takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoRealSolution as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except QmolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
