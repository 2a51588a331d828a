"""Deterministic text and image serialization for trajectories and sweeps.

CSV files carry a `# key = value` metadata header holding the resolved run
configuration at full float precision, so any output file can be
regenerated byte-identically from its own header.  Numeric table content
uses fixed 6-decimal formatting.  Heatmaps are written as binary 8-bit
portable graymaps (P5) with gray = round(255 * concurrence) and row 0 at
the y-axis minimum.

Trajectory and sweep bodies are the bulk of every output file, so they are
formatted a block of rows at a time: one `%` operation per block of about
`_BLOCK_VALUES` numbers instead of one `fmt6` call per number, which gives
the same bytes in about a third of the time.  Blocks keep the temporary
Python floats to a fixed size, whatever the size of the table.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .dynamics import Trajectory
from .sweep import SweepGrid

__all__ = [
    "fmt6",
    "metadata_lines",
    "parse_metadata",
    "table_csv_bytes",
    "trajectory_csv_bytes",
    "sweep_csv_bytes",
    "pgm_bytes",
]

#: Numbers formatted per `%` operation in CSV bodies (rounded down to
#: whole rows, at least one row).
_BLOCK_VALUES = 8192


def fmt6(x: float) -> str:
    """Fixed 6-decimal rendering; negative zero normalizes to zero."""
    out = f"{float(x):.6f}"
    return "0.000000" if out == "-0.000000" else out


def _meta_value(v) -> str:
    if isinstance(v, bool):
        raise TypeError("boolean metadata is ambiguous; use explicit strings")
    if isinstance(v, float):
        return repr(v)
    return str(v)


def metadata_lines(meta: dict) -> list[str]:
    return [f"# {key} = {_meta_value(value)}" for key, value in meta.items()]


def parse_metadata(text: str) -> dict[str, str]:
    """Read the `# key = value` header block back into raw strings."""
    meta: dict[str, str] = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if not body or "=" not in body:
            continue
        key, _, value = body.partition("=")
        meta[key.strip()] = value.strip()
    return meta


def table_csv_bytes(meta: dict, header: Sequence[str], rows: Iterable[Sequence[str]]) -> bytes:
    lines = metadata_lines(meta)
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return ("\n".join(lines) + "\n").encode("ascii")


def _fmt6_blocks(*columns: np.ndarray) -> list[str]:
    """CSV lines of `fmt6` fields, one line per row of the columns side by side.

    Each column is a 1-D array or a 2-D block of columns, all with the same
    number of rows.  The result is a list of blocks, each holding the
    lines of consecutive rows joined by newlines.  `%.6f` is what `fmt6`
    prints; since a `-` only starts a field and `%.6f` never prints an
    exponent, replacing "-0.000000" in a block normalizes exactly the
    fields that `fmt6` normalizes.
    """
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    row_format = ",".join(["%.6f"] * width)
    step = max(1, _BLOCK_VALUES // width)
    blocks = []
    for start in range(0, columns[0].shape[0], step):
        block = np.column_stack([c[start:start + step] for c in columns])
        text = "\n".join([row_format] * block.shape[0]) % tuple(block.ravel().tolist())
        blocks.append(text.replace("-0.000000", "0.000000"))
    return blocks


def trajectory_csv_bytes(traj: Trajectory, meta: dict) -> bytes:
    lines = metadata_lines(meta)
    lines.append("t_ns,P_LL,P_LR,P_RL,P_RR,concurrence")
    lines.extend(_fmt6_blocks(traj.times, traj.populations, traj.concurrence))
    return ("\n".join(lines) + "\n").encode("ascii")


def sweep_csv_bytes(grid: SweepGrid, meta: dict) -> bytes:
    lines = metadata_lines(meta)
    lines.append("," + _fmt6_blocks(grid.x_axis.values[np.newaxis, :])[0])
    lines.extend(_fmt6_blocks(grid.y_axis.values, grid.values))
    return ("\n".join(lines) + "\n").encode("ascii")


def pgm_bytes(values: np.ndarray) -> bytes:
    """Binary P5 graymap of a [0, 1] matrix; row 0 is written first."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    gray = np.rint(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = gray.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + gray.tobytes()
