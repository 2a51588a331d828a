"""Deterministic text and image serialization for trajectories and sweeps.

CSV files carry a `# key = value` metadata header holding the resolved run
configuration at full float precision, so any output file can be
regenerated byte-identically from its own header.  Numeric table content
uses fixed 6-decimal formatting.  Heatmaps are written as binary 8-bit
portable graymaps (P5) with gray = round(255 * concurrence) and row 0 at
the y-axis minimum.

Trajectory and sweep bodies are the bulk of every output file.  They are
printed a block of rows at a time, at most `_BLOCK_VALUES` numbers, by a
numpy kernel that gives exactly the bytes of `fmt6`: Python's `%.6f`,
which is correctly rounded with ties to even, and `0.000000` in place of
`-0.000000`.

- Rounding.  y = x * 1e6 (1e6 is exact in binary) and k = rint(y).  For
  |y| < 2**52, k and 0.5 are both multiples of u = ulp(y), so y - k is one
  too, and the exact product x * 10**6 lies within u/2 of y.  Unless
  |y - k| == 0.5, then |y - k| <= 0.5 - u, the exact product lies within
  0.5 - u/2 of k, and k is its correctly rounded value.  Where
  |y - k| == 0.5 (the true ties, which are the odd multiples of 1/128, and
  products that rounded onto a half) k is read back from `'%.6f' % x`.
  The sign is printed where k < 0, that is where x < 0 and k != 0, which
  is `fmt6`'s normalization of negative zero.
- Words.  Each field is two 8-byte words, ORed from tables indexed by the
  three-digit groups of |k|: an integer word with `-` or a zero byte
  first and the integer digits right-aligned, zero bytes in between, and
  a fraction word `.ddd` `ddd` followed by `,` or a newline.  The words are
  little-endian (`'<u8'`), so their bytes are the same on every host;
  deleting the zero bytes from the block's words leaves its CSV text.
- Narrow blocks.  A block whose rounded values all lie in
  0 <= k < 10**7, so that every field is `d.dddddd` (trajectory and
  tunneling-map bodies whose times and ratios lie in [0, 10)), is written
  as packed 9-byte records: the integer digit as one byte, then the
  fraction word.  Its bytes are the text as they stand, with no zero
  bytes to delete.  Any other block takes the words.
- Fallback.  A block that holds a NaN, an infinity or a magnitude of at
  least `_KERNEL_LIMIT` is printed with one `%` operation for the block,
  as before.  Only this route prints `nan`, `inf` or integer parts wider
  than six digits.

Blocks keep the temporaries to a fixed size, whatever the size of the
table.
"""

from __future__ import annotations

import functools
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

#: Numbers formatted per block of CSV body rows (rounded down to whole rows,
#: at least one row).
_BLOCK_VALUES = 8192

#: Blocks whose largest |x| lies below this go through the numpy kernel: x * 1e6
#: then rounds to at most 999 999 500 000, whose six integer digits fit the
#: integer word after its sign byte.  NaN compares false.
_KERNEL_LIMIT = 999999.5


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Word values that spell each 3-digit group at its place in a field.

    Built on first use, so that a process that prints no CSV body does not
    page in the numpy loops that build them.

    Integer word: byte 0 the sign, bytes 2-4 the digits above the
    thousands (none for 0), bytes 5-7 the last three, with leading zeros
    dropped (entry g) or kept after higher digits (entry 1000 + g).
    Fraction word: byte 0 `.`, bytes 1-3 and 4-6 the six decimals, byte 7
    the separator.
    """
    n = np.arange(1000, dtype=np.uint64)
    digits = [48 + n // 100, 48 + n // 10 % 10, 48 + n % 10]  # ASCII
    unpadded = [digits[0] * (n >= 100), digits[1] * (n >= 10), digits[2]]

    def word(chars, first_byte):
        return sum(c << np.uint64(8 * (first_byte + i)) for i, c in enumerate(chars))

    int_high = word(unpadded[:2] + [digits[2] * (n >= 1)], 2)
    int_low = np.concatenate([word(unpadded, 5), word(digits, 5)])
    frac_high = word(digits, 1) | np.uint64(ord("."))
    frac_low = word(digits, 4)
    return int_high, int_low, frac_high, frac_low


_MINUS = np.uint64(ord("-"))
#: A field of a narrow block: its one integer digit, then the fraction word.
_RECORD = np.dtype([("digit", "u1"), ("frac", "<u8")])
_COMMA, _NEWLINE = (np.uint64(ord(c) << 56) for c in ",\n")


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


def _fmt6_blocks(*columns: np.ndarray) -> list[bytes]:
    """CSV lines of `fmt6` fields, one line per row of the columns side by side.

    Each column is a 1-D array or a 2-D block of columns, all with the same
    number of rows.  The result is a list of blocks of consecutive rows,
    each ending in a newline.
    """
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    seps = np.full(width, _COMMA)
    seps[-1] = _NEWLINE
    step = max(1, _BLOCK_VALUES // width)
    return [
        _fmt6_block(np.column_stack([c[start:start + step] for c in columns]), seps)
        for start in range(0, columns[0].shape[0], step)
    ]


def _fmt6_block(block: np.ndarray, seps: np.ndarray) -> bytes:
    """The lines of one 2-D block, fields ending in `seps` by column."""
    if not np.abs(block).max() < _KERNEL_LIMIT:
        # `%.6f` is what `fmt6` prints; since a `-` only starts a field and
        # `%.6f` never prints an exponent, replacing "-0.000000" normalizes
        # exactly the fields that `fmt6` normalizes.
        row_format = ",".join(["%.6f"] * block.shape[1])
        text = "\n".join([row_format] * block.shape[0]) % tuple(block.ravel().tolist())
        return (text.replace("-0.000000", "0.000000") + "\n").encode("ascii")
    scaled = block * 1e6
    micros = np.rint(scaled)
    # exact except where |y - k| == 0.5 (see the module docstring)
    for i in np.flatnonzero(np.abs(scaled - micros) == 0.5):
        micros.flat[i] = int(("%.6f" % block.flat[i]).replace(".", ""))
    int_high_w, int_low_w, frac_high_w, frac_low_w = _digit_tables()
    k = micros.astype(np.int64)
    narrow = k.min() >= 0 and k.max() < 10_000_000
    if not narrow:
        k = np.abs(k)
    milli = k // 1000
    whole = milli // 1000
    frac = frac_high_w[milli - 1000 * whole] | frac_low_w[k - 1000 * milli] | seps
    if narrow:
        records = np.empty(block.shape, dtype=_RECORD)
        records["digit"] = whole + ord("0")
        records["frac"] = frac
        return records.tobytes()
    int_high = whole // 1000
    words = np.empty(block.shape + (2,), dtype="<u8")
    words[..., 0] = (
        (micros < 0) * _MINUS
        | int_high_w[int_high]
        | int_low_w[whole - 1000 * int_high + 1000 * (int_high > 0)]
    )
    words[..., 1] = frac
    return words.tobytes().translate(None, b"\0")


def _csv_bytes(lines: list[str], body: list[bytes]) -> bytes:
    return "".join(line + "\n" for line in lines).encode("ascii") + b"".join(body)


def trajectory_csv_bytes(traj: Trajectory, meta: dict) -> bytes:
    lines = metadata_lines(meta)
    lines.append("t_ns,P_LL,P_LR,P_RL,P_RR,concurrence")
    body = _fmt6_blocks(traj.times, traj.populations, traj.concurrence)
    return _csv_bytes(lines, body)


def sweep_csv_bytes(grid: SweepGrid, meta: dict) -> bytes:
    body = [b","] + _fmt6_blocks(grid.x_axis.values[np.newaxis, :])
    body += _fmt6_blocks(grid.y_axis.values, grid.values)
    return _csv_bytes(metadata_lines(meta), body)


def pgm_bytes(values: np.ndarray) -> bytes:
    """Binary P5 graymap of a [0, 1] matrix; row 0 is written first."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {values.shape}")
    gray = np.rint(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = gray.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + gray.tobytes()
