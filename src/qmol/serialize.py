"""Deterministic text and image serialization for trajectories and sweeps.

CSV files carry a `# key = value` metadata header holding the resolved run
configuration at full float precision, so any output file can be
regenerated byte-identically from its own header.  Numbers print with six
digits after the point, in one format per column (`_column_format`).
Heatmaps are written as binary 8-bit portable graymaps (P5) with
gray = round(255 * concurrence) and row 0 at the y-axis minimum.

Trajectory and sweep bodies are the bulk of every output file.  They are
printed a block of rows at a time, at most `_BLOCK_VALUES` numbers, by a
numpy kernel that gives exactly the bytes of `fmt6`: Python's `%.6f`,
which is correctly rounded with ties to even, and `0.000000` in place of
`-0.000000`.  A column in `%.6e`, or one that holds a NaN, an infinity or
a magnitude of at least `_KERNEL_LIMIT`, is printed with `%` on its own.

- Rounding.  y = x * 1e6 (1e6 is exact in binary) and k = rint(y).  For
  |y| < 2**52, k and 0.5 are both multiples of u = ulp(y), so y - k is one
  too, and the exact product x * 10**6 lies within u/2 of y.  Unless
  |y - k| == 0.5, then |y - k| <= 0.5 - u, the exact product lies within
  0.5 - u/2 of k, and k is its correctly rounded value.  Where
  |y - k| == 0.5 (the true ties, which are the odd multiples of 1/128, and
  products that rounded onto a half) the rounding error e = x * 10**6 - y
  is taken exactly, from Veltkamp's split of x (Dekker, Numer. Math. 18,
  1971): the product lies above the half when e has the sign of y - k, and
  k moves one step toward y; below it, k stays; on it (e == 0), k keeps
  rint's half-even.  The sign is printed where k < 0, that is where x < 0
  and k != 0, which is `fmt6`'s normalization of negative zero.
- Fields.  A row is one numpy record.  Each column (or block of columns
  that share a layout) has one layout per table: a sign byte if it has a
  negative field, a byte for each integer digit before the last if its
  largest integer part has more than one, an 8-byte little-endian word
  `d.dddddd`, and a `,` or newline byte.  The word is
  head[k // 1000] | tail[k % 1000] (the integer digits before the last
  taken off first), from a 10 000-entry `d.ddd` table and a 1 000-entry
  `ddd` table, so a one-digit field costs two lookups.  A `%` column is a
  zero-padded string.  Deleting the unused (zero) bytes with
  `bytes.replace`, which skips from zero to zero at memchr speed, leaves
  the CSV text; `d.dddddd` tables (trajectories up to 10 ns, tunneling
  maps) have none.

Blocks keep the temporaries to a fixed size, whatever the size of the
table.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np

from .dynamics import Trajectory
from .errors import _checked_array
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

#: Columns whose largest |x| lies below this go through the numpy kernel: x * 1e6
#: then rounds to at most 999 999 500 000, six integer digits.  NaN compares
#: false.
_KERNEL_LIMIT = 999999.5


@functools.cache
def _word_tables() -> tuple[np.ndarray, np.ndarray]:
    """Word values that spell `d.ddd` (bytes 0-4) and `ddd` (bytes 5-7).

    A field's 8-byte little-endian word `d.dddddd` is head[k // 1000] |
    tail[k % 1000] for k = round(|x| * 10**6) below 10**7.  Built on first
    use, so that a process that prints no CSV body does not page in the
    numpy loops that build them.
    """
    n = np.arange(10_000, dtype=np.uint64)
    ddd = sum((48 + n // 10**p % 10) << np.uint64(8 * (2 - p)) for p in range(3))  # ASCII
    head = (48 + n // 1000) | np.uint64(ord(".") << 8) | ddd << np.uint64(16)
    return head, ddd[:1000] << np.uint64(40)


def fmt6(x: float) -> str:
    """Fixed 6-decimal rendering; negative zero normalizes to zero."""
    out = f"{float(x):.6f}"
    return "0.000000" if out == "-0.000000" else out


def _meta_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        raise TypeError("boolean metadata is ambiguous; use explicit strings")
    if isinstance(v, float):  # np.float64 too, which would repr as np.float64(...)
        return repr(float(v))
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
    return _csv_bytes(metadata_lines(meta) + [",".join(row) for row in (header, *rows)], [])


def _column_format(values, bounded: bool = False) -> str:
    """`%.6f` or `%.6e`, the format of every field of one printed column.

    Columns of values in [0, 1] (populations, concurrence, weights) are
    `bounded` and take `%.6f`.  A unit column takes `%.6e` where `%.6f` would
    print its largest finite |x| as zero or with over 17 significant digits.
    """
    if bounded:
        return "%.6f"
    a = np.abs(np.asarray(values, dtype=float))
    big = a.max(initial=0.0, where=a < np.inf)
    digits = fmt6(big).replace(".", "").lstrip("0")
    return "%.6e" if big and not digits or len(digits) > 17 else "%.6f"


def _column_fields(values, bounded: bool = False) -> list[str]:
    """The fields of one column as tables print them."""
    body = b"".join(_fmt6_blocks((np.asarray(values, dtype=float), bounded)))
    return body.decode("ascii").split("\n")[:-1]


def _fmt6_blocks(*columns: tuple[np.ndarray, bool]) -> list[bytes]:
    """CSV lines of the columns side by side, in blocks of consecutive rows.

    Each column, a 1-D array or a 2-D block of columns with the same number
    of rows, comes with whether its values lie in [0, 1] (`_column_format`).
    """
    spans, width = [], 0  # [first column, stop, format, sign, integer width]
    for values, bounded in columns:
        lo, hi = float(values.min()), float(values.max())
        # finite extremes settle the format without a pass over the column
        fmt = _column_format((lo, hi) if -np.inf < lo <= hi < np.inf else values, bounded)
        kernel = fmt == "%.6f" and -_KERNEL_LIMIT < lo <= hi < _KERNEL_LIMIT  # else `%`
        sign, digits = (int(fmt6(lo)[0] == "-"), len(fmt6(max(-lo, hi))) - 7) if kernel else (0, 0)
        if not (digits and spans and spans[-1][2:] == [fmt, sign, digits]):
            spans.append([width, None, fmt, sign, digits])  # else the last span grows
        width = spans[-1][1] = width + (values.shape[1] if values.ndim == 2 else 1)
    seps = np.full(width, ord(","), dtype=np.uint8)
    seps[-1] = ord("\n")
    step = max(1, _BLOCK_VALUES // width)
    return [
        _fmt6_block(np.column_stack([c[start:start + step] for c, _ in columns]), spans, seps)
        for start in range(0, columns[0][0].shape[0], step)
    ]


def _fmt6_block(block: np.ndarray, spans: list, seps: np.ndarray) -> bytes:
    """The lines of one 2-D block, its columns laid out by `spans`."""
    fields, texts = [], {}
    for a, b, fmt, sign, width in spans:
        if width:
            layout = [("sign", "u1")] * sign + [("int", "u1", (width - 1,))] * (width > 1)
            fields.append((str(a), layout + [("word", "<u8"), ("sep", "u1")], (b - a,)))
        else:
            row_format = ",".join([fmt] * (b - a)) + ("\n" if b == len(seps) else ",")
            text = "\0".join([row_format] * block.shape[0]) % tuple(block[:, a:b].ravel().tolist())
            # a `-` only starts a field, so this unsigns exactly the negative zeros
            texts[a] = np.array(text.replace("-0.000000", "0.000000").split("\0"), dtype="S")
            fields.append((str(a), texts[a].dtype))
            block[:, a:b] = 0.0  # the kernel does not print them
    records = np.empty(block.shape[0], dtype=fields)
    scaled = block * 1e6
    micros = np.rint(scaled)
    # exact except where |y - k| == 0.5 (see the module docstring)
    ties = np.flatnonzero(np.abs(scaled - micros) == 0.5)
    if ties.size:
        x, y = block.flat[ties], scaled.flat[ties]
        half = y - micros.flat[ties]
        high = x * 134217729.0  # Veltkamp's split of x, 2**27 + 1
        high -= high - x
        error = (high * 1e6 - y) + (x - high) * 1e6  # x * 10**6 - y, exactly (Dekker)
        micros.flat[ties] += np.where(error * half > 0.0, 2.0 * half, 0.0)
    k = micros.astype(np.int64)
    for a, b, _, sign, width in spans:
        if sign:
            records[str(a)]["sign"] = (k[:, a:b] < 0) * np.uint8(ord("-"))
            np.abs(k[:, a:b], out=k[:, a:b])
    milli = k // 1000
    k -= 1000 * milli  # the last three decimals
    tens = {}
    for a, b, _, _, width in spans:
        if width > 1:  # the digits before the last go in the integer bytes
            tens[a] = milli[:, a:b] // 10_000
            milli[:, a:b] -= 10_000 * tens[a]
    head, tail = _word_tables()
    # `take` skips the bounds checks of indexing; milli lies in [0, 10 000)
    # and k in [0, 1000)
    word = head.take(milli, mode="clip") | tail.take(k, mode="clip")
    for a, b, _, _, width in spans:
        if not width:
            records[str(a)] = texts[a]
            continue
        field = records[str(a)]
        for i in range(width - 1):  # right-aligned, leading zeros as zero bytes
            top = tens[a] // 10 ** (width - 2 - i) if i < width - 2 else tens[a]
            field["int"][..., i] = ((top % 10 if i else top) + 48) * (top > 0)
        field["word"] = word[:, a:b]
        field["sep"] = seps[a:b]
    data = records.tobytes()
    return data if all(span[3:] == [0, 1] for span in spans) else data.replace(b"\0", b"")


def _csv_bytes(lines: list[str], body: list[bytes]) -> bytes:
    return b"".join(["".join(line + "\n" for line in lines).encode("ascii"), *body])


def trajectory_csv_bytes(traj: Trajectory, meta: dict) -> bytes:
    lines = metadata_lines(meta)
    lines.append("t_ns,P_LL,P_LR,P_RL,P_RR,concurrence")
    body = _fmt6_blocks((traj.times, False), (traj.populations, True), (traj.concurrence, True))
    return _csv_bytes(lines, body)


def sweep_csv_bytes(grid: SweepGrid, meta: dict) -> bytes:
    body = [b","] + _fmt6_blocks((grid.x_axis.values[np.newaxis, :], False))  # one row
    body += _fmt6_blocks((grid.y_axis.values, False), (grid.values, True))
    return _csv_bytes(metadata_lines(meta), body)


def pgm_bytes(values: np.ndarray) -> bytes:
    """Binary P5 graymap of a [0, 1] matrix; row 0 is written first.

    values may be any 2-D array of finite integers or floats; values
    outside [0, 1] are clipped to it.  Anything else raises InvalidInput.
    """
    values = _checked_array(values, "values", (None, None), finite=True)
    gray = np.rint(np.clip(values, 0.0, 1.0) * 255.0).astype(np.uint8)
    height, width = gray.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + gray.tobytes()
