"""2-D concurrence scans: eigenstate maps over detunings and dynamics maps.

Every map is solved by the batched real-symmetric Jacobi kernel, whose
arithmetic in each cell is identical to the scalar solver's: eigen maps
in row-major blocks of at most `_BLOCK_CELLS` grid cells, dynamics maps
in blocks of at most `_BLOCK_CELLS` rows, one Hamiltonian per row.  The
kernel is deterministic, so identical inputs always produce bit-identical
grids.  A map is rerun from the CSV header the CLI writes for it (see
`qmol.cli.config_from_metadata`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .dynamics import _check_output_size, _concurrence_rows, _positional
from .entanglement import _flip_form
from .errors import InvalidInput, QmolError
from .errors import _checked_array, _checked_float, _checked_int, _checked_type
from .hamiltonian import SystemParams, _positional_matrices
from .linalg import pair_flags_to_states, symmetric_eigensolve_batch

# Unused here since eigen maps solve in batches, but bench/test_bench.py
# checks that tracing patches and restores this module attribute.
from .linalg import hermitian_eigensolve  # noqa: F401
from .spectrum import _check_resonant
from .states import StateVector

__all__ = [
    "Axis",
    "SweepGrid",
    "eigen_concurrence_map",
    "dynamics_tunneling_map",
    "dynamics_detuning_map",
]

#: Most grid cells (eigen maps) or rows (dynamics maps) a map hands to the
#: batched solver at once, so the solver's working memory does not grow
#: with the grid.
_BLOCK_CELLS = 4096
#: Most rows x times a dynamics map evaluates at once, so that its
#: temporaries do not grow with the block.
_SLICE_POINTS = 2**14


@dataclass(frozen=True)
class Axis:
    """One scan axis: finite endpoints (stored as floats), inclusive; values evenly spaced."""

    name: str
    minimum: float
    maximum: float
    count: int
    unit: str

    def __post_init__(self) -> None:
        axis = f"axis {self.name!r}"
        count = _checked_int(self.count, f"{axis} count", 2)
        lo = _checked_float(self.minimum, f"{axis} minimum")
        hi = _checked_float(self.maximum, f"{axis} maximum")
        for field, value in (("count", count), ("minimum", lo), ("maximum", hi)):
            object.__setattr__(self, field, value)
        if not (hi > lo and isfinite(hi - lo)):
            raise InvalidInput(
                f"{axis} needs a finite maximum - minimum > 0, got [{lo!r}, {hi!r}]"
            )

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class SweepGrid:
    """Concurrence values on a 2-D grid.

    values[iy, ix] belongs to (y_axis.values[iy], x_axis.values[ix]); all
    values lie in [0, 1].  For eigenstate maps, degenerate_mask marks the
    cells whose eigenvector sits in a near-degenerate pair and is
    therefore basis-ambiguous (the value is still emitted under the
    solver's phase convention).

    values may be any (y count, x count) array of finite integers or
    floats, degenerate_mask one of bools; they are stored as read-only
    float and bool arrays, without a copy where they already are such.
    Anything else raises InvalidInput.
    """

    x_axis: Axis
    y_axis: Axis
    values: np.ndarray
    degenerate_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        for axis, name in ((self.x_axis, "x_axis"), (self.y_axis, "y_axis")):
            _checked_type(axis, Axis, name)
        shape = (self.y_axis.count, self.x_axis.count)
        arrays = {"values": _checked_array(self.values, "values", shape, finite=True)}
        if self.degenerate_mask is not None:
            mask = _checked_array(self.degenerate_mask, "degenerate_mask", shape, bool)
            arrays["degenerate_mask"] = mask
        for field, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, field, array)


def eigen_concurrence_map(
    base: SystemParams,
    state_index: int,
    eps_min: float | None = None,
    eps_max: float | None = None,
    eps_steps: int = 201,
) -> SweepGrid:
    """Concurrence of one eigenstate over the (eps1, eps2) plane.

    Both axes share the same range, by default [-j, j]; eps1 runs along x
    and eps2 along y.  Each cell diagonalizes the Hamiltonian with the
    grid detunings (tunnelings and Coulomb coupling from `base`) and takes
    the pure-state concurrence of the requested ascending-energy state.
    The cells are solved in blocks by `symmetric_eigensolve_batch`; each
    value and mask entry equals what `hermitian_eigensolve` and
    `concurrence_pure` give for that cell alone.

    Raises:
        InvalidInput: for a state index outside 0..3 or a map of more than
            MAX_OUTPUT_VALUES cells.
    """
    _checked_type(base, SystemParams, "base")
    state_index = _checked_int(state_index, "state_index", 0, 3)
    lo = -base.j if eps_min is None else eps_min
    hi = base.j if eps_max is None else eps_max
    x_axis = Axis("eps1", lo, hi, eps_steps, "ueV")
    y_axis = Axis("eps2", lo, hi, eps_steps, "ueV")
    steps = x_axis.count
    _check_output_size("a map", steps, steps)
    xs = x_axis.values
    ys = y_axis.values
    cells = steps * steps
    values = np.empty(cells)
    mask = np.empty(cells, dtype=bool)
    for start in range(0, cells, _BLOCK_CELLS):
        stop = min(start + _BLOCK_CELLS, cells)
        iy, ix = np.divmod(np.arange(start, stop), steps)
        h = _positional_matrices(xs[ix], ys[iy], base.delta1, base.delta2, base.j)
        _, vectors, pairs = symmetric_eigensolve_batch(h)
        amps = vectors[:, :, state_index].T
        values[start:stop] = np.clip(np.abs(_flip_form(amps, amps)), 0.0, 1.0)
        mask[start:stop] = pair_flags_to_states(pairs.T)[state_index]
    shape = (steps, steps)
    return SweepGrid(
        x_axis, y_axis, values.reshape(shape), degenerate_mask=mask.reshape(shape)
    )


def dynamics_tunneling_map(
    base: SystemParams,
    t_max: float,
    t_steps: int,
    ratio_min: float,
    ratio_max: float,
    ratio_steps: int,
    psi0: StateVector,
) -> SweepGrid:
    """Concurrence of the evolved state over (time, tunneling ratio).

    Each row evolves psi0 with delta1 = delta2 = ratio * j at full
    resonance; time runs along x and the ratio delta1/j along y.

    Raises:
        NotResonant: unless both base detunings are exactly zero.
        InvalidInput: for a t_steps or t_max that `trajectory` rejects, in its words.
    """
    _check_resonant(_checked_type(base, SystemParams, "base"), "tunneling-ratio map")
    x_axis = _time_axis(t_max, t_steps)
    y_axis = Axis("ratio", ratio_min, ratio_max, ratio_steps, "")

    def couplings(ratios: np.ndarray) -> tuple:
        # |ratio * j| grows with |ratio|, so the row where it is largest is
        # the one SystemParams must check, with the message it gives
        SystemParams.from_ratio(ratios[np.abs(ratios).argmax()], base.j)
        return base.eps1, base.eps2, ratios * base.j, ratios * base.j, base.j

    return _dynamics_map(x_axis, y_axis, psi0, couplings)


def dynamics_detuning_map(
    base: SystemParams,
    t_max: float,
    t_steps: int,
    eps_min: float,
    eps_max: float,
    eps_steps: int,
    psi0: StateVector,
    sign: int,
) -> SweepGrid:
    """Concurrence of the evolved state over (time, eps1) with eps2 = sign*eps1.

    Requires equal tunnelings in `base`, which the map's mirror symmetries
    rely on; time runs along x and eps1 along y.
    """
    _checked_type(base, SystemParams, "base")
    if _checked_int(sign, "sign", -1, 1) == 0:
        raise InvalidInput(f"sign must be +1 or -1, got {sign!r}")
    if base.delta1 != base.delta2:
        raise InvalidInput(
            f"detuning map requires delta1 == delta2, got "
            f"({base.delta1!r}, {base.delta2!r})"
        )
    x_axis = _time_axis(t_max, t_steps)
    y_axis = Axis("eps1", eps_min, eps_max, eps_steps, "ueV")
    return _dynamics_map(
        x_axis, y_axis, psi0, lambda e1: (e1, sign * e1, base.delta1, base.delta2, base.j)
    )


def _time_axis(t_max, t_steps) -> Axis:
    """The time axis of a dynamics map, its arguments checked as `trajectory` checks them."""
    steps = _checked_int(t_steps, "steps", 2)
    return Axis("t", 0.0, _checked_float(t_max, "tmax", "positive"), steps, "ns")


def _dynamics_map(x_axis: Axis, y_axis: Axis, psi0: StateVector, couplings) -> SweepGrid:
    """Concurrence of psi0 evolved over the times on x, one Hamiltonian per row.

    `couplings(ys)` gives the (eps1, eps2, delta1, delta2, j) of the rows
    at the y values ys, as arrays or scalars, and raises InvalidInput
    where one is not finite.  Rows are solved in blocks by
    `symmetric_eigensolve_batch` and evaluated in slices of at most
    `_SLICE_POINTS` values by `dynamics._concurrence_rows`, which shares
    `trajectory`'s coefficient-and-table step and real-vector arithmetic,
    so each row equals `trajectory(...).concurrence` bit for bit; it forms
    no amplitudes and bounds the normalization as the populations check
    does.  A block that fails is solved again row by row, so the error
    raised is that of its first failing row.
    """
    _check_output_size("a map", y_axis.count, x_axis.count)
    times, ys = x_axis.values, y_axis.values
    amps0 = _positional(psi0)
    values = np.empty((y_axis.count, x_axis.count))
    step = max(1, _SLICE_POINTS // x_axis.count)

    def solve(rows: range) -> None:
        h = _positional_matrices(*couplings(ys[rows.start : rows.stop]))
        energies, vectors, _ = symmetric_eigensolve_batch(h)
        for lo in range(0, len(rows), step):
            hi = min(lo + step, len(rows))
            values[rows.start + lo : rows.start + hi] = _concurrence_rows(
                energies[lo:hi], vectors[lo:hi], amps0, times
            )

    for start in range(0, y_axis.count, _BLOCK_CELLS):
        rows = range(start, min(start + _BLOCK_CELLS, y_axis.count))
        try:
            solve(rows)
        except QmolError:
            for iy in rows:
                solve(range(iy, iy + 1))
    return SweepGrid(x_axis, y_axis, values)
