"""The verify battery's pass rule: `run_all` reduces the deviations each
check yields to the largest |x| and compares it with the bound of its
`CHECKS` row, which a NaN fails."""

from types import SimpleNamespace

import numpy as np
import pytest

from qmol import verify
from qmol.cli import main


def _only(monkeypatch, name):
    """Restrict the battery to the row called `name`."""
    rows = tuple(row for row in verify.CHECKS if row[0] == name)
    assert len(rows) == 1
    monkeypatch.setattr(verify, "CHECKS", rows)


def test_rows_keep_their_names_order_and_bounds():
    assert [(name, bound) for name, bound, _, _ in verify.CHECKS] == [
        ("eigensolver round-trip and orthonormality", 1e-10),
        ("eigensolver eigenvalues vs numpy", 1e-10),
        ("Bell-basis block form vs conjugation", 1e-12),
        ("closed-form resonant energies vs numerics", 1e-10),
        ("closed-form resonant eigenvectors", 1e-10),
        ("pure concurrence vs Wootters construction", 1e-12),
        ("local-unitary invariance of concurrence", 1e-10),
        ("propagator composition and energy conservation", 1e-10),
        ("spectral propagation vs RK4", 1e-8),
        ("analytic populations vs propagator", 1e-9),
        ("Bell-condition solver by propagation", 1e-8),
        ("sweep determinism and inversion symmetry", 1e-10),
    ]


@pytest.mark.parametrize(
    "gaps, worst, passed",
    [
        ((float(np.nextafter(1e-10, 0.0)),), float(np.nextafter(1e-10, 0.0)), True),
        ((1e-10,), 1e-10, False),
        ((float("inf"),), float("inf"), False),
        ((float("nan"),), float("nan"), False),
        # one NaN among finite entries
        ((np.array([1e-12, np.nan, 0.0]), 1e-13), float("nan"), False),
        # the largest |x| is a negative entry, which the largest x is not
        ((np.array([5e-11, -1e-10, 0.0]),), 1e-10, False),
        # Python and numpy scalars and arrays of any shape in one check
        ((3e-11, np.array([[1e-11, -6e-11], [4e-11, 0.0]]), np.float64(-5e-11), np.zeros(3)),
         6e-11, True),
    ],
)
def test_a_check_passes_only_strictly_below_its_bound(monkeypatch, gaps, worst, passed):
    def check():
        yield from gaps

    monkeypatch.setattr(verify, "CHECKS", (("route pair", 1e-10, "gap", check),))
    lines = []
    assert verify.run_all(out=lines.append) == passed
    assert lines == [f"{'PASS' if passed else 'FAIL'}  route pair  (max gap {worst:.3e})"]


def test_a_route_that_returns_nan_fails_only_its_own_row(monkeypatch, capsys):
    monkeypatch.setattr(
        verify, "propagate_rk4", lambda p, psi, t: SimpleNamespace(amplitudes=np.full(4, np.nan))
    )
    lines = []
    assert verify.run_all(out=lines.append) is False
    assert [line for line in lines if not line.startswith("PASS")] == [
        "FAIL  spectral propagation vs RK4  (max spectral-vs-RK4 gap nan)"
    ]
    assert len(lines) == len(verify.CHECKS)
    assert main(["verify"]) == 3
    assert "FAIL  spectral propagation vs RK4" in capsys.readouterr().out


@pytest.mark.parametrize("deficit, passed", [(2e-8, False), (5e-9, True)])
def test_bell_row_fails_for_a_concurrence_below_one_minus_1e_8(monkeypatch, deficit, passed):
    _only(monkeypatch, "Bell-condition solver by propagation")
    monkeypatch.setattr(verify, "concurrence_pure", lambda psi: 1.0 - deficit)
    lines = []
    assert verify.run_all(out=lines.append) == passed
    assert lines[0].startswith("PASS" if passed else "FAIL")


def test_a_rerun_that_differs_in_one_bit_fails_the_determinism_row(monkeypatch):
    values = np.zeros((21, 21))
    runs = iter([values, np.copysign(values, -1.0), values[10:, 10:]])

    def eigen_concurrence_map(*args, **kwargs):
        values = next(runs)
        return SimpleNamespace(values=values, degenerate_mask=np.zeros(values.shape, dtype=bool))

    monkeypatch.setattr(verify, "eigen_concurrence_map", eigen_concurrence_map)
    gaps = verify.check_sweep_determinism()
    assert float(np.max([np.abs(g).max() for g in gaps])) == float("inf")
