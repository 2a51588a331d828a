"""`verify.run_all` against a table of one-line faults.

Each row patches one module attribute, as a later change could plausibly
get it wrong, and asserts that the battery fails.  Rows the battery does
not catch yet are strict xfails, each naming the ROADMAP item whose rows
will catch it; a row that starts to fail the battery must lose its marker.
A fault that one of the library's own checks stops first fails the row
whose check raised, and the later rows still run (the test below).
"""

from math import sqrt

import numpy as np
import pytest

from qmol import cli, dynamics, entanglement, hamiltonian, linalg, sweep, verify


def _phase_arguments_scaled(monkeypatch):
    phase_arguments = dynamics._phase_arguments
    monkeypatch.setattr(
        dynamics, "_phase_arguments", lambda t, e: phase_arguments(t, e) * (1.0 + 1e-7)
    )


def _j_scaled(monkeypatch):
    # both bindings: single solves take hamiltonian's, maps take sweep's
    matrices = hamiltonian._positional_matrices

    def scaled(eps1, eps2, delta1, delta2, j):
        return matrices(eps1, eps2, delta1, delta2, j * (1.0 + 1e-6))

    for module in (hamiltonian, sweep):
        monkeypatch.setattr(module, "_positional_matrices", scaled)


def _flip_form_sign(monkeypatch):
    # every binding: concurrence_pure takes entanglement's, the eigen-map
    # cells sweep's and the pair table dynamics'
    def flipped(a, b):
        return (a[1] * b[2] + a[2] * b[1]) + (a[0] * b[3] + a[3] * b[0])

    for module in (entanglement, sweep, dynamics):
        monkeypatch.setattr(module, "_flip_form", flipped)


def _anchor_stride_short(monkeypatch):
    # anchors one time step closer together than the offsets they scale
    tables = dynamics._phase_tables

    def short(energies, vectors, amps0, times):
        coeffs, anchors, offsets = tables(energies, vectors, amps0, times)
        stride = max(offsets.shape[-2] - 1, 1)
        anchor_times = times[::stride][: anchors.shape[-2]]
        return coeffs, np.exp(dynamics._phase_arguments(anchor_times, energies)), offsets

    monkeypatch.setattr(dynamics, "_phase_tables", short)


def _bell_ratio_scaled(monkeypatch):
    # sqrt is bell_condition's alone in dynamics; its own check of t_e
    # against the minus block's raises before the row's deviation is taken
    monkeypatch.setattr(dynamics, "sqrt", lambda x: sqrt(x) * (1.0 + 1e-6))


def _hbar_scaled(factor):
    def fault(monkeypatch):
        monkeypatch.setattr(dynamics, "HBAR_UEV_NS", dynamics.HBAR_UEV_NS * factor)

    return fault


def _set(module, name, value):
    return lambda monkeypatch: monkeypatch.setattr(module, name, value)


def _missed(reason):
    return pytest.mark.xfail(strict=True, reason=reason)


FAULTS = [
    pytest.param(_set(linalg, "_OFF_TOL", 1e-10), id="off-tol-1e-10"),
    pytest.param(_phase_arguments_scaled, id="phase-arguments-x(1+1e-7)"),
    pytest.param(_j_scaled, id="positional-j-x(1+1e-6)"),
    # the batch kernel's sort, one compare-exchange short
    pytest.param(_set(linalg, "_SORT_NETWORK", (0, 1, 2, 0, 1)), id="sort-network-short"),
    pytest.param(_flip_form_sign, id="flip-form-sign"),
    pytest.param(_anchor_stride_short, id="anchor-stride-short"),
    pytest.param(_bell_ratio_scaled, id="bell-ratio-x(1+1e-6)"),
    pytest.param(
        _hbar_scaled(1.01), id="hbar-x1.01",
        marks=_missed("every route pair shares hbar; ROADMAP item 3's anchors"),
    ),
    pytest.param(
        _hbar_scaled(1.0 + 1e-6), id="hbar-x(1+1e-6)",
        marks=_missed("every route pair shares hbar; ROADMAP item 3's anchors"),
    ),
    pytest.param(
        _set(linalg, "_OFF_TOL", 1e-11), id="off-tol-1e-11",
        marks=_missed("absolute bounds hide a looser stop; ROADMAP item 3's relative bounds"),
    ),
    pytest.param(
        _set(dynamics, "_PAIR_WEIGHTS", np.ones_like(dynamics._PAIR_WEIGHTS)),
        id="pair-weights-ones",
        marks=_missed("no row runs the pair table; ROADMAP item 5's pair-table row"),
    ),
    pytest.param(
        _set(linalg, "_DEGENERACY_TOL", 1e-2), id="degeneracy-tol-1e-2",
        marks=_missed("Gaussian draws have no near ties; ROADMAP item 3's near-tie stratum"),
    ),
    pytest.param(
        _set(linalg, "_PIVOT_FLOOR", 1e-8), id="pivot-floor-1e-8",
        marks=_missed("pure states have no tiny pivots; ROADMAP item 3's concurrence strata"),
    ),
]


@pytest.mark.parametrize("fault", FAULTS)
def test_verify_fails_under_fault(fault, monkeypatch):
    fault(monkeypatch)
    lines = []
    assert verify.run_all(lines.append) is False, lines


def test_a_wrong_bell_ratio_fails_its_row_and_verify_exits_3(monkeypatch, capsys):
    _bell_ratio_scaled(monkeypatch)
    assert cli.main(["verify"]) == 3
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == len(verify.CHECKS) == 12
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == [lines[10]] and lines[10].startswith(
        "FAIL  Bell-condition solver by propagation  (ConvergenceError: inconsistent Bell time: "
    )
