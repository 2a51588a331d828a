import math
import warnings

import numpy as np
import pytest

from qmol.dynamics import analytic_populations
from qmol.entanglement import concurrence_pure
from qmol.errors import NotResonant, NumericOverflow
from qmol.hamiltonian import SystemParams, build_positional
from qmol.spectrum import (
    ResonanceKind,
    classify_resonance,
    eigensystem,
    resonant_solution,
)
from qmol.states import basis_state
from qmol.sweep import dynamics_tunneling_map
from qmol.verify import _random_params

# beta/4 = sqrt(j^2 + 16 d^2)/4 evaluated independently for j=25, d=25/16
E_PLUS_J16 = 6.442352540027595
# and for d = 25/4
E_PLUS_J4 = 8.838834764831844
MIX_J16 = 0.12310562561766063  # equals sqrt(17) - 4
MIX_J4 = 0.4142135623730951  # equals sqrt(2) - 1


def test_frozen_energies_at_equal_tunneling():
    p = SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0)
    sys = eigensystem(p)
    expected = [-E_PLUS_J16, -6.25, 6.25, E_PLUS_J16]
    assert np.abs(sys.energies - expected).max() < 1e-10


def test_frozen_energies_at_quarter_tunneling():
    p = SystemParams(delta1=6.25, delta2=6.25, j=25.0)
    sys = eigensystem(p)
    expected = [-E_PLUS_J4, -6.25, 6.25, E_PLUS_J4]
    assert np.abs(sys.energies - expected).max() < 1e-10


def test_resonant_solution_matches_numerics_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d1, d2 = rng.uniform(-50.0, 50.0, 2)
        p = SystemParams(delta1=d1, delta2=d2, j=float(rng.uniform(1.0, 40.0)))
        sol = resonant_solution(p)
        sys = eigensystem(p)
        assert np.abs(np.sort(sol.energies) - sys.energies).max() < 1e-10


def test_resonant_states_are_true_eigenvectors():
    rng = np.random.default_rng(29)
    for _ in range(50):
        d1, d2 = rng.uniform(-40.0, 40.0, 2)
        p = SystemParams(delta1=d1, delta2=d2, j=25.0)
        h = build_positional(p)
        sol = resonant_solution(p)
        for energy, state in zip(sol.energies, sol.states):
            resid = h @ state.amplitudes - energy * state.amplitudes
            assert np.abs(resid).max() < 1e-10


def _block_concurrences(p):
    """C = j / beta of both eigenstates of each Bell block, with delta from SystemParams."""
    return {
        block: p.j / math.hypot(p.j, 4.0 * delta)
        for block, delta in (("minus", p.delta_minus), ("plus", p.delta_plus))
    }


def test_resonant_eigenstate_concurrence_is_j_over_beta():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        p = _random_params(rng, resonant=True)
        sol = resonant_solution(p)
        for block, expected in _block_concurrences(p).items():
            branch = getattr(sol, block)
            for state in (branch.state_low, branch.state_high):
                assert abs(concurrence_pure(state) - expected) <= 1e-13


def test_numeric_eigenstate_concurrence_is_j_over_beta():
    # energies -+beta/4 of each block: the outer pair of states belongs to
    # the block of larger beta, so of smaller concurrence
    rng = np.random.default_rng(32)
    checked = 0
    for _ in range(2000):
        p = _random_params(rng, resonant=True)
        low, high = sorted(_block_concurrences(p).values())
        system = eigensystem(p)
        for state, expected, flagged in zip(
            system.states, (low, high, high, low), system.degenerate_states
        ):
            if not flagged:
                assert abs(concurrence_pure(state) - expected) <= 1e-13
                checked += 1
    assert checked > 7900


@pytest.mark.parametrize("delta2", [5e-324, -5e-324])
def test_resonant_solution_at_subnormal_scale_gives_orthonormal_states(delta2):
    # delta1/2 and delta2/2 round to zero, as in build_positional, but their
    # sum and difference do not: each state's tilt must come from the same
    # block coupling as its normalization, or its norm is sqrt(5)
    sol = resonant_solution(SystemParams(j=5e-324, delta1=5e-324, delta2=delta2))
    vectors = np.column_stack([state.amplitudes for state in sol.states])
    assert np.abs(vectors.conj().T @ vectors - np.eye(4)).max() <= 1e-15


def test_numeric_eigenvectors_overlap_closed_form():
    p = SystemParams(delta1=6.25, delta2=3.125, j=25.0)
    sol = resonant_solution(p)
    sys = eigensystem(p)
    order = np.argsort(sol.energies)
    for k in range(4):
        exact = sol.states[order[k]]
        assert abs(sys.states[k].overlap(exact)) >= 1.0 - 1e-10


def test_branch_closed_form_values():
    p = SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0)
    sol = resonant_solution(p)
    # equal tunnelings: odd block decouples completely
    assert sol.minus.delta == 0.0
    assert sol.minus.mixing == 0.0
    assert sol.minus.beta == 25.0
    assert sol.minus.energy_low == -6.25
    assert sol.plus.mixing == pytest.approx(MIX_J16, abs=1e-14)
    assert sol.plus.energy_high == pytest.approx(E_PLUS_J16, abs=1e-12)
    assert sol.plus.gamma == pytest.approx(1.0 / np.sqrt(1.0 + MIX_J16**2), abs=1e-14)


def test_branch_mixing_at_quarter_tunneling():
    sol = resonant_solution(SystemParams(delta1=6.25, delta2=6.25, j=25.0))
    assert sol.plus.mixing == pytest.approx(MIX_J4, abs=1e-14)


def test_detuned_tunnelings_give_exact_beta():
    # delta1 = j/4, delta2 = j/8 makes the even-block beta exactly 1.25*j
    sol = resonant_solution(SystemParams(delta1=6.25, delta2=3.125, j=25.0))
    assert sol.plus.beta == pytest.approx(31.25, abs=1e-12)
    assert sol.plus.mixing == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert sol.minus.mixing == pytest.approx(MIX_J16, abs=1e-14)


def test_solution_ordering_is_block_grouped():
    sol = resonant_solution(SystemParams(delta1=6.25, delta2=3.125, j=25.0))
    assert np.allclose(sol.energies, [-6.442352540027595, 6.442352540027595,
                                      -7.8125, 7.8125], atol=1e-10)


def test_zero_tunneling_limit_recovers_bell_states():
    sol = resonant_solution(SystemParams(j=25.0))
    labels = ("PsiMinus", "PhiMinus", "PsiPlus", "PhiPlus")
    for state, label in zip(sol.states, labels):
        assert abs(state.overlap(basis_state(label))) == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(sol.energies, [-6.25, 6.25, -6.25, 6.25])


@pytest.mark.parametrize("delta1", [0.0, 1e160])
def test_resonant_solution_at_huge_scale_matches_numerics(delta1):
    p = SystemParams(j=1e160, delta1=delta1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = resonant_solution(p)
    numeric = eigensystem(p).energies
    assert np.all(np.abs(np.sort(sol.energies) - numeric) <= 1e-12 * np.abs(numeric))
    # both spectra are doubly degenerate, so compare states as eigenvectors
    h = build_positional(p)
    for energy, state in zip(sol.energies, sol.states):
        resid = h @ state.amplitudes - energy * state.amplitudes
        assert np.abs(resid).max() <= 1e-12 * abs(energy)


@pytest.mark.parametrize("scale", [1e-200, 1e-12, 1.0, 1e200])
def test_resonant_mixing_is_relative_to_the_coupling(scale):
    # tunneling as large as j mixes the plus block however small both are
    p = SystemParams(j=scale, delta1=scale)
    sol = resonant_solution(p)
    # delta_plus = j/2: mixing = 2/(sqrt(5) + 1), the golden-ratio conjugate
    assert sol.plus.mixing == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, rel=1e-15)
    assert sol.minus.mixing == sol.plus.mixing  # delta_minus = delta_plus here
    h = build_positional(p)
    for energy, state in zip(sol.energies, sol.states):
        resid = h @ state.amplitudes - energy * state.amplitudes
        assert np.abs(resid).max() <= 1e-14 * abs(energy)


def test_resonant_mixing_has_no_cancellation():
    # (beta - j)/(4 delta) loses all digits for delta << j; 4 delta/(beta + j)
    # keeps them: mixing = 2 delta/j to first order
    sol = resonant_solution(SystemParams(j=1.0, delta1=2e-9, delta2=2e-9))
    assert sol.plus.mixing == pytest.approx(4e-9, rel=1e-15)


def test_resonant_solution_beyond_double_range_raises():
    # beta = sqrt(j^2 + 16 delta_plus^2) is about 3.4e308
    with pytest.raises(NumericOverflow):
        resonant_solution(SystemParams(j=1.5e308, delta1=1.5e308))
    # delta_plus = delta1/2 + delta2/2 is 1.7e308, but hypot(j, 4*delta_plus)
    # overflows to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow):
            resonant_solution(SystemParams(j=1.0, delta1=1.7e308, delta2=1.7e308))


def test_requires_full_resonance():
    with pytest.raises(NotResonant):
        resonant_solution(SystemParams(eps1=1.0, delta1=2.0, delta2=2.0))
    # a detuning below classify_resonance's tolerance still counts
    with pytest.raises(NotResonant):
        resonant_solution(SystemParams(eps2=1e-300, delta1=2.0, delta2=2.0))


def test_every_closed_form_route_takes_one_resonance_check_naming_its_caller():
    detuned = SystemParams(eps2=1e-300, delta1=2.0, delta2=2.0)
    routes = [
        ("closed-form solution", lambda: resonant_solution(detuned)),
        ("closed-form solution", lambda: analytic_populations(detuned, 1.0)),
        ("tunneling-ratio map", lambda: dynamics_tunneling_map(
            detuned, 1.0, 3, 0.0, 1.0, 3, basis_state("RL")
        )),
    ]
    for caller, route in routes:
        with pytest.raises(NotResonant) as info:
            route()
        assert str(info.value) == f"{caller} needs e1 = e2 = 0 exactly, got (0.0, 1e-300)"


def test_degeneracy_flags_at_zero_tunneling():
    sys = eigensystem(SystemParams(j=25.0))
    assert sys.degenerate_pairs == (True, False, True)
    assert sys.degenerate_states == (True, True, True, True)


def test_no_degeneracy_with_tunneling():
    sys = eigensystem(SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0))
    assert sys.degenerate_pairs == (False, False, False)


@pytest.mark.parametrize(
    "e1,e2,kind",
    [
        (0.0, 0.0, ResonanceKind.FULL_RESONANCE),
        (5.0, 5.0, ResonanceKind.EQUAL_DETUNING),
        (5.0, -5.0, ResonanceKind.OPPOSITE_DETUNING),
        (5.0, 2.0, ResonanceKind.GENERIC),
        (1e-13, -1e-13, ResonanceKind.FULL_RESONANCE),
    ],
)
def test_classify_resonance(e1, e2, kind):
    p = SystemParams(eps1=e1, eps2=e2, delta1=1.0, delta2=1.0, j=25.0)
    assert classify_resonance(p) is kind


def test_classify_tolerance_is_adjustable():
    p = SystemParams(eps1=0.5, eps2=0.5, j=25.0)
    assert classify_resonance(p) is ResonanceKind.EQUAL_DETUNING
    assert classify_resonance(p, tol=1.0) is ResonanceKind.FULL_RESONANCE


def test_eigensystem_vectors_unitary():
    sys = eigensystem(SystemParams(eps1=3.0, eps2=-7.0, delta1=2.0, delta2=9.0))
    v = sys.vectors
    assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-12
