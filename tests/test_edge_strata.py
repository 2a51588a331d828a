"""Route pairs at the edges of their input range; skipped without hypothesis.

Each stratum holds one route to an independent one at the edge where it
is most likely to fail: spectral against analytic propagation up to
`MAX_PHASE`, a trajectory's concurrence from pair phases against that of
its stored amplitudes up to `MAX_PHASE`, Jacobi against the closed-form
resonant spectrum over sixteen decades of tunneling, the scalar against
the batch kernel (and numpy's `eigvalsh`) at power-of-two scales either
side of the range that is solved unscaled, and `bell_condition`'s Bell
time against the exact 2 m pi hbar / j up to m = 1e9 and for n from
2**1019 to 2**1023, and its ratio against the exact sqrt(4n^2 - m^2)/(4m)
up to n = 1e300.  The bounds were fixed before the strata ran, and the
draws are derandomized, so each run sees the same inputs.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_linalg import assert_batch_matches_scalar  # noqa: E402

from qmol.dynamics import MAX_PHASE, analytic_populations, bell_condition, trajectory  # noqa: E402
from qmol.entanglement import concurrence_pure  # noqa: E402
from qmol.hamiltonian import SystemParams, _positional_matrices  # noqa: E402
from qmol.linalg import symmetric_eigensolve_batch  # noqa: E402
from qmol.spectrum import eigensystem, resonant_solution  # noqa: E402
from qmol.states import BELL_LABELS, POSITIONAL_LABELS, basis_state  # noqa: E402
from qmol.units import HBAR_UEV_NS  # noqa: E402

_EPS = np.finfo(float).eps
# populations may differ by c * eps * (1 + phase): rounding of order eps in
# each eigenvalue and each phase argument grows with the phase
_PHASE_C = 16.0
# eigenvalues may differ by this times max|E|
_SPECTRUM_TOL = 32.0 * _EPS
# the Bell time, and omega_minus * t_e / hbar, may differ from their exact
# values by this, relative: ten roundings of eps/2 and pi's own
_BELL_TOL = 6.0 * _EPS
# the tunneling ratio may differ from its exact value by this, relative: the
# two quotients, their product and its root, or their two roots and the
# product of those, each rounded by at most eps/2
_RATIO_TOL = 2.0 * _EPS
# the Bell time for n from 2**1019 may differ from its exact value by this,
# relative: _BELL_TOL and the rounding of n itself to a double
_HUGE_BELL_TOL = 7.0 * _EPS
# a trajectory's concurrence may differ from that of its stored amplitudes by
# this up to _MODERATE_PHASE rad, as in test_trajectory_grid_and_contents,
# and beyond it by the budget that MAX_PHASE's comment states
_PAIR_TOL = 1e-14
_MODERATE_PHASE = 1e5
_PAIR_PHASE_TOL = 1e-6


# -- analytic vs spectral populations up to MAX_PHASE ---------------------------


@st.composite
def _resonant_params(draw):
    """Full-resonance couplings: j from 1e-2 to 1e4 ueV, each tunneling up to 2 j.

    Some draws freeze molecule 1 (delta1 = 0) and some tunnel equally.
    """
    j = 10.0 ** draw(st.floats(-2.0, 4.0))
    r1 = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    r2 = draw(st.one_of(st.just(r1), st.floats(0.0, 2.0)))
    return SystemParams(delta1=r1 * j, delta2=r2 * j, j=j)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_resonant_params())
def test_analytic_populations_up_to_the_phase_limit(p):
    solution = resonant_solution(p)
    omega = max(solution.plus.beta, solution.minus.beta) / 4.0 / HBAR_UEV_NS  # rad/ns
    # one trajectory per decade of phase, the last ending just inside MAX_PHASE
    for phase in [10.0**k for k in range(-3, 8)] + [MAX_PHASE * (1.0 - 1e-12)]:
        traj = trajectory(p, basis_state("RL"), phase / omega, 4)
        analytic = np.column_stack(analytic_populations(p, traj.times))
        bound = _PHASE_C * _EPS * (1.0 + omega * traj.times)
        # written so that NaN fails it
        assert (np.abs(traj.populations - analytic) <= bound[:, None]).all()


# -- pair-phase vs amplitude concurrence up to MAX_PHASE -------------------------


@st.composite
def _verify_params(draw):
    """Parameters from `verify`'s range: j from 5 to 50 ueV, each tunneling
    within +-2 j and, unless resonant, each detuning within +-j."""
    j = draw(st.floats(5.0, 50.0))
    e1, e2 = draw(
        st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-j, j), st.floats(-j, j)))
    )
    d1, d2 = draw(st.tuples(st.floats(-2.0 * j, 2.0 * j), st.floats(-2.0 * j, 2.0 * j)))
    return SystemParams(eps1=e1, eps2=e2, delta1=d1, delta2=d2, j=j)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_verify_params())
def test_pair_concurrence_matches_the_amplitudes_up_to_the_phase_limit(p):
    omega = np.abs(eigensystem(p).energies).max() / HBAR_UEV_NS  # rad/ns
    for phase in [10.0**k for k in range(-3, 8)] + [MAX_PHASE * (1.0 - 1e-12)]:
        bound = _PAIR_TOL if phase <= _MODERATE_PHASE else _PAIR_PHASE_TOL
        for label in POSITIONAL_LABELS + BELL_LABELS:
            traj = trajectory(p, basis_state(label), phase / omega, 11)
            amplitudes = [concurrence_pure(state) for state in traj.states]
            # written so that NaN fails it
            assert (np.abs(traj.concurrence - amplitudes) <= bound).all()


# -- closed-form vs Jacobi spectra, tunneling/j from 1e-8 to 1e8 -----------------


@pytest.mark.parametrize("j", [1e-3, 25.0, 1e3])
def test_closed_form_spectrum_over_sixteen_decades_of_tunneling(j):
    for ratio in 10.0 ** np.linspace(-8.0, 8.0, 65):
        # frozen, half, equal and opposite second tunnelings
        for second in (0.0, 0.5, 1.0, -3.0):
            p = SystemParams(delta1=ratio * j, delta2=second * ratio * j, j=j)
            exact = np.sort(resonant_solution(p).energies)
            gap = np.abs(eigensystem(p).energies - exact).max()
            assert gap <= _SPECTRUM_TOL * np.abs(exact).max()


# -- scalar vs batch solves around the scaling edges 2**-461 and 2**500 ----------

# generic, resonant, exactly tied and nearly tied Hamiltonians:
# (eps1, eps2, delta1, delta2, j)
_COUPLINGS = np.array(
    [
        (3.0, -1.0, 1.5, 2.5, 25.0),
        (0.0, 0.0, 1.5625, 1.5625, 25.0),
        (0.0, 0.0, 0.0, 0.0, 25.0),
        (12.5, -12.5 + 1e-8, 1e-9, 0.0, 25.0),
    ]
)


@pytest.mark.parametrize("edge", [-461, 500])
def test_scalar_and_batch_solves_either_side_of_the_scaling_edges(edge):
    base = _positional_matrices(*_COUPLINGS.T)
    # largest entry 1, so that each 2**k below puts it at exactly 2**k
    base /= np.abs(base).max(axis=(1, 2), keepdims=True)
    h = np.concatenate([base * 2.0**k for k in range(edge - 10, edge + 11)])
    assert_batch_matches_scalar(h)
    values, _, _ = symmetric_eigensolve_batch(h)
    reference = np.linalg.eigvalsh(h)
    bound = _SPECTRUM_TOL * np.abs(reference).max(axis=1, keepdims=True)
    assert (np.abs(values - reference) <= bound).all()


# -- Bell times against 2 m pi hbar / j, m up to 1e9 ----------------------------

_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494")


@st.composite
def _bell_orders(draw):
    """Odd m up to 1e9, n from the least with m < 2n to 4m, j over 590 decades.

    j stays above 1e-290, where t_e = 2 m pi hbar / j fits a double.
    """
    m = 2 * draw(st.integers(0, 5 * 10**8 - 1)) + 1
    n = draw(st.one_of(st.just(m), st.integers(m // 2 + 1, 4 * m)))
    return n, m, 10.0 ** draw(st.floats(-290.0, 300.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_bell_orders())
def test_bell_condition_up_to_a_billion_quarter_periods(order):
    n, m, j = order
    condition = bell_condition(n, m, j)  # its own quarter-period check passes
    exact = 2 * m * _PI * Fraction(HBAR_UEV_NS) / Fraction(j)
    assert abs(Fraction(condition.t_e) - exact) <= _BELL_TOL * exact
    x = condition.omega_minus * condition.t_e / HBAR_UEV_NS
    assert abs(Fraction(x) - m * _PI / 2) <= _BELL_TOL * (m * _PI / 2)


@st.composite
def _huge_bell_orders(draw):
    """n from 2**1019 to 2**1023; odd m < 2n next to 2n, anywhere, or small.

    m stays below the 2**1024 - 2**970 that rounds to 2**1024, and
    j = m * 10**u keeps beta_plus = 2 n j / m and t_e = 2 m pi hbar / j
    inside the double range.
    """
    n = draw(st.integers(2**1019, 2**1023))
    top = min(n, 2**1023 - 2**970)  # k < top
    k = draw(
        st.one_of(st.integers(top - 4, top - 1), st.integers(0, top - 1), st.integers(0, 10**6))
    )
    return n, 2 * k + 1, float(2 * k + 1) * 10.0 ** draw(st.floats(-299.0, -9.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_huge_bell_orders())
def test_bell_time_for_n_up_to_2_to_the_1023(order):
    n, m, j = order
    condition = bell_condition(n, m, j)
    exact = 2 * m * _PI * Fraction(HBAR_UEV_NS) / Fraction(j)
    assert abs(Fraction(condition.t_e) - exact) <= _HUGE_BELL_TOL * exact


# -- tunneling ratios against sqrt(4n^2 - m^2)/(4m), n up to 1e300 --------------


@st.composite
def _bell_ratio_orders(draw):
    """n up to 1e300 over every decade; odd m < 2n next to 2n, anywhere, or small."""
    n = draw(st.integers(1, 10 ** draw(st.integers(0, 300))))
    k = draw(
        st.one_of(
            st.integers(n - min(n, 4), n - 1),  # m = 2n - 1, 2n - 3, ...
            st.integers(0, n - 1),
            st.integers(0, min(n, 10**6) - 1),
        )
    )
    return n, 2 * k + 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_bell_ratio_orders())
@example((10**3, 2 * 10**3 - 1))  # 4n^2/m^2 - 1 cancelled to 6.4e-15 relative
@example((10**5, 2 * 10**5 - 1))
@example((10**7, 2 * 10**7 - 1))
@example((5 * 10**8, 10**9 - 1))  # ... and to 1.5e-8
@example((10**300, 1))  # 4n^2/m^2 is past the double range, the ratio is not
@example((10**300, 2 * 10**300 - 1))
def test_bell_ratio_up_to_1e300(order):
    n, m = order
    ratio = Fraction(bell_condition(n, m).ratio)
    exact = Fraction(4 * n * n - m * m, 16 * m * m)  # the square of the exact ratio
    tol = Fraction(_RATIO_TOL)
    assert (1 - tol) ** 2 * exact <= ratio**2 <= (1 + tol) ** 2 * exact
