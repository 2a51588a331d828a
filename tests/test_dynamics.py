import warnings
from fractions import Fraction
from math import ceil, isqrt, pi

import numpy as np
import pytest

import qmol.dynamics
import qmol.linalg
from qmol.dynamics import (
    MAX_OUTPUT_VALUES,
    MAX_PHASE,
    Trajectory,
    _phase_arguments,
    analytic_populations,
    bell_condition,
    propagate,
    propagate_rk4,
    trajectory,
)
from qmol.entanglement import concurrence_pure
from qmol.errors import (
    ConvergenceError,
    InvalidInput,
    NoRealSolution,
    NotResonant,
    NumericOverflow,
)
from qmol.hamiltonian import SystemParams, build_positional
from qmol.linalg import EigenDecomposition, hermitian_eigensolve
from qmol.spectrum import eigensystem, resonant_solution
from qmol.states import Basis, StateVector, basis_state
from qmol.units import HBAR_UEV_NS

# frozen from the closed forms: ratio = sqrt(4n^2/m^2 - 1)/4, t_e = 2 pi m hbar / j
RATIO_11 = 0.4330127018922193
RATIO_21 = 0.9682458365518543
RATIO_23 = 0.2204792759220492
TE_M1_J25 = 0.1654267078641601
TE_M3_J25 = 0.4962801235924804


def random_params(rng, resonant=False):
    j = float(rng.uniform(5.0, 40.0))
    e1, e2 = (0.0, 0.0) if resonant else rng.uniform(-j, j, 2)
    d1, d2 = rng.uniform(-2.0 * j, 2.0 * j, 2)
    return SystemParams(eps1=float(e1), eps2=float(e2), delta1=float(d1), delta2=float(d2), j=j)


def scaled(p, s):
    return SystemParams(
        eps1=s * p.eps1, eps2=s * p.eps2, delta1=s * p.delta1, delta2=s * p.delta2, j=s * p.j
    )


def random_state(rng):
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return StateVector(a / np.linalg.norm(a), Basis.POSITIONAL)


def test_propagate_zero_time_is_identity():
    rng = np.random.default_rng(1)
    psi = random_state(rng)
    out = propagate(random_params(rng), psi, 0.0)
    assert np.abs(out.amplitudes - psi.amplitudes).max() < 1e-15


def test_propagate_preserves_norm():
    rng = np.random.default_rng(2)
    for _ in range(30):
        out = propagate(random_params(rng), random_state(rng), float(rng.uniform(0, 5)))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_propagate_composes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_params(rng)
        psi = random_state(rng)
        t1, t2 = rng.uniform(0.0, 2.0, 2)
        two_step = propagate(p, propagate(p, psi, float(t1)), float(t2))
        direct = propagate(p, psi, float(t1 + t2))
        assert np.abs(two_step.amplitudes - direct.amplitudes).max() < 1e-12


def test_propagate_matches_rk4():
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = random_params(rng)
        psi = random_state(rng)
        t = float(rng.uniform(0.1, 0.6))
        a = propagate(p, psi, t).amplitudes
        b = propagate_rk4(p, psi, t).amplitudes
        assert np.abs(a - b).max() < 1e-8


def _rk4_loop(p, psi0, t, step):
    """RK4 one step at a time: the per-step form of `propagate_rk4`."""
    gen = build_positional(p) * (-1j / HBAR_UEV_NS)
    steps = max(1, ceil(t / step))
    dt = t / steps
    psi = psi0.to_positional().amplitudes.astype(complex)
    for _ in range(steps):
        k1 = gen @ psi
        k2 = gen @ (psi + 0.5 * dt * k1)
        k3 = gen @ (psi + 0.5 * dt * k2)
        k4 = gen @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi / np.linalg.norm(psi)


@pytest.mark.parametrize("scale", [1.0, 0.1])
def test_rk4_power_matches_step_loop(scale):
    # at scale 1 the step is often 0.008 hbar / |H|_F, below 1e-4; at 0.1
    # it is always 1e-4
    rng = np.random.default_rng(5)
    capped = []
    for _ in range(6):
        p = scaled(random_params(rng), scale)
        psi = random_state(rng)
        t = float(rng.uniform(0.1, 0.5))
        step = min(1e-4, 0.008 * HBAR_UEV_NS / np.linalg.norm(build_positional(p)))
        capped.append(step < 1e-4)
        loop = _rk4_loop(p, psi, t, step)
        assert np.abs(propagate_rk4(p, psi, t, 1e-4).amplitudes - loop).max() < 1e-12
    assert any(capped) == (scale == 1.0)


def test_rk4_step_follows_the_scale():
    # a fixed 1e-4 ns step turns the fastest phase by 1.4 rad per step
    p = SystemParams(j=2e4, delta1=1e4, delta2=5e3, eps1=3e3)
    a = propagate(p, basis_state("RL"), 0.01).amplitudes
    b = propagate_rk4(p, basis_state("RL"), 0.01).amplitudes
    assert np.abs(a - b).max() < 1e-8


def test_rk4_keeps_digits_at_small_scales():
    # a step matrix formed as I + (P - I) loses the real part of P - I's
    # diagonal below one ulp of 1, up to 1.9e-8 away from spectral
    # propagation here
    rng = np.random.default_rng(6)
    s = 2.0**-40
    for _ in range(3):
        small = scaled(random_params(rng), s)
        psi = random_state(rng)
        t = float(rng.uniform(0.1, 0.5)) / s
        a = propagate(small, psi, t).amplitudes
        b = propagate_rk4(small, psi, t).amplitudes
        assert np.abs(a - b).max() < 1e-12


def test_rk4_calls_no_eigensolver(monkeypatch):
    rng = np.random.default_rng(7)
    p = random_params(rng)
    psi = random_state(rng)
    expected = propagate(p, psi, 0.3).amplitudes

    def refuse(*args, **kwargs):
        raise AssertionError("propagate_rk4 called an eigensolver")

    for module in (qmol.linalg, qmol.dynamics):
        for name in ("hermitian_eigensolve", "symmetric_eigensolve_batch"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert np.abs(propagate_rk4(p, psi, 0.3).amplitudes - expected).max() < 1e-8


def test_rk4_phase_bound():
    p = SystemParams(delta1=1.0, delta2=1.0)
    norm = float(np.linalg.norm(build_positional(p)))
    t_limit = MAX_PHASE * HBAR_UEV_NS / norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = propagate_rk4(p, basis_state("RL"), 0.999 * t_limit)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)
        for t in (1.001 * t_limit, 1e300):
            with pytest.raises(InvalidInput, match="rad"):
                propagate_rk4(p, basis_state("RL"), t)
        # |H|_F is beyond the double range here, the phase at t = 0 is not
        huge = SystemParams(delta1=1.7e308, delta2=1.7e308)
        out = propagate_rk4(huge, basis_state("RL"), 0.0)
        assert np.array_equal(out.amplitudes, basis_state("RL").amplitudes)


@pytest.mark.parametrize("step", [-1e-4, 0.0, float("nan"), -float("inf"), float("inf")])
def test_rk4_rejects_bad_steps(step):
    p = SystemParams(delta1=1.0, delta2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="step must be positive"):
            propagate_rk4(p, basis_state("RL"), 0.3, step)


def test_rk4_step_extremes():
    p = SystemParams(delta1=1.0, delta2=1.0)
    psi = basis_state("RL")
    expected = propagate(p, psi, 0.3).amplitudes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a step far beyond t leaves the scale to choose; a tiny one costs
        # about a thousand squarings
        for step in (1e300, 1e-300):
            out = propagate_rk4(p, psi, 0.3, step).amplitudes
            assert np.abs(out - expected).max() < 1e-9
        with pytest.raises(InvalidInput, match="too small"):
            propagate_rk4(p, psi, 0.3, 5e-324)


def test_propagate_accepts_bell_basis_input():
    p = SystemParams(delta1=2.0, delta2=2.0, j=25.0)
    direct = propagate(p, basis_state("PsiPlus"), 0.7)
    converted = propagate(p, basis_state("PsiPlus").to_bell(), 0.7)
    assert np.abs(direct.amplitudes - converted.amplitudes).max() < 1e-13


def test_propagate_rejects_negative_time():
    with pytest.raises(ValueError):
        propagate(SystemParams(), basis_state("RL"), -0.1)


@pytest.mark.parametrize("t", [-0.1, float("nan"), float("inf")])
def test_propagators_reject_bad_times_without_warnings(t):
    p = SystemParams(delta1=1.0, delta2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="t must be"):
            propagate(p, basis_state("RL"), t)
        with pytest.raises(InvalidInput, match="t must be"):
            propagate_rk4(p, basis_state("RL"), t)


def test_phase_bound_rejects_long_times():
    p = SystemParams(delta1=1.0, delta2=1.0, j=25.0)
    e_max = float(np.abs(eigensystem(p).energies).max())
    t_limit = MAX_PHASE * HBAR_UEV_NS / e_max
    propagate(p, basis_state("RL"), 0.999 * t_limit)
    with pytest.raises(InvalidInput, match="rad"):
        propagate(p, basis_state("RL"), 1.001 * t_limit)
    with pytest.raises(InvalidInput, match="rad"):
        trajectory(p, basis_state("RL"), 1.001 * t_limit, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="rad"):
            trajectory(p, basis_state("RL"), 1.7e308, 2)


def test_analytic_populations_match_propagator():
    rng = np.random.default_rng(5)
    rl = basis_state("RL")
    for _ in range(20):
        p = random_params(rng, resonant=True)
        times = rng.uniform(0.0, 3.0, 50)
        pops = np.column_stack(analytic_populations(p, times))
        for i, t in enumerate(times):
            direct = propagate(p, rl, float(t)).probabilities
            assert np.abs(direct - pops[i]).max() < 1e-9


def test_analytic_populations_sum_to_one():
    p = SystemParams(delta1=7.0, delta2=-3.0, j=20.0)
    times = np.linspace(0.0, 2.0, 200)
    total = np.sum(analytic_populations(p, times), axis=0)
    assert np.abs(total - 1.0).max() < 1e-12


def test_analytic_populations_scalar_input():
    p = SystemParams(delta1=5.0, delta2=5.0, j=25.0)
    pops = analytic_populations(p, 0.0)
    assert np.allclose(pops, [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_analytic_populations_reject_non_finite_times():
    # NaN used to give NaN populations, inf a RuntimeWarning from sin
    p = SystemParams(delta1=5.0, delta2=5.0, j=25.0)
    for t in (np.nan, np.inf, -np.inf, [0.0, 1.0, np.nan]):
        with pytest.raises(InvalidInput, match="^times must be finite$"):
            analytic_populations(p, t)
    # negative times stay accepted: the expressions are even in t
    backward = np.column_stack(analytic_populations(p, [-0.5, -2.0]))
    forward = np.column_stack(analytic_populations(p, [0.5, 2.0]))
    assert np.abs(backward - forward).max() <= 1e-15


def test_analytic_populations_phase_limit():
    # propagate's rule: max(beta)/4 * max|t| / hbar <= MAX_PHASE; beyond it a
    # 1e300 rad phase gave populations, and t = 1e308 a RuntimeWarning
    p = SystemParams(delta1=5.0, delta2=5.0, j=25.0)
    solution = resonant_solution(p)
    beta = max(solution.plus.beta, solution.minus.beta)
    edge = MAX_PHASE * HBAR_UEV_NS / (beta / 4.0) * (1.0 - 1e-12)
    analytic_populations(p, [0.0, -edge])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (1e300, 1e308, -1.7e308, [0.0, 1e300], 1.001 * edge):
            with pytest.raises(InvalidInput, match="exceeds 1e\\+08 rad"):
                analytic_populations(p, t)


def test_analytic_populations_frozen_molecule():
    # delta2 = 0 freezes molecule 2 at its left site, so the states with
    # that charge moved (LR, RR) stay empty at all times
    p = SystemParams(delta1=9.0, delta2=0.0, j=25.0)
    times = np.linspace(0.0, 3.0, 100)
    p_ll, p_lr, p_rl, p_rr = analytic_populations(p, times)
    assert np.abs(p_lr).max() < 1e-12
    assert np.abs(p_rr).max() < 1e-12
    assert np.abs(p_ll + p_rl - 1.0).max() < 1e-12
    assert p_ll.max() > 0.1  # the allowed transfer does happen


def test_analytic_populations_at_huge_coupling():
    # populations at (s*p, t/s) equal those at (p, t); j**2 overflows at s = 1e200
    p = SystemParams(j=1.0, delta1=0.4, delta2=0.3)
    big = SystemParams(j=1e200, delta1=0.4e200, delta2=0.3e200)
    times = np.linspace(0.0, 20.0, 41)
    expected = np.column_stack(analytic_populations(p, times))
    got = np.column_stack(analytic_populations(big, times / 1e200))
    assert np.abs(got - expected).max() < 1e-12


def test_analytic_populations_reject_detuned():
    with pytest.raises(NotResonant):
        analytic_populations(SystemParams(eps1=1.0, delta1=2.0, delta2=2.0), 0.5)
    # eps1 = j/2 is far from resonance however small j is
    p = SystemParams(j=1e-12, eps1=5e-13, delta1=1e-12, delta2=1e-12)
    with pytest.raises(NotResonant):
        analytic_populations(p, 9e11)


def test_bell_condition_frozen_values():
    bc = bell_condition(1, 1, 25.0)
    assert bc.ratio == pytest.approx(RATIO_11, abs=1e-15)
    assert bc.delta1 == pytest.approx(RATIO_11 * 25.0, abs=1e-12)
    assert bc.t_e == pytest.approx(TE_M1_J25, abs=1e-14)
    assert bc.beta_minus == 25.0
    assert bc.beta_plus == pytest.approx(50.0, abs=1e-11)  # 2j when n/m = 1


def test_bell_condition_more_branches():
    assert bell_condition(2, 1, 25.0).ratio == pytest.approx(RATIO_21, abs=1e-15)
    bc = bell_condition(2, 3, 25.0)
    assert bc.ratio == pytest.approx(RATIO_23, abs=1e-15)
    assert bc.t_e == pytest.approx(TE_M3_J25, abs=1e-14)


def test_bell_time_depends_only_on_m_and_j():
    # t_e = 2 pi m hbar / j, so every n with m=1 lands on the same time
    for n in (1, 2, 3, 4):
        assert bell_condition(n, 1, 25.0).t_e == pytest.approx(TE_M1_J25, abs=1e-13)
        expected = 2.0 * np.pi * HBAR_UEV_NS / 25.0
        assert bell_condition(n, 1, 25.0).t_e == pytest.approx(expected, abs=1e-13)


# the last two failed the quarter-period check at a fixed 1e-9, which the
# rounding of its argument m*pi/2 alone exceeds
@pytest.mark.parametrize(
    "n,m", [(1, 1), (2, 1), (2, 3), (3, 5), (4, 7), (3723243, 3723243), (7000001, 7000001)]
)
def test_bell_condition_parameters_generate_bell_state(n, m):
    bc = bell_condition(n, m, 25.0)
    evolved = propagate(bc.params(), basis_state("RL"), bc.t_e)
    assert concurrence_pure(evolved) >= 1.0 - 1e-9


@pytest.mark.parametrize("n,m", [(1, 1), (3, 1)])
def test_swap_and_revival_times(n, m):
    bc = bell_condition(n, m, 25.0)
    p = bc.params()
    swap = propagate(p, basis_state("RL"), 2.0 * bc.t_e).probabilities
    assert swap[1] >= 1.0 - 1e-9  # complete RL -> LR transfer
    revived = propagate(p, basis_state("RL"), 4.0 * bc.t_e).probabilities
    assert revived[2] >= 1.0 - 1e-9


def test_entanglement_vanishes_at_swap_time():
    bc = bell_condition(1, 1, 25.0)
    evolved = propagate(bc.params(), basis_state("RL"), 2.0 * bc.t_e)
    assert concurrence_pure(evolved) <= 1e-9


@pytest.mark.parametrize("n,m", [(1, 3), (1, 5), (2, 5), (3, 7)])
def test_bell_condition_no_real_solution(n, m):
    with pytest.raises(NoRealSolution):
        bell_condition(n, m, 25.0)


@pytest.mark.parametrize("n,m", [(0, 1), (1, 0), (1, 2), (2, 4), (-1, 1)])
def test_bell_condition_rejects_malformed(n, m):
    with pytest.raises(ValueError):
        bell_condition(n, m, 25.0)


def test_bell_condition_rejects_non_integers():
    with pytest.raises(ValueError):
        bell_condition(1.5, 1, 25.0)
    with pytest.raises(ValueError):
        bell_condition(1, 1, -25.0)


@pytest.mark.parametrize("j", [1e-300, 1e300])
def test_bell_condition_at_extreme_couplings(j):
    # the ratio does not depend on j, and t_e scales as 1/j
    reference = bell_condition(1, 1, 25.0)
    condition = bell_condition(1, 1, j)
    assert condition.ratio == reference.ratio
    assert condition.t_e * j == pytest.approx(reference.t_e * 25.0, rel=1e-14)
    evolved = propagate(condition.params(), basis_state("RL"), condition.t_e)
    assert concurrence_pure(evolved) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("j", [1e-5, 1e-3])
def test_bell_time_check_is_relative(j):
    # t_e grows as 1/j; its two routes agree to a few ulps, not to 1e-12 ns
    for n in range(1, 20):
        for m in range(1, 2 * n, 2):
            condition = bell_condition(n, m, j)
            assert condition.t_e * j == pytest.approx(2 * np.pi * m * HBAR_UEV_NS, rel=1e-14)


def test_bell_condition_outside_double_range():
    with pytest.raises(InvalidInput):
        bell_condition(1, 1, float("inf"))
    with pytest.raises(NumericOverflow):
        bell_condition(1, 1, 1.7e308)  # beta_plus is 2 j
    with pytest.raises(NumericOverflow):
        bell_condition(1, 1, 5e-324)  # t_e is about 4/j ns


def test_bell_condition_where_four_n_squared_overflows():
    # 4.0 * n * n was inf here, and so was beta_plus, although the ratio
    # sqrt(4n^2 - m^2)/(4m), sqrt(3)/4 to 1e-154, and t_e fit a double
    n, m = 10**154, 10**154 + 1
    condition = bell_condition(n, m, 25.0)
    ratio, exact = Fraction(condition.ratio), Fraction(4 * n * n - m * m, 16 * m * m)
    eps = Fraction(np.finfo(float).eps)
    assert (1 - 2 * eps) ** 2 * exact <= ratio**2 <= (1 + 2 * eps) ** 2 * exact
    exact_t_e = 2 * m * Fraction(pi) * Fraction(HBAR_UEV_NS) / 25
    assert abs(Fraction(condition.t_e) - exact_t_e) <= 6 * eps * exact_t_e


@pytest.mark.parametrize(
    "n, m, j",
    [
        (2**1021, 2**1021 + 1, 1e300),  # t_e is about 9.3e7 ns
        (2**1023, 2**1023 + 1, 25.0),  # t_e is about 1.5e307 ns
        (2**1023, 3 * 2**1022 + 1, 1e300),  # omega_minus * t_e / hbar is inf
    ],
    ids=["2^1021,2^1021+1", "2^1023,2^1023+1", "2^1023,3*2^1022+1"],
)
def test_bell_condition_where_four_n_pi_overflows(n, m, j):
    # 4.0 * n * pi was inf here, and so was t_e, which fits a double
    condition = bell_condition(n, m, j)
    exact_t_e = 2 * m * Fraction(pi) * Fraction(HBAR_UEV_NS) / Fraction(j)
    eps = Fraction(np.finfo(float).eps)
    assert abs(Fraction(condition.t_e) - exact_t_e) <= 7 * eps * exact_t_e


@pytest.mark.parametrize(
    "n, m, j",
    [
        (10**400, 1, 25.0),
        (10**400, 10**400 + 1, 25.0),
        (2**1024 - 1, 1, 25.0),  # float(n) rounds to 2**1024
        (2**1023, 1, 25.0),  # (2n - m)/m rounds to 2**1024
        (2**1023, 2**1023 + 1, 1.0),  # t_e = 2 m pi hbar / j is about 3.7e308 ns
    ],
    ids=["1e400,1", "1e400,1e400+1", "2^1024-1,1", "2^1023,1", "2^1023,2^1023+1"],
)
def test_bell_condition_beyond_the_double_range_raises_numeric_overflow(n, m, j):
    # int to float conversion raised a bare OverflowError for all but the last two
    with pytest.raises(NumericOverflow):
        bell_condition(n, m, j)


def test_trajectory_grid_and_contents():
    p = SystemParams.from_ratio(RATIO_11, j=25.0)
    traj = trajectory(p, basis_state("RL"), 1.0, 101)
    assert traj.times[0] == 0.0 and traj.times[-1] == 1.0
    assert traj.times.shape == (101,)
    assert traj.populations.shape == (101, 4)
    assert np.abs(traj.populations.sum(axis=1) - 1.0).max() < 1e-10
    # concurrence column agrees with evaluating each stored state
    for i in (0, 25, 50, 99):
        psi = StateVector(traj.amplitudes[i], Basis.POSITIONAL)
        assert traj.concurrence[i] == pytest.approx(concurrence_pure(psi), abs=1e-14)


def test_trajectory_populations_match_analytic():
    p = SystemParams.from_ratio(0.3, j=25.0)
    traj = trajectory(p, basis_state("RL"), 2.0, 200)
    expected = np.column_stack(analytic_populations(p, traj.times))
    assert np.abs(traj.populations - expected).max() < 1e-10


def test_trajectory_arrays_read_only():
    traj = trajectory(SystemParams(delta1=1.0, delta2=1.0), basis_state("LL"), 0.5, 10)
    with pytest.raises(ValueError):
        traj.concurrence[0] = 0.5


def test_trajectory_rejects_bad_grid():
    p = SystemParams(delta1=1.0, delta2=1.0)
    with pytest.raises(ValueError):
        trajectory(p, basis_state("RL"), 0.0, 10)
    with pytest.raises(ValueError):
        trajectory(p, basis_state("RL"), 1.0, 1)
    with pytest.raises(ValueError):
        trajectory(p, basis_state("RL"), 1.0, 2.5)
    with pytest.raises(InvalidInput, match=r"2\*\*24"):
        trajectory(p, basis_state("RL"), 1.0, MAX_OUTPUT_VALUES + 1)


@pytest.mark.parametrize("t_max", [float("inf"), float("nan")])
def test_trajectory_rejects_non_finite_tmax(t_max):
    with pytest.raises(InvalidInput, match="tmax"):
        trajectory(SystemParams(delta1=3.0), basis_state("RL"), t_max, 3)


def test_trajectory_normalization_check_fails_on_nan():
    populations = np.full((2, 4), 0.25)
    populations[1] = np.nan
    with pytest.raises(ConvergenceError):
        Trajectory(
            times=np.array([0.0, 1.0]),
            amplitudes=np.full((2, 4), 0.5, dtype=complex),
            populations=populations,
            concurrence=np.zeros(2),
        )


def test_trajectory_takes_its_arrays_through_the_array_rule():
    traj = Trajectory([0.0, 1.0], [[1, 0, 0, 0]] * 2, [[1, 0, 0, 0]] * 2, [0.0, 0.0])
    assert traj.amplitudes.dtype == complex and traj.populations.dtype == float
    assert not any(a.flags.writeable for a in (traj.times, traj.amplitudes, traj.concurrence))
    # arrays already of the right dtype are frozen, not copied
    arrays = [np.array([0.0, 1.0]), np.eye(4, dtype=complex)[:2], np.eye(4)[:2], np.zeros(2)]
    traj = Trajectory(*arrays)
    assert all(kept is given for kept, given in zip(vars(traj).values(), arrays))
    for bad in [
        ([0.0, 1.0], [[1, 0, 0, 0]] * 2, [[1, 0, 0, 0]] * 2, [0.0, 0.0, 0.0]),
        ([0.0, 1.0], [[1, 0, 0, 0]] * 3, [[1, 0, 0, 0]] * 2, [0.0, 0.0]),
        ([0.0, 1.0], [[1, 0, 0, 0]] * 2, [[1, 0, 0]] * 2, [0.0, 0.0]),
        ([[0.0, 1.0]], [[1, 0, 0, 0]] * 2, [[1, 0, 0, 0]] * 2, [0.0, 0.0]),
        ([0.0, 1.0], [[1, 0, 0, 0]] * 2, [[1j, 0, 0, 0]] * 2, [0.0, 0.0]),
        (["0", "1"], [[1, 0, 0, 0]] * 2, [[1, 0, 0, 0]] * 2, [0.0, 0.0]),
        ([0.0, 1.0], [[1, 0, 0, 0], [1, 0]], [[1, 0, 0, 0]] * 2, [0.0, 0.0]),
        ([0.0, 1.0], [[1, 0, 0, 0]] * 2, [[1, 0, 0, 0]] * 2, [True, False]),
    ]:
        with pytest.raises(InvalidInput):
            Trajectory(*bad)


def test_trajectory_needs_a_time_point():
    with pytest.raises(InvalidInput, match="^times must hold at least one time point"):
        Trajectory([], np.zeros((0, 4)), np.zeros((0, 4)), [])
    one = Trajectory([0.0], [[1, 0, 0, 0]], [[1, 0, 0, 0]], [0.0])
    assert one.times.shape == (1,)


@pytest.mark.parametrize(
    "energies",
    [
        [-37.5, -12.25, 3.0, 46.75],
        [-0.0, 0.0, 1e-300, -1e-300],
        [1e8, -1e8, 0.0, -0.0],
        [1e-300, -3e-150, 7.0, -1e8],
        [2.5e-7, -4.0e3, 6.1e5, -9.9e7],
    ],
)
def test_phase_arguments_match_the_complex_expression(energies):
    # the real arithmetic gives numpy's complex product and quotient bit for
    # bit; a numpy that changes either fails here, not in a CSV byte
    energies = np.array(energies)
    edge = MAX_PHASE * HBAR_UEV_NS / np.abs(energies).max()
    times = np.concatenate(
        [np.linspace(0.0, edge, 1001), [np.nextafter(edge, 0.0), 1e-300, 5e-324, 0.0]]
    )
    expected = -1j * np.outer(times, energies) / HBAR_UEV_NS
    assert _phase_arguments(times, energies).tobytes() == expected.tobytes()


def test_evolution_matches_the_complex_expression():
    rng = np.random.default_rng(1401)
    for _ in range(20):
        p, psi = random_params(rng), random_state(rng)
        dec = hermitian_eigensolve(build_positional(p))
        vectors = np.ascontiguousarray(dec.vectors.real)
        t_max = float(rng.uniform(0.1, 10.0))
        times = np.linspace(0.0, t_max, 501)
        coeffs = vectors.T @ psi.amplitudes
        # anchors at every 23rd time, offsets from t_0 for the 23 between
        offsets = np.exp(-1j * np.outer(times[:23] - times[0], dec.values) / HBAR_UEV_NS)
        offsets *= coeffs
        anchors = np.exp(-1j * np.outer(times[::23], dec.values) / HBAR_UEV_NS)
        phases = (anchors[:, None] * offsets).reshape(-1, 4)[:501]
        expected = phases @ vectors.T
        assert trajectory(p, psi, t_max, 501).amplitudes.tobytes() == expected.tobytes()


def test_propagate_matches_the_trajectory_end_point_bit_for_bit():
    # n = 1 and the second point of n = 2 take the same phase factor, the
    # trajectory's through an anchor exp(0) = 1
    rng = np.random.default_rng(1403)
    states = [basis_state(name) for name in ("RL", "LL", "PsiPlus", "PhiMinus")]
    for draw in range(60):
        p = random_params(rng, resonant=draw % 2 == 0)
        for psi in states + [random_state(rng), random_state(rng)]:
            t = float(rng.uniform(1e-3, 10.0))
            amps = propagate(p, psi, t).amplitudes
            assert amps.tobytes() == trajectory(p, psi, t, 2).amplitudes[1].tobytes()


GRID_SIZES = [1, 2, 3, 15, 16, 17, 2001, 20001]


@pytest.mark.parametrize("n", GRID_SIZES)
def test_evolution_stays_within_eps_of_one_exp_per_time(n):
    # against the direct n x 4 exp: time t_bm + (t_j - t_0) within 1.5 ulp
    # of t_k and four roundings of each phase give about 3 eps * phase, the
    # products a few eps; c fixed at 4 (amplitudes) and 8 (populations)
    rng = np.random.default_rng([1402, n])
    eps = np.finfo(float).eps
    for draw in range(12):
        p, psi = random_params(rng), random_state(rng)
        dec = hermitian_eigensolve(build_positional(p))
        top = MAX_PHASE * (1 - 1e-12) if draw < 2 else 10.0 ** rng.uniform(-3.0, 8.0)
        e_max = float(np.abs(dec.values).max())
        t_max = top * HBAR_UEV_NS / e_max
        times = np.linspace(0.0, t_max, n) if n > 1 else np.array([t_max])
        coeffs = dec.vectors.conj().T @ psi.amplitudes
        phases = np.exp(-1j * np.outer(times, dec.values) / HBAR_UEV_NS)
        expected = (phases * coeffs) @ dec.vectors.T
        if n == 1:
            amps = propagate(p, psi, t_max).amplitudes[None]
        else:
            amps = trajectory(p, psi, t_max, n).amplitudes
        scale = eps * (1.0 + e_max * times / HBAR_UEV_NS)[:, None]
        assert (np.abs(amps - expected) <= 4.0 * scale).all()
        assert (np.abs(np.abs(amps) ** 2 - np.abs(expected) ** 2) <= 8.0 * scale).all()


@pytest.mark.parametrize("n", GRID_SIZES)
def test_evolution_exponentiates_about_two_sqrt_n_arguments(monkeypatch, n):
    sizes = []

    def counted(times, energies):
        out = _phase_arguments(times, energies)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(qmol.dynamics, "_phase_arguments", counted)
    p, psi = SystemParams(delta1=3.0, delta2=1.0), basis_state("RL")
    if n == 1:
        propagate(p, psi, 0.7)
    else:
        trajectory(p, psi, 0.7, n)
    m = isqrt(n - 1) + 1
    assert sum(sizes) <= 4 * (m + ceil(n / m))


def test_normalization_check_rejects_non_unitary_vectors(monkeypatch):
    p = SystemParams(delta1=3.0, delta2=1.0)
    dec = hermitian_eigensolve(build_positional(p))

    def solved_as(vectors):
        solved = EigenDecomposition(dec.values, vectors, dec.degenerate_pairs)
        monkeypatch.setattr(qmol.dynamics, "hermitian_eigensolve", lambda m: solved)
        return trajectory(p, basis_state("RL"), 2.0, 101)

    # populations scale by s**4: within 1e-10 of 1 for s = 1 + 1e-12, not for 1 + 1e-9
    solved_as(dec.vectors * (1.0 + 1e-12))
    with pytest.raises(ConvergenceError, match="lost normalization"):
        solved_as(dec.vectors * (1.0 + 1e-9))
    with pytest.raises(ConvergenceError, match="lost normalization"):
        solved_as(dec.vectors[:, ::-1] * [1.0, 1.0, 1.0, 0.5])


def test_trajectory_accepts_bell_initial_state():
    p = SystemParams(delta1=2.0, delta2=2.0, j=25.0)
    traj = trajectory(p, basis_state("PsiMinus"), 0.4, 20)
    # the singlet is stationary at full resonance with equal tunnelings
    assert np.abs(traj.concurrence - 1.0).max() < 1e-9
    assert np.abs(traj.populations - traj.populations[0]).max() < 1e-12
