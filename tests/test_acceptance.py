"""Acceptance gate for the shipped guarantees.

Each test covers one numbered acceptance criterion and prints a single
PASS or FAIL line (with wall time) on the real terminal, bypassing
pytest's capture. A test fails in the usual pytest way when a bound or
its runtime budget is violated.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qmol import (
    NoRealSolution,
    SystemParams,
    analytic_populations,
    basis_state,
    bell_condition,
    build_positional,
    concurrence,
    concurrence_pure,
    dynamics_detuning_map,
    dynamics_tunneling_map,
    eigen_concurrence_map,
    eigensystem,
    hermitian_eigensolve,
    propagate,
    trajectory,
)
from qmol.cli import RunConfig, config_from_metadata, render_sweep
from qmol.serialize import parse_metadata
from qmol.states import Basis, StateVector

J = 25.0


@pytest.fixture(name="gate")
def gate_fixture(capsys):
    def emit(number, title, passed, elapsed):
        with capsys.disabled():
            print(f"{'PASS' if passed else 'FAIL'}  criterion {number}: "
                  f"{title}  ({elapsed:.2f} s)", flush=True)

    @contextmanager
    def gate(number, title, budget_s):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            emit(number, title, False, time.perf_counter() - start)
            raise
        elapsed = time.perf_counter() - start
        within = elapsed < budget_s
        emit(number, title, within, elapsed)
        assert within, f"runtime budget exceeded: {elapsed:.2f} s >= {budget_s} s"

    return gate


def _haar_state(rng):
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return z / np.linalg.norm(z)


def _random_su2(rng):
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a /= np.linalg.norm(a)
    return np.array([[a[0], -np.conj(a[1])], [a[1], np.conj(a[0])]])


def test_criterion_1_resonant_eigenstate_concurrences(gate):
    with gate(1, "resonant eigenstate concurrence levels", 1.0):
        system = eigensystem(SystemParams(delta1=J / 16, delta2=J / 16, j=J))
        levels = [concurrence_pure(state) for state in system.states]
        assert abs(levels[1] - 1.0) <= 1e-9
        assert abs(levels[2] - 1.0) <= 1e-9
        assert abs(levels[0] - 0.970) <= 0.005
        assert abs(levels[3] - 0.970) <= 0.005
        quarter = eigensystem(SystemParams(delta1=J / 4, delta2=J / 4, j=J))
        assert abs(concurrence_pure(quarter.states[0]) - 0.707) <= 0.01


def test_criterion_2_closed_form_spectrum(gate):
    with gate(2, "closed-form energies match numeric spectrum", 1.0):
        rng = np.random.default_rng(2)
        for _ in range(200):
            j = rng.uniform(1.0, 60.0)
            d1, d2 = rng.uniform(-15.0, 15.0, size=2)
            p = SystemParams(delta1=d1, delta2=d2, j=j)
            beta_minus = np.hypot(j, 4.0 * p.delta_minus)
            beta_plus = np.hypot(j, 4.0 * p.delta_plus)
            expected = np.sort([
                -beta_minus / 4.0, beta_minus / 4.0,
                -beta_plus / 4.0, beta_plus / 4.0,
            ])
            got = eigensystem(p).energies
            assert np.max(np.abs(got - expected)) < 1e-10


def test_criterion_3_bell_oscillation_timing(gate):
    with gate(3, "Bell oscillation, swap, and revival from |RL>", 1.0):
        condition = bell_condition(1, 1, J)
        assert abs(condition.t_e - 0.16542) < 1e-5
        p = condition.params()
        rl = basis_state("RL")
        assert concurrence_pure(propagate(p, rl, 0.16542)) >= 1.0 - 1e-9
        assert concurrence_pure(propagate(p, rl, 0.33085)) <= 1e-9
        # full population swap at 2 t_e, checked on both routes
        swap_time = 2.0 * condition.t_e
        assert analytic_populations(p, swap_time)[1] >= 1.0 - 1e-9
        assert float(propagate(p, rl, swap_time).probabilities[1]) >= 1.0 - 1e-9
        revived = propagate(p, rl, 4.0 * condition.t_e)
        assert abs(rl.overlap(revived)) ** 2 >= 1.0 - 1e-9


def test_criterion_4_analytic_vs_numeric_populations(gate):
    with gate(4, "closed-form populations match spectral propagation", 10.0):
        rng = np.random.default_rng(4)
        rl = basis_state("RL")
        for _ in range(50):
            d1, d2 = rng.uniform(-12.0, 12.0, size=2)
            p = SystemParams(delta1=d1, delta2=d2, j=J)
            traj = trajectory(p, rl, t_max=3.0, steps=3000)
            expected = np.column_stack(analytic_populations(p, traj.times))
            assert np.max(np.abs(traj.populations - expected)) < 1e-9


def test_criterion_5_bell_condition_solver(gate):
    with gate(5, "maximal-entanglement solver over all valid branches", 5.0):
        rl = basis_state("RL")
        pairs = [(n, m) for n in range(1, 6) for m in range(1, 2 * n, 2)]
        assert len(pairs) == 15
        for n, m in pairs:
            condition = bell_condition(n, m, J)
            reached = propagate(condition.params(), rl, condition.t_e)
            assert concurrence_pure(reached) >= 1.0 - 1e-8
        for n, m in [(1, 3), (2, 5), (3, 7), (4, 9), (5, 11)]:
            with pytest.raises(NoRealSolution):
                bell_condition(n, m, J)


def test_criterion_6_concurrence_map_resonance_lines(gate):
    with gate(6, "concurrence-map resonance lines", 30.0):
        base = SystemParams(delta1=J / 16, delta2=J / 16, j=J)
        map1 = eigen_concurrence_map(base, 1, eps_steps=201)
        map2 = eigen_concurrence_map(base, 2, eps_steps=201)
        assert map1.values.shape == (201, 201)
        assert np.max(np.abs(np.diag(map1.values) - 1.0)) <= 1e-9
        assert np.max(np.abs(np.diag(map2.values[::-1]) - 1.0)) <= 1e-9
        # with unequal tunnelings no eigenstate is a Bell state on any
        # resonance line; scan the same grid cells the maps would hold
        eps = np.linspace(-J, J, 201)
        concurrences = [
            concurrence_pure(v)
            for e1 in eps
            for e2 in (e1, -e1)
            for v in eigensystem(SystemParams(
                eps1=e1, eps2=e2, delta1=J / 4, delta2=J / 8, j=J)).states
        ]
        # np.max, unlike a running max(), returns NaN if any value is NaN
        assert np.max(concurrences) <= 1.0 - 1e-6


def test_criterion_7_property_battery(gate):
    with gate(7, "cross-implementation property battery", 60.0):
        rng = np.random.default_rng(7)

        # two independent concurrence routes agree on 1e4 random states
        for _ in range(10_000):
            psi = _haar_state(rng)
            rho = np.outer(psi, psi.conj())
            assert abs(concurrence_pure(psi) - concurrence(rho).value) < 1e-10

        # concurrence is invariant under local unitaries
        for _ in range(200):
            psi = _haar_state(rng)
            u = np.kron(_random_su2(rng), _random_su2(rng))
            assert abs(concurrence_pure(u @ psi) - concurrence_pure(psi)) < 1e-10

        # eigensolver round-trip and orthonormality
        for _ in range(300):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = m + m.conj().T
            dec = hermitian_eigensolve(m)
            rebuilt = dec.vectors @ np.diag(dec.values) @ dec.vectors.conj().T
            assert np.max(np.abs(rebuilt - m)) < 1e-10 * max(1.0, np.abs(m).max())
            gram = dec.vectors.conj().T @ dec.vectors
            assert np.max(np.abs(gram - np.eye(4))) < 1e-12

        # propagator composes and conserves energy
        for _ in range(100):
            p = SystemParams(
                eps1=rng.uniform(-20, 20), eps2=rng.uniform(-20, 20),
                delta1=rng.uniform(-10, 10), delta2=rng.uniform(-10, 10),
                j=rng.uniform(5, 50))
            psi0 = StateVector(_haar_state(rng), Basis.POSITIONAL)
            t1, t2 = rng.uniform(0.0, 2.0, size=2)
            h = build_positional(p)
            one_hop = propagate(p, psi0, t1 + t2)
            two_hop = propagate(p, propagate(p, psi0, t1), t2)
            assert np.max(np.abs(one_hop.amplitudes - two_hop.amplitudes)) < 1e-10
            e0 = np.vdot(psi0.amplitudes, h @ psi0.amplitudes).real
            e1 = np.vdot(one_hop.amplitudes, h @ one_hop.amplitudes).real
            assert abs(e1 - e0) < 1e-10 * max(1.0, abs(e0))

        # molecule-swap covariance of the eigen map
        a = eigen_concurrence_map(SystemParams(delta1=3.0, delta2=7.0, j=J),
                                  0, eps_steps=21)
        b = eigen_concurrence_map(SystemParams(delta1=7.0, delta2=3.0, j=J),
                                  0, eps_steps=21)
        assert np.max(np.abs(a.values - b.values.T)) < 1e-10

        # global left-right relabeling leaves the map unchanged
        inv = eigen_concurrence_map(SystemParams(delta1=2.5, delta2=2.5, j=J),
                                    0, eps_steps=21)
        assert np.max(np.abs(inv.values - inv.values[::-1, ::-1])) < 1e-10

        # mirror covariances of the detuning-dynamics map
        base = bell_condition(1, 1, J).params()
        kw = dict(t_max=0.5, t_steps=9, eps_min=-10.0, eps_max=10.0, eps_steps=9)
        rl_map = dynamics_detuning_map(base, psi0=basis_state("RL"), sign=1, **kw)
        lr_map = dynamics_detuning_map(base, psi0=basis_state("LR"), sign=1, **kw)
        assert np.max(np.abs(rl_map.values - lr_map.values[::-1])) < 1e-10
        ll_map = dynamics_detuning_map(base, psi0=basis_state("LL"), sign=1, **kw)
        rr_map = dynamics_detuning_map(base, psi0=basis_state("RR"), sign=1, **kw)
        assert np.max(np.abs(ll_map.values - rr_map.values[::-1])) < 1e-10


def test_criterion_8_byte_deterministic_sweep_serialization(gate):
    with gate(8, "byte-deterministic sweep serialization", 30.0):
        configs = [
            RunConfig(command="sweep",
                      params=SystemParams(delta1=J / 16, delta2=J / 16, j=J),
                      kind="eigen", state=1, grid=(-J, J, 21)),
            RunConfig(command="sweep", params=SystemParams(j=J),
                      kind="tunneling-dynamics", init="RL",
                      tmax=0.5, steps=11, grid=(0.0, 1.0, 11)),
            RunConfig(command="sweep",
                      params=bell_condition(1, 1, J).params(),
                      kind="detuning-dynamics", init="RL", sign=-1,
                      tmax=0.5, steps=11, grid=(-10.0, 10.0, 11)),
        ]
        for config in configs:
            csv_a, pgm_a = render_sweep(config)
            csv_b, pgm_b = render_sweep(config)
            assert csv_a == csv_b
            assert pgm_a == pgm_b
            # the header alone is enough to regenerate the same bytes
            rebuilt = config_from_metadata(parse_metadata(csv_a.decode("ascii")))
            csv_c, pgm_c = render_sweep(rebuilt)
            assert csv_c == csv_a
            assert pgm_c == pgm_a
