"""Self-contained invariant battery behind the `verify` CLI subcommand.

Each check pits two of the package's routes against each other
(hand-rolled eigensolver vs numpy, closed forms vs numerics, spectral
propagation vs RK4, a sweep vs its rerun and its mirror image) on seeded
random inputs and yields the deviations between them.  `run_all` takes
the largest |x| over every entry a check yields, compares it with the
bound of the check's `CHECKS` row and prints one line.  The full battery
runs in well under a second.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .dynamics import analytic_populations, bell_condition, propagate, propagate_rk4, trajectory
from .entanglement import concurrence, concurrence_pure
from .errors import QmolError
from .hamiltonian import SystemParams, build_bell, build_positional
from .linalg import _hermitian_eigenvalues, expectation, hermitian_eigensolve
from .spectrum import eigensystem, resonant_solution
from .states import BELL_MATRIX, Basis, StateVector, _product, basis_state
from .sweep import eigen_concurrence_map

__all__ = ["run_all", "CHECKS"]


def _random_hermitian(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (g + g.conj().T) / 2.0


def _random_params(rng: np.random.Generator, resonant: bool = False) -> SystemParams:
    j = rng.uniform(5.0, 50.0)
    e1, e2 = (0.0, 0.0) if resonant else rng.uniform(-j, j, 2)
    d1, d2 = rng.uniform(-2.0 * j, 2.0 * j, 2)
    return SystemParams(eps1=e1, eps2=e2, delta1=d1, delta2=d2, j=j)


def _random_state(rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return StateVector(amps / np.linalg.norm(amps), Basis.POSITIONAL)


def check_eigensolver_roundtrip() -> Iterator:
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = _random_hermitian(rng)
        dec = hermitian_eigensolve(m)
        yield (dec.vectors * dec.values) @ dec.vectors.conj().T - m
        yield dec.vectors.conj().T @ dec.vectors - np.eye(4)

def check_eigensolver_against_numpy() -> Iterator:
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = _random_hermitian(rng)
        yield _hermitian_eigenvalues(m) - np.linalg.eigvalsh(m)

def check_basis_change() -> Iterator:
    rng = np.random.default_rng(13)
    b = BELL_MATRIX
    for _ in range(200):
        p = _random_params(rng)
        yield b @ build_positional(p) @ b.conj().T - build_bell(p)

def check_resonant_spectrum() -> Iterator:
    rng = np.random.default_rng(14)
    for _ in range(200):
        p = _random_params(rng, resonant=True)
        exact = np.sort(resonant_solution(p).energies)
        yield eigensystem(p).energies - exact

def check_resonant_eigenvectors() -> Iterator:
    rng = np.random.default_rng(15)
    for _ in range(100):
        p = _random_params(rng, resonant=True)
        h = build_positional(p)
        sol = resonant_solution(p)
        for energy, state in zip(sol.energies, sol.states):
            yield h @ state.amplitudes - energy * state.amplitudes

def _near_product_state(rng: np.random.Generator, distance: float) -> StateVector:
    """A random product state moved by `distance` along a random direction."""
    a, b, w = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (2, 2, 4))
    amps = _product(a[:, None] / np.linalg.norm(a), b / np.linalg.norm(b)).reshape(4)
    amps = amps + distance * w / np.linalg.norm(w)
    return StateVector(amps / np.linalg.norm(amps), Basis.POSITIONAL)

def check_concurrence_oracle() -> Iterator:
    rng = np.random.default_rng(16)
    # Gaussian draws never come near the separable states, where rounding
    # in the Wootters construction matters most, so those are drawn too
    states = [_random_state(rng) for _ in range(500)]
    states += [
        _near_product_state(rng, distance)
        for distance in (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
        for _ in range(20)
    ]
    for psi in states:
        yield concurrence_pure(psi) - concurrence(psi.density_matrix()).value

def check_local_unitary_invariance() -> Iterator:
    rng = np.random.default_rng(17)
    for _ in range(100):
        psi = _random_state(rng)
        u = np.kron(_random_su2(rng), _random_su2(rng))
        rotated = StateVector(u @ psi.amplitudes, Basis.POSITIONAL)
        yield concurrence_pure(psi) - concurrence_pure(rotated)

def _random_su2(rng: np.random.Generator) -> np.ndarray:
    theta, alpha, beta = rng.uniform(0.0, 2.0 * np.pi, 3)
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c * np.exp(1j * alpha), s * np.exp(1j * beta)],
            [-s * np.exp(-1j * beta), c * np.exp(-1j * alpha)],
        ]
    )

def check_propagator() -> Iterator:
    rng = np.random.default_rng(18)
    for _ in range(100):
        p = _random_params(rng)
        psi = _random_state(rng)
        t1, t2 = rng.uniform(0.0, 1.5, 2)
        h = build_positional(p)
        combined = propagate(p, propagate(p, psi, t1), t2)
        direct = propagate(p, psi, t1 + t2)
        yield combined.amplitudes - direct.amplitudes
        energy_drift = expectation(h, direct.amplitudes) - expectation(h, psi.amplitudes)
        yield energy_drift / max(1.0, p.j)

def check_rk4_cross() -> Iterator:
    rng = np.random.default_rng(19)
    for _ in range(10):
        p = _random_params(rng)
        psi = _random_state(rng)
        t = rng.uniform(0.1, 0.5)
        yield propagate(p, psi, t).amplitudes - propagate_rk4(p, psi, t).amplitudes

def check_analytic_populations() -> Iterator:
    rng = np.random.default_rng(20)
    rl = basis_state("RL")
    for _ in range(20):
        p = _random_params(rng, resonant=True)
        # one solve per parameter set, over a span in (0, 3] ns
        run = trajectory(p, rl, 3.0 * (1.0 - rng.random()), 50)
        yield run.populations - np.column_stack(analytic_populations(p, run.times))

def check_bell_condition() -> Iterator:
    rl = basis_state("RL")
    for n in range(1, 5):
        for m in range(1, 2 * n, 2):
            bc = bell_condition(n, m, 25.0)
            yield 1.0 - concurrence_pure(propagate(bc.params(), rl, bc.t_e))

def check_sweep_determinism() -> Iterator:
    base = SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0)
    grid = eigen_concurrence_map(base, 1, eps_steps=21)
    again = eigen_concurrence_map(base, 1, eps_steps=21)
    # a rerun repeats every bit of values and mask, or the check fails
    bits = [(run.values.tobytes(), run.degenerate_mask.tobytes()) for run in (grid, again)]
    yield 0.0 if bits[0] == bits[1] else np.inf
    yield grid.values - grid.values[::-1, ::-1]


#: One row per check: its name, its bound, what its largest deviation
#: measures, and the check, which yields the deviations.
CHECKS = (
    ("eigensolver round-trip and orthonormality", 1e-10, "deviation", check_eigensolver_roundtrip),
    ("eigensolver eigenvalues vs numpy", 1e-10, "eigenvalue gap", check_eigensolver_against_numpy),
    ("Bell-basis block form vs conjugation", 1e-12, "block-form deviation", check_basis_change),
    ("closed-form resonant energies vs numerics", 1e-10, "energy gap", check_resonant_spectrum),
    ("closed-form resonant eigenvectors", 1e-10, "eigen-residual", check_resonant_eigenvectors),
    ("pure concurrence vs Wootters construction", 1e-12, "oracle gap", check_concurrence_oracle),
    ("local-unitary invariance of concurrence", 1e-10, "concurrence drift",
     check_local_unitary_invariance),
    ("propagator composition and energy conservation", 1e-10, "composition/energy drift",
     check_propagator),
    ("spectral propagation vs RK4", 1e-8, "spectral-vs-RK4 gap", check_rk4_cross),
    ("analytic populations vs propagator", 1e-9, "population gap", check_analytic_populations),
    ("Bell-condition solver by propagation", 1e-8, "Bell concurrence deficit",
     check_bell_condition),
    ("sweep determinism and inversion symmetry", 1e-10, "inversion-mirror gap",
     check_sweep_determinism),
)


def run_all(out=print) -> bool:
    """Run every check, report one line each, and return overall success.

    A check passes when the largest |x| over every entry of the arrays and
    numbers it yields is below its bound; one NaN entry makes that NaN,
    which fails.  A check that raises a QmolError fails its row, which
    names the error, and the later rows still run.
    """
    ok = True
    for name, bound, what, check in CHECKS:
        try:
            worst = float(np.max([np.abs(g).max() for g in check()]))
        except QmolError as error:
            passed, detail = False, f"{type(error).__name__}: {error}"
        else:
            passed, detail = worst < bound, f"max {what} {worst:.3e}"
        ok = ok and passed
        out(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    return ok
