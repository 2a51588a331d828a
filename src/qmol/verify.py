"""Self-contained invariant battery behind the `verify` CLI subcommand.

Each check exercises one of the package's cross-validation routes
(hand-rolled eigensolver vs numpy, closed forms vs numerics, spectral
propagation vs RK4, determinism of sweeps) on seeded random inputs and
reports pass/fail; the full battery runs in a few seconds.
"""

from __future__ import annotations

import numpy as np

from .dynamics import analytic_populations, bell_condition, propagate, propagate_rk4
from .entanglement import concurrence, concurrence_pure
from .hamiltonian import SystemParams, build_bell, build_positional
from .linalg import _hermitian_eigenvalues, expectation, hermitian_eigensolve
from .spectrum import eigensystem, resonant_solution
from .states import BELL_MATRIX, Basis, StateVector, basis_state
from .sweep import eigen_concurrence_map

__all__ = ["run_all", "CHECKS"]


def _random_hermitian(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (g + g.conj().T) / 2.0


def _random_params(rng: np.random.Generator, resonant: bool = False) -> SystemParams:
    j = float(rng.uniform(5.0, 50.0))
    e1, e2 = (0.0, 0.0) if resonant else rng.uniform(-j, j, 2)
    d1, d2 = rng.uniform(-2.0 * j, 2.0 * j, 2)
    return SystemParams(eps1=float(e1), eps2=float(e2), delta1=float(d1), delta2=float(d2), j=j)


def _random_state(rng: np.random.Generator) -> StateVector:
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return StateVector(amps / np.linalg.norm(amps), Basis.POSITIONAL)


def check_eigensolver_roundtrip() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        m = _random_hermitian(rng)
        dec = hermitian_eigensolve(m)
        rebuilt = (dec.vectors * dec.values) @ dec.vectors.conj().T
        worst = max(worst, float(np.abs(rebuilt - m).max()))
        gram = dec.vectors.conj().T @ dec.vectors
        worst = max(worst, float(np.abs(gram - np.eye(4)).max()))
    return worst < 1e-10, f"max deviation {worst:.3e}"

def check_eigensolver_against_numpy() -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        m = _random_hermitian(rng)
        worst = max(
            worst,
            float(np.abs(_hermitian_eigenvalues(m) - np.linalg.eigvalsh(m)).max()),
        )
    return worst < 1e-10, f"max eigenvalue gap {worst:.3e}"

def check_basis_change() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    b = BELL_MATRIX
    worst = 0.0
    for _ in range(200):
        p = _random_params(rng)
        delta = b @ build_positional(p) @ b.conj().T - build_bell(p)
        worst = max(worst, float(np.abs(delta).max()))
    return worst < 1e-12, f"max block-form deviation {worst:.3e}"

def check_resonant_spectrum() -> tuple[bool, str]:
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(200):
        p = _random_params(rng, resonant=True)
        exact = np.sort(resonant_solution(p).energies)
        worst = max(worst, float(np.abs(eigensystem(p).energies - exact).max()))
    return worst < 1e-10, f"max energy gap {worst:.3e}"

def check_resonant_eigenvectors() -> tuple[bool, str]:
    rng = np.random.default_rng(15)
    worst = 0.0
    for _ in range(100):
        p = _random_params(rng, resonant=True)
        h = build_positional(p)
        sol = resonant_solution(p)
        for energy, state in zip(sol.energies, sol.states):
            resid = h @ state.amplitudes - energy * state.amplitudes
            worst = max(worst, float(np.abs(resid).max()))
    return worst < 1e-10, f"max eigen-residual {worst:.3e}"

def _near_product_state(rng: np.random.Generator, distance: float) -> StateVector:
    """A random product state moved by `distance` along a random direction."""
    a, b, w = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (2, 2, 4))
    amps = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    amps = amps + distance * w / np.linalg.norm(w)
    return StateVector(amps / np.linalg.norm(amps), Basis.POSITIONAL)

def check_concurrence_oracle() -> tuple[bool, str]:
    rng = np.random.default_rng(16)
    # Gaussian draws never come near the separable states, where rounding
    # in the Wootters construction matters most, so those are drawn too
    states = [_random_state(rng) for _ in range(500)]
    states += [
        _near_product_state(rng, distance)
        for distance in (0.0, 1e-12, 1e-9, 1e-6, 1e-3)
        for _ in range(20)
    ]
    worst = 0.0
    for psi in states:
        gap = abs(concurrence_pure(psi) - concurrence(psi.density_matrix()).value)
        worst = max(worst, gap)
    return worst < 1e-12, f"max oracle gap {worst:.3e}"

def check_local_unitary_invariance() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        psi = _random_state(rng)
        u = np.kron(_random_su2(rng), _random_su2(rng))
        rotated = StateVector(u @ psi.amplitudes, Basis.POSITIONAL)
        worst = max(worst, abs(concurrence_pure(psi) - concurrence_pure(rotated)))
    return worst < 1e-10, f"max concurrence drift {worst:.3e}"

def _random_su2(rng: np.random.Generator) -> np.ndarray:
    theta, alpha, beta = rng.uniform(0.0, 2.0 * np.pi, 3)
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c * np.exp(1j * alpha), s * np.exp(1j * beta)],
            [-s * np.exp(-1j * beta), c * np.exp(-1j * alpha)],
        ]
    )

def check_propagator() -> tuple[bool, str]:
    rng = np.random.default_rng(18)
    worst = 0.0
    for _ in range(100):
        p = _random_params(rng)
        psi = _random_state(rng)
        t1, t2 = rng.uniform(0.0, 1.5, 2)
        h = build_positional(p)
        combined = propagate(p, propagate(p, psi, t1), t2)
        direct = propagate(p, psi, t1 + t2)
        worst = max(worst, float(np.abs(combined.amplitudes - direct.amplitudes).max()))
        energy_drift = abs(
            expectation(h, direct.amplitudes) - expectation(h, psi.amplitudes)
        )
        worst = max(worst, energy_drift / max(1.0, p.j))
    return worst < 1e-10, f"max composition/energy drift {worst:.3e}"

def check_rk4_cross() -> tuple[bool, str]:
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(10):
        p = _random_params(rng)
        psi = _random_state(rng)
        t = float(rng.uniform(0.1, 0.5))
        a = propagate(p, psi, t).amplitudes
        b = propagate_rk4(p, psi, t).amplitudes
        worst = max(worst, float(np.abs(a - b).max()))
    return worst < 1e-8, f"max spectral-vs-RK4 gap {worst:.3e}"

def check_analytic_populations() -> tuple[bool, str]:
    rng = np.random.default_rng(20)
    worst = 0.0
    rl = basis_state("RL")
    for _ in range(20):
        p = _random_params(rng, resonant=True)
        times = rng.uniform(0.0, 3.0, 50)
        stacked = np.column_stack(analytic_populations(p, times))
        for i, t in enumerate(times):
            pops = propagate(p, rl, float(t)).probabilities
            worst = max(worst, float(np.abs(pops - stacked[i]).max()))
    return worst < 1e-9, f"max population gap {worst:.3e}"

def check_bell_condition() -> tuple[bool, str]:
    rl = basis_state("RL")
    worst = 1.0
    for n in range(1, 5):
        for m in range(1, 2 * n, 2):
            bc = bell_condition(n, m, 25.0)
            psi = propagate(bc.params(), rl, bc.t_e)
            worst = min(worst, concurrence_pure(psi))
    return worst >= 1.0 - 1e-8, f"min Bell concurrence {worst:.12f}"

def check_sweep_determinism() -> tuple[bool, str]:
    base = SystemParams(delta1=25.0 / 16, delta2=25.0 / 16, j=25.0)
    grid = eigen_concurrence_map(base, 1, eps_steps=21)
    again = eigen_concurrence_map(base, 1, eps_steps=21)
    identical = np.array_equal(grid.values, again.values) and np.array_equal(
        grid.degenerate_mask, again.degenerate_mask
    )
    mirrored = grid.values[::-1, ::-1]
    symmetric = float(np.abs(grid.values - mirrored).max()) < 1e-10
    return identical and symmetric, (
        f"rerun identical: {identical}, inversion symmetry: {symmetric}"
    )


CHECKS = (
    ("eigensolver round-trip and orthonormality", check_eigensolver_roundtrip),
    ("eigensolver eigenvalues vs numpy", check_eigensolver_against_numpy),
    ("Bell-basis block form vs conjugation", check_basis_change),
    ("closed-form resonant energies vs numerics", check_resonant_spectrum),
    ("closed-form resonant eigenvectors", check_resonant_eigenvectors),
    ("pure concurrence vs Wootters construction", check_concurrence_oracle),
    ("local-unitary invariance of concurrence", check_local_unitary_invariance),
    ("propagator composition and energy conservation", check_propagator),
    ("spectral propagation vs RK4", check_rk4_cross),
    ("analytic populations vs propagator", check_analytic_populations),
    ("Bell-condition solver by propagation", check_bell_condition),
    ("sweep determinism and inversion symmetry", check_sweep_determinism),
)


def run_all(out=print) -> bool:
    """Run every check, report one line each, and return overall success."""
    ok = True
    for name, func in CHECKS:
        passed, detail = func()
        ok = ok and passed
        out(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    return ok
