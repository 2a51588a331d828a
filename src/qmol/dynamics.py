"""Closed-system time evolution and Bell-state generation conditions.

Evolution is computed by spectral decomposition, which is exact for a
time-independent 4x4 Hamiltonian; a small-step RK4 integrator is kept as
an independent cross-check (`propagate_rk4`).  This module is the only
place where energies are converted to angular frequencies via hbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, cos, hypot, isfinite, pi, sqrt

import numpy as np

from .entanglement import concurrence_from_amplitudes
from .errors import ConvergenceError, InvalidInput, NoRealSolution, NumericOverflow
from .hamiltonian import SystemParams, build_positional
from .linalg import hermitian_eigensolve
from .spectrum import resonant_solution
from .states import Basis, StateVector
from .units import HBAR_UEV_NS

__all__ = [
    "Trajectory",
    "BellCondition",
    "propagate",
    "propagate_rk4",
    "analytic_populations",
    "bell_condition",
    "trajectory",
]

_POP_SUM_TOL = 1e-10
_CROSSING_TOL = 1e-9

#: Most time points a trajectory, and most values a sweep map, may hold.
#: Larger requests raise InvalidInput before any array is allocated, so
#: they end with exit code 2 instead of a memory error.  The arrays a
#: Trajectory keeps take 112 bytes per time point, 1.9 GB at 2**24.
MAX_OUTPUT_VALUES = 2**24

#: Largest phase max|E| * t / hbar (rad) that spectral propagation accepts.
#: Jacobi eigenvalues are off by up to about 2e-15 * max|E| (worst 1.9e-15
#: on 300 draws from `verify`'s range), so below 1e8 rad each phase is off by
#: under 2.5e-7 rad, and a population by under twice that: less than the
#: 5e-7 that would change its sixth printed decimal.
MAX_PHASE = 1e8


def _evolve(energies, vectors, amps0, times) -> np.ndarray:
    """Amplitudes at each time, rows indexed by the time grid.

    `energies` and `vectors` are the eigensystem of the Hamiltonian, as
    `hermitian_eigensolve` or one lane of `symmetric_eigensolve_batch`
    returns it, with vectors[:, k] belonging to energies[k].
    """
    phase = float(np.abs(energies).max()) * float(times.max()) / HBAR_UEV_NS
    # written so that NaN and inf fail it
    if not phase <= MAX_PHASE:
        raise InvalidInput(
            f"max|E| * t / hbar = {phase:.3e} rad exceeds {MAX_PHASE:g} rad, beyond "
            f"which the phases do not hold six decimals; shorten the time span"
        )
    coeffs = vectors.conj().T @ amps0
    phases = np.exp(-1j * np.outer(times, energies) / HBAR_UEV_NS)
    return (phases * coeffs) @ vectors.T


def _checked_time(t) -> float:
    """t as a float; InvalidInput unless it is nonnegative and finite."""
    t = float(t)
    if not (t >= 0.0 and isfinite(t)):
        raise InvalidInput(f"t must be nonnegative and finite, got {t!r}")
    return t


def propagate(p: SystemParams, psi0: StateVector, t: float) -> StateVector:
    """Evolve psi0 for a time t (ns); exact for time-independent H.

    Bell-basis input is converted to the positional basis first; the
    returned state is positional.

    Raises:
        InvalidInput: if t is negative or not finite, or the phase
            max|E| * t / hbar exceeds MAX_PHASE.
    """
    times = np.array([_checked_time(t)])
    dec = hermitian_eigensolve(build_positional(p))
    out = _evolve(dec.values, dec.vectors, psi0.to_positional().amplitudes, times)[0]
    return StateVector(out, Basis.POSITIONAL)


def propagate_rk4(
    p: SystemParams, psi0: StateVector, t: float, step: float = 1e-4
) -> StateVector:
    """Runge-Kutta reference propagator for cross-checking the spectral path.

    Integrates d(psi)/dt = -i H psi / hbar with a fixed step (ns).  Slower
    and less accurate than `propagate`; intended for verification only.

    Raises:
        InvalidInput: if t is negative or not finite.
    """
    t = _checked_time(t)
    h = build_positional(p)
    gen = h * (-1j / HBAR_UEV_NS)
    steps = max(1, ceil(t / step))
    dt = t / steps
    psi = psi0.to_positional().amplitudes.astype(complex)
    for _ in range(steps):
        k1 = gen @ psi
        k2 = gen @ (psi + 0.5 * dt * k1)
        k3 = gen @ (psi + 0.5 * dt * k2)
        k4 = gen @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    psi = psi / np.linalg.norm(psi)
    return StateVector(psi, Basis.POSITIONAL)


def analytic_populations(p: SystemParams, t):
    """Positional populations at time t for evolution from |RL> at full resonance.

    Accepts a scalar or array of times (ns) and returns the tuple
    (P_LL, P_LR, P_RL, P_RR) of matching shape.  The four expressions
    oscillate with the two angular frequencies beta_{+-}/(4*hbar) where
    beta_{+-} = sqrt(j^2 + 16*delta_{+-}^2), taken from `resonant_solution`.

    Raises:
        NotResonant: if either detuning is nonzero (from `resonant_solution`).
    """
    t = np.asarray(t, dtype=float)
    solution = resonant_solution(p)
    beta_p = solution.plus.beta
    beta_m = solution.minus.beta
    theta_p = (beta_p / 4.0) * t / HBAR_UEV_NS
    theta_m = (beta_m / 4.0) * t / HBAR_UEV_NS
    sp, cp = np.sin(theta_p), np.cos(theta_p)
    sm, cm = np.sin(theta_m), np.cos(theta_m)
    p_rl = 0.25 * ((p.j / beta_p * sp + p.j / beta_m * sm) ** 2 + (cp + cm) ** 2)
    p_lr = 0.25 * ((p.j / beta_p * sp - p.j / beta_m * sm) ** 2 + (cp - cm) ** 2)
    p_ll = 4.0 * (p.delta_plus / beta_p * sp + p.delta_minus / beta_m * sm) ** 2
    p_rr = 4.0 * (p.delta_plus / beta_p * sp - p.delta_minus / beta_m * sm) ** 2
    return p_ll, p_lr, p_rl, p_rr


@dataclass(frozen=True)
class BellCondition:
    """Tunneling ratio and earliest Bell time for a commensurate oscillation.

    The plus block completes n half-periods while the minus block reaches
    an odd quarter-period m, which requires delta1/j = sqrt(4n^2/m^2 - 1)/4
    and yields a maximally entangled state at t_e.

    Attributes:
        n: positive integer count of plus-block half-periods.
        m: positive odd integer count of minus-block quarter-periods.
        j: Coulomb coupling (ueV).
        ratio: delta1/j (= delta2/j) satisfying the commensuration.
        delta1: ratio * j (ueV).
        omega_plus, omega_minus: oscillation energies beta/4 of the two
            Bell blocks (ueV).
        beta_plus, beta_minus: sqrt(j^2 + 16*delta^2) per block (ueV).
        t_e: earliest Bell time n*pi*hbar/omega_plus (ns).
    """

    n: int
    m: int
    j: float
    ratio: float
    delta1: float
    omega_plus: float
    omega_minus: float
    beta_plus: float
    beta_minus: float
    t_e: float

    def params(self, eps1: float = 0.0, eps2: float = 0.0) -> SystemParams:
        """System parameters realizing the condition."""
        return SystemParams(
            eps1=eps1, eps2=eps2, delta1=self.delta1, delta2=self.delta1, j=self.j
        )


def bell_condition(n: int, m: int, j: float = 25.0) -> BellCondition:
    """Solve for the equal-tunneling ratio that makes both blocks commensurate.

    beta_plus = hypot(j, 4*delta1) squares neither, so j may span the
    whole double range.

    Raises:
        InvalidInput: if n or m are not positive integers, m is even, or
            j is not positive and finite.
        NoRealSolution: if m >= 2n, where the ratio formula turns imaginary.
        NumericOverflow: if beta_plus or t_e does not fit a double.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidInput(f"n must be a positive integer, got {n!r}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidInput(f"m must be a positive integer, got {m!r}")
    if m % 2 == 0:
        raise InvalidInput(f"m must be odd, got {m}")
    j = float(j)
    if not (j > 0.0 and isfinite(j)):
        raise InvalidInput(f"j must be positive and finite, got {j!r}")
    if m >= 2 * n:
        raise NoRealSolution(
            f"no real tunneling ratio for n={n}, m={m}: requires m < 2n"
        )
    ratio = 0.25 * sqrt(4.0 * n * n / (m * m) - 1.0)
    delta1 = ratio * j  # delta_plus with delta1 = delta2; delta_minus is 0
    beta_plus = hypot(j, 4.0 * delta1)
    beta_minus = j
    omega_plus = beta_plus / 4.0
    omega_minus = beta_minus / 4.0
    # n*pi*hbar/omega_plus and m*pi*hbar/(2*omega_minus), the same bits
    # where the omegas are normal, but with no division by an underflown one
    t_e = 4.0 * n * pi * HBAR_UEV_NS / beta_plus
    if not (isfinite(beta_plus) and isfinite(t_e)):
        raise NumericOverflow(
            f"the Bell condition for n = {n}, m = {m}, j = {j!r} does not fit a "
            f"double: beta_plus = {beta_plus!r} ueV, t_e = {t_e!r} ns"
        )
    t_e_check = 2.0 * m * pi * HBAR_UEV_NS / beta_minus
    if not abs(t_e - t_e_check) <= 1e-12 * t_e:
        raise ConvergenceError(
            f"inconsistent Bell time: {t_e!r} vs {t_e_check!r}"
        )
    if not abs(cos(omega_minus * t_e / HBAR_UEV_NS)) <= _CROSSING_TOL:
        raise ConvergenceError("minus-block quarter-period check failed at t_e")
    return BellCondition(
        n=n,
        m=m,
        j=j,
        ratio=ratio,
        delta1=delta1,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        beta_plus=beta_plus,
        beta_minus=beta_minus,
        t_e=t_e,
    )


@dataclass(frozen=True)
class Trajectory:
    """Evolution sampled on a uniform time grid.

    Attributes:
        times: grid in ns, inclusive of 0 and t_max.
        amplitudes: complex (len(times), 4) positional amplitudes.
        populations: real (len(times), 4) squared moduli, columns ordered
            (P_LL, P_LR, P_RL, P_RR); rows sum to 1 within 1e-10.
        concurrence: real (len(times),) pure-state concurrence.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    populations: np.ndarray
    concurrence: np.ndarray

    def __post_init__(self) -> None:
        sums = self.populations.sum(axis=1)
        # written so that NaN fails it
        if not float(np.abs(sums - 1.0).max()) <= _POP_SUM_TOL:
            raise ConvergenceError("propagation lost normalization beyond 1e-10")
        for arr in (self.times, self.amplitudes, self.populations, self.concurrence):
            arr.setflags(write=False)

    @property
    def states(self) -> tuple[StateVector, ...]:
        return tuple(
            StateVector(self.amplitudes[i], Basis.POSITIONAL)
            for i in range(self.amplitudes.shape[0])
        )


def trajectory(
    p: SystemParams, psi0: StateVector, t_max: float, steps: int
) -> Trajectory:
    """Propagate psi0 over `steps` evenly spaced times covering [0, t_max].

    Raises:
        InvalidInput: if steps is not an integer in [2, MAX_OUTPUT_VALUES],
            t_max is not positive and finite, or max|E| * t_max / hbar
            exceeds MAX_PHASE.
    """
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 2:
        raise InvalidInput(f"steps must be an integer >= 2, got {steps!r}")
    if steps > MAX_OUTPUT_VALUES:
        raise InvalidInput(
            f"steps must be at most 2**24 = {MAX_OUTPUT_VALUES}, got {steps}"
        )
    if not (t_max > 0.0 and isfinite(t_max)):
        raise InvalidInput(f"tmax must be positive and finite, got {t_max!r}")
    dec = hermitian_eigensolve(build_positional(p))
    times = np.linspace(0.0, float(t_max), steps)
    return _sampled(dec.values, dec.vectors, psi0.to_positional().amplitudes, times)


def _sampled(energies, vectors, amps0, times) -> Trajectory:
    """The Trajectory from amplitudes amps0 at `times`; see `_evolve`."""
    amps = _evolve(energies, vectors, amps0, times)
    return Trajectory(
        times=times,
        amplitudes=amps,
        populations=np.abs(amps) ** 2,
        concurrence=concurrence_from_amplitudes(amps),
    )
