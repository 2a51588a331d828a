"""Closed-system time evolution and Bell-state generation conditions.

Evolution is computed by spectral decomposition, which is exact for a
time-independent 4x4 Hamiltonian.  `propagate_rk4` is an independent
cross-check that diagonalizes nothing: fixed-step RK4, whose steps are
one 4x4 step matrix raised to a power.  This module is the only place
where energies are converted to angular frequencies via hbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, cos, hypot, isfinite, isqrt, pi, prod, sqrt

import numpy as np

from .entanglement import _flip_form
from .errors import ConvergenceError, InvalidInput, NoRealSolution, NumericOverflow
from .errors import _checked_array, _checked_float, _checked_int, _checked_type, _shown
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
_LOST_NORMALIZATION = "propagation lost normalization beyond {}"
#: Map rows check |V^T V - I|_max of their real V and ||c|^2 - 1| against this,
#: which bounds their populations' sums as _POP_SUM_TOL does (see `_concurrence_rows`).
_UNITARY_TOL = 2e-11
#: The ten pairs k <= l of eigenstates, and each pair's weight in a^T Y a.
_PAIR_K, _PAIR_L = np.triu_indices(4)
_PAIR_WEIGHTS = np.where(_PAIR_K == _PAIR_L, 1.0, 2.0)
#: |cos(omega_minus * t_e / hbar)| must be at most 1e-9 + _CROSSING_C * eps * x
#: at the Bell time, x being that argument, m*pi/2 in exact arithmetic.
#: The ten roundings from n, m and j to x, each up to eps/2, and pi's own
#: put x up to 5.2 * eps * x away from m*pi/2.
_CROSSING_TOL = 1e-9
_CROSSING_C = 6.0

#: Most time points a trajectory, and most values a sweep map, may hold.
#: Larger requests raise InvalidInput before any array is allocated, so
#: they end with exit code 2 instead of a memory error.  The arrays a
#: Trajectory keeps take 112 bytes per time point, 1.9 GB at 2**24.
MAX_OUTPUT_VALUES = 2**24


def _check_output_size(what: str, *counts: int) -> None:
    """InvalidInput if `what`, of counts[0] x counts[1] x ... values, exceeds MAX_OUTPUT_VALUES."""
    if prod(counts) > MAX_OUTPUT_VALUES:
        raise InvalidInput(
            f"{what} of {' x '.join(map(_shown, counts))} values exceeds the limit "
            f"of 2**24 = {MAX_OUTPUT_VALUES} values"
        )


#: Largest phase max|E| * t / hbar (rad) that `_phase_tables` accepts, for
#: every evolution.  Jacobi eigenvalues are off by up to about
#: 2e-15 * max|E| (worst 1.9e-15 on 300 draws from `verify`'s range) and
#: `_phase_tables`' times by up to 1.5 eps * t, so below 1e8 rad each phase
#: is off by under 2.5e-7 rad, and a population by under twice that: less
#: than the 5e-7 that would change its sixth printed decimal.  A pair phase
#: of `_pair_concurrence` is the product of two table entries, so its error
#: is the sum of theirs, under 5e-7 rad, as in the product a_LL * a_RR of
#: two amplitudes.  The moduli of the ten terms sum to at most
#: |c|^T |V^T Y V| |c| <= |V^T Y V|_F = 2 for the real orthogonal V of every
#: route, so a concurrence is off by under 1e-6 near this limit.
MAX_PHASE = 1e8

#: Largest phase |H|_F * dt / hbar (rad) of one `propagate_rk4` step.  RK4's
#: error per step is about (|E| dt / hbar)**5 / 120, under 3e-13 here; on 200
#: draws from `verify`'s range the worst gap to spectral propagation was
#: 2.7e-10, against 5.3e-9 with a fixed 1e-4 ns step.
_RK4_STEP_PHASE = 0.008


def _check_phase(phase: float, formula: str) -> None:
    """InvalidInput unless phase, the value of `formula` (rad), is at most MAX_PHASE.

    Written so that NaN and inf fail it.
    """
    if not phase <= MAX_PHASE:
        raise InvalidInput(
            f"{formula} = {phase:.3e} rad exceeds {MAX_PHASE:g} rad, beyond which "
            f"the phases do not hold six decimals; shorten the time span"
        )


def _positional(psi0) -> np.ndarray:
    """The positional amplitudes of psi0; InvalidInput unless it is a StateVector."""
    return _checked_type(psi0, StateVector, "psi0").to_positional().amplitudes


def _phase_tables(energies, vectors, amps0, times) -> tuple[np.ndarray, ...]:
    """The coefficients c = V^T amps0 and the anchor and offset tables of exp(-iE t / hbar) * c.

    The one evolution step of `propagate`, `trajectory` and the map rows.
    `energies` (..., 4) and real `vectors` (..., 4, 4) are one eigensystem
    or a stack of them, vectors[..., :, k] belonging to energies[..., k]:
    a stack from `symmetric_eigensolve_batch`, or the real parts of
    `hermitian_eigensolve`'s, exact since `build_positional` is real
    symmetric.  `times` is a uniform grid of n points.  With
    m = isqrt(n - 1) + 1, the anchors (..., ceil(n / m), 4) hold
    exp(-iE t_bm / hbar) and the offsets (..., m, 4) hold
    exp(-iE (t_j - t_0) / hbar) * c, so that time k = b*m + j takes
    anchors[..., b, :] * offsets[..., j, :], and np.exp sees
    4 * (m + ceil(n / m)) arguments per eigensystem, not 4 * n.  On a grid
    from np.linspace, t_bm + (t_j - t_0) lies within 1.5 ulp(t_max) of t_k,
    which adds up to 1.5 eps * max|E| * t_k / hbar to each phase (see
    MAX_PHASE).
    """
    phase = float(np.abs(energies).max()) * float(times.max()) / HBAR_UEV_NS
    _check_phase(phase, "max|E| * t / hbar")
    coeffs = vectors.swapaxes(-1, -2) @ amps0
    m = isqrt(times.shape[0] - 1) + 1
    offsets = np.exp(_phase_arguments(times[:m] - times[0], energies))
    offsets *= coeffs[..., None, :]
    anchors = np.exp(_phase_arguments(times[::m], energies))
    return coeffs, anchors, offsets


def _pair_concurrence(vectors, anchors, offsets, n: int) -> np.ndarray:
    """Concurrence at the n times of `_phase_tables`, clipped to [0, 1], without amplitudes.

    For one eigensystem or a stack of them: vectors (4, 4) or (N, 4, 4),
    never more axes, and the tables of their energies; returns (n,) or
    (N, n).  A pure state a has C = |a^T Y a| (Hill and Wootters, PRL 78,
    5022, 1997).  With a(t) = V phi(t) and phi_k = exp(-iE_k t / hbar) c_k,
    a^T Y a is the sum over the ten pairs k <= l of
    w_kl (V^T Y V)_kl phi_k phi_l, w being 1 for k = l and 2 otherwise.
    Each pair's table is the product of its two columns, so no E_k + E_l
    is formed (it can overflow where E_k * t cannot), and
    g_kl = w_kl (V^T Y V)_kl, V's columns k and l taken by
    `qmol.entanglement._flip_form`, is folded into the offsets: C at time
    b*m + j is |(pair anchors @ pair offsets^T)[b, j]|, one
    (ceil(n/m) x 10) @ (10 x m) product per eigensystem.  Each
    eigensystem's arithmetic is the same alone or in a stack, so a stacked
    row has the bits of its own evaluation.
    """
    v = vectors.swapaxes(0, -2)  # V's rows first, for two or three axes
    g = _PAIR_WEIGHTS * _flip_form(v[..., _PAIR_K], v[..., _PAIR_L])
    pair_offsets = offsets[..., _PAIR_K] * offsets[..., _PAIR_L]
    pair_offsets *= g[..., None, :]
    pair_anchors = anchors[..., _PAIR_K] * anchors[..., _PAIR_L]
    overlap = pair_anchors @ pair_offsets.swapaxes(-1, -2)  # a^T Y a
    value = np.abs(overlap.reshape(*overlap.shape[:-2], -1)[..., :n])
    return np.clip(value, 0.0, 1.0, out=value)


def _concurrence_rows(energies, vectors, amps0, times) -> np.ndarray:
    """Concurrence (..., n) of amps0 evolved by a stack of eigensystems, with no amplitudes.

    The map rows' route: energies (..., 4) and vectors (..., 4, 4) as
    `symmetric_eigensolve_batch` returns them, evaluated by
    `_pair_concurrence` on `_phase_tables`, which checks the phase, as
    `trajectory`'s concurrence is.  No amplitudes are formed, so the
    populations check of `Trajectory` becomes |V^T V - I|_max <= _UNITARY_TOL
    and ||c|^2 - 1| <= _UNITARY_TOL for the coefficients c = V^T amps0;
    together they bound ||a(t)|^2 - 1| by 4 tol (1 + tol) + tol
    = 1e-10 + 1.6e-21 at every t.
    """
    coeffs, *tables = _phase_tables(energies, vectors, amps0, times)
    gram = np.abs(vectors.swapaxes(-1, -2) @ vectors - np.eye(4)).max()
    norms = np.abs((coeffs * coeffs.conj()).real.sum(axis=-1) - 1.0).max()
    # written so that NaN fails it
    if not (gram <= _UNITARY_TOL and norms <= _UNITARY_TOL):
        raise ConvergenceError(_LOST_NORMALIZATION.format(_POP_SUM_TOL))
    return _pair_concurrence(vectors, *tables, times.shape[0])


def _phase_arguments(times, energies) -> np.ndarray:
    """The bits of -1j * np.outer(times, energies) / HBAR_UEV_NS, in real arithmetic.

    For a stack of energies (..., 4) the result is (..., len(times), 4),
    each entry with the bits of that outer product.

    numpy's complex product with -1j gives the real part +0.0 and the
    imaginary part -(t * E) = t * -E, and its complex quotient by a real
    hbar multiplies both parts by 1 / hbar, which leaves the real part
    +0.0; so only the imaginary parts are computed, with one real multiply
    of the outer product and one scaling.
    """
    shape = (*energies.shape[:-1], times.shape[0], energies.shape[-1])
    phases = np.zeros(shape, dtype=complex)
    imag = phases.imag
    np.multiply(times[:, None], -energies[..., None, :], out=imag)
    imag *= 1.0 / HBAR_UEV_NS
    return phases


def propagate(p: SystemParams, psi0: StateVector, t: float) -> StateVector:
    """Evolve psi0 for a time t (ns); exact for time-independent H.

    Bell-basis input is converted to the positional basis first; the
    returned state is positional.

    Raises:
        InvalidInput: if psi0 is no StateVector, t is negative or not
            finite, or the phase max|E| * t / hbar exceeds MAX_PHASE.
    """
    times = np.array([_checked_float(t, "t", "nonnegative")])
    dec = hermitian_eigensolve(build_positional(p))
    vectors = np.ascontiguousarray(dec.vectors.real)
    _, anchors, offsets = _phase_tables(dec.values, vectors, _positional(psi0), times)
    return StateVector(((anchors * offsets) @ vectors.T)[0], Basis.POSITIONAL)


def propagate_rk4(
    p: SystemParams, psi0: StateVector, t: float, step: float = 1e-4
) -> StateVector:
    """Runge-Kutta reference propagator for cross-checking the spectral path.

    Integrates d(psi)/dt = -i H psi / hbar with classical RK4 on a uniform
    grid.  For a constant H each step multiplies psi by the same matrix,
    RK4's stability function P = I + A + A^2/2 + A^3/6 + A^4/24 with
    A = -i dt H / hbar, so all steps are P**steps, formed by repeated
    squaring.  No eigensolver is called, which keeps this route
    independent of the Jacobi solver behind `propagate`.

    `step` (ns), finite, is the largest step taken.  The step is also at
    most 0.008 * hbar / |H|_F, so that each step turns phases by at most
    0.008 rad whatever the Hamiltonian's scale.

    Raises:
        InvalidInput: if psi0 is no StateVector, t is negative or not
            finite, step is not positive and finite, t / step does not
            fit a double, or the phase |H|_F * t / hbar exceeds MAX_PHASE.
    """
    t = _checked_float(t, "t", "nonnegative")
    step = _checked_float(step, "step", "positive")
    h = build_positional(p)
    # |H|_F bounds |H|_2 and so every |E|.  hypot sums without overflow, and
    # the norm of H/4 fits a double even where |H|_F does not, so t = 0
    # still gives a zero phase there
    phase = hypot(*np.abs(h / 4.0).flat) * (4.0 * t / HBAR_UEV_NS)
    _check_phase(phase, "|H|_F * t / hbar")
    if not isfinite(t / step):
        raise InvalidInput(f"step = {step!r} is too small: t / step overflows")
    steps = max(1, ceil(t / step), ceil(phase / _RK4_STEP_PHASE))
    a = h * (-1j * (t / steps) / HBAR_UEV_NS)
    eye = np.eye(4)
    # P - I = A + A^2/2 + A^3/6 + A^4/24, by Horner's rule
    step_minus_eye = a @ (eye + a / 2.0 @ (eye + a / 3.0 @ (eye + a / 4.0)))
    amps = _positional(psi0)
    psi = amps + _power_minus_identity(step_minus_eye, steps) @ amps
    psi = psi / np.linalg.norm(psi)
    return StateVector(psi, Basis.POSITIONAL)


def _power_minus_identity(b: np.ndarray, n: int) -> np.ndarray:
    """(I + b)**n - I for an integer n >= 1, by repeated squaring.

    Every product is kept as its difference from I, using
    (I + x)(I + y) = I + (x + y + x y), so entries of b far below one ulp
    of 1 keep their digits; forming I + b would round them away, an error
    that n steps multiply by n.
    """
    out = np.zeros_like(b)
    while True:
        if n & 1:
            out = out + b + out @ b
        n >>= 1
        if not n:
            return out
        b = b + b + b @ b


def analytic_populations(p: SystemParams, t):
    """Positional populations at time t for evolution from |RL> at full resonance.

    Accepts a scalar or array of integer or float times (ns) and returns the tuple
    (P_LL, P_LR, P_RL, P_RR) of matching shape.  The four expressions
    oscillate with the two angular frequencies beta_{+-}/(4*hbar) where
    beta_{+-} = sqrt(j^2 + 16*delta_{+-}^2), taken from `resonant_solution`.

    Raises:
        InvalidInput: if any time is no integer or float, NaN or
            infinite, or the phase max(beta_{+-})/4 * max|t| / hbar
            exceeds MAX_PHASE.
        NotResonant: if either detuning is nonzero (from `resonant_solution`).
    """
    t = _checked_array(t, "times", finite=True)
    solution = resonant_solution(p)
    beta_p = solution.plus.beta
    beta_m = solution.minus.beta
    # Python floats: a product beyond the double range is inf, not a warning
    phase = max(beta_p, beta_m) / 4.0 * float(np.abs(t).max(initial=0.0)) / HBAR_UEV_NS
    _check_phase(phase, "max(beta)/4 * |t| / hbar")
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
    whole double range, and the ratio comes from quotients of exact
    integers, so it keeps a few eps where m is close to 2n.

    Raises:
        InvalidInput: if n or m are not positive integers, m is even, or
            j is not positive and finite.
        NoRealSolution: if m >= 2n, where the ratio formula turns imaginary.
        NumericOverflow: if n, m or (2n + m)/m is at or past 2**1024, or
            delta1, beta_plus or t_e does not fit a double.
    """
    n = _checked_int(n, "n", 1)
    m = _checked_int(m, "m", 1)
    if m % 2 == 0:
        raise InvalidInput(f"m must be odd, got {_shown(m)}")
    j = _checked_float(j, "j", "positive")
    if m >= 2 * n:
        raise NoRealSolution(
            f"no real tunneling ratio for n={_shown(n)}, m={_shown(m)}: requires m < 2n"
        )
    try:
        below, above, n_float, m_float = (2 * n - m) / m, (2 * n + m) / m, float(n), float(m)
    except OverflowError:  # an int converts to a double only below 2**1024
        raise NumericOverflow("n, m and (2n + m)/m must be below 2**1024") from None
    # sqrt(4n^2/m^2 - 1)/4, the roots taken apart where the product overflows
    product = below * above
    ratio = 0.25 * sqrt(product) if isfinite(product) else 0.25 * sqrt(below) * sqrt(above)
    delta1 = ratio * j  # delta_plus with delta1 = delta2; delta_minus is 0
    beta_plus = hypot(j, 4.0 * delta1)
    beta_minus = j
    omega_plus = beta_plus / 4.0
    omega_minus = beta_minus / 4.0
    # n*pi*hbar/omega_plus and m*pi*hbar/(2*omega_minus), the same bits
    # where the omegas are normal, but with no division by an underflown one,
    # and with n and m scaled by a power of two (exact) so that 4n pi fits
    scale = 2.0 ** max(0, n.bit_length() - 1000)
    t_e = 4.0 * (n_float / scale) * pi * HBAR_UEV_NS / beta_plus * scale
    if not (isfinite(beta_plus) and isfinite(t_e)):  # delta1 = inf makes beta_plus inf
        raise NumericOverflow(
            f"the Bell condition for n = {_shown(n)}, m = {_shown(m)}, j = {j!r} does not fit a "
            f"double: beta_plus = {beta_plus!r} ueV, t_e = {t_e!r} ns"
        )
    t_e_check = 2.0 * (m_float / scale) * pi * HBAR_UEV_NS / beta_minus * scale
    if not abs(t_e - t_e_check) <= 1e-12 * t_e:
        raise ConvergenceError(
            f"inconsistent Bell time: {t_e!r} vs {t_e_check!r}"
        )
    x = omega_minus * t_e / HBAR_UEV_NS  # up to inf; past 1e15 any cosine passes
    if not abs(cos(min(x, 1e300))) <= _CROSSING_TOL + _CROSSING_C * 2.0**-52 * x:
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
        concurrence: real (len(times),) pure-state concurrence, taken from
            the phase tables the amplitudes use, by the pair route and the
            real eigenvectors of each dynamics-map row, and within 1e-14 of
            the stored amplitudes' concurrence.

    The arrays pass the array rule with shapes (n,), (n, 4), (n, 4) and
    (n,), n >= 1, amplitudes complex and the others float, else
    InvalidInput; they are stored read-only, those already of that dtype
    without a copy.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    populations: np.ndarray
    concurrence: np.ndarray

    def __post_init__(self) -> None:
        times = _checked_array(self.times, "times", (None,))
        n = times.shape[0]
        if n == 0:
            raise InvalidInput("times must hold at least one time point, got none")
        arrays = {
            "times": times,
            "amplitudes": _checked_array(self.amplitudes, "amplitudes", (n, 4), complex),
            "populations": _checked_array(self.populations, "populations", (n, 4)),
            "concurrence": _checked_array(self.concurrence, "concurrence", (n,)),
        }
        p = arrays["populations"]
        # the order of p.sum(axis=1), without its reduction loop per row
        sums = p[:, 0] + p[:, 1]
        sums += p[:, 2]
        sums += p[:, 3]
        # written so that NaN fails it
        if not float(np.abs(sums - 1.0).max()) <= _POP_SUM_TOL:
            raise ConvergenceError(_LOST_NORMALIZATION.format(_POP_SUM_TOL))
        for field, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, field, array)

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
            t_max is not positive and finite, psi0 is no StateVector, or
            max|E| * t_max / hbar exceeds MAX_PHASE.
    """
    steps = _checked_int(steps, "steps", 2)
    _check_output_size("a trajectory", steps)
    t_max = _checked_float(t_max, "tmax", "positive")
    dec = hermitian_eigensolve(build_positional(p))
    vectors = np.ascontiguousarray(dec.vectors.real)
    times = np.linspace(0.0, t_max, steps)
    _, anchors, offsets = _phase_tables(dec.values, vectors, _positional(psi0), times)
    amps = (anchors[:, None] * offsets).reshape(-1, 4)[:steps] @ vectors.T
    return Trajectory(
        times=times,
        amplitudes=amps,
        populations=np.abs(amps) ** 2,
        concurrence=_pair_concurrence(vectors, anchors, offsets, steps),
    )
