"""Scale covariance of the spectrum, the closed forms and the dynamics.

Multiplying every coupling by s = 2**k multiplies energies by s and
divides times by s.  A power of two changes no significand, so the
results must agree bit for bit with those at unit scale.  Skipped without
hypothesis.
"""

from math import ldexp

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmol import (  # noqa: E402
    SystemParams,
    basis_state,
    bell_condition,
    concurrence_pure,
    eigensystem,
    resonant_solution,
    trajectory,
)

# Couplings are multiples of 1/64 up to 64 in magnitude, which gives exact
# ties (degenerate pairs) as well as generic spectra, and no subnormal
# matrix entry or square at any k in [-500, 500].
_coupling = st.integers(-4096, 4096).map(lambda n: n / 64.0)
_j = st.integers(1, 4096).map(lambda n: n / 64.0)
_k = st.integers(-500, 500)

#: a draw whose matrix, at k = -500, has its largest entry just above 2**-500:
#: the eigensolver must still scale it, or its convergence test squares
#: subnormal off-diagonal entries and the eigenvectors move by 4e-14
_EDGE = SystemParams(
    eps1=14.28125, eps2=7.203125, delta1=-59.671875, delta2=54.296875, j=53.984375
)


@st.composite
def _params(draw, resonant: bool = False) -> SystemParams:
    eps = (0.0, 0.0) if resonant else (draw(_coupling), draw(_coupling))
    return SystemParams(
        eps1=eps[0], eps2=eps[1], delta1=draw(_coupling), delta2=draw(_coupling),
        j=draw(_j),
    )


def _scaled(p: SystemParams, k: int) -> SystemParams:
    return SystemParams(
        eps1=ldexp(p.eps1, k), eps2=ldexp(p.eps2, k),
        delta1=ldexp(p.delta1, k), delta2=ldexp(p.delta2, k), j=ldexp(p.j, k),
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_params(), _k)
@example(_EDGE, -500)
@example(_EDGE, -501)
def test_eigensystem_is_scale_covariant(p, k):
    unit = eigensystem(p)
    scaled = eigensystem(_scaled(p, k))
    assert np.array_equal(scaled.energies, np.ldexp(unit.energies, k))
    assert np.array_equal(scaled.vectors, unit.vectors)
    assert scaled.degenerate_pairs == unit.degenerate_pairs
    assert [concurrence_pure(s) for s in scaled.states] == [
        concurrence_pure(s) for s in unit.states
    ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_params(resonant=True), _k)
def test_resonant_solution_is_scale_covariant(p, k):
    unit = resonant_solution(p)
    scaled = resonant_solution(_scaled(p, k))
    assert np.array_equal(scaled.energies, np.ldexp(unit.energies, k))
    assert scaled.minus.mixing == unit.minus.mixing
    assert scaled.plus.mixing == unit.plus.mixing


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 29), st.data(), _j, _k)
def test_bell_time_is_scale_covariant(n, data, j, k):
    m = data.draw(st.integers(0, n - 1).map(lambda i: 2 * i + 1))
    unit = bell_condition(n, m, j)
    scaled = bell_condition(n, m, ldexp(j, k))
    assert ldexp(scaled.t_e, k) == unit.t_e


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_params(), _k, st.integers(1, 300).map(lambda n: n / 100.0))
def test_trajectory_is_scale_covariant(p, k, t_max):
    psi0 = basis_state("RL")
    unit = trajectory(p, psi0, t_max, 21)
    scaled = trajectory(_scaled(p, k), psi0, ldexp(t_max, -k), 21)
    assert np.array_equal(scaled.populations, unit.populations)
