"""Simulation of two Coulomb-coupled charge qubits.

The package builds the four-level Hamiltonian of two tunneling charges
that interact electrostatically, diagonalizes it with a self-contained
Jacobi eigensolver, and quantifies entanglement through the concurrence.
It provides closed-form results at zero detuning (energies, eigenstates,
populations, and exact maximal-entanglement times), a spectral propagator
with an independent Runge-Kutta cross-check, and deterministic parameter
sweeps that feed the CSV/PGM command-line front end.
"""

from .dynamics import (
    BellCondition,
    Trajectory,
    analytic_populations,
    bell_condition,
    propagate,
    propagate_rk4,
    trajectory,
)
from .entanglement import ConcurrenceResult, concurrence, concurrence_pure, spin_flip
from .errors import (
    ConfigError,
    ConvergenceError,
    InvalidDensityMatrix,
    InvalidInput,
    NoRealSolution,
    NonHermitianInput,
    NotNormalized,
    NotResonant,
    NumericOverflow,
    QmolError,
)
from .hamiltonian import SystemParams, build_bell, build_positional
from .linalg import EigenDecomposition, hermitian_eigensolve
from .spectrum import (
    EigenSystem,
    ResonanceKind,
    ResonantBranch,
    ResonantSolution,
    classify_resonance,
    eigensystem,
    resonant_solution,
)
from .states import (
    BELL_LABELS,
    BELL_MATRIX,
    POSITIONAL_LABELS,
    Basis,
    StateVector,
    basis_state,
)
from .sweep import (
    Axis,
    SweepGrid,
    dynamics_detuning_map,
    dynamics_tunneling_map,
    eigen_concurrence_map,
)
from .units import HBAR_UEV_NS

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HBAR_UEV_NS",
    "Basis",
    "StateVector",
    "basis_state",
    "POSITIONAL_LABELS",
    "BELL_LABELS",
    "BELL_MATRIX",
    "SystemParams",
    "build_positional",
    "build_bell",
    "EigenDecomposition",
    "hermitian_eigensolve",
    "EigenSystem",
    "eigensystem",
    "ResonantBranch",
    "ResonantSolution",
    "resonant_solution",
    "ResonanceKind",
    "classify_resonance",
    "ConcurrenceResult",
    "concurrence",
    "concurrence_pure",
    "spin_flip",
    "propagate",
    "propagate_rk4",
    "analytic_populations",
    "BellCondition",
    "bell_condition",
    "Trajectory",
    "trajectory",
    "Axis",
    "SweepGrid",
    "eigen_concurrence_map",
    "dynamics_tunneling_map",
    "dynamics_detuning_map",
    "QmolError",
    "InvalidInput",
    "NonHermitianInput",
    "ConvergenceError",
    "NumericOverflow",
    "NotNormalized",
    "NotResonant",
    "NoRealSolution",
    "InvalidDensityMatrix",
    "ConfigError",
]
