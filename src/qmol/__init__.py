"""Simulation of two Coulomb-coupled charge qubits.

The package builds the four-level Hamiltonian of two tunneling charges
that interact electrostatically, diagonalizes it with a self-contained
Jacobi eigensolver, and quantifies entanglement through the concurrence.
It provides closed-form results at zero detuning (energies, eigenstates,
populations, and exact maximal-entanglement times), a spectral propagator
with an independent Runge-Kutta cross-check, and deterministic parameter
sweeps that feed the CSV/PGM command-line front end.

Each public name is declared once, in its module's ``__all__``; this
package re-exports those lists in the order below.
"""

from . import dynamics, entanglement, errors, hamiltonian, linalg, spectrum, states, sweep, units
from .units import *
from .states import *
from .hamiltonian import *
from .linalg import *
from .spectrum import *
from .entanglement import *
from .dynamics import *
from .sweep import *
from .errors import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += units.__all__
__all__ += states.__all__
__all__ += hamiltonian.__all__
__all__ += linalg.__all__
__all__ += spectrum.__all__
__all__ += entanglement.__all__
__all__ += dynamics.__all__
__all__ += sweep.__all__
__all__ += errors.__all__
