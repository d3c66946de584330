"""Exactly solvable single-electron double-quantum-dot model.

One electron in two tunnel-coupled dots carries a charge qubit (which
dot) and a spin qubit; a dot-dependent transverse field couples the two.
This package builds the 4-level Hamiltonian, its closed-form spectrum,
and the Gibbs state at temperature T, and computes the thermal quantum
correlations between the qubits: populations, Wootters concurrence,
ground-state fidelity, l1 coherence, and correlated coherence, plus
sweep/CSV tooling to regenerate the reference datasets.
"""

from . import correlations, model, qmatrix, sweep, thermal, validate
from .correlations import *
from .model import *
from .qmatrix import *
from .sweep import *
from .thermal import *
from .validate import *

__version__ = "0.1.0"

# each module's __all__ is its public API, and the package exports them all
__all__ = sorted(
    name for module in (correlations, model, qmatrix, sweep, thermal, validate)
    for name in module.__all__
)
