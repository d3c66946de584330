"""Exactly solvable single-electron double-quantum-dot model.

One electron in two tunnel-coupled dots carries a charge qubit (which
dot) and a spin qubit; a dot-dependent transverse field couples the two.
This package builds the 4-level Hamiltonian, its closed-form spectrum,
and the Gibbs state at temperature T, and computes the thermal quantum
correlations between the qubits: populations, Wootters concurrence,
ground-state fidelity, l1 coherence, and correlated coherence, plus
sweep/CSV tooling to regenerate the reference datasets.
"""

from .correlations import (
    LocalBasisAngles,
    RSpectrum,
    SPIN_FLIP,
    concurrence,
    concurrence_closed_form,
    correlated_coherence,
    fidelity_pure,
    l1_coherence,
    local_angles,
)
from .model import (
    AnalyticCoeffs,
    AnalyticUnavailable,
    Anticrossing,
    DegenerateGroundState,
    GroundState,
    ModelParams,
    NoAnticrossing,
    SpectrumResult,
    analytic_coeffs,
    analytic_energies,
    build_hamiltonian,
    find_anticrossing,
    ground_state,
    spectrum,
)
from .qmatrix import (
    EigenDecomp,
    NotPositiveSemidefiniteError,
    ValidationError,
    check_density_matrix,
    eig_sym,
)
from .sweep import (
    Axis,
    ConfigError,
    SweepGrid,
    find_coherence_peak,
    load_config,
)
from .thermal import (
    ThermalState,
    populations,
    reduce_a,
    reduce_b,
    thermal_state,
)
from .validate import CheckResult, hard_failed, run_validation

__version__ = "0.1.0"

__all__ = [
    "AnalyticCoeffs",
    "AnalyticUnavailable",
    "Anticrossing",
    "Axis",
    "CheckResult",
    "ConfigError",
    "DegenerateGroundState",
    "EigenDecomp",
    "GroundState",
    "LocalBasisAngles",
    "ModelParams",
    "NoAnticrossing",
    "NotPositiveSemidefiniteError",
    "RSpectrum",
    "SPIN_FLIP",
    "SpectrumResult",
    "SweepGrid",
    "ThermalState",
    "ValidationError",
    "analytic_coeffs",
    "analytic_energies",
    "build_hamiltonian",
    "check_density_matrix",
    "concurrence",
    "concurrence_closed_form",
    "correlated_coherence",
    "eig_sym",
    "fidelity_pure",
    "find_anticrossing",
    "find_coherence_peak",
    "ground_state",
    "hard_failed",
    "l1_coherence",
    "load_config",
    "local_angles",
    "populations",
    "reduce_a",
    "reduce_b",
    "run_validation",
    "spectrum",
    "thermal_state",
]
