"""Gibbs states of the double-dot Hamiltonian and subsystem reductions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, build_hamiltonian
from .qmatrix import ValidationError, check_density_matrix, eig_sym

__all__ = [
    "BOLTZMANN",
    "ThermalState",
    "density_from_hamiltonian",
    "thermal_state",
    "populations",
    "reduce_a",
    "reduce_b",
]

BOLTZMANN = 1.0  # k_B in the shared energy unit


@dataclass(frozen=True)
class ThermalState:
    """Equilibrium state e^{-H/T} / Z built from the eigendecomposition.

    z_shifted is the partition function with energies measured from the
    ground state (Z = z_shifted * exp(-beta * e_shift)); keeping the
    shift explicit avoids overflow at beta |E| of order 1e6.
    """

    params: ModelParams
    temperature: float
    beta: float
    rho: np.ndarray
    z_shifted: float
    e_shift: float
    energies: np.ndarray
    vectors: np.ndarray


def density_from_hamiltonian(h, temperature: float):
    """Gibbs density matrix of an arbitrary symmetric Hamiltonian.

    Returns (rho, z_shifted, e_shift, energies, vectors).  Boltzmann
    weights use energies shifted by the spectrum minimum, so an extreme
    beta merely underflows the excited weights to zero and the result
    degrades gracefully to the ground-state projector.
    """
    try:
        temp = float(temperature)
    except (TypeError, ValueError):
        raise ValidationError(f"temperature must be a real number, got {temperature!r}")
    if not math.isfinite(temp) or temp <= 0.0:
        raise ValidationError(f"temperature must be positive and finite, got {temp!r}")
    dec = eig_sym(h)
    beta = 1.0 / (BOLTZMANN * temp)
    e_shift = float(dec.values[0])
    weights = np.exp(-beta * (dec.values - e_shift))
    z_shifted = float(weights.sum())
    weights = weights / z_shifted
    rho = (dec.vectors * weights) @ dec.vectors.T
    rho = 0.5 * (rho + rho.T)
    return rho, z_shifted, e_shift, dec.values, dec.vectors


def thermal_state(p: ModelParams, temperature: float) -> ThermalState:
    """Thermal equilibrium state of the double dot at temperature T > 0."""
    rho, z_shifted, e_shift, energies, vectors = density_from_hamiltonian(
        build_hamiltonian(p), temperature
    )
    return ThermalState(
        params=p,
        temperature=float(temperature),
        beta=1.0 / (BOLTZMANN * float(temperature)),
        rho=rho,
        z_shifted=z_shifted,
        e_shift=e_shift,
        energies=energies,
        vectors=vectors,
    )


def _rho_of(state) -> np.ndarray:
    if isinstance(state, ThermalState):
        return state.rho
    return check_density_matrix(state, dim=4)


def _reduce_a(r: np.ndarray) -> np.ndarray:
    off = r[0, 2] + r[1, 3]
    return np.array([[r[0, 0] + r[1, 1], off], [off, r[2, 2] + r[3, 3]]])


def _reduce_b(r: np.ndarray) -> np.ndarray:
    off = r[0, 1] + r[2, 3]
    return np.array([[r[0, 0] + r[2, 2], off], [off, r[1, 1] + r[3, 3]]])


def populations(state) -> tuple[float, float, float, float]:
    """Diagonal occupations (rho11, rho22, rho33, rho44) in the fixed basis."""
    r = _rho_of(state)
    return tuple(float(x) for x in np.diag(r))


def reduce_a(state) -> np.ndarray:
    """Charge (dot) reduced density matrix, spin traced out:
    [[r11+r22, r13+r24], [r13+r24, r33+r44]]."""
    return _reduce_a(_rho_of(state))


def reduce_b(state) -> np.ndarray:
    """Spin reduced density matrix, charge traced out:
    [[r11+r33, r12+r34], [r12+r34, r22+r44]]."""
    return _reduce_b(_rho_of(state))
