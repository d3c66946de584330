"""Gibbs states of the double-dot Hamiltonian and subsystem reductions.

_gibbs builds every Gibbs state and returns all of its checks.  The
sweeps and thermal_state, their one-point case, reach it by _gibbs_columns.
_rho forms the density matrices, only where a caller reads them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import ModelParams, _hamiltonians
from .qmatrix import (
    EigenDecomp,
    NotPositiveSemidefiniteError,
    ValidationError,
    check_density_matrix,
    eig_sym,
    raise_first,
)

__all__ = [
    "ThermalState",
    "thermal_state",
    "populations",
    "reduce_a",
    "reduce_b",
]

class ThermalState(NamedTuple):
    """Equilibrium state e^{-H/T} / Z built from the eigendecomposition.

    weights are the Gibbs probabilities of the eigenvector columns, so
    rho = vectors @ diag(weights) @ vectors.T.  The ground weight is
    exp(-energies[0] / T) / Z, so Z follows from weights[0], and
    log Z = -energies[0] / T - log(weights[0]) never overflows.
    """

    params: ModelParams
    temperature: float
    rho: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray


class _Gibbs(NamedTuple):
    """Gibbs states of N points: ThermalState's weights, on axis 0.

    dec holds the eigendecompositions of the distinct Hamiltonians the
    states were built from, and index maps each point to its row of dec.
    """

    dec: EigenDecomp
    index: np.ndarray
    weights: np.ndarray


def _gibbs(dec: EigenDecomp, index, temperature) -> tuple[_Gibbs, list]:
    """Gibbs states of N points that share M eigendecompositions.

    dec is eig_sym of an (M, n, n) stack of Hamiltonians, so each distinct
    H is diagonalized once however many temperatures use it; index holds
    the row of dec of each point and temperature one value per point,
    each positive and finite: thermal_state tests its one T, SweepGrid
    every grid point's, and the peak search and validate make theirs so.
    Returns (state, checks), every point computed under np.errstate;
    checks holds three (bad, error) pairs for qmatrix.raise_first, in this
    order: a temperature so small that 1/T overflows, a Hamiltonian whose
    eigenvalues overflow (both OverflowError), and eigenvectors off
    V^T V = I by more than 1e-12 (NotPositiveSemidefiniteError), tested
    once per distinct H.  That last test is the only check of LAPACK's
    vectors at the caller's own point: validate tests its own draws, and
    its commutation row, which sees a skew only through the Gibbs
    weights, can pass eigenvectors skewed by 1e-6.  A flagged point may
    come out inf or NaN.  Energies are shifted by each spectrum's minimum,
    so no weight overflows at beta |E| of order 1e6; a point gives the
    same bits whichever other points share its decomposition.

    Where the first two checks pass, beta > 0 and the eigenvalues are
    finite and ascending, so each beta (E - E0) rounds to >= 0 or inf, its
    exp to [0, 1] and the ground term's to exactly 1: Z is in [1, 4], each
    weight in [0, 1] and not NaN, and sum(w) is 1 to a few ulps.  With
    V^T V = I, rho = V diag(w) V^T is then PSD with trace sum(w).
    """
    temp = np.asarray(temperature, dtype=float).reshape(-1)
    values = dec.values[index]
    # silent: beta * gap beyond range gives the exact weight exp(-inf) = 0,
    # and a flagged point may give inf or NaN
    with np.errstate(all="ignore"):
        beta = 1.0 / temp
        e_shift = values[:, 0]
        weights = np.exp(-beta[:, None] * (values - e_shift[:, None]))
        z_shifted = weights.sum(axis=1)
        weights = weights / z_shifted[:, None]
        gram = np.swapaxes(dec.vectors, 1, 2) @ dec.vectors - np.eye(dec.vectors.shape[-1])
        skew = np.abs(gram).reshape(len(gram), -1).max(axis=1)
    checks = [
        (np.isinf(beta),
         lambda i: OverflowError(f"1/T overflows for temperature {float(temp[i])!r}")),
        # one test per distinct spectrum, then one lookup per point
        (~np.isfinite(dec.values).all(axis=1)[index],
         lambda i: OverflowError("the eigenvalues of H overflow")),
        (~(skew <= 1e-12)[index],
         lambda i: NotPositiveSemidefiniteError(
             f"density matrix has eigenvectors off orthonormal by {float(skew[index[i]])!r}")),
    ]
    return _Gibbs(dec, index, weights), checks


def _gibbs_columns(cols: dict) -> tuple[_Gibbs, list]:
    """Gibbs states of parameter columns and their checks, one eigensolve per distinct H.

    Consecutive points whose (eps, t, bz, bx) are equal bit for bit
    (compared as int64, so -0.0 and 0.0 differ) share one Hamiltonian and
    its eigendecomposition.  So a grid whose T axis is innermost
    diagonalizes each distinct H once, and one with T outer or fixed,
    once per point.  Returns _gibbs's (state, checks).
    """
    model = [cols[k] for k in ("epsilon", "t", "bz", "bx")]
    first = np.zeros(len(cols["T"]), dtype=bool)
    first[:1] = True
    for c in model:
        bits = c.view(np.int64)
        first[1:] |= bits[1:] != bits[:-1]
    dec = eig_sym(_hamiltonians(*(c[first] for c in model)))
    return _gibbs(dec, np.cumsum(first) - 1, cols["T"])


def _rho(g: _Gibbs) -> np.ndarray:
    """The density matrices of g's points, 0.5 (M + M^T) with M = V diag(w) V^T."""
    # fancy indexing copies C-contiguous, as eigh returns its stacks, so the
    # products below take the same kernels and give the same bits
    vectors = g.dec.vectors[g.index]
    with np.errstate(all="ignore"):  # a flagged point may give inf or NaN
        rho = (vectors * g.weights[:, None, :]) @ np.swapaxes(vectors, 1, 2)
        return 0.5 * (rho + np.swapaxes(rho, 1, 2))


def thermal_state(p: ModelParams, temperature: float) -> ThermalState:
    """Thermal equilibrium state of the double dot at temperature T > 0.

    The state is the one-point case of _gibbs_columns and passes the
    checks a sweep makes, so parameters whose Gibbs state is not a
    density matrix raise ValidationError.
    """
    try:
        temperature = float(temperature)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"temperature must be a real number, got {temperature!r}")
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValidationError(f"temperature must be positive and finite, got {temperature!r}")
    cols = {k: np.array([getattr(p, k)]) for k in ("epsilon", "t", "bz", "bx")}
    g, checks = _gibbs_columns({**cols, "T": np.array([temperature])})
    raise_first(checks)
    return ThermalState(
        params=p,
        temperature=temperature,
        rho=_rho(g)[0],
        energies=g.dec.values[0],
        vectors=g.dec.vectors[0],
        weights=g.weights[0],
    )


def _rho_of(state) -> np.ndarray:
    if isinstance(state, ThermalState):
        return state.rho
    return check_density_matrix(state, dim=4)


def _pair(d0, off, d1) -> np.ndarray:
    m = np.empty(np.shape(off) + (2, 2))
    m[..., 0, 0], m[..., 1, 1] = d0, d1
    m[..., 0, 1] = m[..., 1, 0] = off
    return m


def _reduce_a(r: np.ndarray) -> np.ndarray:
    """Charge reduction of one 4x4 matrix or of each matrix of a stack."""
    off = r[..., 0, 2] + r[..., 1, 3]
    return _pair(r[..., 0, 0] + r[..., 1, 1], off, r[..., 2, 2] + r[..., 3, 3])


def _reduce_b(r: np.ndarray) -> np.ndarray:
    """Spin reduction of one 4x4 matrix or of each matrix of a stack."""
    off = r[..., 0, 1] + r[..., 2, 3]
    return _pair(r[..., 0, 0] + r[..., 2, 2], off, r[..., 1, 1] + r[..., 3, 3])


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
