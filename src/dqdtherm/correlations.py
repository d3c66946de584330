"""Entanglement, fidelity, and coherence measures for the two-qubit state.

All states here are real symmetric density matrices, so complex
conjugation is a no-op and every measure reduces to real arithmetic.
Each measure has one unchecked kernel over (N, 4, 4) stacks, which the
sweeps run on blocks of grid points.  Each public measure validates its
density-matrix argument once and calls the same kernel with N = 1, so a
point gives the same bits through either route.  The paper's printed
R-spectrum concurrence and arctan angles are validate's oracles.
"""

from __future__ import annotations

import numpy as np

from .model import DegenerateGroundState, GroundState
from .qmatrix import (
    ValidationError,
    _real,
    check_density_matrix,
    eig_sym,
)
from .thermal import ThermalState, _reduce_a, _reduce_b

__all__ = [
    "SPIN_FLIP",
    "concurrence",
    "fidelity_pure",
    "l1_coherence",
    "correlated_coherence",
]

# sigma_y (x) sigma_y is real even though sigma_y is not:
# sigma_y = i*K with K = [[0,-1],[1,0]], hence sigma_y(x)sigma_y = -K(x)K.
_K = np.array([[0.0, -1.0], [1.0, 0.0]])
SPIN_FLIP = -np.kron(_K, _K)


def _swap(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _concurrence(vectors: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Wootters C of each state of a stack with sqrt(rho) = V diag(roots) V^T.

    The square roots of the spin-flip spectrum are taken as |eig(B)| of
    the symmetric matrix B = sqrt(rho) S sqrt(rho): B^2 is the usual PSD
    similarity of rho S rho S, so eig(B) = +-sqrt(lambda) exactly.  The
    route for any density matrix: the reference of validate's
    concurrence_closed_form report row, and the tests' for _gibbs_concurrence.
    """
    sq = (vectors * roots[:, None, :]) @ _swap(vectors)
    b = sq @ SPIN_FLIP @ sq
    mu = eig_sym(0.5 * (b + _swap(b))).values
    s = np.sort(np.abs(mu), axis=1)[:, ::-1]
    return np.maximum(0.0, 2.0 * s[:, 0] - s.sum(axis=1))


# 1 (x) sigma_z, the diagonal of Z in concurrence's derivation
_SPIN_Z = np.array([1.0, -1.0, 1.0, -1.0])


def _gibbs_concurrence(vectors: np.ndarray, weights: np.ndarray, index) -> np.ndarray:
    """Wootters C of each Gibbs state of a stack, from eigh vectors and Gibbs weights.

    No eigensolve and no rho: see concurrence for the derivation.
    vectors holds the distinct eigenvector matrices (eigenvalues
    ascending), index the row of each state, and weights each state's
    Gibbs weights, as _gibbs returns them; V^T Z V is formed once per
    distinct V, and of A only the six entries that p and q read.
    """
    zh = 0.5 * (_swap(vectors) @ (vectors * _SPIN_Z[:, None]))
    r = np.sqrt(weights)
    # entry (i, j) of A = (W - W^T) / 2, as V^T Z V is symmetric
    a01, a23, a02, a13, a03, a12 = (
        zh[:, i, j][index] * (r[:, i] * r[:, 3 - j] - r[:, j] * r[:, 3 - i])
        for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)))
    p = np.stack([a01 + a23, a02 - a13, a03 + a12])
    q = np.stack([a01 - a23, a02 + a13, a03 - a12])
    p, q = np.sqrt((p * p).sum(axis=0)), np.sqrt((q * q).sum(axis=0))
    pi = weights[:, 0] * weights[:, 3]
    return np.maximum(0.0, p + q - np.sqrt((p - q) ** 2 + 4.0 * pi))


def concurrence(state) -> float:
    """Wootters concurrence of a real two-qubit density matrix or ThermalState.

    (W. K. Wootters, PRL 80, 2245 (1998).)  A ThermalState's concurrence
    comes in closed form from its own eigenvectors V and Gibbs weights w,
    with no eigensolve, through the model's chiral symmetry:

    - G = tau_y (x) sigma_x anticommutes with every term of H, so the
      ascending energies satisfy E3 = -E0 and E2 = -E1.  With Zp the
      partition function, e^{+beta E_i} / Zp = w_{3-i}, and
      pi := w_0 w_3 = 1 / Zp^2.
    - The spin flip is S = sigma_y (x) sigma_y = i G Z with
      Z = 1 (x) sigma_z, so rho~ = S rho S = Z e^{beta H} Z / Zp.
    - Hence rho rho~ is similar to W W^T, where
      W = diag(sqrt w) (V^T Z V) diag(sqrt w reversed), and W^2 = pi I.
      The square roots of the spin-flip spectrum, the singular values of
      W, are s1, s2, pi/s2, pi/s1 with s1 >= s2 >= sqrt(pi), and
      C = max(0, (s1 - pi/s1) - (s2 + pi/s2)).
    - The antisymmetric part A = (W - W^T)/2 has the singular values
      (s - pi/s)/2.  Its self-dual and anti-self-dual halves,
      p = (a01 + a23, a02 - a13, a03 + a12) and
      q = (a01 - a23, a02 + a13, a03 - a12), give s1 - pi/s1 = |p| + |q|
      and s2 - pi/s2 = ||p| - |q||, so
      C = max(0, |p| + |q| - sqrt((|p| - |q|)^2 + 4 pi)).

    That form never squares the roots, so it keeps its digits near C = 0,
    where trace identities of W W^T lose half of them.

    A bare matrix is validated, diagonalized, and its square roots taken
    as |eig(B)| of B = sqrt(rho) S sqrt(rho) (see _concurrence), which
    puts sqrt(round-off) noise on C when rho has eigenvalues at round-off
    level (near-separable cold states).
    """
    if isinstance(state, ThermalState):
        index = np.zeros(1, dtype=np.intp)
        return float(_gibbs_concurrence(state.vectors[None], state.weights[None], index)[0])
    dec = eig_sym(check_density_matrix(state, dim=4))
    roots = np.sqrt(np.clip(dec.values, 0.0, None))
    return float(_concurrence(dec.vectors[None], roots[None])[0])


def fidelity_pure(psi, rho) -> float:
    """Overlap <psi|rho|psi> of a normalized pure state with a density matrix.

    psi may be a GroundState.  A degenerate one raises DegenerateGroundState:
    its vector is an arbitrary member of the ground level, and members give
    different overlaps unless rho is diagonal in H's eigenbasis, as a Gibbs
    state of the same H is (sweeps report its ground weight as F).
    """
    if isinstance(psi, GroundState):
        if psi.degenerate:
            raise DegenerateGroundState(
                "ground state is degenerate, so fidelity to it is undefined"
            )
        psi = psi.vector
    v = _real(psi, "state vector", "vector").reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValidationError("state vector contains non-finite entries")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-10:
        raise ValidationError("state vector must be normalized to 1")
    r = check_density_matrix(rho, dim=v.size)
    return float(np.clip(v @ r @ v, 0.0, 1.0))


def _l1(r: np.ndarray) -> np.ndarray:
    """Sum of absolute off-diagonal entries of a matrix or of each of a stack."""
    return np.abs(r * (1.0 - np.eye(r.shape[-1]))).sum(axis=(-2, -1))


def l1_coherence(rho) -> float:
    """Sum of absolute off-diagonal entries in the current basis."""
    return float(_l1(check_density_matrix(rho)))


def _rotations(theta) -> np.ndarray:
    """Rotations [[cos, -sin], [sin, cos]], one per entry of theta."""
    c, s = np.cos(theta), np.sin(theta)
    u = np.empty(np.shape(theta) + (2, 2))
    u[..., 0, 0] = u[..., 1, 1] = c
    u[..., 1, 0], u[..., 0, 1] = s, -s
    return u


def _schur_angles(m: np.ndarray) -> np.ndarray:
    """The angle theta with U(theta) m U(theta)^T diagonal, for each 2x2 symmetric m.

    theta = atan2(-2 m01, m00 - m11) / 2 is the symmetric Schur rotation
    (Golub and Van Loan, Matrix Computations, sec. 8.5): with
    tan(2 theta) = -2 m01 / (m00 - m11), the rotated off-diagonal entry
    sin(2 theta) (m00 - m11) / 2 + cos(2 theta) m01 is zero for every m.
    """
    return 0.5 * np.arctan2(-2.0 * m[:, 0, 1], m[:, 0, 0] - m[:, 1, 1])


def _correlated_coherence(r: np.ndarray):
    """Correlated coherence of each state of a stack; see correlated_coherence.

    Ccc needs no sign test: rot is symmetric bit for bit, and local_a and
    local_b read the disjoint entry pairs (0, 2), (1, 3) and (0, 1), (2, 3)
    of the off-diagonal sum _l1 adds, so by 2 |x + y| <= 2 |x| + 2 |y|, Ccc
    is >= 2 (|rot03| + |rot12|) >= 0 less round-off < 20u l1(rot) <= 60u, u = 2^-53.
    """
    ua = _rotations(_schur_angles(_reduce_a(r)))
    ub = _rotations(_schur_angles(_reduce_b(r)))
    u = (ua[:, :, None, :, None] * ub[:, None, :, None, :]).reshape(-1, 4, 4)
    rot = u @ r @ _swap(u)
    rot = 0.5 * (rot + _swap(rot))
    # l1 coherence of the rotated reductions: twice their off-diagonal entry
    local_a = 2.0 * np.abs(rot[:, 0, 2] + rot[:, 1, 3])
    local_b = 2.0 * np.abs(rot[:, 0, 1] + rot[:, 2, 3])
    return _l1(rot) - local_a - local_b


def correlated_coherence(rho) -> float:
    """Coherence that cannot be attributed to either subsystem alone.

    Rotates each qubit into its incoherent (diagonal) basis by the
    symmetric Schur rotation of its reduced state and returns
    l1(rho_rot) - l1(rho_rot_A) - l1(rho_rot_B).  The two local terms
    are then round-off (see _schur_angles), so they are not tested.
    """
    return float(_correlated_coherence(check_density_matrix(rho, dim=4)[None])[0])
