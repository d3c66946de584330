"""Entanglement, fidelity, and coherence measures for the two-qubit state.

All states here are real symmetric density matrices, so complex
conjugation is a no-op and every measure reduces to real arithmetic.
Each public measure validates its density-matrix argument once and then
works through the unchecked kernels below, which only ever see matrices
that were validated or built from validated ones.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import (
    ValidationError,
    check_density_matrix,
    check_symmetric,
    eig_sym,
    psd_sqrt,
)
from .thermal import _reduce_a, _reduce_b

__all__ = [
    "SPIN_FLIP",
    "RSpectrum",
    "LocalBasisAngles",
    "concurrence",
    "concurrence_closed_form",
    "fidelity_pure",
    "fidelity_mixed",
    "l1_coherence",
    "rotation2",
    "local_angles",
    "correlated_coherence",
]

log = logging.getLogger(__name__)

# sigma_y (x) sigma_y is real even though sigma_y is not:
# sigma_y = i*K with K = [[0,-1],[1,0]], hence sigma_y(x)sigma_y = -K(x)K.
_K = np.array([[0.0, -1.0], [1.0, 0.0]])
SPIN_FLIP = -np.kron(_K, _K)


def concurrence(rho) -> float:
    """Wootters concurrence of a real two-qubit density matrix.

    The square roots of the spin-flip spectrum are taken as |eig(B)| of
    the symmetric matrix B = sqrt(rho) S sqrt(rho): B^2 is the usual
    PSD similarity of rho S rho S, so eig(B) = +-sqrt(lambda) exactly.
    Diagonalizing B instead of B^2 keeps the noise floor at machine
    epsilon, which is what lets the concurrence of a product state come
    out as a clean zero instead of sqrt(round-off).
    """
    r = check_density_matrix(rho, dim=4)
    sq = psd_sqrt(r)
    b = sq @ SPIN_FLIP @ sq
    mu = eig_sym(0.5 * (b + b.T)).values
    s = np.sort(np.abs(mu))[::-1]
    return float(max(0.0, 2.0 * s[0] - s.sum()))


@dataclass(frozen=True)
class RSpectrum:
    """Closed-form spectrum of rho S rho S with its building blocks.

    lambdas are stored descending and clamped at zero.  The radicand is
    xi_plus * sig_plus for both level pairs, exactly as the closed form
    is written; xi_minus and sig_minus are carried along for inspection
    since they never enter the printed expression.
    """

    lambdas: np.ndarray
    theta_cap: float
    g_cap: float
    xi_plus: float
    xi_minus: float
    sig_plus: float
    sig_minus: float


def concurrence_closed_form(rho) -> tuple[float, RSpectrum]:
    """Concurrence from the closed-form R-spectrum; validation path only.

    Callers should compare the returned value against concurrence() and
    log the residual rather than trust it: on generic thermal states the
    printed closed form disagrees with the eigensolver route (see the
    validation report), so it is kept strictly as a cross-check.
    """
    r = check_density_matrix(rho, dim=4)
    r11, r12, r13, r14 = r[0, 0], r[0, 1], r[0, 2], r[0, 3]
    r22, r24 = r[1, 1], r[1, 3]
    g = -2.0 * r14 * r12 + r11 * r24 - r13 * r22
    theta = r11 * r22 - r13 * r24 + r14 * r14 + r12 * r12
    xi_plus = 2.0 * (r12 + r14) * (r22 + r24)
    xi_minus = 2.0 * (r12 - r14) * (r22 - r24)
    sig_plus = 2.0 * (r13 - r11) * (r14 + r12)
    sig_minus = 2.0 * (r13 + r11) * (r14 - r12)
    root = math.sqrt(max(xi_plus * sig_plus, 0.0))
    lams = np.array(
        [theta + g + root, theta + g - root, theta - g + root, theta - g - root]
    )
    lams = np.sort(np.clip(lams, 0.0, None))[::-1]
    s = np.sqrt(lams)
    c = max(0.0, abs(float(s[0]) - float(s[2])) - float(s[1]) - float(s[3]))
    return float(c), RSpectrum(
        lambdas=lams,
        theta_cap=float(theta),
        g_cap=float(g),
        xi_plus=float(xi_plus),
        xi_minus=float(xi_minus),
        sig_plus=float(sig_plus),
        sig_minus=float(sig_minus),
    )


def fidelity_pure(psi, rho) -> float:
    """Overlap <psi|rho|psi> of a normalized pure state with a density matrix."""
    v = np.asarray(psi, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValidationError("state vector contains non-finite entries")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-10:
        raise ValidationError("state vector must be normalized to 1")
    r = check_density_matrix(rho, dim=v.size)
    val = float(v @ r @ v)
    return min(max(val, 0.0), 1.0)


def fidelity_mixed(rho1, rho2) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho2) rho1 sqrt(rho2))."""
    r1 = check_density_matrix(rho1, dim=4)
    r2 = check_density_matrix(rho2, dim=4)
    sq2 = psd_sqrt(r2)
    m = sq2 @ r1 @ sq2
    f = float(np.trace(psd_sqrt(0.5 * (m + m.T))))
    return min(max(f, 0.0), 1.0)


def _l1(r: np.ndarray) -> float:
    return float(np.sum(np.abs(r - np.diag(np.diag(r)))))


def l1_coherence(rho) -> float:
    """Sum of absolute off-diagonal entries in the current basis."""
    return _l1(check_density_matrix(rho))


def rotation2(theta: float) -> np.ndarray:
    """2x2 rotation [[cos, -sin], [sin, cos]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class LocalBasisAngles:
    """Rotation angles whose U(theta) diagonalize the reduced matrices.

    The azimuthal phases are identically zero for real states.  The
    fallback flags mark angles that had to be read off the eigenvectors
    because the arctan expression failed to diagonalize (not observed in
    practice; kept as a guard).
    """

    theta_a: float
    theta_b: float
    phi_a: float = 0.0
    phi_b: float = 0.0
    fallback_a: bool = False
    fallback_b: bool = False


def _diagonalizing_angle(chi: float, q: float, reduced: np.ndarray, tag: str):
    """Angle sending the reduced 2x2 state to its diagonal basis.

    theta = arctan[(chi + sqrt(chi^2 + 4 q^2)) / (2 q)]; the principal
    branch satisfies tan(2 theta) = -2q / chi and always lands on a
    diagonalizing rotation.  For chi < 0 the numerator cancels, so the
    same ratio is evaluated as 2q / (sqrt(chi^2 + 4 q^2) - chi).  |q|
    below 1e-12 means the matrix is already diagonal and theta = 0 is the
    canonical choice.
    """
    if abs(q) < 1e-12:
        return 0.0, False
    root = math.hypot(chi, 2.0 * q)
    ratio = (chi + root) / (2.0 * q) if chi >= 0.0 else 2.0 * q / (root - chi)
    theta = math.atan(ratio)
    u = rotation2(theta)
    if abs(float((u @ reduced @ u.T)[0, 1])) <= 1e-10:
        return theta, False
    vec = eig_sym(reduced).vectors[:, 0]
    theta = -math.atan2(float(vec[1]), float(vec[0]))
    log.warning("angle formula failed for %s subsystem, using eigenvector angle", tag)
    return theta, True


def local_angles(rho_a, rho_b, rho) -> LocalBasisAngles:
    """Diagonalizing rotation angles for both reduced density matrices.

    rho_a and rho_b must be the reductions of rho (checked to 1e-9);
    chi and q are read from the full-state elements.
    """
    r = check_density_matrix(rho, dim=4)
    ra = check_symmetric(rho_a, "rho_a")
    rb = check_symmetric(rho_b, "rho_b")
    if (
        ra.shape != (2, 2)
        or rb.shape != (2, 2)
        or float(np.max(np.abs(ra - _reduce_a(r)))) > 1e-9
        or float(np.max(np.abs(rb - _reduce_b(r)))) > 1e-9
    ):
        raise ValidationError("reduced matrices are not the reductions of rho")
    return _local_angles(r, ra, rb)


def _local_angles(r: np.ndarray, ra: np.ndarray, rb: np.ndarray) -> LocalBasisAngles:
    chi_a = r[0, 0] + r[1, 1] - r[2, 2] - r[3, 3]
    q_a = r[0, 2] + r[1, 3]
    chi_b = r[0, 0] - r[1, 1] + r[2, 2] - r[3, 3]
    q_b = r[0, 1] + r[2, 3]
    theta_a, fell_a = _diagonalizing_angle(float(chi_a), float(q_a), ra, "charge")
    theta_b, fell_b = _diagonalizing_angle(float(chi_b), float(q_b), rb, "spin")
    return LocalBasisAngles(
        theta_a=theta_a, theta_b=theta_b, fallback_a=fell_a, fallback_b=fell_b
    )


def correlated_coherence(rho) -> float:
    """Coherence that cannot be attributed to either subsystem alone.

    Rotates each qubit into its incoherent (diagonal) basis and returns
    l1(rho_rot) - l1(rho_rot_A) - l1(rho_rot_B).  The two local terms
    must vanish after the rotation; anything above 1e-10 means the
    diagonalization failed and is raised, not silently absorbed.
    """
    r = check_density_matrix(rho, dim=4)
    angles = _local_angles(r, _reduce_a(r), _reduce_b(r))
    u = np.kron(rotation2(angles.theta_a), rotation2(angles.theta_b))
    rot = u @ r @ u.T
    rot = 0.5 * (rot + rot.T)
    local_a = _l1(_reduce_a(rot))
    local_b = _l1(_reduce_b(rot))
    if local_a > 1e-10 or local_b > 1e-10:
        raise ValidationError(
            f"local coherence survived the rotation: {local_a:.3e}, {local_b:.3e}"
        )
    return float(_l1(rot) - local_a - local_b)
