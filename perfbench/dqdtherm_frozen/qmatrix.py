"""Small dense symmetric-matrix toolbox.

Everything in the model lives in a real 4-dimensional Hilbert space
(charge qubit x spin qubit), so instead of pulling in a general-purpose
eigensolver we carry a cyclic Jacobi routine specialised to the tiny
symmetric matrices that actually occur.  numpy is used for storage and
elementwise work only; the eigensolve itself runs on plain Python lists,
which at this size is faster than the LAPACK dispatch overhead and keeps
the arithmetic bit-for-bit reproducible across BLAS builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "NotPositiveSemidefiniteError",
    "EigenDecomp",
    "check_symmetric",
    "check_density_matrix",
    "eig_sym",
    "psd_sqrt",
    "kron2",
]

# Relative off-diagonal threshold at which the Jacobi sweep stops.  An
# absolute 1e-14 would be unreachable for Hamiltonians with entries of
# order 100, so the threshold scales with the Frobenius norm.
_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100

# Eigenvalues of nominally PSD matrices may round slightly negative.
_PSD_CLAMP = 1e-12


class ValidationError(ValueError):
    """Input matrix fails a structural requirement (shape, symmetry, trace)."""


class NotPositiveSemidefiniteError(ValidationError):
    """Matrix has an eigenvalue below the negativity tolerance."""


@dataclass(frozen=True)
class EigenDecomp:
    """Eigenvalues (ascending) and matching orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def _as_real_square(m, name: str) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def check_symmetric(m, name: str = "matrix") -> np.ndarray:
    """Validate that m is real, square, finite and symmetric; return it as ndarray.

    Symmetry is judged relative to the largest entry so that large
    Hamiltonians and unit-trace density matrices get the same treatment.
    """
    a = _as_real_square(m, name)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValidationError(f"{name} is not symmetric")
    return a


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate a real density matrix: symmetric, unit trace, PSD.

    Returns the validated ndarray.  Raises ValidationError on shape or
    trace problems and NotPositiveSemidefiniteError if any eigenvalue
    falls below -1e-12.
    """
    a = check_symmetric(rho, "density matrix")
    if dim is not None and a.shape[0] != dim:
        raise ValidationError(
            f"density matrix must be {dim}x{dim}, got {a.shape[0]}x{a.shape[0]}"
        )
    tr = float(np.trace(a))
    if abs(tr - 1.0) > 1e-9:
        raise ValidationError(f"density matrix trace is {tr!r}, expected 1")
    w = eig_sym(a).values
    if float(w[0]) < -_PSD_CLAMP:
        raise NotPositiveSemidefiniteError(
            f"density matrix has eigenvalue {float(w[0])!r}"
        )
    return a


def _jacobi(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """Cyclic Jacobi diagonalisation of a small symmetric matrix (list form).

    Returns (diagonal, V) with V[i][k] the i-th component of the k-th
    eigenvector, i.e. A = V diag V^T on exit.
    """
    n = len(a)
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    if n == 1:
        return [a[0][0]], v

    fro = 0.0
    for i in range(n):
        for j in range(n):
            fro += a[i][j] * a[i][j]
    tol = _JACOBI_TOL * max(1.0, fro ** 0.5)

    for _ in range(_JACOBI_MAX_SWEEPS):
        off = 0.0
        for i in range(n - 1):
            row = a[i]
            for j in range(i + 1, n):
                off += 2.0 * row[j] * row[j]
        if off ** 0.5 <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                app = a[p][p]
                aqq = a[q][q]
                theta = 0.5 * (aqq - app) / apq
                # stable tangent of the rotation angle
                t = 1.0 / (abs(theta) + (1.0 + theta * theta) ** 0.5)
                if theta < 0.0:
                    t = -t
                c = 1.0 / (1.0 + t * t) ** 0.5
                s = t * c
                for k in range(n):
                    akp = a[k][p]
                    akq = a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk = a[p][k]
                    aqk = a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                a[p][q] = 0.0
                a[q][p] = 0.0
                for k in range(n):
                    vkp = v[k][p]
                    vkq = v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq
    return [a[i][i] for i in range(n)], v


def eig_sym(m) -> EigenDecomp:
    """Eigendecomposition of a small real symmetric matrix.

    Eigenvalues come back ascending with a stable tie order; vectors are
    the matching orthonormal columns, so m @ V = V @ diag(values).
    """
    a = check_symmetric(m, "matrix")
    diag, v = _jacobi([list(map(float, row)) for row in a])
    order = sorted(range(len(diag)), key=lambda k: (diag[k], k))
    values = np.array([diag[k] for k in order])
    vectors = np.array([[v[i][k] for k in order] for i in range(len(diag))])
    return EigenDecomp(values=values, vectors=vectors)


def psd_sqrt(m) -> np.ndarray:
    """Symmetric square root of a positive-semidefinite symmetric matrix.

    Eigenvalues in [-1e-12, 0) are treated as exact zeros; anything more
    negative raises NotPositiveSemidefiniteError.
    """
    dec = eig_sym(m)
    w = dec.values
    if float(w[0]) < -_PSD_CLAMP:
        raise NotPositiveSemidefiniteError(
            f"matrix has eigenvalue {float(w[0])!r}, not PSD"
        )
    root = np.sqrt(np.clip(w, 0.0, None))
    return (dec.vectors * root) @ dec.vectors.T


def kron2(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 blocks (first factor = charge sector)."""
    a = _as_real_square(a, "kron factor a")
    b = _as_real_square(b, "kron factor b")
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValidationError("kron2 expects two 2x2 matrices")
    return np.kron(a, b)
