"""Small dense symmetric-matrix toolbox.

Everything in the model lives in a real 4-dimensional Hilbert space
(charge qubit x spin qubit).  Eigendecompositions go to LAPACK through
numpy.linalg.eigh; this module adds the structural checks (shape,
finiteness, symmetry, unit trace, positivity) that the public measures
apply once to their inputs, and the PSD square root built on them.
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
    w = np.linalg.eigvalsh(a)
    if float(w[0]) < -_PSD_CLAMP:
        raise NotPositiveSemidefiniteError(
            f"density matrix has eigenvalue {float(w[0])!r}"
        )
    return a


def eig_sym(m) -> EigenDecomp:
    """Eigendecomposition of a real symmetric matrix by LAPACK (numpy.linalg.eigh).

    Eigenvalues come back ascending; vectors are the matching orthonormal
    columns, so m @ V = V @ diag(values).  Within a degenerate eigenspace
    and in sign the columns are whatever LAPACK returns; reruns on one
    machine give identical results.
    """
    values, vectors = np.linalg.eigh(check_symmetric(m, "matrix"))
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
