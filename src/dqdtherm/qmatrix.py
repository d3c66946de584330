"""Small dense symmetric-matrix toolbox.

Everything in the model lives in a real 4-dimensional Hilbert space
(charge qubit x spin qubit).  Eigendecompositions go to LAPACK through
numpy.linalg.eigh; this module adds the structural checks (shape,
finiteness, symmetry, unit trace, positivity) that the public measures
apply once to their inputs; check_symmetric serves a matrix or a stack
and refuses complex input.  A check over a batch is a (bad, error) pair,
a boolean mask over the batch and the exception of element i, and
raise_first is the one place that raises such checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "ValidationError",
    "NotPositiveSemidefiniteError",
    "EigenDecomp",
    "check_density_matrix",
    "eig_sym",
]

# Eigenvalues of nominally PSD matrices may round slightly negative.
_PSD_CLAMP = 1e-12


class ValidationError(ValueError):
    """Input matrix fails a structural requirement (shape, symmetry, trace)."""


class NotPositiveSemidefiniteError(ValidationError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class EigenDecomp(NamedTuple):
    """Eigenvalues (ascending) and matching orthonormal column eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray


def raise_first(checks, where=None) -> None:
    """Raise the error of the first flagged element over a batch's checks.

    checks is a sequence of (bad, error) pairs: bad a boolean mask over
    the batch, error(i) the exception for element i.  The lowest flagged
    index wins, and of the checks flagging it, the earliest in checks.
    where(i), when given, names element i at the end of the message.
    Returns None when no check flags anything.
    """
    first = None
    for bad, error in checks:
        if bad.any():
            i = int(np.argmax(bad))
            if first is None or i < first[0]:
                first = i, error
    if first is None:
        return
    i, error = first
    exc = error(i)
    if where is not None:
        exc.args = (f"{exc.args[0]} at {where(i)}",)
    raise exc


def _real(x, name: str, kind: str) -> np.ndarray:
    """x as a float ndarray.  Complex input is refused, not cast, and so is text
    (str or bytes, in an object array too) or input numpy cannot read as an
    array of numbers ("a real <kind>")."""
    try:
        a = np.asarray(x)
        if np.iscomplexobj(a):
            raise ValidationError(f"{name} must be real")
        # numpy would parse numeric text as numbers, in a text array or an object one
        if a.dtype.kind in "US" or (a.dtype.kind == "O" and any(
                isinstance(v, (str, bytes)) for v in a.flat)):
            raise TypeError
        return np.asarray(a, dtype=float)
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a real {kind}, got {type(x).__name__}") from None


def check_symmetric(m, name: str = "matrix") -> np.ndarray:
    """Validate one real (n, n) matrix or an (N, n, n) stack; return it as ndarray.

    Each matrix must be finite and symmetric, judged relative to its
    largest entry so that large Hamiltonians and unit-trace density
    matrices get the same treatment.  Input is read by _real.
    """
    # C order: numpy picks BLAS or its own loops by memory layout, and the
    # kernels give the same bits for a matrix only in the same layout
    a = np.ascontiguousarray(_real(m, name, "matrix"))
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    largest = np.abs(a).max(axis=(-2, -1), initial=0.0)  # NaN and inf carry through
    scale = np.maximum(1.0, largest)
    with np.errstate(all="ignore"):  # inf - inf where a matrix is not finite
        skew = np.abs(a - np.swapaxes(a, -2, -1)).max(axis=(-2, -1), initial=0.0)
    raise_first([
        (~np.isfinite(largest), lambda i: ValidationError(f"{name} contains non-finite entries")),
        (skew > 1e-12 * scale, lambda i: ValidationError(f"{name} is not symmetric")),
    ])
    return a


def check_density_matrix(rho, dim: int | None = None) -> np.ndarray:
    """Validate a real density matrix: symmetric, unit trace, PSD.

    Returns the validated ndarray.  Raises ValidationError on shape,
    finiteness, symmetry or trace problems and
    NotPositiveSemidefiniteError if any eigenvalue falls below -1e-12.
    """
    a = check_symmetric(rho, "density matrix")
    if a.ndim != 2:
        raise ValidationError(f"density matrix must be a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ValidationError(
            f"density matrix must be {dim}x{dim}, got {a.shape[0]}x{a.shape[0]}"
        )
    tr = float(np.trace(a))
    if abs(tr - 1.0) > 1e-9:
        raise ValidationError(f"density matrix trace is {tr!r}, expected 1")
    w = float(np.linalg.eigvalsh(a)[0])
    if w < -_PSD_CLAMP:
        raise NotPositiveSemidefiniteError(f"density matrix has eigenvalue {w!r}")
    return a


def eig_sym(m) -> EigenDecomp:
    """Eigendecomposition of a real symmetric matrix by LAPACK (numpy.linalg.eigh).

    m is one matrix or an (N, n, n) stack, decomposed matrix by matrix in
    one call.  Eigenvalues come back ascending; vectors are the matching
    orthonormal columns, so m @ V = V @ diag(values).  Within a
    degenerate eigenspace and in sign the columns are whatever LAPACK
    returns; a matrix gives the same bits alone or inside any stack, and
    reruns on one machine give identical results.
    """
    values, vectors = np.linalg.eigh(check_symmetric(m))
    return EigenDecomp(values=values, vectors=vectors)
