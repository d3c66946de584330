"""Double-dot Hamiltonian, closed-form spectrum, and the closed-form anticrossing.

Basis ordering everywhere is (|L0>, |L1>, |R0>, |R1>): first index the
occupied dot (left/right), second the spin projection (0 = up, 1 = down).
Charge operators (tau) act on the dot index, spin operators (sigma) on the
spin index.  All couplings share one arbitrary energy unit with k_B = 1.
The paper's printed eigenvector coefficients are validate's oracles.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .qmatrix import ValidationError, eig_sym, raise_first

__all__ = [
    "ModelParams",
    "SpectrumResult",
    "GroundState",
    "Anticrossing",
    "DegenerateGroundState",
    "NoAnticrossing",
    "build_hamiltonian",
    "analytic_energies",
    "spectrum",
    "ground_state",
    "find_anticrossing",
]

# Level labels follow the branch convention E1 = +(large root),
# E2 = -E1, E3 = +(small root), E4 = -E3, so ascending numeric order
# is always (E2, E4, E3, E1).
LEVEL_LABELS = ("E1", "E2", "E3", "E4")
_RANK = [3, 0, 2, 1]  # each label's place in that order

_ANTICROSSING_PAIRS = (("E1", "E3"), ("E2", "E4"), ("E3", "E4"))


class DegenerateGroundState(ValidationError):
    """The ground level is degenerate, so no single ground state exists."""


class NoAnticrossing(ValueError):
    """The level gap has no interior minimum on the requested interval."""


class ModelParams(NamedTuple("ModelParams", [("epsilon", float), ("t", float),
                                              ("bz", float), ("bx", float)])):
    """Physical knobs: detuning, tunneling, longitudinal and transverse fields."""

    __slots__ = ()

    def __new__(cls, epsilon, t, bz, bx):
        values = []
        for name, v in zip(cls._fields, (epsilon, t, bz, bx)):
            try:
                v = float(v)
            except (TypeError, ValueError, OverflowError):
                raise ValidationError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
            values.append(v)
        epsilon, t, bz, bx = values
        # sign convention: tunneling amplitude taken non-negative
        if t < 0:
            raise ValidationError(f"tunneling t must be >= 0, got {t}")
        return super().__new__(cls, epsilon, t, bz, bx)

    @classmethod
    def _make(cls, values):  # so _replace checks its values too
        return cls(*values)


class SpectrumResult(NamedTuple):
    """Closed-form energies with numerically matched eigenvectors.

    energies holds (E1, E2, E3, E4) in label order; vectors the matching
    orthonormal columns from the eigensolver, signs fixed so the largest
    component of each column is positive.  omega and sigma_cap are the
    two spectral invariants the closed forms are built from.
    """

    energies: np.ndarray
    vectors: np.ndarray
    omega: float
    sigma_cap: float


class GroundState(NamedTuple):
    energy: float
    vector: np.ndarray
    degenerate: bool


class Anticrossing(NamedTuple):
    eps: float
    gap: float


def _hamiltonians(eps, t, bz, bx) -> np.ndarray:
    """Stack of H, shape (N, 4, 4); each parameter is a float or N floats."""
    e, bz, bx = 0.5 * eps, 0.5 * bz, 0.5 * bx
    h = np.zeros((4, 4, max(np.size(x) for x in (e, t, bz, bx))))
    h[0, 0], h[1, 1], h[2, 2], h[3, 3] = e + bz, e - bz, -e + bz, -e - bz
    h[0, 1] = h[1, 0] = bx
    h[2, 3] = h[3, 2] = -bx
    h[0, 2] = h[2, 0] = h[1, 3] = h[3, 1] = t
    return np.ascontiguousarray(h.transpose(2, 0, 1))


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """H = (eps/2) tau_z + t tau_x + (bz/2) sigma_z + (bx/2) tau_z sigma_x."""
    return _hamiltonians(p.epsilon, p.t, p.bz, p.bx)[0]


def _scaled(eps, t, bz, bx):
    """(k, eps / 2^k, t / 2^k, bz / 2^k, bx / 2^k), k per point the frexp exponent of max |x|.

    Exact, bar a parameter falling below the smallest normal, which rounds
    alike at every scale; the largest scaled magnitude is in [0.5, 1).
    """
    x = [np.asarray(v, dtype=float) for v in (eps, t, bz, bx)]
    k = np.frexp(np.maximum(np.maximum(abs(x[0]), abs(x[1])), np.maximum(abs(x[2]), abs(x[3]))))[1]
    return (np.atleast_1d(k), *(np.ldexp(v, -k) for v in x))


def _energies(eps, t, bz, bx):
    """Closed-form energies of N points; each parameter is a float or N floats.

    On the parameters scaled by _scaled: sqrt(Omega) = hypot(2 bz t, eps
    hypot(bz, bx)), E1 = (1/2) sqrt(Sigma + 2 sqrt(Omega)) and, as E1 E3 =
    (1/4) hypot(alpha, 4 bx t) with alpha = bz^2 + bx^2 - 4t^2 - eps^2,
    E3 = min(E1, hypot(alpha, 4 bx t) / (4 E1)).  Returns (levels, checks):
    levels (N, 4) in label order, and the (bad, error) pair of a level
    beyond the largest double, for qmatrix.raise_first.
    """
    k, eps, t, bz, bx = _scaled(eps, t, bz, bx)
    with np.errstate(all="ignore"):
        root = np.hypot(2.0 * bz * t, eps * np.hypot(bz, bx))
        zx, t4, e2 = bz * bz + bx * bx, 4.0 * t * t, eps * eps
        e1 = 0.5 * np.sqrt(zx + t4 + e2 + 2.0 * root)
        alpha = zx - t4 - e2
        # fmin: at H = 0 the quotient is 0 / 0 = NaN, and E3 = E1 = 0
        e3 = np.fmin(e1, np.hypot(alpha, 4.0 * bx * t) / (4.0 * e1))
        e1, e3 = np.ldexp(e1, k), np.ldexp(e3, k)
    return np.stack([e1, -e1, e3, -e3], axis=1), [
        (~np.isfinite(e1), lambda i: OverflowError("the closed-form energies overflow")),
    ]


def analytic_energies(p: ModelParams) -> np.ndarray:
    """Closed-form energies (E1, E2, E3, E4) in label order.

    E1 = +(1/2) sqrt(Sigma + 2 sqrt(Omega)), E2 = -E1,
    E3 = +(1/2) sqrt(Sigma - 2 sqrt(Omega)), E4 = -E3, evaluated without
    cancellation (see _energies); the levels of p * 2^j are those of p times
    2^j bit for bit, both normal.  OverflowError where E1 exceeds every double.
    """
    levels, checks = _energies(p.epsilon, p.t, p.bz, p.bx)
    raise_first(checks)
    return levels[0]


def _sign_fixed(v: np.ndarray) -> np.ndarray:
    """Each vector along the last axis of v, negated if its largest component is negative."""
    i = np.argmax(np.abs(v), axis=-1)[..., None]
    return np.where(np.take_along_axis(v, i, axis=-1) < 0.0, -v, v)


def _match_levels(levels, values, vectors):
    """Eigenvectors in label order for N points, and the check of the match.

    levels (N, 4) are the closed-form energies in label order, values
    (N, 4) and vectors (N, 4, 4) the eigensolver's, ascending.  Each label
    takes the eigenvalue of its rank (_RANK), as the closed forms fix the
    levels' order.  Returns (matched, checks): matched (N, 4, 4) holds
    the vectors in label order, each column's sign fixed so that its
    largest component is positive, and checks the (bad, error) pair of a
    level farther than 1e-9 * E1 from its eigenvalue, for qmatrix.raise_first.
    That check is spectrum's only test of LAPACK's eigenvalues at the
    caller's own point (validate tests its own draws), as _gibbs's
    V^T V = I test is of its vectors.
    """
    miss = np.abs(values[:, _RANK] - levels) > 1e-9 * levels[:, :1]
    cols = vectors[:, :, _RANK]
    matched = np.ascontiguousarray(_sign_fixed(cols.transpose(0, 2, 1)).transpose(0, 2, 1))
    return matched, [
        (miss.any(axis=1),
         lambda i: ValidationError(
             f"closed-form energy {float(levels[i, np.argmax(miss[i])])!r} does not "
             "match the numerical eigenvalue of its rank")),
    ]


def spectrum(p: ModelParams) -> SpectrumResult:
    """Closed-form energies matched to numerical eigenvectors.

    The eigenvectors are those of H / 2^k, k as in _scaled, so they hold
    at every scale.  Each label takes the numerical eigenvalue of its rank;
    the two must agree within 1e-9 * E1 or the closed forms are considered
    inconsistent with the eigensolver.  omega and sigma_cap are inf or 0
    where they leave the double range.
    """
    levels = analytic_energies(p)
    unit = _scaled(p.epsilon, p.t, p.bz, p.bx)[1:]  # H / 2^k: its largest entry near 1/2
    dec = eig_sym(_hamiltonians(*unit))
    vectors, checks = _match_levels(_energies(*unit)[0], dec.values, dec.vectors)
    raise_first(checks, lambda i: p)
    e, t, z, x = p.epsilon, p.t, p.bz, p.bx  # float products overflow to inf, no error
    u, v, w = 2.0 * z * t, e * z, e * x  # Omega = u^2 + v^2 + w^2, with no inf * 0
    return SpectrumResult(energies=levels, vectors=vectors[0], omega=u * u + v * v + w * w,
                          sigma_cap=z * z + x * x + 4.0 * t * t + e * e)


def ground_state(p: ModelParams) -> GroundState:
    """spectrum(p)'s level E2 and its vector; degenerate if E4 - E2 <= 1e-10 (E1 - E2)."""
    s = spectrum(p)
    e1, e2, e3, _ = s.energies  # E4 - E2 = E1 - E3, and E1 - E2 = 2 E1 may overflow
    return GroundState(energy=float(e2), vector=s.vectors[:, 1],
                       degenerate=bool(e1 - e3 <= 2e-10 * e1))


def find_anticrossing(
    t: float,
    bz: float,
    bx: float,
    pair: tuple[str, str],
    eps_range: tuple[float, float],
) -> Anticrossing:
    """The detuning minimizing the gap between two labelled levels, in closed form.

    With u = eps^2, b = bz^2 + bx^2 and a = (2 bz t)^2, 4 E3^2 = Sigma -
    2 sqrt(Omega) has its minimum in u where sqrt(Omega) = b: eps*^2 = (h -
    2|bz|t/h)(h + 2|bz|t/h), h = hypot(bz, bx), evaluated scaled by _scaled.
    Where that is <= 0 (or h = 0) the inner minimum is at eps = 0, as it is
    for the outer pairs, whose gap does not decrease in u.  Of +eps* and
    -eps*, the first strictly inside eps_range is returned; the gap is that
    of the closed-form levels there.  A minimum not strictly inside the
    interval raises NoAnticrossing.
    """
    labels = tuple(pair) if isinstance(pair, (tuple, list)) else ()
    if not any(labels in (k, k[::-1]) for k in _ANTICROSSING_PAIRS):
        raise ValidationError(f"pair must be one of {list(_ANTICROSSING_PAIRS)}, got {pair!r}")
    try:
        lo, hi = (float(x) for x in eps_range)
    except (TypeError, ValueError, OverflowError):
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValidationError(f"eps_range must be a finite interval, got {eps_range!r}")
    ia, ib = (LEVEL_LABELS.index(label) for label in labels)
    fixed = ModelParams(lo, t, bz, bx)  # validates the fixed parameters once
    k, _, ts, zs, xs = np.hstack(_scaled(0.0, fixed.t, fixed.bz, fixed.bx)).tolist()
    h = math.hypot(zs, xs)
    eps = 0.0
    if set(labels) == {"E3", "E4"} and h > 0.0:
        s = 2.0 * ts * (abs(zs) / h)
        with np.errstate(over="ignore"):
            eps = float(np.ldexp(math.sqrt(max(0.0, (h - s) * (h + s))), int(k)))
    eps = next((x for x in (eps, -eps) if lo < x < hi), None)
    if eps is None:
        raise NoAnticrossing(
            f"|{labels[0]} - {labels[1]}| has no minimum inside ({lo}, {hi})"
        )
    levels = analytic_energies(ModelParams(eps, fixed.t, fixed.bz, fixed.bx))
    return Anticrossing(eps=eps, gap=float(abs(levels[ia] - levels[ib])))
