"""Double-dot Hamiltonian, closed-form spectrum, and level-gap search.

Basis ordering everywhere is (|L0>, |L1>, |R0>, |R1>): first index the
occupied dot (left/right), second the spin projection (0 = up, 1 = down).
Charge operators (tau) act on the dot index, spin operators (sigma) on the
spin index.  All couplings share one arbitrary energy unit with k_B = 1.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .qmatrix import ValidationError, eig_sym, raise_first

__all__ = [
    "LEVEL_LABELS",
    "ModelParams",
    "SpectrumResult",
    "GroundState",
    "AnalyticCoeffs",
    "Anticrossing",
    "AnalyticUnavailable",
    "DegenerateGroundState",
    "NoAnticrossing",
    "build_hamiltonian",
    "analytic_energies",
    "spectrum",
    "ground_state",
    "analytic_coeffs",
    "find_anticrossing",
    "golden_section_min",
]

# Level labels follow the branch convention E1 = +(large root),
# E2 = -E1, E3 = +(small root), E4 = -E3, so ascending numeric order
# is always (E2, E4, E3, E1).
LEVEL_LABELS = ("E1", "E2", "E3", "E4")

_ANTICROSSING_PAIRS = (("E1", "E3"), ("E2", "E4"), ("E3", "E4"))
# the most coarse-scan points find_anticrossing evaluates, as one batch
_SCAN_POINTS = 65536

class AnalyticUnavailable(ValidationError):
    """Closed-form eigenvector coefficients are singular at these parameters."""


class DegenerateGroundState(ValidationError):
    """The ground level is degenerate, so no single ground state exists."""


class NoAnticrossing(ValueError):
    """The level gap has no interior minimum on the requested interval."""


@dataclass(frozen=True)
class ModelParams:
    """Physical knobs: detuning, tunneling, longitudinal and transverse fields."""

    epsilon: float
    t: float
    bz: float
    bx: float

    def __post_init__(self):
        for name in ("epsilon", "t", "bz", "bx"):
            v = getattr(self, name)
            try:
                v = float(v)
            except (TypeError, ValueError):
                raise ValidationError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        # sign convention: tunneling amplitude taken non-negative
        if self.t < 0:
            raise ValidationError(f"tunneling t must be >= 0, got {self.t}")


@dataclass(frozen=True)
class SpectrumResult:
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


@dataclass(frozen=True)
class GroundState:
    energy: float
    vector: np.ndarray
    degenerate: bool


@dataclass(frozen=True)
class AnalyticCoeffs:
    """Eigenvector coefficients from the printed closed-form expressions.

    The plain set (a, b, c with +/- branches) builds the outer doublet
    (E1, E2), the tilde set the inner doublet (E3, E4); each state is
    norm * (a, b, 1, c) in the fixed basis.  residuals records, per label
    order, the max-abs deviation of the reconstructed unit vector from
    the numerical eigenvector (after sign alignment).  These residuals
    are reported, never assumed zero: the printed formulas are treated
    as a cross-check, not as the production path.
    """

    a_plus: float
    b_plus: float
    c_plus: float
    a_minus: float
    b_minus: float
    c_minus: float
    a_tilde_plus: float
    b_tilde_plus: float
    c_tilde_plus: float
    a_tilde_minus: float
    b_tilde_minus: float
    c_tilde_minus: float
    m_plus: float
    m_minus: float
    n_plus: float
    n_minus: float
    alpha_sq: float
    vectors: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class Anticrossing:
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
    takes the nearest remaining eigenvalue (the lower one on a tie).
    Returns (matched, checks): matched (N, 4, 4) holds the vectors in
    label order, each column's sign fixed so that its largest component
    is positive, and checks the (bad, error) pair of a match farther than
    1e-9 * E1, for qmatrix.raise_first.
    """
    rows = np.arange(len(levels))
    free = np.ones(values.shape, dtype=bool)
    miss = np.empty(values.shape, dtype=bool)
    picked = np.empty(values.shape, dtype=int)
    tol = 1e-9 * levels[:, 0]
    for k in range(4):
        dist = np.where(free, np.abs(values - levels[:, k, None]), np.inf)
        j = picked[:, k] = np.argmin(dist, axis=1)
        free[rows, j] = False
        miss[:, k] = dist[rows, j] > tol
    cols = np.take_along_axis(vectors, picked[:, None, :], axis=2)
    matched = np.ascontiguousarray(_sign_fixed(cols.transpose(0, 2, 1)).transpose(0, 2, 1))
    return matched, [
        (miss.any(axis=1),
         lambda i: ValidationError(
             f"closed-form energy {float(levels[i, np.argmax(miss[i])])!r} does not "
             "match any numerical eigenvalue of H")),
    ]


def spectrum(p: ModelParams) -> SpectrumResult:
    """Closed-form energies matched to numerical eigenvectors.

    Each label is assigned the nearest remaining numerical eigenvalue;
    the match must agree within 1e-9 * E1 or the closed forms are
    considered inconsistent with the eigensolver.  omega and sigma_cap
    are inf or 0 where they leave the double range.
    """
    levels, checks = _energies(p.epsilon, p.t, p.bz, p.bx)
    raise_first(checks)
    dec = eig_sym(_hamiltonians(p.epsilon, p.t, p.bz, p.bx))
    vectors, checks = _match_levels(levels, dec.values, dec.vectors)
    raise_first(checks, lambda i: p)
    e, t, z, x = p.epsilon, p.t, p.bz, p.bx  # float products overflow to inf, no error
    u, v, w = 2.0 * z * t, e * z, e * x  # Omega = u^2 + v^2 + w^2, with no inf * 0
    return SpectrumResult(energies=levels[0], vectors=vectors[0], omega=u * u + v * v + w * w,
                          sigma_cap=z * z + x * x + 4.0 * t * t + e * e)


def ground_state(p: ModelParams) -> GroundState:
    """Minimal eigenpair of H; a gap of at most 1e-10 of the spectrum's span is degenerate."""
    dec = eig_sym(build_hamiltonian(p))
    return GroundState(
        energy=float(dec.values[0]),
        vector=_sign_fixed(dec.vectors[:, 0]),
        degenerate=bool(np.diff(dec.values)[0] <= 1e-10 * np.ptp(dec.values)),
    )


def _denominators(eps, t, bz, bx):
    """The coefficient denominators 2t(bz+eps), bx*t*(bz+eps) and (bz+eps)*bx."""
    return 2.0 * t * (bz + eps), bx * t * (bz + eps), (bz + eps) * bx


def _coeffs_singular(eps, t, bz, bx, e1) -> np.ndarray:
    """Where 2t(bz+eps) or (bz+eps)*bx is at most 1e-10 * E1^2 in magnitude.

    Tested scaled by _scaled.  The third denominator is their product over 2(bz+eps).
    """
    k, *x = _scaled(eps, t, bz, bx)
    den_a, _, den_c = _denominators(*x)
    return np.minimum(np.abs(den_a), np.abs(den_c)) <= 1e-10 * np.ldexp(e1, -k) ** 2


def _coeffs(eps, t, bz, bx, levels, numeric):
    """The printed eigenvector coefficients at N regular points.

    eps, t, bz, bx are N floats each, none singular (see
    _coeffs_singular); levels (N, 4) are their closed-form energies and
    numeric (N, 4, 4) the matched eigenvectors in label order, all
    evaluated scaled by _scaled.  Returns AnalyticCoeffs' fields in their
    order: the 17 scalar fields as N floats each, then the (N, 4, 4)
    closed-form unit vectors and the (N, 4) residuals.
    """
    k, eps, t, bz, bx = _scaled(eps, t, bz, bx)
    den_a, den_b, den_c = _denominators(eps, t, bz, bx)
    e1, e3 = np.ldexp(levels[:, 0], -k), np.ldexp(levels[:, 2], -k)
    alpha_sq = bz**2 + bx**2 - eps**2 - 4.0 * t**2
    tail = alpha_sq / (4.0 * bx * t)

    def branch(sign: float, em, eo):
        a = ((eps + sign * em) ** 2 - eo**2) / den_a
        b = (
            em
            * (-sign * bz * eps + (eps - bz) * em + sign * (em * em - eo * eo))
            / den_b
            + tail
        )
        c = ((bz - sign * em) ** 2 - eo**2) / den_c
        return a, b, c

    sets = (branch(1.0, e1, e3), branch(-1.0, e1, e3), branch(1.0, e3, e1), branch(-1.0, e3, e1))
    norms = [(a * a + b * b + c * c + 1.0) ** -0.5 for a, b, c in sets]
    vectors = np.stack(
        [m[:, None] * np.stack([a, b, np.ones_like(a), c], axis=1)
         for m, (a, b, c) in zip(norms, sets)],
        axis=2,
    )
    residuals = np.minimum(
        np.abs(vectors - numeric).max(axis=1), np.abs(vectors + numeric).max(axis=1)
    )
    with np.errstate(over="ignore"):
        alpha_sq = np.ldexp(alpha_sq, 2 * k)
    return (*(x for abc in sets for x in abc), *norms, alpha_sq, vectors, residuals)


def analytic_coeffs(p: ModelParams) -> AnalyticCoeffs:
    """Evaluate the printed eigenvector coefficients and their residuals.

    Raises AnalyticUnavailable when a denominator (2t(bz+eps),
    bx*t*(bz+eps), (bz+eps)*bx) is singular (see _coeffs_singular);
    callers should fall back to the numerical eigenvectors in that case.
    """
    x = tuple(np.array([v]) for v in (p.epsilon, p.t, p.bz, p.bx))
    s = spectrum(p)
    if _coeffs_singular(*x, s.energies[:1])[0]:
        raise AnalyticUnavailable(
            f"coefficient denominators singular at {p}; use numerical eigenvectors"
        )
    *scalars, vectors, residuals = _coeffs(*x, s.energies[None], s.vectors[None])
    return AnalyticCoeffs(*(float(v[0]) for v in scalars), vectors[0], residuals[0])


def _positive(name: str, value) -> float:
    """value as a float; it must be finite and > 0."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(v) and v > 0.0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return v


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# search steps whose probes one objective call covers
_LOOKAHEAD = 4

_float_bits = struct.Struct("<d").pack


def _lookahead(a: float, b: float, c: float, d: float, depth: int, out: list) -> list:
    """out, extended by the points golden_section_min may read within depth steps.

    These are the midpoint of the bracket (a, b) with probes c < d and,
    for each branch of each step, the probe the step makes and the
    points read from its bracket.  The arithmetic is the search's own, so
    the points are the same doubles.
    """
    out.append(0.5 * (a + b))
    if depth:
        c_left = d - _INVPHI * (d - a)
        out.append(c_left)
        _lookahead(a, d, c_left, c, depth - 1, out)
        d_right = c + _INVPHI * (b - c)
        out.append(d_right)
        _lookahead(c, b, d, d_right, depth - 1, out)
    return out


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-6):
    """Golden-section minimum of a unimodal function on [lo, hi].

    f is batched: it maps a 1-D float array of points to a sequence of
    their values, one per point.  The search reads each value from a
    table; on a miss, one f call covers every point the next _LOOKAHEAD
    steps could read, on both branches of each step (at most 63 points,
    fewer where they coincide).  So f also sees points the one-point
    search never visits, all in [lo, hi], and must be a pure function of
    each point, defined on all of [lo, hi], whose value does not depend
    on the other points of the batch.  The steps, comparisons and result
    are those of the one-point search: 5 f calls where it makes 24.

    Returns (x, f(x)) with x located to within tol, or as closely as
    rounding allows: the search stops once the bracket stops shrinking.
    f(x) is the element f returned for x.
    """
    tol = _positive("tol", tol)
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    table = {}  # float bits -> value

    def value(x: float):
        # a miss fills the table from the bracket the search holds now
        key = _float_bits(x)
        if key not in table:
            todo = {}
            for p in _lookahead(a, b, c, d, _LOOKAHEAD, [c, d]):
                k = _float_bits(p)
                if k not in table:
                    todo.setdefault(k, p)
            table.update(zip(todo, f(np.array(list(todo.values())))))
        return table[key]

    fc, fd = value(c), value(d)
    width = b - a
    while width > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = value(d)
        if not b - a < width:
            break
        width = b - a
    x = 0.5 * (a + b)
    return x, value(x)


def find_anticrossing(
    t: float,
    bz: float,
    bx: float,
    pair: tuple[str, str],
    eps_range: tuple[float, float],
    grid_step: float = 0.1,
    tol: float = 1e-6,
) -> Anticrossing:
    """Locate the detuning minimizing the gap between two labelled levels.

    Coarse scan with step <= grid_step through the closed-form energies,
    np.linspace(lo, hi, n) evaluated as one batch of at most _SCAN_POINTS
    points, then golden-section refinement of the bracketing interval
    down to tol in epsilon.  A finer grid_step raises ValidationError.  A
    minimum on the interval boundary means the gap is monotonic there
    and raises NoAnticrossing.
    """
    grid_step, tol = _positive("grid_step", grid_step), _positive("tol", tol)
    labels = tuple(pair) if isinstance(pair, (tuple, list)) else ()
    if not any(labels in (k, k[::-1]) for k in _ANTICROSSING_PAIRS):
        raise ValidationError(f"pair must be one of {list(_ANTICROSSING_PAIRS)}, got {pair!r}")
    try:
        lo, hi = (float(x) for x in eps_range)
    except (TypeError, ValueError, OverflowError):
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValidationError(f"eps_range must be a finite interval, got {eps_range!r}")
    steps = (hi - lo) / grid_step  # the scan takes ceil(steps) + 1 points
    if steps > _SCAN_POINTS - 1:  # inf included
        raise ValidationError(
            f"eps_range {eps_range!r} has too many points at grid_step {grid_step!r}: "
            f"the scan takes at most {_SCAN_POINTS}"
        )
    ia, ib = (LEVEL_LABELS.index(label) for label in labels)
    fixed = ModelParams(lo, t, bz, bx)  # validates the fixed parameters once
    t, bz, bx = fixed.t, fixed.bz, fixed.bx

    def gap(eps: np.ndarray) -> np.ndarray:
        levels, checks = _energies(eps, t, bz, bx)
        raise_first(checks)
        return np.abs(levels[:, ia] - levels[:, ib])

    eps = np.linspace(lo, hi, max(3, math.ceil(steps) + 1))
    k = int(np.argmin(gap(eps)))
    if k == 0 or k == len(eps) - 1:
        raise NoAnticrossing(
            f"|{labels[0]} - {labels[1]}| is monotonic on [{lo}, {hi}]"
        )
    x, g = golden_section_min(gap, float(eps[k - 1]), float(eps[k + 1]), tol)
    return Anticrossing(eps=float(x), gap=float(g))
