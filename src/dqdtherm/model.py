"""Double-dot Hamiltonian, closed-form spectrum, and level-gap search.

Basis ordering everywhere is (|L0>, |L1>, |R0>, |R1>): first index the
occupied dot (left/right), second the spin projection (0 = up, 1 = down).
Charge operators (tau) act on the dot index, spin operators (sigma) on the
spin index.  All couplings share one arbitrary energy unit with k_B = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmatrix import ValidationError, eig_sym, fail_first

__all__ = [
    "LEVEL_LABELS",
    "ModelParams",
    "SpectrumResult",
    "GroundState",
    "AnalyticCoeffs",
    "Anticrossing",
    "AnalyticUnavailable",
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

_ANTICROSSING_PAIRS = {("E1", "E3"), ("E2", "E4"), ("E3", "E4")}

_PARAMS = ("epsilon", "t", "bz", "bx")


class AnalyticUnavailable(ValidationError):
    """Closed-form eigenvector coefficients are singular at these parameters."""


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
        for name in _PARAMS:
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


def _check_params(eps, t, bz, bx, where=None) -> None:
    """ModelParams' rules over arrays of points: all finite and t >= 0.

    The first failing point raises, named through where(i).
    """
    for name, v in zip(_PARAMS, (eps, t, bz, bx)):
        fail_first(
            ~np.isfinite(v),
            lambda i: ValidationError(f"{name} must be finite, got {float(v[i])!r}"),
            where,
        )
    fail_first(
        t < 0.0,
        lambda i: ValidationError(f"tunneling t must be >= 0, got {float(t[i])}"),
        where,
    )


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


def _spectral_invariants(eps, t, bz, bx):
    e2, t2, z2, x2 = eps**2, t**2, bz**2, bx**2
    return 4.0 * z2 * t2 + e2 * (z2 + x2), z2 + x2 + 4.0 * t2 + e2


def _energies(eps, t, bz, bx, where=None) -> np.ndarray:
    """Closed-form energies, shape (N, 4); each parameter is a float or N floats.

    Columns are (E1, E2, E3, E4) in label order; see analytic_energies.
    An overflowing square raises FloatingPointError; an inner radicand
    below the clamp tolerance raises ValidationError for the first such
    point, named through where(i).
    """
    eps, t, bz, bx = (np.asarray(x, dtype=float) for x in (eps, t, bz, bx))
    with np.errstate(over="raise"):
        omega, sigma = _spectral_invariants(eps, t, bz, bx)
        root = np.sqrt(omega)
        inner = np.atleast_1d(sigma - 2.0 * root)
        fail_first(
            inner < -1e-12 * np.maximum(1.0, sigma),
            lambda i: ValidationError(
                f"inner radicand {float(inner[i])!r} below clamp tolerance; "
                "closed forms inconsistent"
            ),
            where,
        )
        levels = np.empty(inner.shape + (4,))
        levels[:, 0] = 0.5 * np.sqrt(sigma + 2.0 * root)
        # clamp a hair-negative radicand; np.maximum keeps -0.0 as it is
        levels[:, 2] = 0.5 * np.sqrt(np.maximum(inner, 0.0))
    levels[:, 1], levels[:, 3] = -levels[:, 0], -levels[:, 2]
    return levels


def analytic_energies(p: ModelParams) -> np.ndarray:
    """Closed-form energies (E1, E2, E3, E4) in label order.

    E1 = +(1/2) sqrt(Sigma + 2 sqrt(Omega)), E2 = -E1,
    E3 = +(1/2) sqrt(Sigma - 2 sqrt(Omega)), E4 = -E3.
    The inner radicand can round a hair negative when E3 -> 0; values in
    [-1e-12 * scale, 0) are clamped to zero.
    """
    return _energies(p.epsilon, p.t, p.bz, p.bx)[0]


def _sign_fixed(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0.0 else v.copy()


def spectrum(p: ModelParams) -> SpectrumResult:
    """Closed-form energies matched to numerical eigenvectors.

    Each label is assigned the nearest remaining numerical eigenvalue;
    the match must agree within 1e-9 * max(1, |E1|) or the closed forms
    are considered inconsistent with the eigensolver.
    """
    levels = analytic_energies(p)
    dec = eig_sym(build_hamiltonian(p))
    remaining = list(range(4))
    cols = []
    tol = 1e-9 * max(1.0, float(levels[0]))
    for e in levels:
        j = min(remaining, key=lambda k: abs(float(dec.values[k]) - float(e)))
        remaining.remove(j)
        if abs(float(dec.values[j]) - float(e)) > tol:
            raise ValidationError(
                f"closed-form energy {float(e)!r} does not match any "
                f"numerical eigenvalue of H at {p}"
            )
        cols.append(_sign_fixed(dec.vectors[:, j]))
    omega, sigma = _spectral_invariants(p.epsilon, p.t, p.bz, p.bx)
    return SpectrumResult(
        energies=levels,
        vectors=np.column_stack(cols),
        omega=omega,
        sigma_cap=sigma,
    )


def ground_state(p: ModelParams) -> GroundState:
    """Minimal eigenpair of H; flags a gap below 1e-10 as degenerate."""
    dec = eig_sym(build_hamiltonian(p))
    gap = float(dec.values[1] - dec.values[0])
    return GroundState(
        energy=float(dec.values[0]),
        vector=_sign_fixed(dec.vectors[:, 0]),
        degenerate=gap < 1e-10,
    )


def analytic_coeffs(p: ModelParams) -> AnalyticCoeffs:
    """Evaluate the printed eigenvector coefficients and their residuals.

    Raises AnalyticUnavailable when any denominator (2t(bz+eps),
    bx*t*(bz+eps), (bz+eps)*bx) falls below 1e-10 in magnitude; callers
    should fall back to the numerical eigenvectors in that case.
    """
    den_a = 2.0 * p.t * (p.bz + p.epsilon)
    den_b = p.bx * p.t * (p.bz + p.epsilon)
    den_c = (p.bz + p.epsilon) * p.bx
    if min(abs(den_a), abs(den_b), abs(den_c)) <= 1e-10:
        raise AnalyticUnavailable(
            f"coefficient denominators singular at {p}; use numerical eigenvectors"
        )
    levels = analytic_energies(p)
    e1, e3 = float(levels[0]), float(levels[2])
    alpha_sq = p.bz**2 + p.bx**2 - p.epsilon**2 - 4.0 * p.t**2
    tail = alpha_sq / (4.0 * p.bx * p.t)

    def branch(sign: float, em: float, eo: float) -> tuple[float, float, float]:
        a = ((p.epsilon + sign * em) ** 2 - eo**2) / den_a
        b = (
            em
            * (-sign * p.bz * p.epsilon + (p.epsilon - p.bz) * em + sign * (em * em - eo * eo))
            / den_b
            + tail
        )
        c = ((p.bz - sign * em) ** 2 - eo**2) / den_c
        return a, b, c

    ap, bp, cp = branch(1.0, e1, e3)
    am, bm, cm = branch(-1.0, e1, e3)
    tap, tbp, tcp = branch(1.0, e3, e1)
    tam, tbm, tcm = branch(-1.0, e3, e1)
    m_plus = (ap * ap + bp * bp + cp * cp + 1.0) ** -0.5
    m_minus = (am * am + bm * bm + cm * cm + 1.0) ** -0.5
    n_plus = (tap * tap + tbp * tbp + tcp * tcp + 1.0) ** -0.5
    n_minus = (tam * tam + tbm * tbm + tcm * tcm + 1.0) ** -0.5

    cols = np.column_stack(
        [
            m_plus * np.array([ap, bp, 1.0, cp]),
            m_minus * np.array([am, bm, 1.0, cm]),
            n_plus * np.array([tap, tbp, 1.0, tcp]),
            n_minus * np.array([tam, tbm, 1.0, tcm]),
        ]
    )
    numeric = spectrum(p).vectors
    residuals = np.empty(4)
    for k in range(4):
        v = cols[:, k]
        w = numeric[:, k]
        residuals[k] = min(
            float(np.max(np.abs(v - w))), float(np.max(np.abs(v + w)))
        )
    return AnalyticCoeffs(
        a_plus=ap, b_plus=bp, c_plus=cp,
        a_minus=am, b_minus=bm, c_minus=cm,
        a_tilde_plus=tap, b_tilde_plus=tbp, c_tilde_plus=tcp,
        a_tilde_minus=tam, b_tilde_minus=tbm, c_tilde_minus=tcm,
        m_plus=m_plus, m_minus=m_minus, n_plus=n_plus, n_minus=n_minus,
        alpha_sq=alpha_sq, vectors=cols, residuals=residuals,
    )


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-6):
    """Golden-section minimum of a unimodal scalar function on [lo, hi].

    Returns (x, f(x)) with x located to within tol.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


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

    Coarse scan with step <= grid_step as one array evaluation of the
    closed-form energies, then golden-section refinement of the
    bracketing interval down to tol in epsilon.  A minimum on the
    interval boundary means the gap is monotonic there and raises
    NoAnticrossing.
    """
    key = tuple(sorted(pair))
    if key not in _ANTICROSSING_PAIRS:
        raise ValidationError(
            f"pair must be one of {sorted(_ANTICROSSING_PAIRS)}, got {pair!r}"
        )
    lo, hi = float(eps_range[0]), float(eps_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValidationError(f"eps_range must be a finite interval, got {eps_range!r}")
    ia = LEVEL_LABELS.index(key[0])
    ib = LEVEL_LABELS.index(key[1])
    ModelParams(lo, t, bz, bx)  # validates the fixed parameters once

    def gap(eps: float) -> float:
        e = analytic_energies(ModelParams(eps, t, bz, bx))
        return abs(float(e[ia]) - float(e[ib]))

    n = max(3, int(math.ceil((hi - lo) / grid_step)) + 1)
    xs = np.linspace(lo, hi, n)
    levels = _energies(xs, t, bz, bx)
    k = int(np.argmin(np.abs(levels[:, ia] - levels[:, ib])))
    if k == 0 or k == n - 1:
        raise NoAnticrossing(
            f"|{key[0]} - {key[1]}| is monotonic on [{lo}, {hi}]"
        )
    x, g = golden_section_min(gap, float(xs[k - 1]), float(xs[k + 1]), tol)
    return Anticrossing(eps=float(x), gap=float(g))
