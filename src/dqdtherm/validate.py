"""The paper's printed closed forms, checked against the exact route.

The printed forms are kept here as oracles that no sweep or public
measure runs: the R-spectrum concurrence, the arctan angles of the
reduced states and the eigenvector coefficients.  run_validation draws
random thermal states and checks hard invariants that must hold for the
package to be trusted at all (trace, positivity, commutation with H,
diagonalization of the reduced states by the Schur rotation that
correlated coherence makes), and reports how far the printed forms
(energies, coefficients, concurrence, angles) are from the numerical
path.  Those are flagged, never fatal: several printed formulas are
known to disagree with the eigensolver, and the report quantifies that.
Each check with flags logs one warning summarizing them, on the
dqdtherm.validate logger that run_validation takes, importing logging,
only when it reports.  A CheckResult keeps only counts and the worst
point, and the samples are drawn and checked in blocks of sweep's
_BLOCK, so a run's memory is bounded by one block at any sample count.
"""

from __future__ import annotations

import math

import numpy as np

from .correlations import _concurrence, _rotations, _schur_angles
from .model import _energies, _hamiltonians, _match_levels, _scaled
from .qmatrix import check_symmetric, eig_sym, raise_first
from .sweep import _BLOCK, _integer
from .thermal import _gibbs, _reduce_a, _reduce_b, _rho

__all__ = ["CheckResult", "run_validation"]


def _closed_form(r: np.ndarray) -> np.ndarray:
    """Closed-form R-spectrum concurrence of each state of a stack.

    The spectrum of rho S rho S is read as theta +/- g +/- sqrt(xi_plus *
    sig_plus), clamped at zero, exactly as the closed form is written.
    """
    r11, r12, r13, r14 = r[:, 0, 0], r[:, 0, 1], r[:, 0, 2], r[:, 0, 3]
    r22, r24 = r[:, 1, 1], r[:, 1, 3]
    g = -2.0 * r14 * r12 + r11 * r24 - r13 * r22
    theta = r11 * r22 - r13 * r24 + r14 * r14 + r12 * r12
    xi_plus = 2.0 * (r12 + r14) * (r22 + r24)
    sig_plus = 2.0 * (r13 - r11) * (r14 + r12)
    root = np.sqrt(np.maximum(xi_plus * sig_plus, 0.0))
    lams = np.empty(theta.shape + (4,))
    lams[:, 0], lams[:, 1] = theta + g + root, theta + g - root
    lams[:, 2], lams[:, 3] = theta - g + root, theta - g - root
    lams = np.sort(np.clip(lams, 0.0, None), axis=1)[:, ::-1]
    s = np.sqrt(lams)
    return np.maximum(0.0, np.abs(s[:, 0] - s[:, 2]) - s[:, 1] - s[:, 3])


def _local_angles(r: np.ndarray) -> np.ndarray:
    """The printed angle of each reduced state of a stack: the charge angles, then the spin ones.

    chi and q are read from r's full-state elements, and theta =
    arctan[(chi + sqrt(chi^2 + 4 q^2)) / (2 q)]; the principal branch
    satisfies tan(2 theta) = -2q / chi.  For chi < 0 the numerator
    cancels, so the same ratio is evaluated as 2q / (sqrt(chi^2 + 4 q^2) - chi).
    |q| below 1e-12 means the matrix is already diagonal and theta = 0 is
    the canonical choice.  Correlated coherence rotates by _schur_angles.
    """
    chi = np.concatenate([r[:, 0, 0] + r[:, 1, 1] - r[:, 2, 2] - r[:, 3, 3],
                          r[:, 0, 0] - r[:, 1, 1] + r[:, 2, 2] - r[:, 3, 3]])
    q = np.concatenate([r[:, 0, 2] + r[:, 1, 3], r[:, 0, 1] + r[:, 2, 3]])
    diagonal = np.abs(q) < 1e-12
    two_q = 2.0 * np.where(diagonal, 1.0, q)
    root = np.hypot(chi, two_q)
    up = chi >= 0.0
    theta = np.arctan(np.where(up, chi + root, two_q) / np.where(up, two_q, root - chi))
    theta[diagonal] = 0.0
    return theta


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


def _coeffs(eps, t, bz, bx, levels, numeric) -> np.ndarray:
    """How far the printed eigenvectors are from the numerical ones at N regular points.

    eps, t, bz, bx are N floats each, none singular (see
    _coeffs_singular); levels (N, 4) are their closed-form energies and
    numeric (N, 4, 4) the matched eigenvectors in label order, all
    evaluated scaled by _scaled.  The plain coefficients (a, b, c with
    +/- branches) build the outer doublet (E1, E2), the tilde set the
    inner doublet (E3, E4); each state is norm * (a, b, 1, c) in the
    fixed basis.  Returns the (N, 4) residuals in label order: the
    max-abs deviation of each unit vector from the numerical one, after
    sign alignment.
    """
    k, eps, t, bz, bx = _scaled(eps, t, bz, bx)
    den_a, den_b, den_c = _denominators(eps, t, bz, bx)
    e1, e3 = np.ldexp(levels[:, 0], -k), np.ldexp(levels[:, 2], -k)
    tail = (bz**2 + bx**2 - eps**2 - 4.0 * t**2) / (4.0 * bx * t)
    # the four branches (+, -, tilde +, tilde -) on axis 0: sign, E_m, E_o
    sign = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    em, eo = np.stack([e1, e1, e3, e3]), np.stack([e3, e3, e1, e1])
    a = ((eps + sign * em) ** 2 - eo**2) / den_a
    b = em * (-sign * bz * eps + (eps - bz) * em + sign * (em * em - eo * eo)) / den_b + tail
    c = ((bz - sign * em) ** 2 - eo**2) / den_c
    norms = (a * a + b * b + c * c + 1.0) ** -0.5
    vectors = (norms[..., None] * np.stack([a, b, np.ones_like(a), c], axis=-1)).transpose(1, 2, 0)
    return np.minimum(
        np.abs(vectors - numeric).max(axis=1), np.abs(vectors + numeric).max(axis=1)
    )


_CHECKS = (
    # name, hard, tolerance
    ("trace", True, 1e-12),
    ("psd", True, 1e-12),
    ("commutation", True, 1e-9),
    ("rotation_diagonalization", True, 1e-10),
    ("energies_closed_form", False, 1e-9),
    ("coefficients_closed_form", False, 1e-8),
    ("concurrence_closed_form", False, 1e-8),
    ("angle_formula", False, 1e-8),
)

# the sampled domain: lower and upper bound of eps, t, bz, bx and log10(T)
_LOW = np.array([-50.0, 0.0, -40.0, -100.0, math.log10(0.05)])
_HIGH = np.array([50.0, 30.0, 40.0, 100.0, 2.0])


class CheckResult:
    """Outcome of one check over all sampled states: counts and the worst point."""

    def __init__(self, name: str, hard: bool, tolerance: float, samples: int = 0,
                 flagged: int = 0, max_residual: float = 0.0, worst_point: str = ""):
        self.name = name
        self.hard = hard
        self.tolerance = tolerance
        self.samples = samples
        self.flagged = flagged
        self.max_residual = max_residual
        self.worst_point = worst_point

    def __eq__(self, other):
        if type(other) is not CheckResult:
            return NotImplemented
        # a NaN max_residual is a flagged worst point, and equals another NaN
        nan = math.isnan(self.max_residual) and math.isnan(other.max_residual)
        skip = {"max_residual": None} if nan else {}
        return (vars(self) | skip) == (vars(other) | skip)

    def __repr__(self) -> str:
        return f"CheckResult({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def failed(self) -> bool:
        return self.hard and self.flagged > 0

    def record(self, residuals, where) -> None:
        """Add a batch of residuals, in sample order; where(i) names sample i.

        A residual above the tolerance or NaN is flagged.  The worst point
        is the first sample at the largest residual, a NaN counting as
        larger than any number; it stays "" while every residual is 0.
        where is called only to name a new worst point.
        """
        r = np.asarray(residuals, dtype=float).reshape(-1)
        self.samples += r.size
        self.flagged += int(np.count_nonzero(np.isnan(r) | (r > self.tolerance)))
        if not r.size or math.isnan(self.max_residual):
            return
        i = int(np.argmax(r))  # the first NaN, if there is one
        if math.isnan(r[i]) or r[i] > self.max_residual:
            self.max_residual = float(r[i])
            self.worst_point = where(i)


def _draw_points(rng, n: int):
    """n points of the sampled domain: (eps, t, bz, bx, T), each n floats.

    Sample by sample, the same draws as uniform(low, high) per parameter.
    """
    eps, t, bz, bx, log_t = (_LOW + (_HIGH - _LOW) * rng.random((n, 5))).T.copy()
    return eps, t, bz, bx, np.array([10.0**x for x in log_t.tolist()])


def _max_abs(m: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each element of a stack."""
    return np.abs(m).reshape(len(m), -1).max(axis=1)


def _rotated(theta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """U(theta) m U(theta)^T for each angle and 2x2 matrix of a stack."""
    u = _rotations(theta)
    return u @ m @ np.swapaxes(u, 1, 2)


def _check_block(results: dict, rng, n: int) -> None:
    """Draw n samples and record every check over them as one batch."""
    eps, t, bz, bx, temp = _draw_points(rng, n)

    def where(i):
        return (
            f"eps={eps[i]:.6g};t={t[i]:.6g};bz={bz[i]:.6g};"
            f"bx={bx[i]:.6g};T={temp[i]:.6g}"
        )

    h = _hamiltonians(eps, t, bz, bx)
    h_dec = eig_sym(h)
    state, checks = _gibbs(h_dec, np.arange(n), temp)
    raise_first(checks, where)
    rho = _rho(state)
    dec = eig_sym(rho)

    results["trace"].record(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0), where)
    results["psd"].record(np.maximum(0.0, -dec.values[:, 0]), where)
    h_scale = np.maximum(1.0, _max_abs(h))
    results["commutation"].record(_max_abs(h @ rho - rho @ h) / h_scale, where)

    # the charge reductions, then the spin reductions, as one (2n, 2, 2) stack
    red = np.concatenate([_reduce_a(rho), _reduce_b(rho)])
    # the Schur rotation that correlated coherence makes must diagonalize each
    off = np.abs(_rotated(_schur_angles(red), red)[:, 0, 1])
    # the printed angle, against the eigenvalue oracle: the rotated
    # diagonal must reproduce the reduced spectrum
    got = np.sort(np.diagonal(_rotated(_local_angles(rho), red),
                              axis1=1, axis2=2), axis=1)
    spec_resid = _max_abs(got - np.linalg.eigvalsh(check_symmetric(red)))
    results["rotation_diagonalization"].record(np.maximum(off[:n], off[n:]), where)
    results["angle_formula"].record(np.maximum(spec_resid[:n], spec_resid[n:]), where)

    levels, checks = _energies(eps, t, bz, bx)
    raise_first(checks, where)
    e_closed = np.sort(levels, axis=1)
    scale = np.maximum(1.0, _max_abs(e_closed))
    results["energies_closed_form"].record(
        _max_abs(e_closed - h_dec.values) / scale, where
    )

    # singular denominators: the formula has no value there, skip the point
    (ok,) = np.nonzero(~_coeffs_singular(eps, t, bz, bx, levels[:, 0]))
    numeric, checks = _match_levels(levels[ok], h_dec.values[ok], h_dec.vectors[ok])
    raise_first(checks, lambda i: where(ok[i]))
    residuals = _coeffs(eps[ok], t[ok], bz[ok], bx[ok], levels[ok], numeric)
    results["coefficients_closed_form"].record(
        residuals.max(axis=1), lambda i: where(ok[i])
    )

    exact = _concurrence(dec.vectors, np.sqrt(np.clip(dec.values, 0.0, None)))
    results["concurrence_closed_form"].record(np.abs(_closed_form(rho) - exact), where)


def run_validation(samples: int = 200, seed: int = 42) -> list[CheckResult]:
    """Run all checks on `samples` random thermal states; deterministic per seed.

    Checked in batches of up to _BLOCK, each stage once per batch, in draw
    order.  ConfigError unless samples is an integer >= 1 and seed one >= 0.
    """
    samples = _integer(samples, "samples", 1)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    results = {name: CheckResult(name, hard, tol) for name, hard, tol in _CHECKS}
    for start in range(0, samples, _BLOCK):
        _check_block(results, rng, min(_BLOCK, samples - start))
    import logging  # the report is the package's only logging

    log = logging.getLogger(__name__)
    for r in results.values():
        if r.flagged:
            log.warning(
                "%s: flagged %d/%d, max residual %.3e (tol %.0e) at %s",
                r.name, r.flagged, r.samples, r.max_residual, r.tolerance, r.worst_point,
            )
    return [results[name] for name, _, _ in _CHECKS]
