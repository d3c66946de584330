"""Cross-validation of closed forms against the eigensolver route.

Draws random thermal states, then checks two kinds of things: hard
invariants that must hold for the package to be trusted at all (trace,
positivity, commutation with H, diagonalization of the reduced states by
the Schur rotation that correlated coherence makes), and soft
oracle-equivalence reports comparing the printed closed-form expressions
(energies, eigenvector coefficients, R-spectrum concurrence, rotation
angles) with the numerical path.  Soft disagreements are flagged, never
fatal: several of the printed formulas are known to disagree with the
eigensolver and the point of the report is to quantify that.  Each check
with flags logs one warning summarizing them.  A CheckResult keeps only
counts and the worst point, and the samples are drawn and checked in
blocks of sweep's _BLOCK, so a run's memory is bounded by one block at
any sample count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .correlations import _closed_form, _concurrence, _local_angles, _rotations, _schur_angles
from .model import _coeffs, _coeffs_singular, _energies, _hamiltonians, _match_levels
from .qmatrix import check_symmetric, eig_sym, raise_first
from .sweep import _BLOCK, _integer
from .thermal import _gibbs, _reduce_a, _reduce_b, _rho

__all__ = ["CheckResult", "run_validation"]

log = logging.getLogger(__name__)

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


@dataclass
class CheckResult:
    """Outcome of one check over all sampled states: counts and the worst point."""

    name: str
    hard: bool
    tolerance: float
    samples: int = 0
    flagged: int = 0
    max_residual: float = 0.0
    worst_point: str = ""

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
    got = np.sort(np.diagonal(_rotated(np.concatenate(_local_angles(rho)), red),
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
    residuals = _coeffs(eps[ok], t[ok], bz[ok], bx[ok], levels[ok], numeric)[-1]
    results["coefficients_closed_form"].record(
        residuals.max(axis=1), lambda i: where(ok[i])
    )

    exact = _concurrence(dec.vectors, np.sqrt(np.clip(dec.values, 0.0, None)))
    results["concurrence_closed_form"].record(np.abs(_closed_form(rho)[0] - exact), where)


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
    for r in results.values():
        if r.flagged:
            log.warning(
                "%s: flagged %d/%d, max residual %.3e (tol %.0e) at %s",
                r.name, r.flagged, r.samples, r.max_residual, r.tolerance, r.worst_point,
            )
    return [results[name] for name, _, _ in _CHECKS]
