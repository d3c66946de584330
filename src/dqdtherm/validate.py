"""Cross-validation of closed forms against the eigensolver route.

Draws random thermal states, then checks two kinds of things: hard
invariants that must hold for the package to be trusted at all (trace,
positivity, commutation with H, diagonalization of the reduced states by
the local rotation), and soft oracle-equivalence reports comparing the
printed closed-form expressions (energies, eigenvector coefficients,
R-spectrum concurrence, rotation angles) with the numerical path.  Soft
disagreements are flagged, never fatal: several of the printed formulas
are known to disagree with the eigensolver and the point of the report
is to quantify that.  Each check with flags logs one warning summarizing
them; the flagged points themselves are kept on the CheckResult.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .correlations import (
    concurrence,
    concurrence_closed_form,
    local_angles,
    rotation2,
)
from .model import (
    AnalyticUnavailable,
    ModelParams,
    analytic_coeffs,
    analytic_energies,
    build_hamiltonian,
)
from .qmatrix import eig_sym
from .thermal import reduce_a, reduce_b, thermal_state

__all__ = ["CheckResult", "run_validation", "hard_failed", "csv_rows"]

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


@dataclass
class CheckResult:
    """Outcome of one check over all sampled states."""

    name: str
    hard: bool
    tolerance: float
    samples: int = 0
    flagged: int = 0
    max_residual: float = 0.0
    worst_point: str = ""
    flagged_points: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.hard and self.flagged > 0

    def record(self, residual: float, point: str) -> None:
        self.samples += 1
        residual = float(residual)
        if residual > self.max_residual:
            self.max_residual = residual
            self.worst_point = point
        if residual > self.tolerance:
            self.flagged += 1
            self.flagged_points.append(point)


def _draw_point(rng):
    eps = rng.uniform(-50.0, 50.0)
    t = rng.uniform(0.0, 30.0)
    bz = rng.uniform(-40.0, 40.0)
    bx = rng.uniform(-100.0, 100.0)
    temp = 10.0 ** rng.uniform(math.log10(0.05), 2.0)
    return ModelParams(eps, t, bz, bx), temp


def run_validation(samples: int = 200, seed: int = 42) -> list[CheckResult]:
    """Run all checks on `samples` random thermal states; deterministic per seed."""
    rng = np.random.default_rng(seed)
    results = {name: CheckResult(name, hard, tol) for name, hard, tol in _CHECKS}
    for _ in range(int(samples)):
        p, temp = _draw_point(rng)
        point = (
            f"eps={p.epsilon:.6g};t={p.t:.6g};bz={p.bz:.6g};"
            f"bx={p.bx:.6g};T={temp:.6g}"
        )
        h = build_hamiltonian(p)
        state = thermal_state(p, temp)
        rho = state.rho

        results["trace"].record(abs(float(np.trace(rho)) - 1.0), point)
        results["psd"].record(max(0.0, -float(eig_sym(rho).values[0])), point)
        h_scale = max(1.0, float(np.max(np.abs(h))))
        results["commutation"].record(
            float(np.max(np.abs(h @ rho - rho @ h))) / h_scale, point
        )

        ra, rb = reduce_a(state), reduce_b(state)
        angles = local_angles(ra, rb, rho)
        ua, ub = rotation2(angles.theta_a), rotation2(angles.theta_b)
        ra_rot = ua @ ra @ ua.T
        rb_rot = ub @ rb @ ub.T
        results["rotation_diagonalization"].record(
            max(abs(float(ra_rot[0, 1])), abs(float(rb_rot[0, 1]))), point
        )
        # agreement with the eigenvector oracle: the rotated diagonal must
        # reproduce the reduced spectra
        spec_resid = 0.0
        for rot, red in ((ra_rot, ra), (rb_rot, rb)):
            got = np.sort(np.diag(rot))
            want = eig_sym(red).values
            spec_resid = max(spec_resid, float(np.max(np.abs(got - want))))
        results["angle_formula"].record(spec_resid, point)

        e_closed = np.sort(analytic_energies(p))
        e_numeric = eig_sym(h).values
        scale = max(1.0, float(np.max(np.abs(e_closed))))
        results["energies_closed_form"].record(
            float(np.max(np.abs(e_closed - e_numeric))) / scale, point
        )

        try:
            coeffs = analytic_coeffs(p)
        except AnalyticUnavailable:
            pass  # singular denominators: formula has no value here, skip
        else:
            results["coefficients_closed_form"].record(
                float(np.max(coeffs.residuals)), point
            )

        closed, _ = concurrence_closed_form(rho)
        results["concurrence_closed_form"].record(
            abs(closed - concurrence(rho)), point
        )
    for r in results.values():
        if r.flagged:
            log.warning(
                "%s: flagged %d/%d, max residual %.3e (tol %.0e) at %s",
                r.name, r.flagged, r.samples, r.max_residual, r.tolerance, r.worst_point,
            )
    return [results[name] for name, _, _ in _CHECKS]


def hard_failed(results) -> bool:
    return any(r.failed for r in results)


def csv_rows(results):
    """Summary rows for CSV output (one per check)."""
    header = (
        "check,samples,flagged,max_residual,tolerance,hard,status,worst_point"
    )
    lines = [header]
    for r in results:
        status = "fail" if r.failed else "ok"
        lines.append(
            f"{r.name},{r.samples},{r.flagged},{r.max_residual:.12g},"
            f"{r.tolerance:.12g},{int(r.hard)},{status},{r.worst_point}"
        )
    return lines
