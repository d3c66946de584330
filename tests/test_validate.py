import math

import numpy as np
import pytest

from dqdtherm import correlations, model, qmatrix, thermal, validate
from dqdtherm.correlations import _rotations, _schur_angles, concurrence
from dqdtherm.model import ModelParams, analytic_energies, build_hamiltonian
from dqdtherm.qmatrix import eig_sym
from dqdtherm.sweep import ConfigError
from dqdtherm.thermal import reduce_a, reduce_b, thermal_state
from dqdtherm.validate import (
    AnalyticUnavailable,
    CheckResult,
    analytic_coeffs,
    concurrence_closed_form,
    local_angles,
    run_validation,
)


def _record(check, residual, point):
    """One sample added to a CheckResult the way the report did it point by point."""
    check.samples += 1
    residual = float(residual)
    if residual > check.max_residual:
        check.max_residual = residual
        check.worst_point = point
    if residual > check.tolerance:
        check.flagged += 1


def per_sample_validation(samples, seed):
    """The validation report sample by sample through the public API: the oracle."""
    rng = np.random.default_rng(seed)
    results = {
        name: CheckResult(name, hard, tol)
        for name, hard, tol in validate._CHECKS
    }
    for _ in range(samples):
        p = ModelParams(
            rng.uniform(-50.0, 50.0),
            rng.uniform(0.0, 30.0),
            rng.uniform(-40.0, 40.0),
            rng.uniform(-100.0, 100.0),
        )
        temp = 10.0 ** rng.uniform(math.log10(0.05), 2.0)
        point = (
            f"eps={p.epsilon:.6g};t={p.t:.6g};bz={p.bz:.6g};"
            f"bx={p.bx:.6g};T={temp:.6g}"
        )
        h = build_hamiltonian(p)
        state = thermal_state(p, temp)
        rho = state.rho

        _record(results["trace"], abs(float(np.trace(rho)) - 1.0), point)
        _record(results["psd"], max(0.0, -float(eig_sym(rho).values[0])), point)
        h_scale = max(1.0, float(np.max(np.abs(h))))
        _record(
            results["commutation"], float(np.max(np.abs(h @ rho - rho @ h))) / h_scale, point
        )

        ra, rb = reduce_a(state), reduce_b(state)
        ua, ub = (_rotations(_schur_angles(red[None])[0]) for red in (ra, rb))
        _record(
            results["rotation_diagonalization"],
            max(abs(float((ua @ ra @ ua.T)[0, 1])), abs(float((ub @ rb @ ub.T)[0, 1]))),
            point,
        )
        angles = local_angles(rho)
        ua, ub = _rotations(angles.theta_a), _rotations(angles.theta_b)
        ra_rot = ua @ ra @ ua.T
        rb_rot = ub @ rb @ ub.T
        spec_resid = 0.0
        for rot, red in ((ra_rot, ra), (rb_rot, rb)):
            got = np.sort(np.diag(rot))
            want = eig_sym(red).values
            spec_resid = max(spec_resid, float(np.max(np.abs(got - want))))
        _record(results["angle_formula"], spec_resid, point)

        e_closed = np.sort(analytic_energies(p))
        e_numeric = eig_sym(h).values
        scale = max(1.0, float(np.max(np.abs(e_closed))))
        _record(
            results["energies_closed_form"],
            float(np.max(np.abs(e_closed - e_numeric))) / scale,
            point,
        )
        try:
            coeffs = analytic_coeffs(p)
        except AnalyticUnavailable:
            pass
        else:
            _record(results["coefficients_closed_form"], float(np.max(coeffs.residuals)), point)

        closed, _ = concurrence_closed_form(rho)
        _record(results["concurrence_closed_form"], abs(closed - concurrence(rho)), point)
    return [results[name] for name, _, _ in validate._CHECKS]


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("samples", [1, 2, 200])
def test_batched_report_equals_the_per_sample_oracle(seed, samples):
    assert run_validation(samples, seed) == per_sample_validation(samples, seed)


def test_report_spanning_blocks_equals_the_per_sample_oracle(monkeypatch):
    monkeypatch.setattr(validate, "_BLOCK", 150)
    assert run_validation(200, 7) == per_sample_validation(200, 7)


@pytest.mark.parametrize(
    "kwargs",
    [dict(samples=0), dict(samples=2.5), dict(samples="3"), dict(samples=None),
     dict(seed=-1), dict(seed=1.5), dict(seed=None)],
)
def test_run_validation_refuses_bad_arguments(kwargs):
    with pytest.raises(ConfigError):
        run_validation(**kwargs)


def test_coefficient_check_skips_singular_points(monkeypatch):
    # t = 0 makes every coefficient denominator vanish: no sample is counted
    low = validate._LOW.copy()
    high = validate._HIGH.copy()
    low[1] = high[1] = 0.0
    monkeypatch.setattr(validate, "_LOW", low)
    monkeypatch.setattr(validate, "_HIGH", high)
    by_name = {r.name: r for r in run_validation(5, 3)}
    assert by_name["coefficients_closed_form"].samples == 0
    assert by_name["coefficients_closed_form"].worst_point == ""
    assert by_name["trace"].samples == 5


def test_eigensolves_do_not_grow_with_samples(monkeypatch):
    calls = []

    def counted(m):
        calls.append(np.shape(m))
        return eig_sym(m)

    for module in (qmatrix, model, thermal, correlations, validate):
        monkeypatch.setattr(module, "eig_sym", counted)
    counts = []
    for samples in (10, 200):
        calls.clear()
        run_validation(samples, 42)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 6


def test_record_keeps_order_and_the_first_worst_point():
    check = CheckResult("x", False, 1e-8)
    check.record(np.zeros(3), str)
    assert (check.samples, check.flagged, check.max_residual, check.worst_point) == (3, 0, 0.0, "")
    check.record(np.array([1e-9, 2.0, 0.5, 2.0]), lambda i: f"p{i}")
    assert check.samples == 7
    assert check.flagged == 3
    assert (check.max_residual, check.worst_point) == (2.0, "p1")
    check.record(np.array([2.0]), lambda i: "later")  # a tie keeps the earlier point
    assert check.worst_point == "p1"


def test_record_names_only_a_new_worst_point():
    named = []

    def where(i):
        named.append(i)
        return f"p{i}"

    check = CheckResult("x", False, 1e-8)
    check.record(np.zeros(2), where)  # no residual above 0: no worst point
    check.record(np.array([2.0, 0.0, 3.0, 1e-9, 0.5]), where)
    check.record(np.array([0.0, 3.0, 1.0]), where)  # a tie is not a new worst
    check.record(np.array([0.0, 5.0]), where)
    assert named == [2, 1]
    assert (check.flagged, check.max_residual, check.worst_point) == (6, 5.0, "p1")


def test_record_flags_nan_as_the_worst_residual():
    check = CheckResult("x", True, 1e-8)
    check.record(np.array([0.5, math.nan, 3.0, math.nan]), lambda i: f"p{i}")
    assert check.flagged == 4
    assert math.isnan(check.max_residual) and check.worst_point == "p1"
    check.record(np.array([1e9]), lambda i: "later")
    assert check.flagged == 5
    assert math.isnan(check.max_residual) and check.worst_point == "p1"
    assert check.failed
