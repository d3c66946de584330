import math

import numpy as np
import pytest

from dqdtherm import correlations, model, qmatrix, thermal, validate
from dqdtherm.correlations import _rotations, _schur_angles, concurrence
from dqdtherm.model import ModelParams, analytic_energies, build_hamiltonian, spectrum
from dqdtherm.qmatrix import eig_sym
from dqdtherm.sweep import ConfigError
from dqdtherm.thermal import reduce_a, reduce_b, thermal_state
from dqdtherm.validate import CheckResult, run_validation


def _record(check, residual, point):
    """One sample added to a CheckResult the way the report did it point by point."""
    check.samples += 1
    residual = float(residual)
    worse = math.isnan(residual) or residual > check.max_residual  # NaN is the worst
    if worse and not math.isnan(check.max_residual):
        check.max_residual = residual
        check.worst_point = point
    if math.isnan(residual) or residual > check.tolerance:
        check.flagged += 1


def per_sample_validation(samples, seed):
    """The validation report sample by sample: the oracle.

    Each state comes from the public API, and each printed form from
    validate's kernel on a stack of one.
    """
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
        theta_a, theta_b = validate._local_angles(rho[None])
        ua, ub = _rotations(theta_a), _rotations(theta_b)
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
        x = tuple(np.array([v]) for v in p)
        s = spectrum(p)
        if not validate._coeffs_singular(*x, s.energies[:1])[0]:
            residuals = validate._coeffs(*x, s.energies[None], s.vectors[None])
            _record(results["coefficients_closed_form"], float(np.max(residuals)), point)

        closed = validate._closed_form(rho[None])[0]
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


def test_results_with_nan_residuals_compare_equal():
    # NaN is a flagged worst point, so a report holding one equals its oracle
    a, b = CheckResult("x", False, 1.0), CheckResult("x", False, 1.0)
    for check in (a, b):
        check.record([math.nan], str)
    assert a == b
    b.record([math.nan], str)
    assert a != b  # the counts still differ
    assert CheckResult("x", False, 1.0, max_residual=math.nan) != CheckResult("x", False, 1.0)


@pytest.mark.parametrize(
    "field, value",
    [("name", "y"), ("hard", True), ("tolerance", 2.0), ("samples", 1), ("flagged", 1),
     ("max_residual", 0.5), ("worst_point", "p0")],
)
def test_results_with_nan_residuals_differ_in_every_other_field(field, value):
    # two NaN residuals are equal, but no other field is skipped with them
    a = CheckResult("x", False, 1.0, max_residual=math.nan)
    b = CheckResult("x", False, 1.0, max_residual=math.nan)
    assert a == b
    setattr(b, field, value)
    assert a != b and b != a


# thermal points on both sides of every sampled parameter's zero, at which
# no coefficient denominator is singular
KERNEL_POINTS = [
    (ModelParams(1.0, 7.0, 16.0, 100.0), 1.0),
    (ModelParams(-20.0, 3.0, -12.0, 40.0), 0.3),
    (ModelParams(10.0, 15.4, 24.0, -60.0), 8.0),
    (ModelParams(-45.0, 0.5, 35.0, -5.0), 60.0),
]


def _printed_form(kernel, points):
    """A printed-form kernel of validate on a stack of (params, T), one row per point."""
    if kernel == "coeffs":  # a property of the Hamiltonian: T is not used
        params = [p for p, _ in points]
        x = tuple(np.array(v) for v in zip(*params))
        specs = [spectrum(p) for p in params]
        assert not validate._coeffs_singular(*x, np.array([s.energies[0] for s in specs])).any()
        levels = np.stack([s.energies for s in specs])
        return validate._coeffs(*x, levels, np.stack([s.vectors for s in specs]))
    rho = np.stack([thermal_state(p, temp).rho for p, temp in points])
    if kernel == "closed_form":
        return validate._closed_form(rho)
    # the charge angles, then the spin angles
    return validate._local_angles(rho).reshape(2, -1).T


@pytest.mark.parametrize("kernel", ["closed_form", "local_angles", "coeffs"])
def test_printed_form_kernels_treat_each_point_alone(kernel):
    # the report evaluates blocks, the per-sample oracle stacks of one
    stacked = _printed_form(kernel, KERNEL_POINTS)
    assert len(stacked) == len(KERNEL_POINTS)
    for row, point in zip(stacked, KERNEL_POINTS):
        assert np.array_equal(row, _printed_form(kernel, [point])[0])
