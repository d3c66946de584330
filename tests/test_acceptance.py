"""End-to-end checks of the package's headline numbers.

Each test evaluates one announced behavior of the model at the stated
tolerance, appends a PASS/FAIL line to RESULTS, and prints it; the
conftest hook echoes the collected lines after the run summary.  A
criterion that the implementation cannot honestly meet stays red here
rather than being loosened.
"""

import logging
import time

import numpy as np

from dqdtherm.cli import main as cli_main
from dqdtherm.correlations import (
    concurrence,
    correlated_coherence,
    fidelity_pure,
)
from dqdtherm.model import (
    ModelParams,
    analytic_energies,
    build_hamiltonian,
    find_anticrossing,
    ground_state,
)
from dqdtherm.qmatrix import eig_sym
from dqdtherm.sweep import find_coherence_peak
from dqdtherm.thermal import populations, thermal_state
from dqdtherm.validate import run_validation

RESULTS = []


def _record(num: int, ok: bool, detail: str) -> bool:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    return ok


def test_criterion_01_closed_form_spectrum_random():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p = ModelParams(
            rng.uniform(-200, 200),
            rng.uniform(0, 200),
            rng.uniform(-200, 200),
            rng.uniform(-200, 200),
        )
        closed = np.sort(analytic_energies(p))
        numeric = eig_sym(build_hamiltonian(p)).values
        scale = max(1.0, abs(closed[-1]))
        worst = max(worst, float(np.max(np.abs(closed - numeric))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _record(
        1, ok, f"1000 random spectra, max relative deviation {worst:.2e} in {elapsed:.2f}s"
    )


def test_criterion_02_anticrossing_position():
    found = find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (50.0, 150.0))
    mirror = find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (-150.0, -50.0))
    ok = abs(found.eps - 101.9) <= 1.0 and abs(mirror.eps + found.eps) <= 1e-3
    assert _record(
        2, ok, f"inner-pair gap minimum at eps = {found.eps:.4f}, mirrored at {mirror.eps:.4f}"
    )


def test_criterion_03_hot_populations_quarter():
    state = thermal_state(ModelParams(0.5, 7.0, 16.0, 100.0), 1e4)
    dev = max(abs(p - 0.25) for p in populations(state))
    ok = dev <= 1e-3
    assert _record(3, ok, f"populations at T=1e4 within {dev:.2e} of 0.25 (tol 1e-3)")


def _population_crossings(eps: float) -> int:
    diff = []
    for temp in np.logspace(-2, 4, 400):
        pops = populations(thermal_state(ModelParams(eps, 7.0, 16.0, 100.0), temp))
        diff.append(pops[2] - pops[1])
    return int(np.sum(np.diff(np.sign(diff)) != 0))


def test_criterion_04_population_crossing_depends_on_detuning():
    at_two = _population_crossings(2.0)
    at_half = _population_crossings(0.5)
    ok = at_two >= 1 and at_half == 0
    assert _record(
        4, ok, f"rho33/rho22 crossings on 400-point grid: {at_two} at eps=2, {at_half} at eps=0.5"
    )


def test_criterion_05_no_entanglement_without_transverse_coupling():
    worst = 0.0
    for eps in np.linspace(-10.0, 10.0, 20):
        for temp in np.logspace(-2, 2, 20):
            c = concurrence(thermal_state(ModelParams(eps, 7.0, 16.0, 0.0), temp).rho)
            worst = max(worst, c)
    ok = worst <= 1e-10
    assert _record(5, ok, f"max concurrence {worst:.2e} on 20x20 grid at bx=0 (tol 1e-10)")


def test_criterion_06_concurrence_window_maximum():
    best = 0.0
    for bx in np.linspace(20.0, 40.0, 21):
        for eps in np.linspace(3.0, 7.0, 21):
            c = concurrence(thermal_state(ModelParams(eps, 7.0, 16.0, bx), 0.2).rho)
            best = max(best, c)
    ok = abs(best - 0.6) <= 0.1
    assert _record(
        6, ok, f"peak concurrence {best:.4f} over bx in [20,40], eps in [3,7] at T=0.2"
    )


def test_criterion_07_fidelity_limits():
    detuned = ModelParams(10.0, 7.0, 16.0, 100.0)
    symmetric = ModelParams(0.0, 7.0, 16.0, 100.0)
    gs_detuned = ground_state(detuned).vector
    gs_symmetric = ground_state(symmetric).vector
    cold = fidelity_pure(gs_detuned, thermal_state(detuned, 1e-6).rho)
    hot = fidelity_pure(gs_detuned, thermal_state(detuned, 1e4).rho)
    margins = []
    for temp in np.logspace(-2, 1, 50):
        f_detuned = fidelity_pure(gs_detuned, thermal_state(detuned, temp).rho)
        f_symmetric = fidelity_pure(gs_symmetric, thermal_state(symmetric, temp).rho)
        margins.append(f_detuned - f_symmetric)
    ok_cold = abs(cold - 1.0) <= 1e-6
    ok_hot = abs(hot - 0.25) <= 1e-3
    ok_dominance = min(margins) >= -1e-12
    ok = ok_cold and ok_hot and ok_dominance
    assert _record(
        7,
        ok,
        f"F(T->0) = {cold:.9f}, F(T=1e4) = {hot:.9f} vs 0.25 +- 1e-3, "
        f"min low-T margin over eps=0 curve {min(margins):.1e}",
    )


def test_criterion_08_coherence_peak_temperatures():
    start = time.perf_counter()
    peak1, _ = find_coherence_peak(1.0, 7.0, 16.0, 100.0)
    first = time.perf_counter() - start
    start = time.perf_counter()
    peak2, _ = find_coherence_peak(1.0, 15.4, 24.0, 100.0)
    second = time.perf_counter() - start
    ok = (
        abs(peak1 - 6.01) <= 0.6
        and abs(peak2 - 9.8) <= 1.0
        and first < 5.0
        and second < 5.0
    )
    assert _record(
        8,
        ok,
        f"correlated-coherence peaks at T = {peak1:.3f} ({first:.2f}s) "
        f"and T = {peak2:.3f} ({second:.2f}s)",
    )


def test_criterion_09_correlated_coherence_bounds_concurrence():
    ok = True
    pieces = []
    for t, bz in ((7.0, 16.0), (15.4, 24.0)):
        cold = thermal_state(ModelParams(1.0, t, bz, 100.0), 0.01)
        gap = abs(correlated_coherence(cold.rho) - concurrence(cold.rho))
        margin = np.inf
        for temp in np.logspace(-2, 2, 400):
            rho = thermal_state(ModelParams(1.0, t, bz, 100.0), temp).rho
            margin = min(margin, correlated_coherence(rho) - concurrence(rho))
        ok = ok and gap <= 0.01 and margin >= -1e-10
        pieces.append(f"t={t}: cold gap {gap:.1e}, min(Ccc - C) = {margin:.1e}")
    assert _record(9, ok, "; ".join(pieces))


def test_criterion_10_validation_report(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="dqdtherm.validate"):
        results = run_validation(samples=200, seed=42)
    by_name = {r.name: r for r in results}
    hard_ok = not any(r.failed for r in results)
    warned = "\n".join(rec.getMessage() for rec in caplog.records)
    soft_ok = True
    for name in ("concurrence_closed_form", "angle_formula"):
        check = by_name[name]
        if check.flagged == 0:
            soft_ok = soft_ok and check.max_residual <= check.tolerance
        else:
            soft_ok = soft_ok and f"{name}: flagged {check.flagged}/{check.samples}" in warned
            soft_ok = soft_ok and name in warned
    rc = cli_main(
        ["validate", "--samples", "200", "--seed", "42", "--out", str(tmp_path / "v.csv")]
    )
    ok = hard_ok and soft_ok and rc == 0
    closed = by_name["concurrence_closed_form"]
    angle = by_name["angle_formula"]
    assert _record(
        10,
        ok,
        f"exit {rc}; hard invariants clean; closed-form concurrence flagged "
        f"{closed.flagged}/200 (max {closed.max_residual:.2e}), angle formula flagged "
        f"{angle.flagged}/200",
    )
