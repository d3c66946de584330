"""Ground-state fidelity and correlated coherence against the 40-digit reference."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdtherm import ModelParams, correlated_coherence, find_coherence_peak, thermal_state
from reference import reference


def package(eps, t, bz, bx, temperature):
    """(F, Ccc) as a sweep computes them: F is the ground level's Gibbs weight."""
    state = thermal_state(ModelParams(eps, t, bz, bx), temperature)
    return float(state.weights[0]), correlated_coherence(state.rho)


@pytest.mark.parametrize(
    "params", [(1.0, 7.0, 16.0, 100.0), (1.0, 15.4, 24.0, 100.0)], ids=["peak1", "peak2"]
)
def test_coherence_peaks_match_the_reference(params):
    temperature, ccc = find_coherence_peak(*params)
    want = reference(*params, temperature)
    assert abs(ccc - want.ccc) <= 1e-14
    f, ccc_at_peak = package(*params, temperature)
    assert ccc_at_peak == ccc
    assert abs(f - want.fidelity) <= 1e-14


def test_fidelity_at_a_degenerate_ground_level_matches_the_reference():
    # eps = bz = 0: both ground vectors give F = w0 = 1/2.  The spin reduction
    # is degenerate there too, so no rotation is singled out and Ccc is not held
    point = (0.0, 7.0, 0.0, 100.0, 1.0)
    want = reference(*point)
    assert abs(want.fidelity - 0.5) <= 1e-14
    assert want.reduced_gaps[1] <= 1e-30
    f, _ = package(*point)
    assert abs(f - want.fidelity) <= 1e-14


def test_near_separable_point_matches_the_reference():
    point = (0.0, 7.0, 16.0, 1e-6, 1.0)
    want = reference(*point)
    f, ccc = package(*point)
    assert abs(f - want.fidelity) <= 1e-14
    assert abs(ccc - want.ccc) <= 1e-14
    assert 0.0 < want.ccc < 1e-7


# validate's sampled box: eps, t, bz, bx and T from 0.05 to 100 on a log scale
VALIDATE_BOX = st.tuples(
    st.floats(-50.0, 50.0), st.floats(0.0, 30.0), st.floats(-40.0, 40.0),
    st.floats(-100.0, 100.0), st.floats(math.log10(0.05), 2.0).map(lambda x: 10.0**x),
)


@settings(max_examples=32, deadline=None)
@given(VALIDATE_BOX)
def test_fidelity_and_correlated_coherence_match_the_reference(point):
    # The eigensolve leaves errors of ~eps * (E3 - E0) in H's energies and
    # vectors, and the Gibbs weights scale energy errors by beta: so rho and F
    # are good to ~eps * (1 + beta * span), as where two nearly degenerate
    # levels share the weight (eps = 0, T = 0.05: F off by 1.3e-13).  Ccc
    # turns each local basis by rho's error over the reduced state's gap.
    want = reference(*point)
    state = thermal_state(ModelParams(*point[:4]), point[4])
    span = float(state.energies[-1] - state.energies[0])
    tol = 16.0 * sys.float_info.epsilon * (1.0 + state.beta * span)
    assert abs(float(state.weights[0]) - want.fidelity) <= tol
    gap = min(want.reduced_gaps)
    assert abs(correlated_coherence(state.rho) - want.ccc) * gap <= tol
