"""Ground-state fidelity and correlated coherence against the 40-digit reference."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdtherm import (
    ModelParams,
    analytic_energies,
    correlated_coherence,
    find_coherence_peak,
    l1_coherence,
    populations,
    thermal_state,
)
from reference import coherence_peak, energies, reference


def package(eps, t, bz, bx, temperature):
    """(F, Ccc) as a sweep computes them: F is the ground level's Gibbs weight."""
    state = thermal_state(ModelParams(eps, t, bz, bx), temperature)
    return float(state.weights[0]), correlated_coherence(state.rho)


@pytest.mark.parametrize(
    "params",
    [
        (1.0, 7.0, 16.0, 100.0),
        (1.0, 15.4, 24.0, 100.0),
        (-2.5, 3.0, 5.0, 37.0),
        (-10.759533566522187, 14.841388260079102, 14.135148146485285, -87.8394574083888),
        (3.121612320982628, 25.23526054634903, -1.0783653357476126, -4.811025979934641),
    ],
    ids=["peak1", "peak2", "peak3", "peak4", "peak5"],
)
def test_coherence_peaks_match_the_reference(params):
    # Each refinement pass centres its stencil on a parabola's vertex, and the
    # last one spaces its points ~1e-8 apart in log10 T, where Ccc differs from
    # its maximum by round-off.  Measured: at most 9.4e-9 in log10 T (peak2)
    # and 1.6e-15 in Ccc (peak4, a point of validate's box, where a search
    # that stops at a 1e-6 bracket is 7.5e-8 and 1.9e-14 off).  At peak5 the
    # scan's vertex is 1.3e-4 off, beyond the first stencil, so the next
    # vertex lies outside that stencil; one kept within it stops 3.3e-5 short.
    temperature, ccc = find_coherence_peak(*params)
    log_t, top = coherence_peak(*params, math.log10(temperature))
    assert abs(math.log10(temperature) - log_t) <= 5e-8
    assert abs(ccc - top) <= 4e-15
    want = reference(*params, temperature)
    assert abs(ccc - want.ccc) <= 4e-15
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
    tol = 16.0 * sys.float_info.epsilon * (1.0 + (1.0 / state.temperature) * span)
    assert abs(float(state.weights[0]) - want.fidelity) <= tol
    gap = min(want.reduced_gaps)
    assert abs(correlated_coherence(state.rho) - want.ccc) * gap <= tol


def rho_errors(point):
    """The largest population error and the l1 error of the Gibbs state at point, and beta*span."""
    want = reference(*point)
    state = thermal_state(ModelParams(*point[:4]), point[4])
    population = max(abs(got - ref) for got, ref in zip(populations(state), want.populations))
    l1 = abs(l1_coherence(state.rho) - want.l1)
    span = state.energies[-1] - state.energies[0]
    return population, l1, float((1.0 / state.temperature) * span)


@settings(max_examples=32, deadline=None)
@given(VALIDATE_BOX)
def test_populations_and_l1_match_the_reference(point):
    # rho is good to ~eps * (1 + beta * span), as F is; over 2000 draws of the
    # box the worst errors were 1.3 (populations) and 1.9 (l1) of that scale
    population, l1, beta_span = rho_errors(point)
    tol = 8.0 * sys.float_info.epsilon * (1.0 + beta_span)
    assert population <= tol
    assert l1 <= tol


@pytest.mark.parametrize("point, ulps", [
    # near separability: eps = 0 and a vanishing bx, at beta * span = 600 and 30
    *(((0.0, 7.0, 16.0, bx, temp), 16) for bx in (1e-10, 1e-6, 1e-2, 1.0) for temp in (0.05, 1.0)),
    # cold states, beta * span of 1e4 and 808
    ((1.0, 7.0, 16.0, 100.0, 0.01), 16),
    ((-2.5, 3.0, 5.0, 37.0, 0.05), 16),
    # the degenerate ground level, cold and warm
    ((0.0, 7.0, 0.0, 100.0, 0.1), 16),
    ((0.0, 7.0, 0.0, 100.0, 1.0), 16),
    # (1, 7, 16, 100, 1) scaled to the ends of the double range
    *((tuple(s * x for x in (1.0, 7.0, 16.0, 100.0, 1.0)), 32)
      for s in (1e-300, 1e-150, 1e150, 1e300)),
])
def test_populations_and_l1_at_fixed_points_match_the_reference(point, ulps):
    # At these points the error does not grow with beta * span: the worst
    # measured was 10 eps (l1, T = 0.01) and, scaled, 18 eps
    population, l1, _ = rho_errors(point)
    assert population <= ulps * sys.float_info.epsilon
    assert l1 <= ulps * sys.float_info.epsilon


# Each closed-form level lies within 4 ulps of E1 of H's eigenvalue: the
# largest error over 2000 draws of the box was 1.9 ulps of E1.  E3 is not
# held relative to itself: alpha = bz^2 + bx^2 - 4t^2 - eps^2 cancels where
# E3 << E1, leaving an error of a few ulps of E1^2 in alpha, of E1 in E3.
LEVEL_BOUND = 4.0 * sys.float_info.epsilon


def assert_levels_match_the_reference(eps, t, bz, bx):
    got = np.sort(analytic_energies(ModelParams(eps, t, bz, bx)))
    want = energies(eps, t, bz, bx)
    assert np.abs(got - want).max() <= LEVEL_BOUND * got[-1]


@settings(max_examples=64, deadline=None)
@given(VALIDATE_BOX)
def test_closed_form_levels_match_the_reference(point):
    assert_levels_match_the_reference(*point[:4])


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
def test_closed_form_levels_match_the_reference_at_every_scale(scale):
    # the squares of these parameters leave the double range, the levels do not
    assert_levels_match_the_reference(*(scale * x for x in (1.0, 7.0, 16.0, 100.0)))
