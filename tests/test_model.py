import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dqdtherm import model, validate
from dqdtherm.model import (
    ModelParams,
    NoAnticrossing,
    analytic_energies,
    build_hamiltonian,
    find_anticrossing,
    ground_state,
    spectrum,
)
from dqdtherm.qmatrix import ValidationError, eig_sym
from dqdtherm.thermal import thermal_state
from reference import anticrossing

params_strategy = st.builds(
    ModelParams,
    epsilon=st.floats(-200.0, 200.0),
    t=st.floats(0.0, 200.0),
    bz=st.floats(-200.0, 200.0),
    bx=st.floats(-200.0, 200.0),
)


def test_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(0.0, -1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        ModelParams(float("nan"), 1.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        ModelParams(float("inf"), 1.0, 0.0, 0.0)


def test_hamiltonian_trivial_cases():
    assert np.array_equal(build_hamiltonian(ModelParams(0, 0, 0, 0)), np.zeros((4, 4)))
    assert np.array_equal(
        build_hamiltonian(ModelParams(2, 0, 0, 0)), np.diag([1.0, 1.0, -1.0, -1.0])
    )


def test_hamiltonian_layout():
    h = build_hamiltonian(ModelParams(1.0, 7.0, 16.0, 100.0))
    expected = np.array(
        [
            [0.5 + 8.0, 50.0, 7.0, 0.0],
            [50.0, 0.5 - 8.0, 0.0, 7.0],
            [7.0, 0.0, -0.5 + 8.0, -50.0],
            [0.0, 7.0, -50.0, -0.5 - 8.0],
        ]
    )
    assert np.array_equal(h, expected)
    assert abs(np.trace(h)) == 0.0


def test_analytic_energies_zero_params():
    assert np.array_equal(analytic_energies(ModelParams(0, 0, 0, 0)), np.zeros(4))


def test_analytic_energies_reference_point():
    # Omega = 4*16^2*7^2 = 50176, Sigma = 16^2 + 100^2 + 4*49 = 10452,
    # E = +-(1/2) sqrt(10452 +- 448)
    res = spectrum(ModelParams(0, 7, 16, 100))
    assert res.omega == 50176.0
    assert res.sigma_cap == 10452.0
    e1 = 0.5 * math.sqrt(10452.0 + 448.0)
    e3 = 0.5 * math.sqrt(10452.0 - 448.0)
    assert np.allclose(res.energies, [e1, -e1, e3, -e3], rtol=0, atol=1e-12)
    assert np.allclose(res.energies, [52.2015, -52.2015, 50.0100, -50.0100], atol=1e-4)


def test_analytic_matches_numeric_at_asymmetric_point():
    p = ModelParams(10, 15.4, 24, 10)
    closed = np.sort(analytic_energies(p))
    numeric = eig_sym(build_hamiltonian(p)).values
    assert np.max(np.abs(closed - numeric)) <= 1e-9 * max(1.0, np.max(np.abs(closed)))


def test_analytic_matches_numeric_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        p = ModelParams(
            rng.uniform(-200, 200),
            rng.uniform(0, 200),
            rng.uniform(-200, 200),
            rng.uniform(-200, 200),
        )
        closed = np.sort(analytic_energies(p))
        numeric = eig_sym(build_hamiltonian(p)).values
        scale = max(1.0, np.max(np.abs(closed)))
        assert np.max(np.abs(closed - numeric)) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(params_strategy)
@example(ModelParams(0.0, 0.0, 1.0, 143.0))  # E3 = E1: the quotient rounds one ulp above E1
def test_spectral_symmetries(p):
    e = analytic_energies(p)
    # spectrum symmetric about zero
    assert e[1] == -e[0] and e[3] == -e[2]
    assert e[0] >= e[2] >= 0.0
    assert abs(e.sum()) <= 1e-10 * max(1.0, abs(e[0]))
    # detuning parity
    mirrored = analytic_energies(ModelParams(-p.epsilon, p.t, p.bz, p.bx))
    assert np.allclose(e, mirrored, rtol=0, atol=1e-10 * max(1.0, abs(e[0])))
    # Frobenius norm^2 of H equals the sum of squared energies
    h = build_hamiltonian(p)
    assert abs(np.sum(h * h) - np.sum(e * e)) <= 1e-9 * max(1.0, np.sum(e * e))


def exactly_scaled(values, k):
    """values times 2^k, or None where a product rounds: outside the normal doubles."""
    scaled = np.ldexp(np.asarray(values, dtype=float), k)
    exact = (np.abs(values) >= sys.float_info.min) & (np.abs(scaled) >= sys.float_info.min)
    if not np.all(exact | (np.asarray(values) == 0.0)) or not np.isfinite(scaled).all():
        return None
    return scaled


@settings(max_examples=64, deadline=None)
@given(params_strategy, st.integers(-900, 900))
@example(ModelParams(1.0, 7.0, 16.0, 100.0), -900)
@example(ModelParams(1.0, 7.0, 16.0, 100.0), 900)
def test_levels_scale_bit_for_bit_by_powers_of_two(p, k):
    # the kernel divides each point by the power of two of its largest
    # parameter, exactly, so a point and its multiple by 2^k share every bit
    # of the computation
    x = (p.epsilon, p.t, p.bz, p.bx)
    e = analytic_energies(p)
    scaled, want = exactly_scaled(x, k), exactly_scaled(e, k)
    assume(scaled is not None and want is not None)
    assert analytic_energies(ModelParams(*scaled)).tobytes() == want.tobytes()


def test_a_point_keeps_its_level_bits_inside_any_batch():
    # the scale is chosen per point, so a batch that mixes scales from 2^-1000
    # to 2^1000 gives each point the bits it has alone
    points = [np.array([1.0, 7.0, 16.0, 100.0]) * 2.0**j for j in (-1000, -7, 0, 500, 1000)]
    batch = model._energies(*np.array(points).T)[0]
    for p, row in zip(points, batch):
        assert row.tobytes() == analytic_energies(ModelParams(*p)).tobytes()


@settings(max_examples=32, deadline=None)
@given(st.integers(-900, 900))
@example(-900)
@example(900)
def test_the_anticrossing_scales_bit_for_bit_by_powers_of_two(k):
    base = find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (50.0, 150.0))
    t, bz, bx, lo, hi = (math.ldexp(v, k) for v in (7.0, 16.0, 100.0, 50.0, 150.0))
    found = find_anticrossing(t, bz, bx, ("E3", "E4"), (lo, hi))
    assert bits(found.eps) == bits(math.ldexp(base.eps, k))
    assert bits(found.gap) == bits(math.ldexp(base.gap, k))


def test_zero_transverse_field_sector_energies():
    # without the tau_z sigma_x coupling the spectrum is +-sqrt(eps^2/4+t^2) +- bz/2
    p = ModelParams(3.0, 7.0, 16.0, 0.0)
    charge = math.sqrt(p.epsilon**2 / 4.0 + p.t**2)
    expected = np.sort([s * charge + z * p.bz / 2.0 for s in (1, -1) for z in (1, -1)])
    numeric = eig_sym(build_hamiltonian(p)).values
    assert np.max(np.abs(numeric - expected)) <= 1e-10 * max(1.0, expected[-1])


@settings(max_examples=64, deadline=None)
@given(params_strategy)
@example(ModelParams(1, 7, 16, 100))
@example(ModelParams(0, 0, 0, 0))
@example(ModelParams(0, 0, 16, 100))
@example(ModelParams(0.0, 0.0, 5e-324, 5e-324))  # H's halved entries round to 0
def test_spectrum_vectors_are_eigenvectors(p):
    # of H / 2^j, j the exponent of the largest parameter: the same vectors,
    # and its entries and levels are exact where H's would round
    x = (p.epsilon, p.t, p.bz, p.bx)
    unit = ModelParams(*(math.ldexp(v, -math.frexp(max(map(abs, x)))[1]) for v in x))
    res, h, e = spectrum(p), build_hamiltonian(unit), analytic_energies(unit)
    for k in range(4):
        v = res.vectors[:, k]
        assert np.max(np.abs(h @ v - e[k] * v)) <= 1e-9 * np.max(np.abs(h))
        assert v[np.argmax(np.abs(v))] > 0.0  # sign convention


@pytest.mark.parametrize("bz, bx", [(0, 0), (1, 1), (16, 100), (-2, 5), (0, 1), (1, 0)])
def test_each_level_takes_the_eigenvector_of_its_rank(bz, bx):
    # at eps = t = 0 the levels pair up, E1 = E3 and E2 = E4, and H = 0 makes
    # all four equal: the closed forms' order still gives each label one column
    p = ModelParams(0, 0, bz, bx)
    vectors = eig_sym(build_hamiltonian(p)).vectors
    got = spectrum(p).vectors
    for k, rank in enumerate(model._RANK):
        assert np.array_equal(got[:, k], vectors[:, rank]) or np.array_equal(
            got[:, k], -vectors[:, rank])


def test_ground_state_detuning_only_degenerate():
    gs = ground_state(ModelParams(2, 0, 0, 0))
    assert gs.energy == pytest.approx(-1.0, abs=1e-12)
    assert gs.degenerate
    # supported on the lower-energy (right dot) pair
    assert abs(gs.vector[0]) + abs(gs.vector[1]) <= 1e-10


def test_ground_state_pure_tunneling():
    gs = ground_state(ModelParams(0, 1, 0, 0))
    assert gs.energy == pytest.approx(-1.0, abs=1e-12)
    assert gs.degenerate
    h = build_hamiltonian(ModelParams(0, 1, 0, 0))
    assert np.max(np.abs(h @ gs.vector + gs.vector)) <= 1e-10


def test_ground_state_reference_energy():
    gs = ground_state(ModelParams(0, 7, 16, 100))
    assert gs.energy == pytest.approx(-52.2015, abs=1e-4)
    assert not gs.degenerate


def _coeff_kernels(p):
    """validate's printed-coefficient kernels at p: (singular, residuals or None)."""
    x = tuple(np.array([v]) for v in p)
    s = spectrum(p)
    if validate._coeffs_singular(*x, s.energies[:1])[0]:
        return True, None
    return False, validate._coeffs(*x, s.energies[None], s.vectors[None])[0]


def test_printed_coefficients_reference_residuals():
    singular, residuals = _coeff_kernels(ModelParams(1, 7, 16, 100))
    # the printed formulas reproduce the numerical eigenvectors here
    assert not singular
    assert residuals.shape == (4,)
    assert np.max(residuals) <= 1e-10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-12, 1e150, 1e300])
def test_spectrum_coefficients_and_ground_state_hold_at_every_scale(scale):
    # their tolerances are relative to the spectrum, so they read the same at
    # every scale, and the squares that leave the double range are not formed
    unit = (1.0, 7.0, 16.0, 100.0)
    p = ModelParams(*(scale * x for x in unit))
    want = spectrum(ModelParams(*unit))
    assert np.allclose(spectrum(p).energies / scale, want.energies, rtol=1e-13, atol=0.0)
    singular, residuals = _coeff_kernels(p)
    assert not singular
    assert np.max(residuals) <= 1e-10
    gs = ground_state(p)
    assert not gs.degenerate
    assert gs.energy / scale == pytest.approx(want.energies[1], rel=1e-13)


@settings(max_examples=64, deadline=None)
@given(params_strategy)
@example(ModelParams(*(1e-300 * x for x in (1.0, 7.0, 16.0, 100.0))))
@example(ModelParams(0.0, 0.0, 5e-324, 5e-324))
def test_ground_state_is_the_spectrums_lowest_level_bitwise(p):
    gs, s = ground_state(p), spectrum(p)
    assert np.float64(gs.energy).tobytes() == analytic_energies(p)[1].tobytes()
    assert gs.vector.tobytes() == s.vectors[:, 1].tobytes()


def test_a_zero_hamiltonian_has_a_degenerate_ground_state():
    gs = ground_state(ModelParams(0, 0, 0, 0))
    assert gs.energy == 0.0 and gs.degenerate


@pytest.mark.parametrize(
    "p",
    [
        ModelParams(1, 7, 16, 0),  # bx = 0
        ModelParams(-16, 7, 16, 100),  # bz + eps = 0
        ModelParams(1, 0, 16, 100),  # t = 0
    ],
)
def test_printed_coefficients_singular_inputs(p):
    assert _coeff_kernels(p) == (True, None)


def bits(x):
    return np.float64(x).tobytes()


# the inner-pair gap minimum at (t, bz, bx) = (7, 16, 100), to 50 digits (mpmath
# findroot on the derivative of the gap 2 * E3)
EPS_MINIMUM = 101.2477537741246496
GAP_MINIMUM = 13.824168846833875057


def ulps(x, want):
    return abs(x - want) / math.ulp(want)


def test_anticrossing_pin():
    found = find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (50.0, 150.0))
    assert (found.eps, found.gap) == (101.24775377412466, 13.824168846833874)
    assert ulps(found.eps, EPS_MINIMUM) <= 1.0
    assert ulps(found.gap, GAP_MINIMUM) <= 1.0


def test_the_anticrossing_makes_one_energy_call(monkeypatch):
    sizes = []

    def counted(eps, *args):
        sizes.append(np.size(eps))
        return energies(eps, *args)

    energies = model._energies
    monkeypatch.setattr(model, "_energies", counted)
    find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (50.0, 150.0))
    assert sizes == [1]


# With m = max(t, |bz|, |bx|), eps^2 = (h - s)(h + s), s = 2 t |bz| / h, carries
# a few ulps of m^2 (where u = eps^2 is near 0 that is most of eps's digits:
# the minimum is flat there), and the gap, from the closed-form levels at eps,
# a few ulps of m.  Measured over 3500 draws of this box and near u = 0:
# 4.9 ulps of m^2 and 2.4 ulps of m.  A subnormal result also rounds to the
# subnormal spacing: eps to half of it, the gap 2 E3 to one (3000 draws).
EPS_SQ_ULPS = 8.0
GAP_ULPS = 4.0


def assert_anticrossing_matches_the_reference(t, bz, bx, pair):
    m = max(t, abs(bz), abs(bx))
    want_eps, want_gap = anticrossing(t, bz, bx, pair)
    found = find_anticrossing(t, bz, bx, pair, (-1.0, 2.0 * m + 1.0))
    with mpmath.workdps(50):
        ulp, m, tiny = mpmath.mpf(sys.float_info.epsilon), mpmath.mpf(m), mpmath.mpf(2) ** -1074
        eps_sq_bound = EPS_SQ_ULPS * ulp * m**2 + (abs(found.eps) + want_eps) * tiny
        assert abs(mpmath.mpf(found.eps) ** 2 - want_eps**2) <= eps_sq_bound
        assert abs(found.gap - want_gap) <= GAP_ULPS * ulp * m + 2 * tiny
    if set(pair) != {"E3", "E4"}:
        assert bits(found.eps) == bits(0.0)
    assert found.eps >= 0.0  # of +-eps* both in the range, +eps*


@settings(max_examples=64, deadline=None)
@given(
    st.floats(0.0, 30.0), st.floats(-40.0, 40.0), st.floats(-100.0, 100.0),
    st.sampled_from([("E3", "E4"), ("E4", "E3"), ("E1", "E3"), ("E2", "E4")]),
)
@example(7.0, 16.0, 100.0, ("E3", "E4"))
@example(7.0, 16.0, 0.0, ("E3", "E4"))  # bx = 0: a crossing, gap 0
@example(8.0, 16.0, 0.0, ("E3", "E4"))  # u = 0 exactly
@example(8.0, 16.0, 1e-6, ("E3", "E4"))  # u ~ 1e-12 m^2, from h - s
@example(0.0, 0.0, 0.0, ("E3", "E4"))  # H = 0
@example(7.0, 0.0, 100.0, ("E1", "E3"))  # bz = 0: E1 = E3 at eps = 0
@example(7e-300, 16e-300, 100e-300, ("E3", "E4"))
@example(7e-150, 16e-150, 100e-150, ("E3", "E4"))
@example(7e150, 16e150, 100e150, ("E3", "E4"))
@example(7e300, 16e300, 100e300, ("E3", "E4"))
@example(7e300, 16e300, 100e300, ("E1", "E3"))
@example(2.225073858507e-311, 2.225073858507e-311, 2.225073858507e-311, ("E3", "E4"))  # subnormal
@example(0.0, 2.225073858507e-311, 2.225073858507e-311, ("E3", "E4"))
def test_the_anticrossing_matches_the_50_digit_minimum(t, bz, bx, pair):
    assert_anticrossing_matches_the_reference(t, bz, bx, pair)


def test_a_range_holding_both_minima_gives_the_positive_one():
    found = find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (-150.0, 150.0))
    assert found == find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (50.0, 150.0))
    left = find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (-150.0, 50.0))
    assert (left.eps, left.gap) == (-found.eps, found.gap)


@pytest.mark.parametrize("pair", [("E1", "E3"), ("E3", "E1"), ("E2", "E4"), ("E4", "E2")])
@pytest.mark.parametrize("params", [(7.0, 16.0, 100.0), (15.4, 24.0, 10.0), (7.0, 16.0, 0.0)])
def test_the_outer_pairs_are_closest_at_zero_detuning(pair, params):
    found = find_anticrossing(*params, pair, (-5.0, 5.0))
    assert bits(found.eps) == bits(0.0)
    e = analytic_energies(ModelParams(0.0, *params))
    ia, ib = (model.LEVEL_LABELS.index(label) for label in pair)
    assert found.gap == abs(e[ia] - e[ib])


@pytest.mark.parametrize("grid_step", [0, -0.1, float("nan"), float("inf"), "fine"])
def test_anticrossing_rejects_a_bad_grid_step(grid_step):
    # the closed form has no scan: any grid_step is an unknown argument
    with pytest.raises(TypeError, match="grid_step"):
        find_anticrossing(7, 16, 100, ("E3", "E4"), (50.0, 150.0), grid_step=grid_step)


@pytest.mark.parametrize("tol", [0, -1, 1e-300])
def test_anticrossing_rejects_a_tol(tol):
    # nor a refinement: any tol is an unknown argument
    with pytest.raises(TypeError, match="tol"):
        find_anticrossing(7, 16, 100, ("E3", "E4"), (50.0, 150.0), tol=tol)


@pytest.mark.parametrize("eps_range", [(-1e308, 1e308), (50.0, 1e308)])
def test_anticrossing_takes_any_finite_range(eps_range):
    found = find_anticrossing(7, 16, 100, ("E3", "E4"), eps_range)
    assert (found.eps, found.gap) == (101.24775377412466, 13.824168846833874)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: ModelParams(10**400, 1, 1, 1), "epsilon", id="params"),
        pytest.param(lambda: thermal_state(ModelParams(1, 7, 16, 100), 10**400), "temperature",
                     id="temperature"),
    ],
)
def test_an_integer_beyond_the_doubles_raises_validation_error(call, name):
    with pytest.raises(ValidationError, match=f"{name} must be a real number"):
        call()


def test_anticrossing_inner_pair():
    found = find_anticrossing(7, 16, 100, ("E3", "E4"), (50, 150))
    # exact minimizer of the closed-form gap
    exact = math.sqrt(16.0**2 + 100.0**2 - 4.0 * 16.0**2 * 49.0 / (16.0**2 + 100.0**2))
    assert found.eps == pytest.approx(exact, abs=1e-4)
    assert found.gap > 0.0


def test_anticrossing_detuning_parity():
    left = find_anticrossing(7, 16, 100, ("E3", "E4"), (-150, -50))
    right = find_anticrossing(7, 16, 100, ("E3", "E4"), (50, 150))
    assert left.eps == pytest.approx(-right.eps, abs=1e-3)


def test_anticrossing_symmetric_pair_at_zero():
    found = find_anticrossing(7, 16, 100, ("E2", "E4"), (-50, 50))
    assert abs(found.eps) <= 1e-5


def test_anticrossing_becomes_crossing_without_coupling():
    found = find_anticrossing(7, 16, 0, ("E3", "E4"), (0.5, 50))
    assert found.gap <= 1e-6
    assert found.eps == pytest.approx(math.sqrt(16.0**2 - 4.0 * 49.0), abs=1e-4)


def test_anticrossing_monotonic_interval_rejected():
    with pytest.raises(NoAnticrossing):
        find_anticrossing(7, 16, 100, ("E3", "E4"), (120, 150))


def test_anticrossing_rejects_unknown_pair():
    with pytest.raises(ValidationError):
        find_anticrossing(7, 16, 100, ("E1", "E2"), (50, 150))
