import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dqdtherm import model
from dqdtherm.model import (
    AnalyticUnavailable,
    ModelParams,
    NoAnticrossing,
    analytic_coeffs,
    analytic_energies,
    build_hamiltonian,
    find_anticrossing,
    golden_section_min,
    ground_state,
    spectrum,
)
from dqdtherm.qmatrix import ValidationError, eig_sym
from dqdtherm.thermal import thermal_state

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
    t, bz, bx, lo, hi, step, tol = (
        math.ldexp(v, k) for v in (7.0, 16.0, 100.0, 50.0, 150.0, 0.1, 1e-6)
    )
    found = find_anticrossing(t, bz, bx, ("E3", "E4"), (lo, hi), grid_step=step, tol=tol)
    assert bits(found.eps) == bits(math.ldexp(base.eps, k))
    assert bits(found.gap) == bits(math.ldexp(base.gap, k))


def test_zero_transverse_field_sector_energies():
    # without the tau_z sigma_x coupling the spectrum is +-sqrt(eps^2/4+t^2) +- bz/2
    p = ModelParams(3.0, 7.0, 16.0, 0.0)
    charge = math.sqrt(p.epsilon**2 / 4.0 + p.t**2)
    expected = np.sort([s * charge + z * p.bz / 2.0 for s in (1, -1) for z in (1, -1)])
    numeric = eig_sym(build_hamiltonian(p)).values
    assert np.max(np.abs(numeric - expected)) <= 1e-10 * max(1.0, expected[-1])


def test_spectrum_vectors_are_eigenvectors():
    p = ModelParams(1, 7, 16, 100)
    res = spectrum(p)
    h = build_hamiltonian(p)
    for k in range(4):
        v = res.vectors[:, k]
        assert np.max(np.abs(h @ v - res.energies[k] * v)) <= 1e-9 * np.max(np.abs(h))
        assert v[np.argmax(np.abs(v))] > 0.0  # sign convention


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


def test_analytic_coeffs_reference_residuals():
    coeffs = analytic_coeffs(ModelParams(1, 7, 16, 100))
    # the printed formulas reproduce the numerical eigenvectors here
    assert np.max(coeffs.residuals) <= 1e-10
    for k in range(4):
        assert np.linalg.norm(coeffs.vectors[:, k]) == pytest.approx(1.0, abs=1e-12)
    assert coeffs.m_plus == pytest.approx(
        (coeffs.a_plus**2 + coeffs.b_plus**2 + coeffs.c_plus**2 + 1.0) ** -0.5
    )
    assert coeffs.n_minus == pytest.approx(
        (
            coeffs.a_tilde_minus**2
            + coeffs.b_tilde_minus**2
            + coeffs.c_tilde_minus**2
            + 1.0
        )
        ** -0.5
    )
    assert coeffs.alpha_sq == pytest.approx(16.0**2 + 100.0**2 - 1.0 - 4.0 * 49.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-12, 1e150, 1e300])
def test_spectrum_coefficients_and_ground_state_hold_at_every_scale(scale):
    # their tolerances are relative to the spectrum, so they read the same at
    # every scale, and the squares that leave the double range are not formed
    unit = (1.0, 7.0, 16.0, 100.0)
    p = ModelParams(*(scale * x for x in unit))
    want = spectrum(ModelParams(*unit))
    assert np.allclose(spectrum(p).energies / scale, want.energies, rtol=1e-13, atol=0.0)
    coeffs, unit_coeffs = analytic_coeffs(p), analytic_coeffs(ModelParams(*unit))
    assert np.max(coeffs.residuals) <= 1e-10
    assert coeffs.b_tilde_minus == pytest.approx(unit_coeffs.b_tilde_minus, rel=1e-12)
    gs = ground_state(p)
    assert not gs.degenerate
    assert gs.energy / scale == pytest.approx(want.energies[1], rel=1e-13)


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
def test_analytic_coeffs_singular_inputs(p):
    with pytest.raises(AnalyticUnavailable):
        analytic_coeffs(p)


def test_golden_section_min_quadratic():
    x, fx = golden_section_min(lambda u: (u - 2.0) ** 2, 0.0, 5.0, tol=1e-6)
    assert x == pytest.approx(2.0, abs=1e-5)
    assert fx == pytest.approx(0.0, abs=1e-10)


def counted(f, budget=10_000):
    """f with a log of its arguments; past budget calls it raises, so no search can hang."""
    calls = []

    def objective(*args):
        calls.append(args)
        if len(calls) > budget:
            raise RuntimeError(f"objective called more than {budget} times")
        return f(*args)

    return objective, calls


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), "tight", None])
def test_golden_section_min_rejects_a_non_positive_tol(tol):
    f, calls = counted(lambda u: (u - 2.0) ** 2)
    with pytest.raises(ValidationError, match="tol"):
        golden_section_min(f, 0.0, 5.0, tol=tol)
    assert not calls


@pytest.mark.parametrize("lo, hi, at", [(0.0, 5.0, 2.0), (50.0, 150.0, 101.25), (-1.0, 1.0, 0.0)])
@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_golden_section_min_stops_at_the_float_spacing(lo, hi, at, tol):
    # a tol finer than rounding allows cannot be met; the search ends once the
    # bracket stops shrinking (15, 15 and 37 batched calls for these brackets,
    # where a one-point search makes 81, 80 and 190)
    f, calls = counted(lambda u: abs(u - at))
    x, fx = golden_section_min(f, lo, hi, tol=tol)
    assert len(calls) <= 300
    assert abs(x - at) <= 1e-15 * (hi - lo)
    assert fx == f(x)


def sequential_golden_section_min(f, lo, hi, tol):
    """The one-point-at-a-time golden-section search: the oracle of the batched one."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    width = b - a
    while width > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if not b - a < width:
            break
        width = b - a
    x = 0.5 * (a + b)
    return x, f(x)


class Logged:
    """A float value that records each `<=` it takes part in, as the bits of both sides."""

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __le__(self, other):
        self.log.append((bits(self.value), bits(other.value)))
        return self.value <= other.value


def bits(x):
    return np.float64(x).tobytes()


def kinked(at, quantum, nan_lo, nan_hi):
    """|x - at| cut to steps of quantum (a plateau when it is large), NaN on [nan_lo, nan_hi]."""

    def g(x):
        if nan_lo <= x <= nan_hi:
            return math.nan
        v = abs(x - at)
        return math.floor(v / quantum) if quantum else v

    return g


@st.composite
def searches(draw):
    lo = draw(st.floats(-1e6, 1e6))
    width = draw(st.one_of(st.floats(1e-12, 1e3), st.sampled_from([1e-300, 5e-324, 1e-3])))
    hi = lo + width
    if not hi > lo:
        hi = np.nextafter(lo, math.inf)
    at = lo + draw(st.floats(-0.5, 1.5)) * (hi - lo)
    quantum = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0])) * (hi - lo)
    u, v = sorted(draw(st.lists(st.floats(-0.5, 1.5), min_size=2, max_size=2)))
    if draw(st.booleans()):  # no NaN anywhere
        u, v = 2.0, 1.0
    nan_band = (lo + u * (hi - lo), lo + v * (hi - lo))
    tol = draw(st.one_of(st.floats(5e-324, 1e-3), st.sampled_from([5e-324, 1e-300, 1e-3])))
    return float(lo), float(hi), kinked(at, quantum, *nan_band), tol


@settings(max_examples=100, deadline=None)
@given(searches())
# the search asks for both 0.0 and -0.0 here: distinct bits, so distinct points
@example((-5e-324, 1.0, kinked(-5e-324, 0.0, 2.0, 1.0), 5e-324))
def test_batched_search_equals_the_sequential_one(search):
    lo, hi, g, tol = search
    want_log, got_log, batches = [], [], []
    want_x, want_fx = sequential_golden_section_min(lambda x: Logged(g(x), want_log), lo, hi, tol)

    def batched(xs):
        assert xs.dtype == float and xs.ndim == 1
        batches.append(xs)
        return np.array([Logged(g(float(x)), got_log) for x in xs], dtype=object)

    got_x, got_fx = golden_section_min(batched, lo, hi, tol)
    assert (bits(got_x), bits(got_fx.value)) == (bits(want_x), bits(want_fx.value))
    assert got_log == want_log
    seen = np.concatenate(batches)
    assert ((lo <= seen) & (seen <= hi)).all()
    # no point is asked for twice; points are compared by their bits, as the search keys them
    assert len(np.unique(seen.view(np.int64))) == len(seen)
    assert all(len(xs) <= 63 for xs in batches)
    # one batch to start, then one per _LOOKAHEAD + 1 steps at most
    assert len(batches) <= 1 + len(want_log) // 5


def test_a_search_of_24_points_makes_5_objective_calls():
    # the bracket and tol of a peak search: two steps of its 400-point log10(T) grid
    want_calls, got_calls = [], []

    def f(u):
        return (u - 0.007) ** 2

    sequential_golden_section_min(lambda x: want_calls.append(x) or f(x), 0.0, 0.02, 1e-6)
    golden_section_min(lambda xs: got_calls.append(xs) or f(xs), 0.0, 0.02, 1e-6)
    assert (len(want_calls), len(got_calls)) == (24, 5)


# the inner-pair gap minimum at (t, bz, bx) = (7, 16, 100), to 50 digits (mpmath
# findroot on the derivative of the gap 2 * E3): at eps = 101.2477537741246496...
GAP_MINIMUM = 13.824168846833875057
# the refinement stops at tol = 1e-6 in eps, where the gap is flat to ~1e-17; what
# is left is the rounding of the closed form, a few ulps of the gap
GAP_BOUND = 4e-15


def test_anticrossing_refinement_makes_at_most_6_energy_calls(monkeypatch):
    energies, calls = counted(model._energies)
    monkeypatch.setattr(model, "_energies", energies)
    found = find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (50.0, 150.0))
    assert (found.eps, found.gap) == (101.24775360289107, 13.824168846833876)
    assert abs(found.gap - GAP_MINIMUM) <= GAP_BOUND
    sizes = [np.size(args[0]) for args in calls]
    assert sizes[0] == 1001 and len(sizes) <= 1 + 6  # the coarse scan, then the refinement


@pytest.mark.parametrize("tol", [0, -1, 1e-300])
def test_anticrossing_with_a_tol_below_the_float_spacing_ends(monkeypatch, tol):
    energies, calls = counted(model._energies)
    monkeypatch.setattr(model, "_energies", energies)
    pair, eps_range = ("E3", "E4"), (50.0, 150.0)
    if tol <= 0:
        with pytest.raises(ValidationError, match="tol"):
            find_anticrossing(7, 16, 100, pair, eps_range, tol=tol)
        assert not calls
        return
    found = find_anticrossing(7, 16, 100, pair, eps_range, tol=tol)
    assert len(calls) <= 200
    default = find_anticrossing(7, 16, 100, pair, eps_range)
    assert found.eps == pytest.approx(default.eps, abs=1e-5)
    assert found.gap <= default.gap


@pytest.mark.parametrize("grid_step", [0, -0.1, float("nan"), float("inf"), "fine"])
def test_anticrossing_rejects_a_bad_grid_step(grid_step):
    with pytest.raises(ValidationError, match="grid_step"):
        find_anticrossing(7, 16, 100, ("E3", "E4"), (50.0, 150.0), grid_step=grid_step)


@pytest.mark.parametrize(
    "eps_range, grid_step",
    [
        ((-1e308, 1e308), 0.1),  # hi - lo is inf
        ((50.0, 150.0), 5e-324),  # the point count is inf
        ((50.0, 150.0), 1e-300),  # ~1e302 points, finite
    ],
)
def test_anticrossing_rejects_a_scan_too_long_to_count(eps_range, grid_step):
    with pytest.raises(ValidationError, match="too many points"):
        find_anticrossing(7, 16, 100, ("E3", "E4"), eps_range, grid_step=grid_step)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: ModelParams(10**400, 1, 1, 1), "epsilon", id="params"),
        pytest.param(lambda: thermal_state(ModelParams(1, 7, 16, 100), 10**400), "temperature",
                     id="temperature"),
        pytest.param(lambda: golden_section_min(lambda x: x * x, 0.0, 1.0, tol=10**400), "tol",
                     id="golden-tol"),
        pytest.param(lambda: find_anticrossing(7, 16, 100, ("E3", "E4"), (50, 150),
                                               grid_step=10**400), "grid_step", id="gap-grid_step"),
        pytest.param(lambda: find_anticrossing(7, 16, 100, ("E3", "E4"), (50, 150), tol=10**400),
                     "tol", id="gap-tol"),
    ],
)
def test_an_integer_beyond_the_doubles_raises_validation_error(call, name):
    with pytest.raises(ValidationError, match=f"{name} must be a real number"):
        call()


def test_anticrossing_scan_is_bounded_by_its_point_count():
    # steps of 2^-9 make (hi - lo) / grid_step exact: _SCAN_POINTS - 1 steps, then one more
    step = 2.0**-9
    hi = 50.0 + (model._SCAN_POINTS - 1) * step
    found = find_anticrossing(7, 16, 100, ("E3", "E4"), (50.0, hi), grid_step=step)
    assert (found.eps, found.gap) == (101.24775353536123, 13.824168846833878)
    assert abs(found.gap - GAP_MINIMUM) <= GAP_BOUND
    with pytest.raises(ValidationError, match=f"too many points .* at most {model._SCAN_POINTS}"):
        find_anticrossing(7, 16, 100, ("E3", "E4"), (50.0, hi + step), grid_step=step)


def test_anticrossing_pin():
    found = find_anticrossing(7.0, 16.0, 100.0, ("E3", "E4"), (50.0, 150.0))
    assert (found.eps, found.gap) == (101.24775360289107, 13.824168846833876)
    assert abs(found.gap - GAP_MINIMUM) <= GAP_BOUND


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
