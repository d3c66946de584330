import warnings

import numpy as np
import pytest

from dqdtherm import thermal
from dqdtherm.model import ModelParams, build_hamiltonian, ground_state
from dqdtherm.qmatrix import ValidationError, check_density_matrix, eig_sym
from dqdtherm.thermal import (
    _gibbs,
    _rho,
    populations,
    reduce_a,
    reduce_b,
    thermal_state,
)

REF = ModelParams(0.5, 7.0, 16.0, 100.0)


def gibbs_rho(h, temperature):
    """The Gibbs state of one Hamiltonian through the batched kernel."""
    g, _ = _gibbs(eig_sym(h[None]), np.zeros(1, dtype=np.intp), temperature)
    return _rho(g)[0]


def random_params(rng):
    return ModelParams(
        rng.uniform(-50, 50),
        rng.uniform(0, 30),
        rng.uniform(-40, 40),
        rng.uniform(-100, 100),
    )


def test_high_temperature_limit_is_maximally_mixed():
    state = thermal_state(REF, 1e6)
    # leading correction to the maximally mixed state is of order beta*|E|
    bound = (1.0 / state.temperature) * np.max(np.abs(state.energies))
    assert np.max(np.abs(state.rho - np.eye(4) / 4.0)) <= bound
    for p in populations(state):
        assert p == pytest.approx(0.25, abs=1e-4)


def test_low_temperature_limit_is_pure_ground_state():
    state = thermal_state(REF, 1e-4)
    purity = np.trace(state.rho @ state.rho).real
    assert purity > 1.0 - 1e-8
    gs = ground_state(REF)
    overlap = gs.vector @ state.rho @ gs.vector
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_populations_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        state = thermal_state(random_params(rng), 10.0 ** rng.uniform(-2, 3))
        assert sum(populations(state)) == pytest.approx(1.0, abs=1e-12)


def test_detuning_only_cold_state_localizes():
    # positive detuning favors the second dot; its two spin levels share the weight
    state = thermal_state(ModelParams(2, 0, 0, 0), 1e-3)
    pops = populations(state)
    assert pops[2] + pops[3] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_invalid_temperature_rejected(bad):
    with pytest.raises(ValidationError):
        thermal_state(REF, bad)


@pytest.mark.parametrize("bad", [[1.0, 2.0], np.array([1.0]), "warm", None])
def test_a_temperature_that_is_not_a_number_is_refused_before_any_work(monkeypatch, bad):
    def eig_sym(m):
        raise AssertionError("diagonalized H before checking the temperature")

    monkeypatch.setattr(thermal, "eig_sym", eig_sym)
    with pytest.raises(ValidationError, match="temperature must be a real number"):
        thermal_state(REF, bad)


@pytest.mark.parametrize("temp", [5e-309, 1e-320])
def test_temperature_whose_inverse_overflows_is_refused(temp):
    # 1/T is inf below ~5.6e-309; the weights would come out NaN
    with pytest.raises(OverflowError, match="1/T overflows"):
        thermal_state(REF, temp)


@pytest.mark.parametrize(
    "temp, error, message",
    [
        (0.0, ValidationError, "temperature must be positive and finite, got 0.0"),
        (-1.0, ValidationError, "temperature must be positive and finite, got -1.0"),
        (float("nan"), ValidationError, "temperature must be positive and finite, got nan"),
        (float("inf"), ValidationError, "temperature must be positive and finite, got inf"),
        (1e-320, OverflowError, "1/T overflows for temperature 1e-320"),
    ],
)
def test_a_bad_temperature_keeps_its_error_and_warns_of_nothing(temp, error, message):
    # every point is computed before the checks raise; at T = 0, 1/T overflows
    # too, and the temperature check, the earlier one, wins
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            thermal_state(REF, temp)
    assert type(info.value) is error
    assert str(info.value) == message


def test_a_gibbs_state_that_is_not_a_density_matrix_is_refused():
    # the squares in H's eigensolve overflow; the weights would come out NaN
    p = ModelParams(1.7e308, 1.7e308, 1.7e308, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="the eigenvalues of H overflow"):
            thermal_state(p, 1.0)


def test_coldest_finite_inverse_temperature_gives_the_ground_state():
    # beta * (E - E0) overflows to inf, and exp(-inf) = 0 is the exact weight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = thermal_state(REF, 1e-308)
    assert np.array_equal(state.weights, [1.0, 0.0, 0.0, 0.0])
    assert populations(state) == populations(thermal_state(REF, 1e-6))


def test_state_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(30):
        p = random_params(rng)
        temp = 10.0 ** rng.uniform(-2, 3)
        state = thermal_state(p, temp)
        check_density_matrix(state.rho, dim=4)
        assert np.array_equal(state.rho, state.rho.T)
        h = build_hamiltonian(p)
        comm = state.rho @ h - h @ state.rho
        assert np.max(np.abs(comm)) <= 1e-9 * max(1.0, np.max(np.abs(h)))


def test_energy_shift_invariance():
    h = build_hamiltonian(REF)
    rho = gibbs_rho(h, 3.0)
    for shift in (1000.0, -1000.0):
        shifted = gibbs_rho(h + shift * np.eye(4), 3.0)
        assert np.max(np.abs(shifted - rho)) <= 1e-10


def test_mean_energy_increases_with_temperature():
    h = build_hamiltonian(REF)
    temps = np.logspace(-2, 4, 10)
    means = []
    for temp in temps:
        rho = gibbs_rho(h, temp)
        means.append(float(np.trace(rho @ h)))
    diffs = np.diff(means)
    assert np.all(diffs >= -1e-10)


def test_zero_transverse_field_state_is_separable():
    p = ModelParams(3.0, 7.0, 16.0, 0.0)
    state = thermal_state(p, 2.0)
    product = np.kron(reduce_a(state), reduce_b(state))
    assert np.max(np.abs(state.rho - product)) <= 1e-10


def test_reductions_match_index_contraction():
    rng = np.random.default_rng(11)
    for _ in range(10):
        state = thermal_state(random_params(rng), 10.0 ** rng.uniform(-1, 2))
        rho4 = state.rho.reshape(2, 2, 2, 2)
        ra = np.einsum("isjs->ij", rho4)
        rb = np.einsum("sisj->ij", rho4)
        assert np.max(np.abs(reduce_a(state) - ra)) <= 1e-12
        assert np.max(np.abs(reduce_b(state) - rb)) <= 1e-12


def test_reductions_recover_product_factors():
    qa = np.array([[0.7, 0.1], [0.1, 0.3]])
    qb = np.array([[0.6, -0.2], [-0.2, 0.4]])
    rho = np.kron(qa, qb)
    assert np.max(np.abs(reduce_a(rho) - qa)) <= 1e-12
    assert np.max(np.abs(reduce_b(rho) - qb)) <= 1e-12
    mixed = np.eye(4) / 4.0
    assert np.max(np.abs(reduce_a(mixed) - np.eye(2) / 2.0)) <= 1e-15


def test_partition_weight_bounds():
    rng = np.random.default_rng(13)
    for _ in range(20):
        state = thermal_state(random_params(rng), 10.0 ** rng.uniform(-3, 5))
        # with the spectrum shifted so the minimum is zero, the weight sum
        # lies between 1 (deep cold) and the number of levels (very hot),
        # so the ground weight, 1 over that sum, between 1/4 and 1
        assert 0.25 - 1e-12 <= state.weights[0] <= 1.0


def test_state_keeps_each_value_once():
    # beta is 1 / temperature, the energy shift energies[0] and the shifted
    # partition function 1 / weights[0], so none is stored beside them
    fields = list(thermal.ThermalState._fields)
    assert fields == ["params", "temperature", "rho", "energies", "vectors", "weights"]
    assert list(thermal._Gibbs._fields) == ["dec", "index", "weights"]


def test_extreme_cold_does_not_overflow():
    state = thermal_state(REF, 1e-6)
    check_density_matrix(state.rho, dim=4)
    gs = ground_state(REF)
    assert gs.vector @ state.rho @ gs.vector == pytest.approx(1.0, abs=1e-10)


def test_eigenbasis_diagonalizes_state():
    state = thermal_state(REF, 5.0)
    diag = state.vectors.T @ state.rho @ state.vectors
    off = diag - np.diag(np.diag(diag))
    assert np.max(np.abs(off)) <= 1e-12
    # weights ordered like the energies returned with the state
    w = np.diag(diag)
    boltz = np.exp(-(state.energies - state.energies[0]) / state.temperature)
    boltz /= boltz.sum()
    assert np.max(np.abs(w - boltz)) <= 1e-12


def test_numeric_eigensystem_consistency():
    state = thermal_state(REF, 5.0)
    ref = eig_sym(build_hamiltonian(REF))
    assert np.max(np.abs(state.energies - ref.values)) <= 1e-12
