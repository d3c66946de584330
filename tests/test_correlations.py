import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dqdtherm.correlations import (
    SPIN_FLIP,
    _SPIN_Z,
    _concurrence,
    _gibbs_concurrence,
    _rotations,
    _schur_angles,
    concurrence,
    correlated_coherence,
    fidelity_pure,
    l1_coherence,
)
from dqdtherm.model import DegenerateGroundState, ModelParams, ground_state
from dqdtherm.qmatrix import ValidationError, eig_sym
from dqdtherm.thermal import populations, reduce_a, reduce_b, thermal_state
from dqdtherm.validate import _closed_form, _local_angles
from reference import reference

BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


def random_density(rng):
    x = rng.standard_normal((4, 4))
    rho = x @ x.T
    return rho / np.trace(rho)


def random_rotation4(rng):
    # product of two local orthogonal rotations
    return np.kron(_rotations(rng.uniform(0, 2 * math.pi)), _rotations(rng.uniform(0, 2 * math.pi)))


def test_spin_flip_structure():
    expected = np.array(
        [
            [0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(SPIN_FLIP, expected)
    # sigma_y = i K, so sigma_y (x) sigma_y = -K (x) K, real
    k = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(SPIN_FLIP, -np.kron(k, k))


def test_concurrence_bell_state():
    assert concurrence(BELL) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_vanishes_on_unentangled_states():
    assert concurrence(np.eye(4) / 4.0) == pytest.approx(0.0, abs=1e-12)
    assert concurrence(np.diag([0.4, 0.3, 0.2, 0.1])) == pytest.approx(0.0, abs=1e-12)
    qa = np.array([[0.7, 0.2], [0.2, 0.3]])
    qb = np.array([[0.5, 0.1], [0.1, 0.5]])
    assert concurrence(np.kron(qa, qb)) == pytest.approx(0.0, abs=1e-10)


def test_concurrence_zero_transverse_field():
    # decoupled sectors stay separable at every temperature
    for temp in (0.05, 0.5, 5.0, 50.0):
        state = thermal_state(ModelParams(1.0, 7.0, 16.0, 0.0), temp)
        assert concurrence(state.rho) <= 1e-10


def test_concurrence_bounds_random():
    rng = np.random.default_rng(3)
    for _ in range(500):
        c = concurrence(random_density(rng))
        assert 0.0 <= c <= 1.0 + 1e-12


def test_concurrence_local_rotation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(25):
        rho = random_density(rng)
        u = random_rotation4(rng)
        rotated = u @ rho @ u.T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-9)


def test_closed_form_trivial_states():
    c = _closed_form(np.stack([np.eye(4) / 4.0, np.diag([0.4, 0.3, 0.2, 0.1])]))
    assert c.shape == (2,)
    assert c == pytest.approx([0.0, 0.0], abs=1e-12)


def test_fidelity_pure_temperature_limits():
    p = ModelParams(10.0, 7.0, 16.0, 100.0)
    gs = ground_state(p).vector
    cold = thermal_state(p, 1e-6)
    assert fidelity_pure(gs, cold.rho) == pytest.approx(1.0, abs=1e-9)
    hot = thermal_state(p, 1e6)
    assert fidelity_pure(gs, hot.rho) == pytest.approx(0.25, abs=1e-4)


def test_fidelity_to_a_degenerate_ground_state_is_refused():
    # eps = bz = 0: the ground level is doubly degenerate, and its vector
    # from the eigensolver is an arbitrary member of it
    p = ModelParams(0.0, 7.0, 0.0, 100.0)
    rho = thermal_state(p, 0.01).rho
    gs = ground_state(p)
    assert gs.degenerate
    assert fidelity_pure(gs.vector, rho) == pytest.approx(0.5, abs=1e-12)  # a bare vector is taken as given
    with pytest.raises(DegenerateGroundState, match="ground state is degenerate"):
        fidelity_pure(gs, rho)


def test_fidelity_to_a_ground_state_equals_fidelity_to_its_vector():
    p = ModelParams(1.0, 7.0, 16.0, 100.0)
    gs = ground_state(p)
    assert not gs.degenerate
    for temperature in (0.01, 0.2, 5.0, 1e4):
        rho = thermal_state(p, temperature).rho
        assert fidelity_pure(gs, rho) == fidelity_pure(gs.vector, rho)


def test_fidelity_pure_rejects_unnormalized_vector():
    with pytest.raises(ValidationError):
        fidelity_pure(np.array([1.0, 1.0, 0.0, 0.0]), np.eye(4) / 4.0)


@pytest.mark.parametrize(
    "psi, message",
    [
        (np.array([1.0 + 0j, 0.0, 0.0, 0.0]), "^state vector must be real$"),
        ([1j, 0.0, 0.0, 0.0], "^state vector must be real$"),
        ("psi", "^state vector must be a real vector, got str$"),
        ([[1.0, 0.0], [0.0]], "^state vector must be a real vector, got list$"),
        (["1", "0", "0", "0"], "^state vector must be a real vector, got list$"),
        (np.array(["1", "0", "0", "0"], dtype=object),
         "^state vector must be a real vector, got ndarray$"),
    ],
    ids=["complex-array", "complex-list", "str", "ragged", "numeric-text", "numeric-text-objects"],
)
def test_fidelity_pure_refuses_a_vector_that_is_not_real(psi, message):
    # refused, not cast: a complex vector with a zero imaginary part too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=message):
            fidelity_pure(psi, np.eye(4) / 4.0)


@pytest.mark.parametrize("text", ["0.5", b"0.5", np.str_("0.5")], ids=["str", "bytes", "np-str"])
def test_numeric_text_held_in_an_object_array_is_refused(text):
    # numpy would read the text as the number 0.5, as float("0.5") does
    rho = np.array([[text, "0.5"], [0.5, 0.5]], dtype=object)
    with pytest.raises(ValidationError, match="^density matrix must be a real matrix, got ndarray$"):
        l1_coherence(rho)


def test_fidelity_pure_rejects_a_non_finite_vector():
    with pytest.raises(ValidationError, match="^state vector contains non-finite entries$"):
        fidelity_pure(np.array([1.0, np.nan, 0.0, 0.0]), np.eye(4) / 4.0)


def test_l1_coherence_reference_values():
    assert l1_coherence(np.diag([0.4, 0.3, 0.2, 0.1])) == 0.0
    assert l1_coherence(BELL) == pytest.approx(1.0, abs=1e-12)
    uniform = np.full((4, 4), 0.25)
    assert l1_coherence(uniform) == pytest.approx(3.0, abs=1e-12)
    assert l1_coherence(np.array([[0.5, 0.5], [0.5, 0.5]])) == pytest.approx(1.0)


def test_local_angles_diagonal_state():
    # the charge angle, then the spin angle
    assert _local_angles(np.diag([0.42, 0.18, 0.28, 0.12])[None]).tolist() == [0.0, 0.0]


def test_local_angles_diagonalize_thermal_reductions():
    state = thermal_state(ModelParams(1.0, 7.0, 16.0, 100.0), 1.0)
    ra, rb = reduce_a(state), reduce_b(state)
    for theta, reduced in zip(_local_angles(state.rho[None]), (ra, rb)):
        r = _rotations(theta)
        rotated = r @ reduced @ r.T
        assert abs(rotated[0, 1]) <= 1e-10
        diag = np.sort(np.diag(rotated))
        assert np.max(np.abs(diag - eig_sym(reduced).values)) <= 1e-8


@pytest.mark.parametrize(
    "charge",
    [[[0.7, 0.2], [0.2, 0.3]], [[0.3, -0.2], [-0.2, 0.7]], [[0.5, 0.3], [0.3, 0.5]]],
    ids=["chi_positive", "chi_negative", "chi_zero"],
)
def test_local_angles_diagonalize_either_sign_of_chi(charge):
    # chi < 0 takes the branch that avoids cancellation in chi + sqrt(chi^2 + 4q^2)
    rho = np.kron(charge, [[0.6, -0.1], [-0.1, 0.4]])
    for theta, reduced in zip(_local_angles(rho[None]), (reduce_a(rho), reduce_b(rho))):
        r = _rotations(theta)
        rotated = r @ reduced @ r.T
        assert abs(rotated[0, 1]) <= 1e-14
        diag = np.sort(np.diag(rotated))
        assert np.max(np.abs(diag - eig_sym(reduced).values)) <= 1e-14


def test_correlated_coherence_reference_states():
    assert correlated_coherence(np.diag([0.42, 0.18, 0.28, 0.12])) == pytest.approx(
        0.0, abs=1e-12
    )
    assert correlated_coherence(BELL) == pytest.approx(1.0, abs=1e-12)


def test_correlated_coherence_nonnegative_on_thermal_states():
    rng = np.random.default_rng(29)
    for _ in range(30):
        p = ModelParams(
            rng.uniform(-20, 20),
            rng.uniform(0.5, 20),
            rng.uniform(-30, 30),
            rng.uniform(-80, 80),
        )
        state = thermal_state(p, 10.0 ** rng.uniform(-2, 2))
        assert correlated_coherence(state.rho) >= -1e-12


def test_correlated_coherence_approaches_concurrence_cold():
    state = thermal_state(ModelParams(1.0, 7.0, 16.0, 100.0), 0.01)
    ccc = correlated_coherence(state.rho)
    c = concurrence(state.rho)
    assert abs(ccc - c) <= 0.01


@settings(max_examples=40, deadline=None)
@given(st.floats(-10.0, 10.0))
def test_rotations_are_orthogonal(theta):
    r = _rotations(theta)
    assert np.max(np.abs(r.T @ r - np.eye(2))) <= 1e-15
    assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(_rotations(np.array([theta, -theta]))[0], r)


UNIT = np.array([1.0, 0.0, 0.0, 0.0])

# every public measure of a density matrix, with its other arguments fixed
MEASURES = {
    "concurrence": concurrence,
    "correlated_coherence": correlated_coherence,
    "l1_coherence": l1_coherence,
    "fidelity_pure": lambda rho: fidelity_pure(UNIT, rho),
    "populations": populations,
    "reduce_a": reduce_a,
    "reduce_b": reduce_b,
}


def _with_entries(value, *cells):
    m = np.eye(4) / 4.0
    for cell in cells:
        m[cell] = value
    return m


INVALID = {
    "trace_2": np.eye(4) / 2.0,
    "non_symmetric": _with_entries(0.1, (0, 1)),
    "nan_entry": _with_entries(np.nan, (1, 2), (2, 1)),
    "non_psd": np.diag([0.75, 0.75, -0.25, -0.25]),
    "string": "not a matrix",
    "ragged": [[0.25, 0.0, 0.0, 0.0], [0.0, 0.25]],
    "numeric_text": [[str(x) for x in row] for row in np.eye(4) / 4.0],
    "numeric_bytes": (np.eye(4) / 4.0).astype(bytes),
}


@pytest.mark.parametrize("bad", INVALID.values(), ids=INVALID.keys())
@pytest.mark.parametrize("measure", MEASURES.values(), ids=MEASURES.keys())
def test_measures_reject_invalid_density_matrices(measure, bad):
    with pytest.raises(ValidationError):
        measure(bad)


@pytest.mark.parametrize(
    "measure",
    [correlated_coherence, l1_coherence, lambda rho: fidelity_pure(UNIT, rho)],
    ids=["correlated_coherence", "l1_coherence", "fidelity_pure"],
)
def test_matrix_only_measures_refuse_a_thermal_state(measure):
    state = thermal_state(ModelParams(10.0, 7.0, 16.0, 100.0), 1.0)
    with pytest.raises(ValidationError, match="must be a real matrix, got ThermalState"):
        measure(state)


SZ = np.diag([1.0, -1.0])
TX = np.array([[0.0, 1.0], [1.0, 0.0]])

POINTS = st.tuples(
    st.floats(-50.0, 50.0),  # eps
    st.floats(0.0, 30.0),  # t
    st.floats(-40.0, 40.0),  # bz
    st.floats(-100.0, 100.0),  # bx
    st.floats(0.05, 100.0),  # T
)


def _rho(eps, t, bz, bx, temp):
    return thermal_state(ModelParams(eps, t, bz, bx), temp).rho


def _reduced_gap(rho):
    """Smaller eigenvalue gap of the two reduced states (at most 1)."""
    return min(float(np.diff(np.linalg.eigvalsh(red(rho)))[0]) for red in (reduce_a, reduce_b))


def _assert_same_state(expected, got):
    assert np.max(np.abs(expected - got)) <= 1e-12
    # C and Ccc amplify the round-off left in rho: C through the square root
    # of rho's smallest eigenvalue, Ccc through the reduced eigenbases, whose
    # angles turn by up to ~3 x round-off / gap.  The bounds carry those
    # factors: near bx = 0 C moves by up to 4e-9,
    # and near eps = 0 Ccc by up to 1e-4 where a reduced state is degenerate.
    lam = max(float(np.linalg.eigvalsh(expected)[0]), 1e-16)
    c_shift = abs(concurrence(expected) - concurrence(got))
    assert c_shift * 2.0 * math.sqrt(lam) <= 1e-12
    ccc_shift = abs(correlated_coherence(expected) - correlated_coherence(got))
    assert ccc_shift * _reduced_gap(expected) <= 1e-11


@settings(max_examples=50, deadline=None)
@given(POINTS)
def test_transverse_field_reversal_is_spin_z_conjugation(point):
    eps, t, bz, bx, temp = point
    u = np.kron(np.eye(2), SZ)
    _assert_same_state(u @ _rho(eps, t, bz, bx, temp) @ u, _rho(eps, t, bz, -bx, temp))


@settings(max_examples=50, deadline=None)
@given(POINTS)
def test_detuning_reversal_is_charge_flip_conjugation(point):
    eps, t, bz, bx, temp = point
    u = np.kron(TX, SZ)
    _assert_same_state(u @ _rho(eps, t, bz, bx, temp) @ u, _rho(-eps, t, bz, bx, temp))


@settings(max_examples=50, deadline=None)
@given(POINTS, st.floats(0.1, 10.0))
def test_common_rescaling_leaves_state_unchanged(point, scale):
    _assert_same_state(_rho(*point), _rho(*(scale * x for x in point)))


def test_concurrence_of_thermal_state_is_scale_invariant_near_separability():
    # a near-separable cold state: rho has eigenvalues at round-off level, and
    # re-diagonalizing rho put C at 9.9e-12 here but at 1.97e-10 for the exact
    # rescaled copy; the Gibbs weights give the same C for both
    point = (0.0, 1.7362676102904482, 1.2059208808891482, 1.5666409849276447e-09,
             0.10358160484209371)
    scale = 853.8522797130453
    c = [
        concurrence(thermal_state(ModelParams(*q[:4]), q[4]))
        for q in (point, tuple(scale * x for x in point))
    ]
    assert abs(c[0] - c[1]) <= 1e-14
    assert c[0] == pytest.approx(2.3569e-11, rel=1e-4)


def _eigh_route(state):
    """C of a ThermalState through the eigenvalues of B = sqrt(rho) S sqrt(rho)."""
    return float(_concurrence(state.vectors[None], np.sqrt(state.weights)[None])[0])


LOG_TEMPS = st.floats(math.log10(0.05), 2.0).map(lambda x: 10.0**x)
VALIDATE_BOX = st.tuples(
    st.floats(-50.0, 50.0), st.floats(0.0, 30.0), st.floats(-40.0, 40.0),
    st.floats(-100.0, 100.0), LOG_TEMPS,
)
# eps = 0 and bx down to 1e-10: rho has eigenvalues at round-off level, C ~ 0
NEAR_SEPARABLE = st.tuples(
    st.just(0.0), st.floats(0.0, 30.0), st.floats(-40.0, 40.0),
    st.floats(-10.0, 0.0).map(lambda x: 10.0**x), LOG_TEMPS,
)


def _assert_closed_form_matches_the_eigh_route(point):
    state = thermal_state(ModelParams(*point[:4]), point[4])
    assert abs(concurrence(state) - _eigh_route(state)) <= 1e-13


# Each route's C carries round-off of ~eps * (1 + beta * span), largest on the
# eps = bz = 0 family, where C = 0 and the spectrum is doubly degenerate: over
# 2700 draws of that family (t, bx, T from this box) the worst was 1.74 of it
# for the closed form (3.1e-13) and 0.77 for the eigh route; over 1000 draws
# of the whole box, 0.61 and 0.96.  The two routes' errors there are
# independent, so they are held to the 40-digit reference, not to each other.
C_ROUNDOFF = 8.0


@settings(max_examples=64, deadline=None)
@given(VALIDATE_BOX)
@example((6.805409228283053e-134, 0.1, 0.0, 40.0, 10**-1.28125))  # closed form 1.02e-13, C = 0
def test_closed_form_gibbs_concurrence_matches_the_eigh_route(point):
    state = thermal_state(ModelParams(*point[:4]), point[4])
    span = float(state.energies[-1] - state.energies[0])
    tol = C_ROUNDOFF * sys.float_info.epsilon * (1.0 + (1.0 / state.temperature) * span)
    want = reference(*point).concurrence
    assert abs(concurrence(state) - want) <= tol
    assert abs(_eigh_route(state) - want) <= tol


@settings(max_examples=200, deadline=None)
@given(NEAR_SEPARABLE)
def test_closed_form_gibbs_concurrence_matches_the_eigh_route_near_separability(point):
    _assert_closed_form_matches_the_eigh_route(point)


@pytest.mark.parametrize(
    "point",
    [
        (0.0, 0.0, 0.0, 0.0, 1.0),  # H = 0: maximally mixed
        (1.0, 7.0, 16.0, 0.0, 0.5),  # bx = 0: a product state
        (0.0, 7.0, 0.0, 100.0, 1.0),  # eps = bz = 0: two doubly degenerate levels
        (1.0, 0.0, 16.0, 100.0, 1.0),  # t = 0
        (1.0, 7.0, 16.0, 100.0, 1e-3),  # pi = w0 w3 underflows to 0
        (1.0, 7.0, 16.0, 100.0, 1e6),  # nearly maximally mixed
    ],
    ids=["h0", "bx0", "eps_bz0", "t0", "cold", "hot"],
)
def test_closed_form_gibbs_concurrence_at_special_points(point):
    state = thermal_state(ModelParams(*point[:4]), point[4])
    c = concurrence(state)
    assert c == pytest.approx(_eigh_route(state), abs=1e-13)
    if point[3] == 0.0 or point[4] == 1e6:  # a product state, or nearly maximally mixed
        assert c == 0.0
    if point[4] == 1e-3:
        # the pure ground state g: C = |g^T S g|
        assert state.weights[0] * state.weights[3] == 0.0
        g = state.vectors[:, 0]
        assert c == pytest.approx(abs(g @ SPIN_FLIP @ g), abs=1e-14)


def _full_matrix_gibbs_concurrence(vectors, weights, index):
    """_gibbs_concurrence through the full (N, 4, 4) A = (W - W^T) / 2 of every state."""
    z = (np.swapaxes(vectors, 1, 2) @ (vectors * _SPIN_Z[:, None]))[index]
    r = np.sqrt(weights)
    k = r[:, :, None] * r[:, None, ::-1]
    a = 0.5 * z * (k - np.swapaxes(k, 1, 2))
    p = np.stack([a[:, 0, 1] + a[:, 2, 3], a[:, 0, 2] - a[:, 1, 3], a[:, 0, 3] + a[:, 1, 2]])
    q = np.stack([a[:, 0, 1] - a[:, 2, 3], a[:, 0, 2] + a[:, 1, 3], a[:, 0, 3] - a[:, 1, 2]])
    p, q = np.sqrt((p * p).sum(axis=0)), np.sqrt((q * q).sum(axis=0))
    pi = weights[:, 0] * weights[:, 3]
    return np.maximum(0.0, p + q - np.sqrt((p - q) ** 2 + 4.0 * pi))


@settings(max_examples=64, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 40))
def test_gibbs_concurrence_reads_six_entries_bit_for_bit(seed, distinct, points):
    # random orthonormal bases, shared by points in any order, and weights
    # with exact zeros, as cold states have
    rng = np.random.default_rng(seed)
    vectors = np.linalg.qr(rng.standard_normal((distinct, 4, 4)))[0]
    index = rng.integers(0, distinct, size=points)
    weights = rng.random((points, 4)) * (rng.random((points, 4)) > 0.2)
    weights /= np.maximum(weights.sum(axis=1, keepdims=True), 1e-300)
    got = _gibbs_concurrence(vectors, weights, index)
    want = _full_matrix_gibbs_concurrence(vectors, weights, index)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_concurrence_of_thermal_state_matches_its_matrix():
    state = thermal_state(ModelParams(1.0, 7.0, 16.0, 100.0), 1.0)
    assert concurrence(state) == pytest.approx(concurrence(state.rho), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(VALIDATE_BOX)
def test_the_schur_rotation_diagonalizes_both_reductions(point):
    state = thermal_state(ModelParams(*point[:4]), point[4])
    for reduced in (reduce_a(state), reduce_b(state)):
        u = _rotations(_schur_angles(reduced[None])[0])
        assert abs((u @ reduced @ u.T)[0, 1]) <= 1e-15


def _eigh_rotation_ccc(rho):
    """Ccc with each qubit rotated by the eigh eigenvectors of its reduced state."""
    u = np.kron(np.linalg.eigh(reduce_a(rho))[1], np.linalg.eigh(reduce_b(rho))[1])
    rot = u.T @ rho @ u
    return float(np.abs(rot).sum() - np.abs(np.diag(rot)).sum())


@settings(max_examples=200, deadline=None)
@given(VALIDATE_BOX)
def test_correlated_coherence_matches_the_eigh_rotation(point):
    # the two routes diagonalize the same reduced states with different
    # rotations, which round-off turns by up to ~3 x round-off / gap
    rho = thermal_state(ModelParams(*point[:4]), point[4]).rho
    assert abs(correlated_coherence(rho) - _eigh_rotation_ccc(rho)) * _reduced_gap(rho) <= 1e-11
