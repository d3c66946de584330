import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqdtherm.qmatrix import (
    NotPositiveSemidefiniteError,
    ValidationError,
    check_density_matrix,
    check_symmetric,
    eig_sym,
    raise_first,
)

def random_symmetric(rng, n=4, scale=10.0):
    m = rng.uniform(-scale, scale, size=(n, n))
    return 0.5 * (m + m.T)


def test_eig_identity():
    dec = eig_sym(np.eye(4))
    assert np.allclose(dec.values, 1.0)
    assert np.max(np.abs(dec.vectors.T @ dec.vectors - np.eye(4))) < 1e-10


def test_eig_diagonal_is_sorted_with_permutation_vectors():
    dec = eig_sym(np.diag([3.0, 1.0, 2.0, 0.0]))
    assert np.allclose(dec.values, [0.0, 1.0, 2.0, 3.0])
    # each eigenvector is +-(a coordinate axis)
    assert np.allclose(np.abs(dec.vectors), np.eye(4)[:, [3, 1, 2, 0]])


def test_eig_hamiltonian_example():
    h = np.array(
        [
            [8.0, 50.0, 7.0, 0.0],
            [50.0, -8.0, 0.0, 7.0],
            [7.0, 0.0, 8.0, -50.0],
            [0.0, 7.0, -50.0, -8.0],
        ]
    )
    dec = eig_sym(h)
    assert np.allclose(dec.values, [-52.2015, -50.0100, 50.0100, 52.2015], atol=1e-4)


def test_eig_random_reconstruction_and_orthonormality():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = random_symmetric(rng)
        dec = eig_sym(m)
        scale = max(1.0, np.max(np.abs(m)))
        recon = (dec.vectors * dec.values) @ dec.vectors.T
        assert np.max(np.abs(recon - m)) <= 1e-10 * scale
        assert np.max(np.abs(dec.vectors.T @ dec.vectors - np.eye(4))) <= 1e-10
        assert np.all(np.diff(dec.values) >= 0.0)


def test_eig_2x2():
    dec = eig_sym(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.allclose(dec.values, [-1.0, 3.0])


def test_eig_deterministic():
    rng = np.random.default_rng(5)
    m = random_symmetric(rng)
    first = eig_sym(m)
    second = eig_sym(m)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=10, max_size=10))
def test_eig_property_reconstruction(entries):
    m = np.zeros((4, 4))
    m[np.triu_indices(4)] = entries
    m = m + np.triu(m, 1).T
    dec = eig_sym(m)
    scale = max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs((dec.vectors * dec.values) @ dec.vectors.T - m)) <= 1e-10 * scale


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.full((4, 4), np.nan),
        np.ones((2, 3)),
        1j * np.eye(2),  # cast to float, it was the zero matrix
        np.full((2, 3, 3), np.nan),
        "not a matrix",
        [[1.0, 0.0], [0.0]],  # ragged
        [[10**400, 0], [0, 1]],  # too large for a float
        [["1", "2"], ["2", "1"]],  # numeric text, which numpy would parse
    ],
)
def test_eig_rejects_invalid(bad):
    with pytest.raises(ValidationError):
        eig_sym(bad)


def test_an_object_array_of_ints_beyond_int64_is_read_as_floats():
    big = 2**70  # too large for int64 and uint64, so numpy holds Python ints
    m = np.array([[big, 0], [0, 1]])
    assert m.dtype == object
    assert eig_sym(m).values.tolist() == [1.0, float(big)]


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 4, 4)])
def test_an_empty_matrix_or_stack_decomposes_to_an_empty_decomposition(shape):
    dec = eig_sym(np.zeros(shape))
    assert dec.values.shape == shape[:-1] and dec.vectors.shape == shape


def test_empty_matrices_are_refused_as_density_matrices():
    with pytest.raises(ValidationError, match="trace is 0.0, expected 1"):
        check_density_matrix(np.zeros((0, 0)))
    with pytest.raises(ValidationError, match=r"got shape \(3, 0, 0\)"):
        check_density_matrix(np.zeros((3, 0, 0)))


def test_check_symmetric_scale_relative():
    m = np.array([[100.0, 50.0], [50.0 + 1e-11, 100.0]])
    check_symmetric(m)  # within 1e-12 * 100
    with pytest.raises(ValidationError):
        check_symmetric(np.array([[1.0, 1e-3], [0.0, 1.0]]))


def test_check_density_matrix():
    check_density_matrix(np.eye(4) / 4.0, dim=4)
    with pytest.raises(ValidationError):
        check_density_matrix(np.eye(4) / 2.0)  # trace 2
    with pytest.raises(ValidationError):
        check_density_matrix(np.eye(2) / 2.0, dim=4)  # wrong size
    with pytest.raises(NotPositiveSemidefiniteError):
        check_density_matrix(np.diag([0.75, 0.75, -0.25, -0.25]))
    hermitian = np.eye(4, dtype=complex) / 4.0
    hermitian[0, 1], hermitian[1, 0] = 0.1j, -0.1j
    with pytest.raises(ValidationError, match="density matrix must be real"):
        check_density_matrix(hermitian)  # cast to float, its coherence was dropped


def test_check_density_matrix_accepts_roundoff_negatives_only():
    # eigenvalues down to -1e-12 are round-off of a PSD matrix; below that, not
    check_density_matrix(np.diag([0.5, 0.5 + 0.5e-12, -0.5e-12, 0.0]))
    with pytest.raises(NotPositiveSemidefiniteError):
        check_density_matrix(np.diag([0.5, 0.5 + 2e-12, -2e-12, 0.0]))


def test_the_eigensolver_route_refuses_a_negative_weight_and_not_a_skewed_basis():
    # V diag(w) V^T, unit trace each: one weight -0.25 on the identity basis,
    # then uniform weights on a basis skewed by 1e-6, which is still PSD
    skewed = np.eye(4)
    skewed[0, 1] = 1e-6
    flagged = []
    for i, (w, v) in enumerate([([0.25] * 4, np.eye(4)), ([0.5, 0.5, 0.25, -0.25], np.eye(4)),
                                ([0.25] * 4, skewed)]):
        rho = (v * np.array(w)) @ v.T
        try:
            check_density_matrix(0.5 * (rho + rho.T))
        except NotPositiveSemidefiniteError:
            flagged.append(i)
    assert flagged == [1]


def _check(flags, name):
    return np.array(flags, dtype=bool), lambda i: ValidationError(f"{name} fails at {i}")


def test_raise_first_raises_the_lowest_flagged_index_over_all_checks():
    checks = [_check([0, 0, 0, 1], "first"), _check([0, 1, 1, 0], "second")]
    with pytest.raises(ValidationError, match="^second fails at 1$"):
        raise_first(checks)


def test_raise_first_takes_the_earliest_check_at_a_tied_index():
    checks = [_check([0, 0, 1], "first"), _check([0, 0, 1], "second"), _check([0, 1, 0], "third")]
    with pytest.raises(ValidationError, match="^third fails at 1$"):
        raise_first(checks)
    with pytest.raises(ValidationError, match="^first fails at 2$"):
        raise_first(checks[:2])
    with pytest.raises(ValidationError, match="^second fails at 2$"):
        raise_first(checks[:2][::-1])


def test_raise_first_returns_none_when_nothing_is_flagged():
    assert raise_first([_check([0, 0], "first"), _check([0, 0], "second")]) is None
    assert raise_first([]) is None


def test_raise_first_names_the_element_through_where():
    with pytest.raises(OverflowError) as info:
        raise_first(
            [(np.array([False, True]), lambda i: OverflowError("too large"))],
            lambda i: {"T": [1.0, 2.0][i]},
        )
    assert str(info.value) == "too large at {'T': 2.0}"
