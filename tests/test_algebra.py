import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhyp import algebra
from superhyp.errors import DomainError


def max_abs(m):
    return float(np.abs(m).max())


def test_shift_matrix_two_levels():
    np.testing.assert_array_equal(
        algebra.shift_matrix(2), np.array([[0, 1], [1, 0]], dtype=complex)
    )


def test_shift_matrix_three_levels():
    np.testing.assert_array_equal(
        algebra.shift_matrix(3),
        np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex),
    )


def test_shift_matrix_fourth_power_is_identity():
    s = algebra.shift_matrix(4)
    np.testing.assert_array_equal(np.linalg.matrix_power(s, 4), np.eye(4, dtype=complex))


def test_clock_matrix_two_levels():
    np.testing.assert_allclose(algebra.clock_matrix(2), np.diag([1.0, -1.0]), atol=1e-15)


def test_clock_matrix_three_levels():
    sigma = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(
        algebra.clock_matrix(3), np.diag([1.0, sigma, sigma**2]), atol=1e-15
    )


@pytest.mark.parametrize("n", range(2, 9))
def test_clock_matrix_has_order_n(n):
    c = algebra.clock_matrix(n)
    assert max_abs(np.linalg.matrix_power(c, n) - np.eye(n)) <= 1e-13


@pytest.mark.parametrize("n", [1, 0, -3])
def test_invalid_dimensions_rejected(n):
    with pytest.raises(DomainError):
        algebra.shift_matrix(n)
    with pytest.raises(DomainError):
        algebra.clock_matrix(n)
    with pytest.raises(DomainError):
        algebra.dft_matrix(n)


def test_dft_matrix_two_levels():
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(algebra.dft_matrix(2), expected, atol=1e-15)


def test_dft_matrix_three_levels():
    sigma = np.exp(2j * np.pi / 3)
    expected = np.array(
        [[1, 1, 1], [1, sigma**2, sigma], [1, sigma, sigma**2]], dtype=complex
    ) / np.sqrt(3)
    np.testing.assert_allclose(algebra.dft_matrix(3), expected, atol=1e-14)


@pytest.mark.parametrize("n", range(2, 17))
def test_dft_matrix_unitary(n):
    w = algebra.dft_matrix(n)
    assert max_abs(w @ w.conj().T - np.eye(n)) <= 1e-13


@pytest.mark.parametrize("n", range(2, 13))
def test_dft_matrix_symmetric(n):
    w = algebra.dft_matrix(n)
    assert max_abs(w - w.T) == 0.0


def test_diagonalize_shift_residual_small():
    assert algebra.diagonalize_shift_residual(2) <= 1e-15
    assert algebra.diagonalize_shift_residual(3) <= 1e-13


def test_diagonalize_shift_residual_matches_direct_product():
    # independent route: form the conjugated clock and compare entrywise
    for n in (2, 5, 11, 64):
        w = algebra.dft_matrix(n)
        direct = max_abs(algebra.shift_matrix(n) - w @ algebra.clock_matrix(n) @ w.conj().T)
        assert algebra.diagonalize_shift_residual(n) == direct
        assert direct <= 1e-12


def test_mat_exp_of_zero_is_identity():
    np.testing.assert_array_equal(algebra.mat_exp(np.zeros((4, 4))), np.eye(4, dtype=complex))


def test_mat_exp_of_diagonal():
    d = algebra.mat_exp(np.diag([0.3 + 0.1j, -1.2]))
    np.testing.assert_allclose(d, np.diag(np.exp([0.3 + 0.1j, -1.2])), rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-5, 5))
def test_mat_exp_of_scaled_swap_gives_cosh_sinh(x):
    e = algebra.mat_exp(x * algebra.shift_matrix(2))
    expected = np.array(
        [[math.cosh(x), math.sinh(x)], [math.sinh(x), math.cosh(x)]], dtype=complex
    )
    assert max_abs(e - expected) <= 1e-12 * math.exp(abs(x))


def test_mat_exp_commuting_factorization():
    s = algebra.shift_matrix(5)
    a = 2.0 * s + 1.5 * np.linalg.matrix_power(s, 3)
    b = -1.0 * np.linalg.matrix_power(s, 2) + 0.5 * np.eye(5)
    lhs = algebra.mat_exp(a + b)
    rhs = algebra.mat_exp(a) @ algebra.mat_exp(b)
    assert max_abs(lhs - rhs) <= 1e-11


def test_mat_exp_determinant_equals_exp_trace():
    rng = np.random.default_rng(7)
    for n in (2, 5, 16):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= 2.0 / np.abs(a).sum(axis=0).max()
        det = algebra.determinant(algebra.mat_exp(a))
        expected = np.exp(np.trace(a))
        assert abs(det - expected) <= 1e-10 * abs(expected)


def test_mat_exp_rejects_bad_input():
    with pytest.raises(DomainError):
        algebra.mat_exp(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(DomainError):
        algebra.mat_exp(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        algebra.mat_exp(np.eye(2), tol=1e-3)
    with pytest.raises(DomainError):
        algebra.mat_exp(np.eye(2), tol=0.0)


def test_determinant_identity():
    assert algebra.determinant(np.eye(6)) == 1.0 + 0j


def test_determinant_of_shift_is_one():
    # cofactor expansion by hand: even cyclic permutation of three rows
    assert abs(algebra.determinant(algebra.shift_matrix(3)) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", range(2, 9))
def test_determinant_of_clock_closed_form(n):
    sigma = algebra.primitive_root(n)
    expected = sigma ** (n * (n - 1) // 2)
    assert abs(algebra.determinant(algebra.clock_matrix(n)) - expected) <= 1e-13


def test_determinant_exact_on_permutations():
    p = np.eye(5)[[4, 0, 3, 1, 2]]
    sign = np.linalg.det(p)  # +-1 up to rounding
    assert abs(algebra.determinant(p) - round(sign)) <= 1e-14


def test_determinant_rejects_non_finite():
    with pytest.raises(DomainError):
        algebra.determinant(np.array([[np.nan, 0], [0, 1]]))


def test_determinant_of_singular_matrix():
    assert algebra.determinant(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0j


@pytest.mark.parametrize("n", range(2, 17))
def test_context_relations_hold(n):
    residuals = algebra.pauli_residuals(n)
    assert max(residuals.values()) <= 1e-13, residuals


def test_shift_power_matches_repeated_product():
    s = algebra.shift_matrix(5)
    for j in range(7):
        np.testing.assert_array_equal(
            algebra.shift_power(5, j), np.linalg.matrix_power(s, j % 5)
        )
