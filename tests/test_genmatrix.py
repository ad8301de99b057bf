import cmath
import math

import numpy as np
import pytest
import scipy.special

from superhyp import algebra, bessel, genmatrix
from superhyp.errors import DomainError

W_SET = (1.0 + 0j, 0.8 + 0j, cmath.exp(1j * math.pi / 5))


def test_two_levels_unit_weight_is_cosh_sinh():
    for x in (0.4, 1.0, 2.0):
        m = genmatrix.generating_matrix(2, x, 1.0).matrix
        expected = np.array(
            [[math.cosh(x), math.sinh(x)], [math.sinh(x), math.cosh(x)]], dtype=complex
        )
        assert np.abs(m - expected).max() <= 1e-13 * math.exp(x)


def test_two_levels_general_weight_uses_combined_argument():
    x, w = 1.3, 0.8
    u = (x / 2.0) * (w + 1.0 / w)
    m = genmatrix.generating_matrix(2, x, w).matrix
    assert abs(m[0, 0] - math.cosh(u)) <= 1e-13 * math.exp(u)
    assert abs(m[1, 0] - math.sinh(u)) <= 1e-13 * math.exp(u)


def test_zero_argument_gives_identity():
    for n in (2, 5):
        m = genmatrix.generating_matrix(n, 0.0, 0.8 + 0.1j).matrix
        assert np.abs(m - np.eye(n)).max() <= 1e-14


def test_matrix_is_exactly_circulant():
    m = genmatrix.generating_matrix(5, 1.2, 0.8 + 0.2j).matrix
    col = m[:, 0]
    for i in range(5):
        for k in range(5):
            assert m[i, k] == col[(i - k) % 5]


def test_matches_dense_exponential():
    for n in (2, 3, 6):
        for x in (0.5, 2.0):
            for w in W_SET:
                s = algebra.shift_matrix(n)
                dense = algebra.mat_exp((x / 2.0) * (w * s + s.conj().T / w))
                spectral = genmatrix.generating_matrix(n, x, w).matrix
                scale = math.exp(genmatrix.unit_scale(x, w))
                assert np.abs(dense - spectral).max() <= 1e-12 * scale


def test_first_column_collects_order_classes():
    x = 1.0
    table = bessel.bessel_table(40, x).values
    col = genmatrix.generating_matrix(3, x, 1.0).matrix[:, 0]
    for m in range(3):
        orders = [3 * k + m for k in range(-13, 14) if abs(3 * k + m) <= 40]
        expected = sum(table[abs(o)] for o in orders)
        assert abs(col[m] - expected) <= 1e-11 * math.exp(x)


def test_real_weight_gives_real_matrix():
    for w in (1.0, 0.8):
        m = genmatrix.generating_matrix(4, 1.5, w).matrix
        assert np.abs(m.imag).max() <= 1e-12


def test_unit_weight_gives_symmetric_matrix():
    m = genmatrix.generating_matrix(5, 2.0, 1.0).matrix
    assert np.abs(m - m.T).max() <= 1e-12


def test_weight_guards():
    with pytest.raises(DomainError):
        genmatrix.generating_matrix(3, 1.0, 0.0)
    with pytest.raises(DomainError):
        genmatrix.generating_matrix(3, 60.0, 1.0)
    with pytest.raises(DomainError):
        genmatrix.generating_matrix(3, 30.0, 0.2)  # 30 / 0.2 = 150 over the cap


def test_trace_projection_two_levels_is_cosh():
    value = genmatrix.trace_projection(2, 1.0, 1.0, 0)
    assert abs(value - 1.5430806348152437) <= 1e-13
    assert abs(value.imag) <= 1e-14


def test_trace_projection_at_zero():
    for n in (2, 4):
        assert abs(genmatrix.trace_projection(n, 0.0, 1.0, 0) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [2, 5, 64])
def test_trace_projection_is_trace_of_product_with_shift_power(n):
    # the rolled-view trace against the literal product with the permutation
    x, w = 1.3, 0.8 + 0.2j
    m = genmatrix.generating_matrix(n, x, w).matrix
    for j in range(n):
        expected = np.trace(m @ algebra.shift_power(n, j)) / n
        assert genmatrix.trace_projection(n, x, w, j) == expected


def test_first_row_matches_direct_sum_at_large_n():
    # row 0 holds every class value; exponential_sum sums them without the FFT
    n = 256
    for x in (0.5, 2.0):
        for w in W_SET:
            row = genmatrix.generating_matrix(n, x, w).matrix[0]
            direct = [genmatrix.exponential_sum(n, x, w, j) for j in range(n)]
            scale = math.exp(genmatrix.unit_scale(x, w))
            assert np.abs(row - direct).max() <= 1e-11 * scale


def test_trace_projection_three_levels_order_class():
    x = 1.0
    table = bessel.bessel_table(40, x).values
    orders = [3 * k - 1 for k in range(-13, 14) if abs(3 * k - 1) <= 40]
    expected = sum(table[abs(o)] for o in orders)
    assert abs(genmatrix.trace_projection(3, x, 1.0, 1) - expected) <= 1e-11 * math.exp(x)


def test_exponential_sum_three_levels_closed_form():
    # the exponents (x/2)(s^l + s^(-l)) are real, x*cos(2*pi*l/3), so the
    # complex sum collapses to (exp(x) + 2 exp(-x/2)) / 3
    for x in (0.5, 1.0, 2.0):
        value = genmatrix.exponential_sum(3, x, 1.0, 0)
        expected = (math.exp(x) + 2 * math.exp(-x / 2)) / 3
        assert abs(value.imag) <= 1e-14 * math.exp(x)
        assert abs(value.real - expected) <= 1e-13 * math.exp(x)


def test_exponential_sum_at_zero_is_kronecker_delta():
    for n in (2, 3, 5):
        for j in range(n):
            value = genmatrix.exponential_sum(n, 0.0, 0.8, j)
            assert abs(value - (1.0 if j == 0 else 0.0)) <= 1e-15


def test_exponential_sum_two_levels_is_sinh():
    for x in (0.5, 2.0):
        value = genmatrix.exponential_sum(2, x, 1.0, 1)
        assert abs(value - math.sinh(x)) <= 1e-13 * math.exp(x)


def test_bilateral_sum_two_levels_is_cosh():
    K = genmatrix.default_comb_truncation(2, 1.0, 1.0, 0)
    value = genmatrix.bessel_comb_series(2, 1.0, 1.0, 0, K)
    assert abs(value - 1.5430806348152437) <= 1e-12


def test_bilateral_sum_at_zero():
    for n in (2, 3):
        for j in range(n):
            K = genmatrix.default_comb_truncation(n, 0.0, 1.0, j)
            value = genmatrix.bessel_comb_series(n, 0.0, 1.0, j, K)
            assert abs(value - (1.0 if j == 0 else 0.0)) <= 1e-15


def test_bilateral_sum_matches_trace():
    K = genmatrix.default_comb_truncation(3, 2.0, 1.0, 2)
    comb = genmatrix.bessel_comb_series(3, 2.0, 1.0, 2, K)
    trace = genmatrix.trace_projection(3, 2.0, 1.0, 2)
    assert abs(comb - trace) <= 1e-10


def test_bilateral_sum_truncation_guard():
    with pytest.raises(DomainError):
        genmatrix.bessel_comb_series(3, 2.0, 1.0, 0, 10)


def test_default_truncation_ends_on_complete_period():
    for n in (2, 5, 12, 40):
        for j in (0, 1, n - 1):
            K = genmatrix.default_comb_truncation(n, 1.0, 0.8, j)
            assert (K - j) % n == 0
            assert K >= n + 1.0 + 20


def test_three_way_agreement_over_grid():
    for n in range(2, 7):
        for x in (0.5, 1.0, 2.0):
            for w in W_SET:
                scale = math.exp(genmatrix.unit_scale(x, w))
                for j in range(n):
                    tr = genmatrix.trace_projection(n, x, w, j)
                    es = genmatrix.exponential_sum(n, x, w, j)
                    K = genmatrix.default_comb_truncation(n, x, w, j)
                    comb = genmatrix.bessel_comb_series(n, x, w, j, K)
                    assert abs(tr - es) <= 1e-11 * scale
                    assert abs(tr - comb) <= 1e-9 * scale


def test_class_partition_reassembles_generating_function():
    for n in (2, 3, 5):
        for x in (0.5, 2.0):
            for w in W_SET:
                total = sum(genmatrix.trace_projection(n, x, w, j) for j in range(n))
                expected = cmath.exp((x / 2.0) * (w + 1.0 / w))
                scale = math.exp(genmatrix.unit_scale(x, w))
                assert abs(total - expected) <= 1e-9 * scale


def test_order_classes_against_independent_bessel():
    # the three class sums at n=3, checked against scipy's Bessel values
    x, w = 1.0, cmath.exp(1j * math.pi / 5)
    for j in range(3):
        expected = 0j
        for k in range(-15, 16):
            order = 3 * k - j
            expected += scipy.special.iv(abs(order), x) * w**order
        assert abs(genmatrix.trace_projection(3, x, w, j) - expected) <= 1e-10
