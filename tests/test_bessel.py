import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from superhyp import bessel, hyperbolic
from superhyp.errors import DomainError


def ascending_oracle(k, x, terms=30):
    # brute-force reference with explicit factorials
    return sum(
        (x / 2.0) ** (2 * m + k) / (math.factorial(m) * math.factorial(m + k))
        for m in range(terms)
    )


def test_values_at_zero():
    assert bessel.bessel_i(0, 0.0) == 1.0
    for k in (1, 2, 7, -3):
        assert bessel.bessel_i(k, 0.0) == 0.0


def test_order_zero_and_one_at_unit_argument():
    assert abs(bessel.bessel_i(0, 1.0) - 1.2660658777520082) <= 1e-14
    assert abs(bessel.bessel_i(1, 1.0) - 0.565159103992485) <= 1e-14


@pytest.mark.parametrize("x", [0.3, 1.0, 4.0, 9.0])
def test_matches_ascending_oracle(x):
    for k in range(0, 12):
        expected = ascending_oracle(k, x)
        assert abs(bessel.bessel_i(k, x) - expected) <= 1e-13 * max(expected, 1e-30)


def test_matches_scipy_over_wide_range():
    for x in (0.5, 2.0, 10.0, 25.0, 60.0):
        for k in (0, 1, 5, 20, 35, 50):
            ours = bessel.bessel_i(k, x)
            ref = scipy.special.iv(k, x)
            if ref == 0.0:
                assert abs(ours) <= 1e-300
            else:
                assert abs(ours - ref) <= 1e-11 * abs(ref)


def test_negative_order_symmetry_is_exact():
    for x in (0.7, 13.0):
        for k in (1, 4, 9):
            assert bessel.bessel_i(-k, x) == bessel.bessel_i(k, x)


def test_negative_argument_parity():
    for k in range(6):
        plus = bessel.bessel_i(k, 2.0)
        minus = bessel.bessel_i(k, -2.0)
        assert minus == ((-1.0) ** k) * plus


def test_overflow_domain_rejected():
    with pytest.raises(DomainError):
        bessel.bessel_i(0, 701.0)
    with pytest.raises(DomainError):
        bessel.bessel_table(5, -701.0)


def test_huge_argument_stays_finite():
    value = bessel.bessel_i(0, 700.0)
    assert math.isfinite(value)
    # leading asymptotic term exp(x)/sqrt(2 pi x)
    assert abs(value - math.exp(700.0) / math.sqrt(2 * math.pi * 700.0)) <= 1e-3 * value


@pytest.mark.parametrize("k, x", [(1000, 500.0), (1500, 700.0)])
def test_large_orders_do_not_underflow(k, x):
    # orders far below the head of the Miller pass are still normal doubles
    expected = float(mpmath.besseli(k, x))
    assert bessel.bessel_i(k, x) == pytest.approx(expected, rel=1e-10, abs=0.0)
    assert bessel.bessel_table(k, x).values[k] == pytest.approx(expected, rel=1e-10, abs=0.0)


def _loop_miller_values(kmax, x):
    """Reference: the former backward pass, indexing numpy arrays at every step."""
    m_start = bessel.miller_start_order(kmax, x)
    p = np.zeros(m_start + 2)
    p[m_start] = 1.0
    missed = np.zeros(m_start + 2, dtype=int)
    for m in range(m_start, 0, -1):
        p[m - 1] = p[m + 1] + (2.0 * m / x) * p[m]
        if p[m - 1] > bessel._RESCALE_LIMIT:
            p[m - 1:m + 1] *= 1.0 / bessel._RESCALE_LIMIT
            missed[m + 1] -= bessel._RESCALE_BITS
    shift = np.cumsum(missed)
    scaled = np.ldexp(p, shift)
    mantissa, exponent = math.frexp(math.exp(x) / (scaled[0] + 2.0 * scaled[1:].sum()))
    return np.ldexp(p * mantissa, shift + exponent)


@pytest.mark.parametrize("kmax", [0, 1, 30, 127, 2000, 3000])
def test_miller_values_match_the_numpy_indexed_loop_bit_for_bit(kmax):
    # the pass rescales its live iterates at every x once kmax >= 127, and at
    # every kmax for x >= 500 (up to 113 rescales at kmax = 3000, x = 1e-6)
    for x in (1e-6, 0.03, 1.5, 5.0, 40.0, 500.0, 690.0):
        assert bessel._miller_values(kmax, x).tobytes() == _loop_miller_values(kmax, x).tobytes(), x
    # a negative argument reaches the same pass through bessel_table
    want = _loop_miller_values(kmax, 690.0)[: kmax + 1]
    want[1::2] *= -1.0
    assert bessel.bessel_table(kmax, -690.0).values.tobytes() == want.tobytes()


def test_table_at_zero():
    table = bessel.bessel_table(10, 0.0)
    np.testing.assert_array_equal(table.values, [1.0] + [0.0] * 10)
    assert table.norm_residual == 0.0


def test_table_normalization_residual():
    assert bessel.bessel_table(20, 1.0).norm_residual <= 1e-12 * math.e
    for x in (0.5, 5.0, 10.0, 50.0, 300.0):
        assert bessel.bessel_table(10, x).norm_residual <= 1e-11 * math.exp(x)


def test_table_matches_per_order_values():
    table = bessel.bessel_table(20, 5.0)
    for k in range(21):
        single = bessel.bessel_i(k, 5.0)
        assert abs(table.values[k] - single) <= 1e-11 * max(single, 1e-300)


def test_table_signed_values_for_negative_argument():
    plus = bessel.bessel_table(8, 3.0).values
    minus = bessel.bessel_table(8, -3.0).values
    np.testing.assert_array_equal(minus, plus * (-1.0) ** np.arange(9))


def test_table_tiny_arguments_stay_finite():
    # the backward recurrence cannot run this low; the table must still
    # come out right from the series fallback
    for x in (1e-60, 1e-12, 1e-7):
        table = bessel.bessel_table(10, x)
        assert abs(table.values[0] - 1.0) <= 4e-15  # I_0(x) = 1 + x^2/4 + ...
        assert abs(table.values[1] - x / 2) <= 1e-11 * (x / 2)
        assert np.isfinite(table.values).all()
        assert table.norm_residual <= 1e-11 * math.exp(x)


def test_table_tail_strictly_decreasing():
    for x in (0.5, 5.0, 12.0):
        table = bessel.bessel_table(int(x) + 15, x)
        start = max(0, int(math.ceil(x)))
        tail = table.values[start:]
        assert np.all(tail[:-1] > tail[1:])


def test_classic_identities_at_zero():
    residuals = bessel.classic_identity_residuals(0.0, 40)
    assert residuals == (0.0, 0.0, 0.0, 0.0)


def test_classic_identities_at_one():
    residuals = bessel.classic_identity_residuals(1.0, 40)
    assert max(residuals) <= 1e-12


def test_classic_identities_at_ten():
    residuals = bessel.classic_identity_residuals(10.0, 80)
    assert max(residuals) <= 1e-10 * math.exp(10.0)


def test_classic_identities_truncation_guard():
    with pytest.raises(DomainError):
        bessel.classic_identity_residuals(1.0, 10)


@pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 10.0])
def test_three_term_recurrence(x):
    table = bessel.bessel_table(22, x).values
    for k in range(1, 21):
        lhs = table[k - 1] - table[k + 1]
        rhs = (2.0 * k / x) * table[k]
        assert abs(lhs - rhs) <= 1e-9 * abs(table[k - 1])


def test_generating_function_residual_unit_weight():
    assert bessel.generating_function_residual(2.0, 1.0, 60) <= 1e-11 * math.exp(2.0)


def test_generating_function_residual_at_zero_argument():
    assert bessel.generating_function_residual(0.0, 0.7 + 0.1j, 40) == 0.0


def test_generating_function_residual_imaginary_unit():
    # w + 1/w vanishes at w = i, so the reference value collapses to 1
    assert bessel.generating_function_residual(1.0, 1j, 40) <= 1e-12


def test_generating_function_rejects_zero_weight():
    with pytest.raises(DomainError):
        bessel.generating_function_residual(1.0, 0.0, 40)
    with pytest.raises(DomainError):
        bessel.generating_function_residual(0.0, 1e-200, 40)


@pytest.mark.parametrize("x, w", [(1.0, 50.0), (1.0, 0.02), (-1.0, 50j)])
def test_generating_function_at_the_weight_bound_past_181_orders(x, w):
    # 50^300 alone would overflow; orders whose I_k(x) underflowed add nothing
    residual = bessel.generating_function_residual(x, w, 300)
    assert residual <= 1e-12 * math.exp(bessel.unit_scale(x, w))


def test_generating_function_weights_share_one_table(monkeypatch):
    weights = [1.0, 0.8, cmath.exp(1j * math.pi / 5), 1.7 - 0.4j, 10.0]
    for x in (0.0, 0.5, -1.0, 5.0):
        one = [bessel.generating_function_residual(x, w, 60) for w in weights]
        tables = []
        table = bessel.bessel_table
        with monkeypatch.context() as patch:
            patch.setattr(bessel, "bessel_table", lambda kmax, arg: tables.append(arg) or table(kmax, arg))
            many = bessel.generating_function_residual(x, np.array(weights), 60)
        assert tables == [x]
        assert many.tobytes() == np.array(one).tobytes()
        assert bessel.generating_function_residual(x, weights, 60).tobytes() == many.tobytes()


def test_generating_function_weights_raise_their_one_weight_error():
    for x, weights, bad in ((1.0, [1.0, 0.0, 60.0], 1), (1.0, [0.8, 60.0], 1), (0.0, [1.0, 1e-200], 1)):
        with pytest.raises(DomainError) as one:
            bessel.generating_function_residual(x, weights[bad], 40)
        with pytest.raises(DomainError) as many:
            bessel.generating_function_residual(x, weights, 40)
        assert str(many.value) == str(one.value)
    for weights in ([[1.0]], ["a"], [None], [[1.0], [1.0, 2.0]]):
        with pytest.raises(DomainError, match="invalid-grid"):
            bessel.generating_function_residual(1.0, weights, 40)


def test_generating_function_residual_monotone_in_truncation():
    scale = math.exp(10.0)
    residuals = [
        bessel.generating_function_residual(10.0, 1.0, K) for K in (12, 16, 20, 24, 28)
    ]
    for earlier, later in zip(residuals, residuals[1:]):
        assert later <= earlier + 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(x=st.floats(0.1, 8.0), k=st.integers(1, 15))
def test_recurrence_property(x, k):
    i_prev = bessel.bessel_i(k - 1, x)
    i_next = bessel.bessel_i(k + 1, x)
    i_mid = bessel.bessel_i(k, x)
    assert abs(i_prev - i_next - (2.0 * k / x) * i_mid) <= 1e-9 * abs(i_prev)


def test_even_order_sum_matches_sectioned_cosh():
    for x in (0.5, 2.0, 6.0):
        table = bessel.bessel_table(60, x).values
        even_sum = table[0] + 2.0 * table[2::2].sum()
        assert abs(hyperbolic.c_series(2, 0, x) - even_sum) <= 1e-10 * math.exp(x)
