"""The shared argument-validation layer and the size caps, tested by their error paths."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhyp import algebra, bessel, circle, cli, genmatrix, hyperbolic
from superhyp.errors import (
    ARG_MAX,
    MAX_GRID_POINTS,
    MAX_LEVEL,
    MAX_ORDER,
    DomainError,
    require_half_width,
    require_index,
    require_int,
    require_level,
    require_order,
    require_x,
    unit_scale,
)

ANY_VALUE = st.one_of(
    st.integers(),
    st.sampled_from([10**400, -(10**400), 2**63, MAX_LEVEL, MAX_LEVEL + 1, MAX_ORDER + 1]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.none(),
    st.text(max_size=8),
)

INTEGER_CHECKS = [
    require_level,
    lambda v: require_index(v, 7),
    require_order,
    lambda v: require_order(v, -MAX_ORDER),
    require_half_width,
    lambda v: require_int(v, "v", -5, 5),
]


@settings(max_examples=300, deadline=None)
@given(ANY_VALUE)
def test_integer_checks_return_int_or_raise_domain_error(value):
    for check in INTEGER_CHECKS:
        try:
            result = check(value)
        except DomainError:
            continue
        assert type(result) is int
        assert result == value and not isinstance(value, bool)


@settings(max_examples=300, deadline=None)
@given(ANY_VALUE)
def test_real_checks_return_float_or_raise_domain_error(value):
    try:
        result = require_x(value, 700.0)
    except DomainError:
        return
    assert type(result) is float and abs(result) <= 700.0
    assert not isinstance(value, bool)


@settings(max_examples=300, deadline=None)
@given(ANY_VALUE, ANY_VALUE)
def test_unit_scale_returns_bounded_float_or_raises_domain_error(x, w):
    try:
        scale = unit_scale(x, w)
    except DomainError:
        return
    assert type(scale) is float and 0.0 <= scale <= ARG_MAX
    r = abs(complex(w))
    assert max(r, 1.0 / r) <= ARG_MAX


@pytest.mark.parametrize(
    "value",
    [2.5, math.nan, math.inf, -math.inf, True, 1 + 0j, "3", None]
    + [10**400, -(10**400), 1e300, MAX_LEVEL + 1],
)
def test_integer_check_rejects_non_integers_and_huge_values_without_overflow_error(value):
    with pytest.raises(DomainError):
        require_level(value)


def test_integer_check_accepts_integral_numbers():
    assert require_level(3.0) == 3
    assert require_index(0, 2) == 0
    assert require_order(-4, -10) == -4
    assert require_level(MAX_LEVEL) == MAX_LEVEL


def test_weight_bound_holds_on_its_own_at_zero_argument():
    assert unit_scale(0.0, 1.0 / ARG_MAX) == 0.0
    for w in (1e-200, 1e200, 1.0 / (ARG_MAX * 1.01), 0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            unit_scale(0.0, w)


def test_size_caps_raise_before_allocating():
    # each call would need gigabytes or an unbounded loop past its cap
    with pytest.raises(DomainError):
        algebra.shift_matrix(MAX_LEVEL + 1)
    with pytest.raises(DomainError):
        hyperbolic.exp_circulant(10**9, 1.0)
    with pytest.raises(DomainError):
        genmatrix.generating_matrix(10**9, 1.0, 1.0)
    with pytest.raises(DomainError):
        circle.build_lattice((MAX_LEVEL + 1) // 2)
    with pytest.raises(DomainError):
        bessel.bessel_table(MAX_ORDER + 1, 1.0)
    with pytest.raises(DomainError):
        bessel.bessel_i(10**12, 1.0)


def test_sizes_in_use_stay_admitted():
    assert require_level(2048) == 2048
    assert require_order(2000) == 2000
    assert require_half_width(200) == 200


def test_grid_cap_is_checked_on_the_count():
    # one point over the cap, and a range whose list could not be built at all
    with pytest.raises(ValueError):
        cli.parse_grid(f"0..{MAX_GRID_POINTS}")
    with pytest.raises(ValueError):
        cli.parse_grid("0..1e300")
    with pytest.raises(ValueError):
        cli.parse_grid("0..1:1e-320")
    with pytest.raises(ValueError):
        cli.parse_grid(",".join(["1"] * (MAX_GRID_POINTS + 1)))
    assert len(cli.parse_grid(f"1..{MAX_GRID_POINTS}")) == MAX_GRID_POINTS


@pytest.mark.parametrize("text", ["inf", "-inf", "1e400", "nan", "0..1:0.5", "3..1"])
def test_int_grid_rejects_non_integers_with_value_error(text):
    with pytest.raises(ValueError):
        cli.parse_int_grid(text)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.text(alphabet="0123456789.,:-+eEinfa ", max_size=24),
        st.builds(
            lambda a, b, s: f"{a}..{b}:{s}",
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
    )
)
def test_parsers_return_or_raise_value_error(text):
    for parse in (cli.parse_grid, cli.parse_int_grid, cli.parse_complex):
        try:
            result = parse(text)
        except ValueError:
            continue
        if parse is cli.parse_complex:
            assert type(result) is complex
        else:
            assert 1 <= len(result) <= MAX_GRID_POINTS
