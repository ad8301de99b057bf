"""The shared argument-validation layer and the size caps, tested by their error paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhyp import algebra, bessel, circle, cli, genmatrix, hyperbolic, verify
from superhyp.errors import (
    ARG_MAX,
    MAX_BATCH,
    MAX_GRID_POINTS,
    MAX_LEVEL,
    MAX_ORDER,
    DomainError,
    require_cells,
    require_half_width,
    require_index,
    require_indices,
    require_int,
    require_level,
    require_order,
    require_weights,
    require_x,
    require_xs,
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
    # require_xs treats a scalar as require_x does, and a one-entry list (of
    # numbers, not numeric text) as the float64 array of that result
    listed = [] if isinstance(value, str) else [[value]]
    try:
        result = require_x(value, 700.0)
    except DomainError:
        for form in (value, *listed):
            with pytest.raises(DomainError):
                require_xs(form, 700.0)
        return
    assert type(result) is float and abs(result) <= 700.0
    assert not isinstance(value, bool)
    same = require_xs(value, 700.0)
    assert type(same) is float and same == result
    for form in listed:
        assert require_xs(form, 700.0).tobytes() == np.array([result]).tobytes()


# the four batch readers, each with the number kinds its batches hold and
# the width it is called with (require_indices and require_weights keep one entry per point)
READERS = {
    "x": (lambda v, width=1: require_xs(v, 700.0, width), "iuf"),
    "j": (lambda v, width=1: require_indices(v, 7), "iu"),
    "cell": (lambda v, width=1: require_cells(v, v, width), "iuf"),
    "w": (lambda v, width=1: require_weights(v), "iufc"),
}


MALFORMED = st.one_of(
    st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3), min_size=2, max_size=4).filter(
        lambda rows: len({len(row) for row in rows}) > 1
    ),
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(np.ones),
    st.lists(st.lists(st.integers(1, 5), min_size=2, max_size=2), min_size=1, max_size=3),
    st.lists(st.booleans(), min_size=1, max_size=4),
    st.lists(st.booleans(), min_size=1, max_size=4).map(np.array),
    st.lists(st.sampled_from(["1", "a", ""]), min_size=1, max_size=3),
    st.lists(st.sampled_from([None, 10**400, -(10**400), "1", 1]), min_size=1, max_size=3).filter(
        lambda v: any(e is None or isinstance(e, str) or abs(e) > 1 for e in v)
    ),
    st.lists(st.integers(1, 5), min_size=1, max_size=3).map(lambda v: np.array(v, dtype=object)),
)


@settings(max_examples=200, deadline=None)
@given(MALFORMED)
def test_every_batch_reader_refuses_a_malformed_container_with_domain_error(value):
    # never a TypeError, ValueError or OverflowError from numpy or from the checks
    for read, _ in READERS.values():
        with pytest.raises(DomainError, match="invalid-grid"):
            read(value)
    for x, w in ((value, [1.0]), ([1.0], value)):
        with pytest.raises(DomainError, match="invalid-grid"):
            require_cells(x, w)


@pytest.mark.parametrize("reader", READERS)
def test_a_batch_one_entry_past_the_cap_is_refused_unbuilt(reader):
    # a range and a broadcast view hold their entries unallocated; the last range is too long for len()
    read, _ = READERS[reader]
    width = MAX_LEVEL if reader in ("x", "cell") else 1
    most = MAX_BATCH // width
    for value in (range(most + 1), np.broadcast_to(1, (most + 1,)), range(10**30)):
        with pytest.raises(DomainError, match="invalid-grid"):
            read(value, width)


def _same(a, b):
    # equal values of one dtype, entry by entry (a cell result is a tuple of three arrays)
    if isinstance(a, tuple):
        return all(_same(p, q) for p, q in zip(a, b, strict=True))
    if isinstance(a, list):
        return a == b
    return a.dtype.kind == b.dtype.kind and a.tobytes() == np.asarray(b, a.dtype).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.booleans())
def test_a_list_tuple_range_or_array_is_one_batch_in_every_reader(start, length, floats):
    values = range(start, min(start + length, 7))  # valid for every reader: x, j < 7, nonzero w
    forms = [list(values), tuple(values), np.array(values, dtype=int), np.array(values, dtype=np.int32)]
    if floats:
        forms = [[float(v) for v in values], np.array(values, dtype=float)]
    else:
        forms.append(values)
    for name, (read, _) in READERS.items():
        if floats and name == "j":
            continue
        first = read(forms[0])
        for form in forms[1:]:
            assert _same(first, read(form)), (name, form)
    assert require_xs(forms[0], 700.0).tolist() == list(values)
    assert require_weights(forms[0]) == list(values)
    xs, ws, scales = require_cells(forms[0], forms[0])
    assert xs.tolist() == ws.real.tolist() == list(values)
    assert scales.tolist() == [v * max(v, 1 / v) for v in values]
    if not floats:
        assert require_indices(forms[0], 7).tolist() == list(values)


ONE_ENTRY_VALUE = st.one_of(
    st.integers(-10, 10),
    st.sampled_from([2**63, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(ONE_ENTRY_VALUE)
def test_a_one_entry_batch_gives_the_numbers_result(value):
    # a number that is refused is refused in a batch too; an admitted one
    # comes back as a one-entry array, as does its kernel's result for w
    readers = dict(READERS, w=(lambda v: bessel.generating_function_residual(0.5, v, 30), "iufc"))
    containers = [[value], (value,), np.array([value])]
    if type(value) is int:
        containers.append(range(value, value + 1))
    for name, (read, kinds) in readers.items():
        try:
            result = read(value)
        except DomainError:
            for container in containers:
                with pytest.raises(DomainError):
                    read(container)
            continue
        for container in containers:
            if np.asarray(container).dtype.kind not in kinds:  # an integral float is an index, not a batch of them
                with pytest.raises(DomainError, match="invalid-grid"):
                    read(container)
                continue
            expected = tuple(map(np.array, [[r] for r in result])) if name == "cell" else np.array([result])
            assert _same(expected, read(container)), (name, container)


def test_an_empty_list_is_an_empty_batch_in_every_reader():
    # numpy reads [] as float64, which holds no entry of another kind
    assert require_xs([], 700.0).shape == require_indices([], 7).shape == (0,)
    assert require_indices([], 7).dtype == np.int64
    assert all(part.shape == (0,) for part in require_cells([], []))
    assert require_weights(()) == []
    assert genmatrix.exponential_sum(3, 1.0, 1.0, []).shape == (0,)
    # no cap to quote for a call that keeps no entries per point
    with pytest.raises(DomainError, match="invalid-grid"):
        genmatrix.exponential_sum(3, [[1.0]], [[1.0]], np.array([], dtype=int))


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


def test_cell_scales_are_unit_scale_bit_for_bit():
    # 12000 random cells, with radii at and just inside ARG_MAX and 1/ARG_MAX
    rng = np.random.default_rng(11)
    T = 12_000
    radius = np.exp(rng.uniform(-math.log(ARG_MAX), math.log(ARG_MAX), T))
    edges = [ARG_MAX, 1.0 / ARG_MAX, math.nextafter(ARG_MAX, 0.0), math.nextafter(1.0 / ARG_MAX, 1.0)]
    radius[: 4 * len(edges)] = np.repeat(edges, 4)
    ws = radius * np.exp(1j * rng.uniform(-math.pi, math.pi, T))
    ws[:4] = [ARG_MAX, -ARG_MAX, 1j / ARG_MAX, -1j / ARG_MAX]
    xs = rng.uniform(-1.0, 1.0, T) * ARG_MAX / np.maximum(radius, 1.0 / radius)
    xs[::7] = 0.0
    xs[:4] = [1.0, -1.0, 1.0, -1.0]  # a scale of ARG_MAX itself at w = +-ARG_MAX
    keep = [True] * T
    for t, (x, w) in enumerate(zip(xs.tolist(), ws.tolist())):
        try:
            unit_scale(x, w)
        except DomainError:  # |w| rounded past a bound
            keep[t] = False
    xs, ws = xs[keep], ws[keep]
    assert xs.size > 10_000
    _, _, scales = require_cells(xs, ws)
    want = [unit_scale(x, w) for x, w in zip(xs.tolist(), ws.tolist())]
    assert scales.tobytes() == np.array(want).tobytes()
    assert scales[:2].tolist() == [ARG_MAX, ARG_MAX]


@pytest.mark.parametrize(
    "w, echo",
    [(None, "w=None"), ("x", "w='x'"), (0, "w=0"), (0.0, "w=0.0"), (1e-200j, "w=1e-200j"), (math.inf, "w=inf")],
)
def test_a_refused_weight_is_echoed_as_the_caller_gave_it(w, echo):
    with pytest.raises(DomainError, match="overflow-domain") as one:
        unit_scale(0.5, w)
    assert str(one.value).endswith(f"x=0.5, {echo}")
    for suite in ("bessel", "genmatrix"):  # a grid's weight is checked at x = 0
        with pytest.raises(DomainError, match="overflow-domain") as grid:
            verify.run_suite(suite, w_values=[w])
        assert str(grid.value).endswith(f"x=0.0, {echo}")
    # a batch names its first bad cell by the entries it was given
    if w is not None and not isinstance(w, str):
        with pytest.raises(DomainError) as cells:
            require_cells([0.5, 0.5], [w, w])
        assert str(cells.value) == str(one.value)


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
    # a 1-D x is capped by the entries per point it asks for
    with pytest.raises(DomainError):
        hyperbolic.series_column(MAX_LEVEL, np.zeros(MAX_GRID_POINTS + 1))
    # a residual row keeps its n residuals; its series and circulant live in one block
    points = np.zeros(MAX_BATCH // MAX_LEVEL + 1)
    with pytest.raises(DomainError):
        hyperbolic.addition_residual(MAX_LEVEL, points, points)


def test_sizes_in_use_stay_admitted():
    assert require_level(2048) == 2048
    assert require_order(2000) == 2000
    assert require_half_width(200) == 200
    # the largest CLI grid at the largest level, and the most residual points there
    assert require_xs(np.zeros(MAX_GRID_POINTS), 700.0, MAX_LEVEL).shape == (MAX_GRID_POINTS,)
    most = MAX_BATCH // MAX_LEVEL
    assert require_xs(np.zeros(most), 10.0, MAX_LEVEL).shape == (most,)


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
