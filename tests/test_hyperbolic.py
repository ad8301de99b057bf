import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhyp import algebra, genmatrix, hyperbolic
from superhyp.errors import MAX_LEVEL, DomainError, ValidationError


def series_oracle(n, j, x):
    # brute-force reference: explicit factorials, capped where they overflow
    total = 0.0
    k = 0
    while k * n + j <= 170:
        total += x ** (k * n + j) / math.factorial(k * n + j)
        k += 1
    return total


_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


def per_class_series(n, j, x):
    # the former c_series body: one class per call, its own term sequence
    term = 1.0
    for i in range(1, j + 1):
        term *= x / i
    total = term
    comp = 0.0
    m = j
    while True:
        for i in range(m + 1, m + n + 1):
            term *= x / i
        m += n
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= 1e-14 * (abs(total) + _TINY) and m >= abs(x):
            return total


SERIES_X = [0.0, 1e-300, -1e-300, 0.3, -0.3, 1.0, -1.0, 3.0, -3.0, 10.0, -10.0, 25.0, -25.0,
            100.0, 699.0, -699.0]


@pytest.mark.parametrize("n", [*range(2, 17), 31, 64, 256, 1000])
def test_series_column_is_the_per_class_loop_bit_for_bit(n):
    # tobytes, so a -0.0 against a 0.0 counts as a difference; the array
    # call holds rows that stop early (0.3) and rows that run to underflow (+-699)
    rows = hyperbolic.series_column(n, np.array(SERIES_X))
    assert rows.shape == (len(SERIES_X), n)
    for x, row in zip(SERIES_X, rows):
        want = np.array([per_class_series(n, j, x) for j in range(n)])
        got = hyperbolic.series_column(n, x)
        assert got.shape == (n,)
        assert got.tobytes() == want.tobytes(), (n, x)
        assert row.tobytes() == want.tobytes(), (n, x)


@pytest.mark.parametrize("n", [2, 5, 64])
def test_series_column_blocks_do_not_change_rows(monkeypatch, n):
    # every batched kernel, in blocks of 3, 3, 3 and 2 rows and of one row, against one block
    xs = np.linspace(-30.0, 30.0, 11)
    pair = (xs / 3.0, np.linspace(2.5, -3.0, 11))
    js = np.arange(11) * 7 % n
    # (x, w) cells with repeated and negative x and w = e^(i pi/5)
    cells = (
        np.array([-4.0, 1.3, 1.3, 0.0, 2.5, -4.0, 1.3, 7.0, 1.3, -0.5, 2.5]),
        np.resize([math.e ** (1j * math.pi / 5), 0.8, 1.2 - 0.3j], 11),
    )
    kmax = genmatrix.comb_table_order(n)
    comb_width = n * ((kmax + n - 1) // n + kmax // n + 1)  # entries of a cell's terms array
    for kernel, width, args in (
        (hyperbolic.series_column, n, (n, xs)),
        (hyperbolic.filter_column, n, (n, xs)),
        (hyperbolic.series_residuals, n, (n, xs)),
        (hyperbolic.fundamental_identity_residual, n * n, (n, pair[0])),
        (hyperbolic.addition_residual, n, (n, *pair)),
        (hyperbolic.mixed_product_residual, n, (n, *pair)),
        (genmatrix.exponential_sum, n, (n, 1.3, 0.8 + 0.3j, js)),
        (genmatrix.generating_column, n, (n, *cells)),
        (genmatrix.exponential_sum, n, (n, *cells, js)),  # blocks of (cell, class) pairs
        (genmatrix.bessel_comb_column, comb_width, (n, *cells)),
    ):
        whole = kernel(*args)
        for rows in (3, 1):
            with monkeypatch.context() as patch:
                patch.setattr(algebra, "BLOCK", rows * width)
                assert algebra.block_rows(width) == rows
                assert kernel(*args).tobytes() == whole.tobytes(), (kernel.__name__, rows)
    assert hyperbolic.series_column(n, []).shape == (0, n)


@pytest.mark.parametrize("n", [1024, MAX_LEVEL])
@pytest.mark.parametrize("kernel", ["addition_residual", "mixed_product_residual"])
def test_pair_residuals_hold_no_dense_circulant(kernel, n):
    # one dense n x n circulant is 128 MiB at n = 4096; the views hold 2n - 1 entries a point
    xs = np.linspace(-3.0, 3.0, 30)
    tracemalloc.start()
    try:
        getattr(hyperbolic, kernel)(n, xs, xs[::-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024**2, peak


@pytest.mark.parametrize("n", [3, 256])
def test_series_residuals_hold_no_whole_grid_column(monkeypatch, n):
    # the grid's series and filter columns would take 24 B per point and class at once
    xs = np.linspace(-3.0, 3.0, 2000)
    want = []
    for x in xs:
        series = hyperbolic.series_column(n, x)
        row = [np.abs(series - hyperbolic.filter_column(n, x).real).max()]
        if n in hyperbolic.POLY_IDENTITY_MONOMIALS:
            row.append(abs(hyperbolic.polynomial_identity(n, series) - 1.0))
        want.append(row)
    monkeypatch.setattr(algebra, "BLOCK", 4 * n)
    tracemalloc.start()
    try:
        got = hyperbolic.series_residuals(n, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == np.array(want).tobytes()
    assert peak < 2000 * n * 8 + got.nbytes, peak
    assert hyperbolic.series_residuals(n, float(xs[7])).tobytes() == got[7].tobytes()


def test_c_series_is_an_entry_of_the_column():
    for n, x in ((2, 1.0), (5, -2.5), (2048, 1.5)):
        column = hyperbolic.series_column(n, x)
        for j in (0, 1, n - 1):
            assert hyperbolic.c_series(n, j, x) == column[j]
            assert type(hyperbolic.c_series(n, j, x)) is float


def test_series_two_levels_are_cosh_sinh():
    assert abs(hyperbolic.c_series(2, 0, 1.0) - 1.5430806348152437) <= 1e-13
    assert abs(hyperbolic.c_series(2, 1, 1.0) - 1.1752011936438014) <= 1e-13


def test_series_three_levels_class_zero():
    assert abs(hyperbolic.c_series(3, 0, 1.0) - 1.1680583133759186) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("x", [-4.0, -1.2, 0.0, 0.3, 2.5, 9.0])
def test_series_matches_factorial_oracle(n, x):
    for j in range(n):
        expected = series_oracle(n, j, x)
        assert abs(hyperbolic.c_series(n, j, x) - expected) <= 1e-12 * math.exp(abs(x))


def test_series_at_zero_is_kronecker_delta():
    for n in (2, 4, 7):
        for j in range(n):
            assert hyperbolic.c_series(n, j, 0.0) == (1.0 if j == 0 else 0.0)


def test_series_argument_and_index_guards():
    with pytest.raises(DomainError):
        hyperbolic.c_series(3, 3, 1.0)
    with pytest.raises(DomainError):
        hyperbolic.c_series(3, -1, 1.0)
    with pytest.raises(DomainError):
        hyperbolic.c_series(3, 0, 701.0)
    with pytest.raises(DomainError):
        hyperbolic.c_series(1, 0, 1.0)
    with pytest.raises(DomainError, match="got 701.0"):
        hyperbolic.series_column(3, np.array([0.5, 701.0, -702.0]))
    for bad in (np.zeros((2, 2)), [[1.0], [2.0, 3.0]], np.array([True]), [0.5, "a"], [0.5, np.nan]):
        with pytest.raises(DomainError):
            hyperbolic.series_column(3, bad)


def test_filter_two_levels_is_sinh():
    for x in (-2.0, 0.5, 3.0):
        assert abs(hyperbolic.c_filter_complex(2, 1, x).real - math.sinh(x)) <= 1e-13 * math.exp(abs(x))


def test_filter_three_levels_matches_explicit_exponential_mean():
    sigma = np.exp(2j * np.pi / 3)
    for x in (-1.0, 0.7, 2.0):
        expected = (np.exp(x) + np.exp(sigma * x) + np.exp(sigma**2 * x)) / 3
        assert abs(hyperbolic.c_filter_complex(3, 0, x).real - expected.real) <= 1e-13 * math.exp(abs(x))


def test_filter_at_zero_is_kronecker_delta():
    for n in (2, 3, 6):
        for j in range(n):
            assert abs(hyperbolic.c_filter_complex(n, j, 0.0).real - (1.0 if j == 0 else 0.0)) <= 1e-15


def test_filter_imaginary_residue_is_rounding_level():
    for n in (3, 5, 8):
        for x in (-6.0, 1.0, 6.0):
            for j in range(n):
                z = hyperbolic.c_filter_complex(n, j, x)
                assert abs(z.imag) <= 1e-10 * math.exp(abs(x))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 12),
    x=st.floats(-10, 10),
    data=st.data(),
)
def test_series_and_filter_agree(n, x, data):
    j = data.draw(st.integers(0, n - 1))
    gap = abs(hyperbolic.c_series(n, j, x) - hyperbolic.c_filter_complex(n, j, x).real)
    assert gap <= 1e-10 * math.exp(abs(x))


def test_c_all_two_levels():
    out = hyperbolic.c_all(2, 1.0, "series")
    np.testing.assert_allclose(
        out.values, [1.5430806348152437, 1.1752011936438014], rtol=1e-13
    )


# level counts of the invariant tests below
INVARIANT_N = [*range(2, 9), 16, 64, 256]


def test_c_all_sums_to_exp():
    for method in hyperbolic.METHODS:
        for n in INVARIANT_N:
            for x in (-20.0, -12.5, -5.0, -1.0, -1e-9, 0.0, 1e-9, 0.3, 1.0, 5.0, 12.5, 20.0):
                total = hyperbolic.c_all(n, x, method).values.sum()
                assert abs(total - math.exp(x)) <= 1e-11 * math.exp(abs(x)), (method, n, x)
            total = hyperbolic.c_all(n, 2.0, method).values.sum()
            assert abs(total - 7.38905609893065) <= 1e-12 * math.exp(2.0), (method, n)


def test_c_all_filter_at_zero():
    out = hyperbolic.c_all(3, 0.0, "filter")
    np.testing.assert_allclose(out.values, [1.0, 0.0, 0.0], atol=1e-15)


def test_c_all_filter_tolerates_rounding_noise_near_zero():
    # components like c_2(1e-9) ~ 5e-19 sit below the filter's rounding
    # floor and may come out slightly negative; validation allows that
    out = hyperbolic.c_all(3, 1e-9, "filter")
    assert out.values.min() >= -1e-13


def test_c_all_filter_is_the_per_class_filter():
    xs = (-3.0, 0.4, 5.0)
    for n in (2, 7, 64):
        rows = hyperbolic.c_all(n, np.array(xs), "filter").values
        assert rows.shape == (len(xs), n)
        for x, row in zip(xs, rows):
            values = hyperbolic.c_all(n, x, "filter").values
            np.testing.assert_array_equal(values, [hyperbolic.c_filter_complex(n, j, x).real for j in range(n)])
            assert row.tobytes() == values.tobytes()
            assert hyperbolic.filter_column(n, [x])[0].tobytes() == hyperbolic.filter_column(n, x).tobytes()


def test_c_all_rejects_unknown_method():
    with pytest.raises(DomainError):
        hyperbolic.c_all(3, 1.0, "quadrature")


PARITY_X = (0.0, 1e-9, 0.8, 3.7, 5.0, 11.0, 20.0, 100.0, 699.0, 700.0)
EVEN_N = [n for n in INVARIANT_N if n % 2 == 0]


def test_series_parity_is_exact_for_even_levels():
    for n in EVEN_N:
        signs = (-1.0) ** np.arange(n)
        for x in PARITY_X:
            plus = hyperbolic.c_all(n, x, "series").values
            minus = hyperbolic.c_all(n, -x, "series").values
            np.testing.assert_array_equal(minus, signs * plus, err_msg=f"n={n}, x={x}")


def test_filter_parity_for_even_levels():
    for n in EVEN_N:
        signs = (-1.0) ** np.arange(n)
        for x in PARITY_X:
            plus = hyperbolic.c_all(n, x, "filter").values
            minus = hyperbolic.c_all(n, -x, "filter").values
            assert np.abs(minus - signs * plus).max() <= 1e-11 * math.exp(x), (n, x)


def test_nonnegative_for_nonnegative_argument():
    # exact on the series route; the filter may round a component near 0
    # to slightly below it, by at most 64 eps exp(x)
    for n in INVARIANT_N:
        for x in (0.0, 1e-12, 1e-9, 0.5, 4.0, 20.0, 100.0, 699.0, 700.0):
            assert hyperbolic.c_all(n, x, "series").values.min() >= 0.0, (n, x)
            assert hyperbolic.c_all(n, x, "filter").values.min() >= -64 * _EPS * math.exp(x), (n, x)


@pytest.mark.parametrize("method", hyperbolic.METHODS)
def test_c_all_is_finite_at_the_domain_edges(method):
    for n in (2, 3, 4, 7, 64, 1000, 4096):
        for x in (-700.0, -699.5, -350.0, -1.0, 0.0, 1.0, 350.0, 699.5, 700.0):
            assert np.isfinite(hyperbolic.c_all(n, x, method).values).all(), (n, x)


def test_derivative_chain_by_central_differences():
    h = 1e-5
    for n in (2, 3, 5):
        for x in (0.3, 1.1):
            for j in range(n):
                diff = (
                    hyperbolic.c_series(n, j, x + h) - hyperbolic.c_series(n, j, x - h)
                ) / (2 * h)
                expected = hyperbolic.c_series(n, (j - 1) % n, x)
                assert abs(diff - expected) <= 1e-7


def test_exp_circulant_three_level_layout():
    x = 0.9
    c = [hyperbolic.c_series(3, j, x) for j in range(3)]
    expected = np.array(
        [[c[0], c[2], c[1]], [c[1], c[0], c[2]], [c[2], c[1], c[0]]], dtype=complex
    )
    assert np.abs(hyperbolic.exp_circulant(3, x) - expected).max() <= 1e-13


def test_exp_circulant_two_level_layout():
    x = -1.4
    m = hyperbolic.exp_circulant(2, x)
    assert abs(m[0, 0] - math.cosh(x)) <= 1e-13 * math.exp(abs(x))
    assert abs(m[0, 1] - math.sinh(x)) <= 1e-13 * math.exp(abs(x))


@pytest.mark.parametrize("n", [2, 3, 8, 17, 32])
@pytest.mark.parametrize("x", [-5.0, -0.3, 2.0, 5.0])
def test_exp_circulant_matches_dense_exponential(n, x):
    dense = algebra.mat_exp(x * algebra.shift_matrix(n))
    spectral = hyperbolic.exp_circulant(n, x)
    assert np.abs(dense - spectral).max() <= 1e-10 * math.exp(abs(x))


def test_exp_circulant_first_column_matches_series():
    for n in (2, 5, 9, 256):
        for x in (-3.0, 1.5, 3.0):
            col = hyperbolic.exp_circulant(n, x)[:, 0]
            for j in range(n):
                assert abs(col[j] - hyperbolic.c_series(n, j, x)) <= 1e-10 * math.exp(abs(x))


@pytest.mark.parametrize("n", [2, 3, 256, 2048])
def test_exp_circulant_is_the_real_part_gathered_bit_for_bit(n):
    x = 1.7
    got = hyperbolic.exp_circulant(n, x)
    assert got.dtype == np.float64
    assert got.tobytes() == algebra.circulant(hyperbolic.filter_column(n, x).real).tobytes()


def test_exp_circulant_allocates_no_dense_plane():
    # the matrix is a view of 2n - 1 entries; a dense float64 plane would be 32 MiB
    n = 2048
    hyperbolic.exp_circulant(n, 1.0)  # warm numpy's FFT plan cache
    tracemalloc.start()
    try:
        hyperbolic.exp_circulant(n, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, peak / (n * n * 8)


def test_exp_circulant_at_1024_stays_fast():
    times = []
    for _ in range(5):
        start = time.perf_counter()
        hyperbolic.exp_circulant(1024, 1.0)
        times.append(time.perf_counter() - start)
    assert sorted(times)[2] < 10.0


@pytest.mark.parametrize("n", [2, 5, 64])
@pytest.mark.parametrize("x", [-3.0, 0.0, 2.5])
def test_fundamental_identity_is_the_real_lu_of_exp_circulant(n, x):
    want = abs(np.linalg.det(hyperbolic.exp_circulant(n, x)) - 1)
    assert hyperbolic.fundamental_identity_residual(n, x) == want


IDENTITY_X = [-10.0, -3.0, -0.7, -1e-300, 0.0, 1e-300, 2.5, 9.0, 10.0]


@pytest.mark.parametrize("n", [2, 5, 8, 64, 256])
def test_fundamental_identity_rows_are_the_float_calls(n):
    # one stack of circulant views and one batched LU, row t bit for bit the call at x[t]
    stack = hyperbolic.exp_circulant(n, np.array(IDENTITY_X))
    assert stack.shape == (len(IDENTITY_X), n, n) and not stack.flags.writeable
    rows = hyperbolic.fundamental_identity_residual(n, IDENTITY_X)
    assert rows.shape == (len(IDENTITY_X),)
    for x, matrix, row in zip(IDENTITY_X, stack, rows.tolist()):
        assert matrix.tobytes() == hyperbolic.exp_circulant(n, x).tobytes()
        want = hyperbolic.fundamental_identity_residual(n, x)
        assert type(want) is float
        assert np.float64(row).tobytes() == np.float64(want).tobytes(), (n, x)


def test_fundamental_identity_domain_is_checked_per_point():
    with pytest.raises(DomainError, match=r"need \|x\| <= 10.0, got 10.5"):
        hyperbolic.fundamental_identity_residual(3, [1.0, 10.5, -11.0])
    assert hyperbolic.fundamental_identity_residual(3, np.array([])).shape == (0,)


def _with_imaginary(col, imag):
    return col.real + 1j * np.full(col.size, imag)


@pytest.mark.parametrize("imag", [1.0, np.nan])
def test_exp_circulant_rejects_a_filter_column_that_is_not_real(monkeypatch, imag):
    real_filter = hyperbolic.filter_column
    monkeypatch.setattr(hyperbolic, "filter_column", lambda n, x: _with_imaginary(real_filter(n, x), imag))
    with pytest.raises(ValidationError, match="collapse to a real value"):
        hyperbolic.exp_circulant(4, 1.0)


def test_fundamental_identity_two_levels():
    for x in (-5.0, -0.7, 1.0, 5.0):
        c0 = hyperbolic.c_series(2, 0, x)
        c1 = hyperbolic.c_series(2, 1, x)
        # the squares cancel from cosh(x)^2 scale, so eps*exp(2|x|) is
        # the attainable accuracy; comfortably inside 1e-12 for |x| <= 4
        tol = 1e-12 * max(1.0, math.exp(2.0 * (abs(x) - 4.0)))
        assert abs(c0**2 - c1**2 - 1.0) <= tol
        assert hyperbolic.fundamental_identity_residual(2, x) <= tol


def test_fundamental_identity_three_levels():
    assert hyperbolic.fundamental_identity_residual(3, 1.0) <= 1e-11


def test_fundamental_identity_at_zero_is_rounding_level():
    # exact value is det(identity) = 1; the spectral construction leaves
    # rounding residue in the off-diagonal entries
    assert hyperbolic.fundamental_identity_residual(8, 0.0) <= 1e-14


def test_quartic_identity_monomials_pinned():
    assert hyperbolic.POLY_IDENTITY_MONOMIALS[4] == (
        (1.0, (4, 0, 0, 0)),
        (-1.0, (0, 4, 0, 0)),
        (1.0, (0, 0, 4, 0)),
        (-1.0, (0, 0, 0, 4)),
        (-2.0, (2, 0, 2, 0)),
        (2.0, (0, 2, 0, 2)),
        (-4.0, (2, 1, 0, 1)),
        (4.0, (1, 2, 1, 0)),
        (-4.0, (0, 1, 2, 1)),
        (4.0, (1, 0, 1, 2)),
    )


def test_polynomial_identities():
    assert hyperbolic.polynomial_identity_residual(2, 0.7) <= 1e-13
    assert hyperbolic.polynomial_identity_residual(3, 1.3) <= 1e-12
    assert hyperbolic.polynomial_identity_residual(4, 0.0) == 0.0


def test_polynomial_identity_rejects_other_levels():
    with pytest.raises(DomainError):
        hyperbolic.polynomial_identity_residual(5, 1.0)


@pytest.mark.parametrize(
    "n, values",
    [
        (3, [1.0, 2.0]),
        (3, [1.0, 2.0, 3.0, 4.0]),
        (2, [[1.0], [2.0]]),
        (2, np.ones((2, 2, 4))),
        (2, [[1.0, 0.5], [1.0]]),
        (2, 1.0),
        (2, [None, None]),
        (2, ["a", "b"]),
        (3, [[1.0, 0.5, 2.0], [1.0, None, 2.0]]),
    ],
)
def test_polynomial_identity_takes_n_classes_per_row_only(n, values):
    # a row of another length would have lost or ignored classes in the monomials
    with pytest.raises(DomainError, match="invalid-grid"):
        hyperbolic.polynomial_identity(n, values)


def test_polynomial_identity_keeps_its_row_shapes():
    assert hyperbolic.polynomial_identity(2, [1.0, 0.5]) == 0.75
    assert hyperbolic.polynomial_identity(2, [[1.0, 0.5], [2.0, 1.0]]).tolist() == [0.75, 3.0]
    assert hyperbolic.polynomial_identity(3, np.empty((0, 3))).shape == (0,)
    assert hyperbolic.polynomial_identity(2, [1.0 + 1.0j, 0.5j]) == 0.25 + 2.0j
    assert hyperbolic.polynomial_identity(2, np.array([3, 2], dtype=object)) == 5.0


@pytest.mark.parametrize("n, x", [(2, 400.0), (4, -180.0), (3, 355.0)])
def test_polynomial_overflow_is_a_domain_error(n, x):
    # Python's float ** int raises OverflowError past the largest double
    values = hyperbolic.series_column(n, x)
    with pytest.raises(DomainError, match="overflow-domain"):
        hyperbolic.polynomial_identity(n, values)
    with pytest.raises(DomainError, match="overflow-domain"):
        hyperbolic.series_residuals(n, [0.5, x])


def test_polynomial_and_determinant_agree():
    xs = (-3.0, -1.5, 0.0, 0.7, 1.3, 3.0)
    for n in (2, 3, 4):
        rows = hyperbolic.polynomial_identity_residual(n, np.array(xs))
        assert rows.shape == (len(xs),)
        for x, row in zip(xs, rows):
            poly = hyperbolic.polynomial_identity_residual(n, x)
            det = hyperbolic.fundamental_identity_residual(n, x)
            assert abs(poly - det) <= 1e-10
            assert row == poly


def _loop_addition_residual(n, x, y):
    # the former Python-loop form of addition_residual
    cx, cy, cxy = (hyperbolic.series_column(n, t) for t in (x, y, x + y))
    return np.array(
        [abs(cxy[j] - sum(cx[k] * cy[(j - k) % n] for k in range(n))) for j in range(n)]
    )


def _loop_mixed_residual(n, x, y):
    # the former Python-loop form of mixed_product_residual, same filter column
    cx, cy = hyperbolic.series_column(n, x), hyperbolic.series_column(n, y)
    roots = algebra.roots_of_unity(n)
    rhs = algebra.circulant_column(np.exp(x * roots + y * np.conj(roots))).real
    return np.array(
        [abs(sum(cx[k] * cy[(k - j) % n] for k in range(n)) - rhs[j]) for j in range(n)]
    )


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_circulant_residuals_match_the_loop_forms_to_rounding(n):
    rng = np.random.default_rng(n)
    points = rng.uniform(-3.0, 3.0, size=(20, 2))
    for new, old in (
        (hyperbolic.addition_residual, _loop_addition_residual),
        (hyperbolic.mixed_product_residual, _loop_mixed_residual),
    ):
        rows = new(n, points[:, 0], points[:, 1])
        assert rows.shape == (len(points), n)
        for (x, y), row in zip(points, rows):
            bound = 16 * n * _EPS * math.exp(abs(x) + abs(y))
            assert np.abs(new(n, x, y) - old(n, x, y)).max() <= bound
            assert row.tobytes() == new(n, x, y).tobytes()
        with pytest.raises(DomainError):
            new(n, points[:, 0], points[:3, 1])
        with pytest.raises(DomainError):
            new(n, points[0, 0], points[:, 1])


def _assert_near_fsum_rows(got, products, right):
    # got[t, j] against |right[t, j] - fsum(products[t, j])| within n * eps * sum |products[t, j]|
    # (n - 1 rounded additions, then the subtraction), which is 0 where every product is 0
    want = [[abs(r - math.fsum(p)) for p, r in zip(*point)] for point in zip(products.tolist(), right.tolist())]
    moved = np.abs(got - np.array(want))
    bound = products.shape[-1] * _EPS * np.abs(products).sum(axis=-1)
    assert (moved <= bound).all(), np.max(moved / np.where(bound > 0, bound, 1.0))


@pytest.mark.parametrize("n", [*range(2, 9), 64, 257])
def test_pair_residuals_match_an_fsum_convolution_to_rounding(n):
    # the kernels sum the products c_k(x) c_{j -+ k}(y) in their own order; an exactly
    # rounded sum of the same products moves each residual by at most n eps sum |products|
    rng = np.random.default_rng(40 + n)
    xs, ys = rng.uniform(-3.0, 3.0, size=(2, 16))
    xs[0] = ys[0] = 0.0  # c(0) is the unit vector: classes j != 0 have no nonzero product
    j, k = np.indices((n, n))
    cx, cy, cxy = np.split(hyperbolic.series_column(n, np.concatenate((xs, ys, xs + ys))), 3)
    _assert_near_fsum_rows(hyperbolic.addition_residual(n, xs, ys), cx[:, None, :] * cy[:, (j - k) % n], cxy)
    cx, cy = np.split(hyperbolic.series_column(n, np.concatenate((xs, ys))), 2)
    roots = algebra.roots_of_unity(n)
    rhs = algebra.circulant_column(np.exp(np.multiply.outer(xs, roots) + np.multiply.outer(ys, np.conj(roots))))
    _assert_near_fsum_rows(hyperbolic.mixed_product_residual(n, xs, ys), cx[:, None, :] * cy[:, (k - j) % n], rhs.real)


def test_addition_with_zero_recovers_values():
    for n in (2, 3, 6):
        assert hyperbolic.addition_residual(n, 1.7, 0.0).max() <= 1e-14


def test_addition_three_level_explicit_forms():
    x, y = 0.9, -0.4
    c = lambda j, t: hyperbolic.c_series(3, j, t)
    combos = [
        c(0, x) * c(0, y) + c(1, x) * c(2, y) + c(2, x) * c(1, y),
        c(0, x) * c(1, y) + c(1, x) * c(0, y) + c(2, x) * c(2, y),
        c(0, x) * c(2, y) + c(1, x) * c(1, y) + c(2, x) * c(0, y),
    ]
    for j, combo in enumerate(combos):
        assert abs(combo - c(j, x + y)) <= 1e-13
    assert hyperbolic.addition_residual(3, x, y).max() <= 1e-13


def test_addition_five_levels():
    assert hyperbolic.addition_residual(5, 1.1, -0.4).max() <= 1e-11


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), x=st.floats(-3, 3), y=st.floats(-3, 3))
def test_addition_property(n, x, y):
    assert hyperbolic.addition_residual(n, x, y).max() <= 1e-10


def _coefficients_from_matrix_product(n, x, y):
    # independent route: read the cyclic-power coefficients off the first
    # column of exp(x*shift) exp(y*shift^T)
    s = algebra.shift_matrix(n)
    m = algebra.mat_exp(x * s) @ algebra.mat_exp(y * s.conj().T)
    return m[:, 0]


def test_mixed_relation_three_levels_reproduces_bilinear_forms():
    x, y = 0.9, -0.4
    c = lambda j, t: hyperbolic.c_series(3, j, t)
    coeffs = _coefficients_from_matrix_product(3, x, y)
    explicit = {
        0: c(0, x) * c(0, y) + c(1, x) * c(1, y) + c(2, x) * c(2, y),
        1: c(0, x) * c(2, y) + c(1, x) * c(0, y) + c(2, x) * c(1, y),
        2: c(0, x) * c(1, y) + c(1, x) * c(2, y) + c(2, x) * c(0, y),
    }
    residuals = hyperbolic.mixed_product_residual(3, x, y)
    for j in range(3):
        assert abs(explicit[j] - coeffs[j]) <= 1e-12
        assert residuals[j] <= 1e-12


def test_mixed_relation_at_zero_is_kronecker_delta():
    for n in (2, 4, 5):
        residuals = hyperbolic.mixed_product_residual(n, 0.0, 0.0)
        assert residuals.shape == (n,)
        assert residuals.max() <= 1e-15


@pytest.mark.parametrize("imag", [1.0, np.nan])
def test_mixed_relation_rejects_a_filter_column_that_is_not_real(monkeypatch, imag):
    real_column = hyperbolic.circulant_column
    monkeypatch.setattr(hyperbolic, "circulant_column", lambda eig: _with_imaginary(real_column(eig), imag))
    with pytest.raises(ValidationError, match="collapse to a real value"):
        hyperbolic.mixed_product_residual(4, 0.8, 0.3)


def test_mixed_relation_four_levels():
    assert hyperbolic.mixed_product_residual(4, 0.8, 0.3)[2] <= 1e-11


def test_mixed_relation_matches_matrix_coefficients():
    for n in (3, 4, 6):
        x, y = 1.2, 0.5
        coeffs = _coefficients_from_matrix_product(n, x, y)
        cx = [hyperbolic.c_series(n, k, x) for k in range(n)]
        cy = [hyperbolic.c_series(n, k, y) for k in range(n)]
        for j in range(n):
            lhs = sum(cx[k] * cy[n - j + k] for k in range(j))
            lhs += sum(cx[k] * cy[k - j] for k in range(j, n))
            assert abs(lhs - coeffs[j]) <= 1e-11 * math.exp(abs(x) + abs(y))
