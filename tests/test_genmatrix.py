import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special

from superhyp import algebra, bessel, genmatrix
from superhyp.bessel import _comb_sum
from superhyp.errors import MAX_LEVEL, DomainError

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
    # at x = 0 the |x|*max(|w|,1/|w|) bound admits any w; max(|w|,1/|w|) <= 50 does not
    with pytest.raises(DomainError):
        genmatrix.generating_matrix(3, 0.0, 1e-200)
    with pytest.raises(DomainError):
        genmatrix.bessel_comb_series(3, 0.0, 1e-200, 0, 30)
    with pytest.raises(DomainError):
        genmatrix.exponential_sum(3, 0.0, 1e200, 0)


@pytest.mark.parametrize("w", [50.0, 0.02, 50j])
def test_bilateral_sum_at_the_weight_bound_for_many_levels(w):
    # truncations near 200 orders, where 50^200 alone would overflow
    for j in (0, 1, 49, 98):
        K = genmatrix.default_comb_truncation(100, 0.001, w, j)
        comb = genmatrix.bessel_comb_series(100, 0.001, w, j, K)
        assert abs(comb - genmatrix.trace_projection(100, 0.001, w, j)) <= 1e-12
    # numpy's powers stay finite too: none is taken past the table's last nonzero value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        combs = genmatrix.bessel_comb_column(100, 0.001, w)
    assert np.abs(combs - genmatrix.generating_column(100, 0.001, w)[-np.arange(100) % 100]).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5, 16, 64])
def test_bessel_comb_column_is_the_scalar_sum_up_to_the_powers(n):
    # the same table, truncations and order of terms as _comb_sum; only numpy's
    # complex powers differ from Python's w ** m, by a few ulps of each term
    eps = np.finfo(float).eps
    for x in (0.5, 2.0, -3.0, 0.0):
        for w in (*W_SET, 1.7 - 0.4j):
            K = [genmatrix.default_comb_truncation(n, x, w, j) for j in range(n)]
            values = bessel.bessel_table(genmatrix.comb_table_order(n), x).values
            want = [_comb_sum(values, n, w, j, K[j]) for j in range(n)]
            bound = 8 * eps * math.exp(genmatrix.unit_scale(x, w))
            assert np.abs(genmatrix.bessel_comb_column(n, x, w) - want).max() <= bound, (n, x, w)


def test_trace_projection_two_levels_is_cosh():
    value = genmatrix.trace_projection(2, 1.0, 1.0, 0)
    assert abs(value - 1.5430806348152437) <= 1e-13
    assert abs(value.imag) <= 1e-14


def test_trace_projection_at_zero():
    for n in (2, 4):
        assert abs(genmatrix.trace_projection(n, 0.0, 1.0, 0) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [2, 5, 64, 256])
def test_trace_projection_is_trace_of_product_with_shift_power(n):
    # the column entry against the literal product with the permutation;
    # the mean of n equal diagonal terms rounds, so the two agree to
    # about n rounding errors of the largest entry
    x, w = 1.3, 0.8 + 0.2j
    m = genmatrix.generating_matrix(n, x, w).matrix
    bound = 4 * n * np.finfo(float).eps * np.abs(m).max()
    for j in range(n):
        expected = np.trace(m @ algebra.shift_power(n, j)) / n
        assert abs(genmatrix.trace_projection(n, x, w, j) - expected) <= bound


def test_trace_projection_allocates_no_matrix_at_the_level_cap():
    # a dense MAX_LEVEL^2 complex matrix would be 256 MiB; the column is 64 KiB
    j = MAX_LEVEL // 3
    genmatrix.trace_projection(MAX_LEVEL, 1.0, 0.8, j)  # warm numpy's FFT plan cache
    tracemalloc.start()
    try:
        value = genmatrix.trace_projection(MAX_LEVEL, 1.0, 0.8, j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert abs(value - genmatrix.exponential_sum(MAX_LEVEL, 1.0, 0.8, j)) <= 1e-11 * math.e


def test_exponential_sums_of_every_class_hold_no_plane_at_the_level_cap():
    # the phases s^(l*j) of all classes at once would be a 256 MiB complex plane,
    # and T of them for T cells
    js = np.arange(MAX_LEVEL)
    xs, ws = np.array([1.0, -0.5]), np.array([0.8, W_SET[2]])
    genmatrix.exponential_sum(MAX_LEVEL, 1.0, 0.8, js[:1])  # warm numpy's caches
    genmatrix.exponential_sum(MAX_LEVEL, xs, ws, js[:1])
    results = []
    for x, w in ((1.0, 0.8), (xs, ws)):
        tracemalloc.start()
        try:
            results.append(genmatrix.exponential_sum(MAX_LEVEL, x, w, js))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * algebra.BLOCK * 16, peak
    sums, cells = results
    assert sums.shape == (MAX_LEVEL,) and cells.shape == (2, MAX_LEVEL)
    for j in (0, 1, MAX_LEVEL // 3, MAX_LEVEL - 1):
        assert sums[j] == cells[0, j] == genmatrix.exponential_sum(MAX_LEVEL, 1.0, 0.8, j)
        assert cells[1, j] == genmatrix.exponential_sum(MAX_LEVEL, -0.5, W_SET[2], j)


@pytest.mark.parametrize("n", [*range(2, 17), 64, 256])
def test_exponential_sum_rows_are_the_int_calls(n):
    js = np.arange(n)
    for x, w in ((0.5, W_SET[0]), (2.0, W_SET[2]), (-1.3, 0.8 + 0.2j), (0.0, 0.8)):
        rows = genmatrix.exponential_sum(n, x, w, js)
        want = np.array([genmatrix.exponential_sum(n, x, w, j) for j in range(n)])
        assert rows.tobytes() == want.tobytes(), (n, x, w)
        assert genmatrix.exponential_sum(n, x, w, [n - 1, 0, n - 1]).tobytes() == want[[n - 1, 0, n - 1]].tobytes()


@pytest.mark.parametrize("n", [MAX_LEVEL - 1, MAX_LEVEL])
def test_exponential_sum_rows_are_the_int_calls_at_the_level_cap(n):
    # the batch forms its phase indices l*j in int32, up to (n - 1)^2 here,
    # the int-j call in int64; at n = 4095 a wrapped product would change
    # its residue mod n
    js = np.arange(n)
    rows = genmatrix.exponential_sum(n, 1.3, W_SET[2], js)
    want = np.array([genmatrix.exponential_sum(n, 1.3, W_SET[2], j) for j in range(n)])
    assert rows.tobytes() == want.tobytes()


@pytest.mark.parametrize("j", [[0, 3], [-1], [[0]], [0.0, 1.0], [True], "0", [0, 1.5]])
def test_exponential_sum_rejects_bad_class_arrays(j):
    with pytest.raises(DomainError):
        genmatrix.exponential_sum(3, 1.0, 0.8, j)


def test_generating_matrix_allocates_no_matrix_at_the_level_cap():
    # the matrix is a view of 2n - 1 entries; a dense complex plane would be 256 MiB
    genmatrix.generating_matrix(MAX_LEVEL, 1.0, 0.8)  # warm numpy's FFT plan cache
    tracemalloc.start()
    try:
        m = genmatrix.generating_matrix(MAX_LEVEL, 1.0, 0.8).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    col = genmatrix.generating_column(MAX_LEVEL, 1.0, 0.8)
    for i, k in ((0, 0), (5, 3), (3, 5), (MAX_LEVEL - 1, 0), (0, MAX_LEVEL - 1)):
        assert m[i, k] == col[(i - k) % MAX_LEVEL]


def test_column_routes_match_their_per_class_forms():
    for n, x, w in ((5, 1.3, 0.8 + 0.2j), (64, 2.0, W_SET[2])):
        col = genmatrix.generating_column(n, x, w)
        np.testing.assert_array_equal(genmatrix.generating_matrix(n, x, w).matrix[:, 0], col)
        combs = genmatrix.bessel_comb_column(n, x, w)
        scale = math.exp(genmatrix.unit_scale(x, w))
        for j in range(n):
            assert genmatrix.trace_projection(n, x, w, j) == col[-j % n]
            K = genmatrix.default_comb_truncation(n, x, w, j)
            # one table at comb_table_order(n) against a table per class:
            # the Miller start order differs, so they agree to rounding
            assert abs(combs[j] - genmatrix.bessel_comb_series(n, x, w, j, K)) <= 1e-14 * scale


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


def _loop_truncation(n, x, w, j):
    # the rule as a loop: start on n*ceil((scale+30)/n) + j, add periods until K >= n + |x| + 20
    K = n * math.ceil((genmatrix.unit_scale(x, w) + 30.0) / n) + j
    while K < n + abs(x) + 20:
        K += n
    return K


@pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 4096])
def test_default_truncation_is_the_loop_rule_for_every_class(n):
    # one bump always suffices, so the closed form is the loop for an int or an array j
    for x in (0.0, 1e-300, 0.5, -3.0, 19.7, 25.0, -50.0):
        for w in (1.0, 0.8, 0.02, 1.9 + 0.3j, W_SET[2]):
            if abs(x) * max(abs(w), 1 / abs(w)) > 50:
                continue
            want = [_loop_truncation(n, x, w, j) for j in range(n)]
            got = genmatrix.default_comb_truncation(n, x, w, np.arange(n))
            assert got.tolist() == want, (n, x, w)
            for j in {0, 1, n // 2, n - 1}:
                K = genmatrix.default_comb_truncation(n, x, w, j)
                assert type(K) is int and K == want[j]


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


def _random_cells(rng, T):
    # cells with |x| <= 20 and |w| in [0.5, 2], the first x repeated with w = e^(i pi/5)
    x = rng.uniform(-20.0, 20.0, T)
    w = rng.uniform(0.5, 2.0, T) * np.exp(1j * rng.uniform(-math.pi, math.pi, T))
    return np.append(x, x[0]), np.append(w, W_SET[2])


@pytest.mark.parametrize("n", [2, 3, 7, 64])
def test_cell_rows_are_the_one_cell_calls_bit_for_bit(n):
    # so a row depends on its own cell alone, whatever shares its call or its block
    xs, ws = _random_cells(np.random.default_rng(n), 12)
    js = np.arange(n)
    routes = (
        lambda x, w: genmatrix.generating_column(n, x, w),
        lambda x, w: genmatrix.trace_projection(n, x, w, n - 1),
        lambda x, w: genmatrix.exponential_sum(n, x, w, js),
        lambda x, w: genmatrix.exponential_sum(n, x, w, 1),
        lambda x, w: genmatrix.bessel_comb_column(n, x, w),
    )
    for route in routes:
        rows = route(xs, ws)
        assert rows.shape[0] == xs.size
        for t, (x, w) in enumerate(zip(xs.tolist(), ws.tolist())):
            assert np.asarray(rows[t]).tobytes() == np.asarray(route(x, w)).tobytes(), (t, x, w)
        # lists are cell arrays too, and an empty pair of arrays has no rows
        assert route(xs.tolist(), ws.tolist()).tobytes() == rows.tobytes()
        assert route([], []).shape == (0, *rows.shape[1:])


@pytest.mark.parametrize("n", [2, 3, 5, 64, 256])
def test_the_one_cell_column_is_the_batch_row_bit_for_bit(n):
    # a number cell takes its column directly, not through a one-row block: 200 cells per level
    xs, ws = _random_cells(np.random.default_rng(100 + n), 199)
    columns = genmatrix.generating_column(n, xs, ws)
    traces = genmatrix.trace_projection(n, xs, ws, 1)
    for x, w, column, trace in zip(xs.tolist(), ws.tolist(), columns, traces.tolist()):
        assert genmatrix.generating_column(n, x, w).tobytes() == column.tobytes()
        assert genmatrix.trace_projection(n, x, w, 1) == trace
        assert np.array(genmatrix.generating_matrix(n, x, w).matrix)[:, 0].tobytes() == column.tobytes()


@pytest.mark.parametrize(
    "route",
    [
        lambda n, x, w: genmatrix.generating_column(n, x, w),
        lambda n, x, w: genmatrix.trace_projection(n, x, w, 0),
        lambda n, x, w: genmatrix.exponential_sum(n, x, w, np.arange(n)),
        lambda n, x, w: genmatrix.bessel_comb_column(n, x, w),
    ],
)
def test_a_bad_cell_raises_its_one_cell_error(route):
    # the first bad cell, in order, names itself through its one-cell message
    for xs, ws, bad in (
        ([0.5, 60.0, 1.0], [1.0, 1.0, 0.0], 1),
        ([0.5, 1.0, 30.0], [1.0, 0.0, 0.2], 1),
        ([0.5, 30.0, 1.0], [0.8, 0.2, 1.0], 1),
        ([math.nan], [1.0], 0),
        ([0.0, 0.0], [1.0, 1e-200], 1),
    ):
        with pytest.raises(DomainError) as one:
            route(3, xs[bad], ws[bad])
        with pytest.raises(DomainError) as cells:
            route(3, xs, ws)
        assert str(cells.value) == str(one.value)
    # cells of two lengths, a number against an array, 2-D or non-numeric cells
    for xs, ws in (
        ([0.5, 1.0], [1.0]),
        (np.array([0.5, 1.0]), 1.0),
        (0.5, [1.0, 0.8]),
        ([[0.5]], [[1.0]]),
        (["a"], [1.0]),
        ([0.5], [None]),
        ([1j], [1.0]),
        ([[0.5], [1.0, 2.0]], [1.0, 1.0]),
    ):
        with pytest.raises(DomainError, match="invalid-grid"):
            route(3, xs, ws)


def test_cell_arrays_keep_to_the_batch_cap():
    # T cells times the entries each keeps: 10001 cells of 4096 classes exceed MAX_BATCH
    xs, ws = np.ones(10_001), np.ones(10_001)
    with pytest.raises(DomainError, match="invalid-grid"):
        genmatrix.exponential_sum(MAX_LEVEL, xs, ws, np.arange(MAX_LEVEL))
    with pytest.raises(DomainError, match="invalid-grid"):
        genmatrix.generating_column(MAX_LEVEL, xs, ws)


def test_bessel_comb_column_builds_one_table_per_distinct_x(monkeypatch):
    orders = []

    def counted(kmax, x):
        orders.append((kmax, x))
        return bessel.bessel_table(kmax, x)

    monkeypatch.setattr(genmatrix, "bessel_table", counted)
    monkeypatch.setattr(algebra, "BLOCK", 1)  # one cell per block: tables carry over between blocks
    xs = [2.0, 0.5, 2.0, -1.0, 0.5, 2.0]
    genmatrix.bessel_comb_column(7, xs, [1.0, 0.8, W_SET[2], 1.0, 1.5, 0.8])
    assert sorted(x for _, x in orders) == [-1.0, 0.5, 2.0]
    assert {kmax for kmax, _ in orders} == {genmatrix.comb_table_order(7)}


@pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 4096])
def test_comb_table_order_covers_every_admissible_truncation(n):
    kmax = genmatrix.comb_table_order(n)
    for x, w in ((50.0, 1.0), (-50.0, 1.0), (1.0, 50.0), (0.0, 0.02), (25.0, 2.0), (0.5, 0.8)):
        assert genmatrix.default_comb_truncation(n, x, w, np.arange(n)).max() <= kmax
    assert kmax == genmatrix.default_comb_truncation(n, 50.0, 1.0, np.arange(n)).max()
