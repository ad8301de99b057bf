import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from superhyp import algebra, hyperbolic
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


def _horner_mat_exp(a):
    """Reference: the same scaling and squarings, the order-16 Taylor
    polynomial by Horner (16 products), always in complex arithmetic."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm) + 1.0))
    b = a / (2.0 ** squarings)
    eye = np.eye(a.shape[0], dtype=complex)
    r = eye.copy()
    for k in range(algebra.TAYLOR_ORDER, 0, -1):
        r = eye + (b @ r) / k
    for _ in range(squarings):
        r = r @ r
    return r


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 64])
@pytest.mark.parametrize("kind", [float, complex])
def test_mat_exp_matches_expm_and_the_horner_form(n, kind):
    # error model: the squarings amplify the rounding of the scaled
    # polynomial by about the 1-norm, so both bounds scale with max(1, norm)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(1000 * n + (kind is complex))
    for norm in (0.1, 0.5, 1.0, 3.0, 7.0, 12.0, 20.0):
        a = rng.standard_normal((n, n))
        if kind is complex:
            a = a + 1j * rng.standard_normal((n, n))
        a *= norm / np.abs(a).sum(axis=0).max()
        got = algebra.mat_exp(a)
        assert got.dtype == np.dtype(kind)
        want = scipy.linalg.expm(a)
        scale = max_abs(want) * max(1.0, norm)
        assert max_abs(got - want) <= 1024 * eps * scale, (n, kind, norm)
        assert max_abs(got - _horner_mat_exp(a)) <= 64 * eps * scale, (n, kind, norm)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_mat_exp_runs_a_real_valued_complex_argument_in_real_arithmetic(n):
    eps = np.finfo(float).eps
    rng = np.random.default_rng(2000 + n)
    for norm in (0.1, 1.0, 7.0, 20.0):
        real = rng.standard_normal((n, n))
        real *= norm / np.abs(real).sum(axis=0).max()
        a = real.astype(complex)
        got = algebra.mat_exp(a)
        assert got.dtype == np.complex128
        assert got.real.tobytes() == algebra.mat_exp(real).tobytes()
        assert not got.imag.any()
        scale = max_abs(got) * max(1.0, norm)
        assert max_abs(got - _horner_mat_exp(a)) <= 64 * eps * scale, (n, norm)
    # one nonzero imaginary entry keeps the whole product complex
    a = real.astype(complex)
    a[0, -1] += 1e-3j
    got = algebra.mat_exp(a)
    want = scipy.linalg.expm(a)
    assert got.imag.any()
    assert max_abs(got - want) <= 1024 * eps * max_abs(want) * max(1.0, norm)


def test_mat_exp_keeps_real_input_real():
    assert algebra.mat_exp(np.eye(3)).dtype == np.float64
    assert algebra.mat_exp(np.arange(9).reshape(3, 3) / 9).dtype == np.float64
    assert algebra.mat_exp(1.5 * algebra.shift_matrix(4)).dtype == np.complex128
    # determinant returns a complex value on a real argument too
    assert algebra.determinant(np.eye(3)) == 1.0 + 0j


def _open_lattice_argument(N, x, r):
    # (x/2)(r S + S^T/r) on the open lattice of dimension 2N + 1
    s = np.eye(2 * N + 1, k=-1)  # the open shift: its subdiagonal of 1s, no corner
    return (x / 2.0) * (r * s + s.T / r)


@pytest.mark.parametrize("x, r", [(20.0, 1.0), (30.0, 1.0), (20.0, 2.0)])
def test_mat_exp_returns_no_subnormal_entry_on_the_open_lattice(x, r):
    # the far corners of this exponential lie below the smallest normal
    # double; the sqrt(tiny) cut before each squaring sends them to 0
    got = algebra.mat_exp(_open_lattice_argument(200, x, r))
    assert (got == 0.0).any()
    assert np.abs(got[got != 0.0]).min() >= np.finfo(float).tiny


def _argument(kind, norm, n):
    # a random n x n argument of 1-norm `norm`: real, complex with zero
    # imaginary parts, or complex
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a *= norm / np.abs(a).sum(axis=0).max()
    if kind == "complex":
        a = a + 1j * (norm / n) * rng.standard_normal((n, n))
    elif kind == "real-valued complex":
        a = a.astype(complex)
    return a


@pytest.mark.parametrize("norm", [0.3, 7.0])
@pytest.mark.parametrize("kind, planes", [("real", 7), ("real-valued complex", 7), ("complex", 14)])
def test_mat_exp_peak_working_memory(kind, planes, norm):
    # the docstring's bound: 7 planes of the working dtype, counted here in n^2 * 8 bytes
    n = 512
    a = _argument(kind, norm, n)
    tracemalloc.start()
    try:
        algebra.mat_exp(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = n * n * 8
    assert peak <= planes * plane + plane // 16, peak / plane


# 1-norms taking 0, 1, 2 and 3 squarings: the result is the copy of the
# polynomial, or the last square written into it
SQUARING_NORMS = [0.3, 0.7, 1.5, 3.0]
KINDS = ["real", "real-valued complex", "complex"]


@pytest.mark.parametrize("norm", SQUARING_NORMS)
@pytest.mark.parametrize("kind", KINDS)
def test_mat_exp_result_owns_its_memory(kind, norm):
    # no view into the working planes, which would keep all of them alive
    got = algebra.mat_exp(_argument(kind, norm, 9))
    assert got.base is None and got.flags.owndata and got.flags.writeable
    assert got.flags.c_contiguous and got.shape == (9, 9)


@pytest.mark.parametrize("norm", SQUARING_NORMS)
@pytest.mark.parametrize("kind", KINDS)
def test_mat_exp_calls_share_no_memory(kind, norm):
    a = _argument(kind, norm, 9)
    first, second = algebra.mat_exp(a), algebra.mat_exp(a)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == second.tobytes()


def _gather_circulant(col, rows):
    """Reference: the given rows of the dense circulant, by an index gather."""
    col = np.asarray(col)
    k = np.arange(col.size)
    return col[(k[rows, None] - k[None, :]) % col.size]


def _assert_gather_bit_for_bit(got, col, block=128):
    # the reference in blocks of rows: compared whole, the gathers and their
    # byte copies at n = 2048 peaked near 530 MB
    n = col.size
    assert got.shape == (n, n)
    for start in range(0, n, block):
        want = _gather_circulant(col, slice(start, start + block))
        assert got.dtype == want.dtype
        assert got[start : start + block].tobytes() == want.tobytes()


def _assert_read_only_view(m, entries):
    # the memory promise of algebra.circulant: no dense copy, and no write
    # through a view whose rows share their entries
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[(0,) * m.ndim] = 0
    assert m.base.nbytes <= entries * m.itemsize


@pytest.mark.parametrize("n", [*range(1, 18), 256, 2048])
def test_circulant_is_the_index_gather_bit_for_bit(n):
    rng = np.random.default_rng(n)
    real = rng.standard_normal(2 * n)
    for col in (real[:n], real[:n] + 1j * real[n:], real[::2], (real + 1j * real)[1::2]):
        got = algebra.circulant(col)
        _assert_gather_bit_for_bit(got, col)
        _assert_read_only_view(got, 2 * n - 1)
    stack = rng.standard_normal((3, n))
    got = algebra.circulant(stack)
    assert got.shape == (3, n, n)
    for matrix, col in zip(got, stack):
        _assert_gather_bit_for_bit(matrix, col)
    _assert_read_only_view(got, 3 * (2 * n - 1))


def _loop_lu_determinant(a):
    """Reference: the former Python-loop LU with partial pivoting, ties to the lowest row."""
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0:
            return 0j
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            det = -det
        det *= a[col, col]
        if col + 1 < n:
            a[col + 1:, col:] -= np.outer(a[col + 1:, col] / a[col, col], a[col, col:])
    return complex(det)


def _assert_same_determinant(a, cond):
    # error model: a backward-stable LU perturbs log det by about
    # n * eps * cond(a), so two LUs that differ in blocking and operation
    # order agree to that relative bound (measured: below 1e-2 of it)
    n = a.shape[0]
    want = _loop_lu_determinant(a)
    got = algebra.determinant(a)
    assert abs(got - want) <= n * np.finfo(float).eps * cond * abs(want), (n, got, want)


@pytest.mark.parametrize("n", [1, 2, 5, 64, 256])
@pytest.mark.parametrize("kind", [float, complex])
def test_determinant_matches_the_loop_lu(n, kind):
    rng = np.random.default_rng(10 * n + (kind is complex))
    a = rng.standard_normal((n, n))
    if kind is complex:
        a = a + 1j * rng.standard_normal((n, n))
    _assert_same_determinant(a, np.linalg.cond(a))


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("x", [1.0, 10.0])
def test_determinant_matches_the_loop_lu_on_the_circulant_exponential(n, x):
    # exp(x * shift) is normal with eigenvalues exp(x s^k), so its
    # condition number is at most exp(2|x|)
    _assert_same_determinant(hyperbolic.exp_circulant(n, x), math.exp(2 * abs(x)))


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


@pytest.mark.parametrize("n", [2, 3, 5, 64, 256])
def test_shift_power_is_the_rolled_identity(n):
    # the scattered permutation is the rolled identity bit for bit, for any int j
    for j in (-n - 1, -1, 0, 1, n, 2 * n + 3, 10**30):
        power = algebra.shift_power(n, j)
        rolled = np.roll(np.eye(n, dtype=complex), j % n, axis=0)
        assert power.dtype == rolled.dtype and power.tobytes() == rolled.tobytes()
    s = algebra.shift_matrix(n)
    for j in range(7):
        np.testing.assert_array_equal(algebra.shift_power(n, j), np.linalg.matrix_power(s, j % n))


@pytest.mark.parametrize("n", [2, 3, 64, 4096])
def test_roots_of_unity_are_the_exponentials_bit_for_bit(n):
    roots = algebra.roots_of_unity(n)
    assert roots.tobytes() == np.exp(2j * np.pi * np.arange(n) / n).tobytes()
    assert algebra.roots_of_unity(float(n)) is roots


def test_roots_of_unity_are_read_only():
    roots = algebra.roots_of_unity(8)
    with pytest.raises(ValueError):
        roots[0] = 2.0
    copy = np.array(roots)
    copy[0] = 2.0
    assert algebra.roots_of_unity(8)[0] == 1.0


def test_the_roots_memo_is_bounded_and_stays_right():
    # more distinct levels than the memo keeps, twice over: every call is still exact
    levels = range(2, 2 + 2 * algebra.ROOTS_MEMO + 5)
    for _ in range(2):
        for n in levels:
            assert algebra.roots_of_unity(n).tobytes() == np.exp(2j * np.pi * np.arange(n) / n).tobytes()
    assert algebra._roots.cache_info().currsize == algebra.ROOTS_MEMO


def test_shift_matrix_is_the_first_shift_power():
    for n in range(2, 70):
        fill = np.zeros((n, n), dtype=complex)
        for i in range(n):
            fill[(i + 1) % n, i] = 1.0
        shift = algebra.shift_matrix(n)
        assert shift.dtype == complex and np.array_equal(shift, fill)
