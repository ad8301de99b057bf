"""Dense complex linear algebra for cyclic clock-and-shift systems.

Everything here is a pure function of its arguments, with one bounded
memo: `roots_of_unity` builds the roots of a level once and returns
that one read-only array on every later call. Matrices are numpy
arrays, complex128 unless their values are real: mat_exp keeps a real
argument float64, and circulant keeps the dtype of its column.  A
circulant is a read-only strided view of O(n) entries, not a dense
n x n copy; np.array(m) gives a writable one.  Comparisons throughout
the package use the entrywise max norm.  The batched kernels of
hyperbolic and genmatrix take their points through the one block loop
here, `_blocked`, block_rows(width) rows at a time.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, require_level

TAYLOR_ORDER = 16
# 1/k! for k = 0..TAYLOR_ORDER, the Taylor coefficients of exp
_INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(TAYLOR_ORDER + 1))
# Horner steps of P_0 + B^4 (P_1 + B^4 (P_2 + B^4 (P_3 + B^4 / 16!))), with the
# Paterson-Stockmeyer blocks P_i(B) = sum_{j<4} B^j / (4i + j)!: row i < 3 holds
# the coefficients of B, B^2, B^3 and of the product B^4 R, row 3 those of B^4,
# B, B^2, B^3; the identity terms 1/(4i)! go on the diagonals
_HORNER_ROWS = np.array(
    [[*(_INV_FACTORIAL[4 * i + j] for j in (1, 2, 3)), 1.0] for i in range(3)]
    + [[_INV_FACTORIAL[TAYLOR_ORDER], *_INV_FACTORIAL[13:16]]]
)
_BLOCK_IDENTITY = _INV_FACTORIAL[0:16:4]
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # 2^-511, exactly
# entries a batched kernel's working arrays hold per block of rows (block_rows)
BLOCK = 2**16
# levels whose roots of unity roots_of_unity keeps
ROOTS_MEMO = 64


def max_abs(a) -> float:
    """Entrywise max norm."""
    return float(np.abs(a).max())


def primitive_root(n: int) -> complex:
    """exp(2*pi*i/n), generator of the n-th roots of unity."""
    return complex(roots_of_unity(n)[1])


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic down-shift: 1 at (i+1 mod n, i), zero elsewhere."""
    return shift_power(n, 1)


def roots_of_unity(n: int) -> np.ndarray:
    """The n-th roots of unity s^k, k = 0..n-1, with s = exp(2*pi*i/n), as a read-only array.

    Each level's array is computed once and shared by every later call,
    in a memo of the last ROOTS_MEMO levels (at most 4 MiB at MAX_LEVEL);
    np.array(roots) gives a writable copy.
    """
    return _roots(require_level(n))


@functools.lru_cache(maxsize=ROOTS_MEMO)
def _roots(n: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    roots.flags.writeable = False
    return roots


def block_rows(width: int) -> int:
    """Rows of `width` entries a batched kernel takes at once: BLOCK // width, at least one."""
    return max(1, BLOCK // width)


def _blocked(fn, width: int, *points) -> np.ndarray:
    """fn on the points (floats, or 1-D arrays or ranges of one length), block_rows(width) rows at a time.

    fn maps 1-D blocks of the points to one row per point; a range comes
    in slices of itself, so a caller can block over indices it never
    holds as an array.  Floats give fn's row for one-point arrays; arrays
    that fit in one block give fn's own result, uncopied, and longer ones
    the rows of every block stacked.
    """
    if not isinstance(points[0], (np.ndarray, range)):
        return fn(*(np.array([p]) for p in points))[0]
    size, step = len(points[0]), block_rows(width)
    out = fn(*(p[:step] for p in points))
    if size > step:
        first, out = out, np.empty((size, *out.shape[1:]), out.dtype)
        out[:step] = first
        for start in range(step, size, step):
            out[start : start + step] = fn(*(p[start : start + step] for p in points))
    return out


def circulant_column(eig) -> np.ndarray:
    """First column of the circulant whose eigenvalue on the k-th Fourier mode is eig[k].

    Entry m is (1/n) sum_k s^(-m*k) eig[k], every m at once by one FFT
    (O(n log n)); a stack of eigenvalue rows gives a stack of columns, by
    one FFT along the last axis.  Because the DFT diagonalizes every
    circulant, this is the single kernel behind exp(x * shift), the
    roots-of-unity filter and the generating-matrix classes.
    """
    eig = np.asarray(eig, dtype=complex)
    return np.fft.fft(eig) / eig.shape[-1]


def circulant(col) -> np.ndarray:
    """Circulant with first column col, as a read-only view: entry (i, k) is col[(i - k) mod n].

    A stack of columns (..., n) gives the stack of circulants (..., n, n).
    Entry (i, k) is element n - 1 - i + k of rev = (col reversed, then
    col[n-1], ..., col[1]), so row i is the forward slice
    rev[n-1-i : 2n-1-i] and the matrix is a view of rev with strides
    (-1, +1) elements: O(n) time and memory, 2n - 1 entries per
    circulant, no n^2 copy and no index arrays.  The view is marked
    read-only because every row shares rev's entries; np.array(m) gives
    a writable C-ordered copy.  numpy's matmul reads the view in place.
    """
    col = np.asarray(col)
    n = col.shape[-1]
    rev = np.concatenate((col[..., ::-1], col[..., :0:-1]), axis=-1)
    step = rev.itemsize
    view = np.ndarray(
        (*col.shape[:-1], n, n),
        rev.dtype,
        buffer=rev,
        offset=(n - 1) * step if rev.size else 0,  # an empty stack has no entry to offset into
        strides=(*rev.strides[:-1], -step, step),
    )
    view.flags.writeable = False
    return view


def clock_matrix(n: int) -> np.ndarray:
    """diag(1, s, ..., s^(n-1)) with s = exp(2*pi*i/n)."""
    return np.diag(roots_of_unity(n))


def shift_power(n: int, j: int) -> np.ndarray:
    """j-th power of the cyclic shift, as a permutation matrix: 1 at ((k + j) mod n, k).

    j is reduced mod n in Python first, so any int works; the ones are
    scattered into zeros, in O(n) writes.
    """
    n = require_level(n)
    k = np.arange(n)
    m = np.zeros((n, n), dtype=complex)
    m[k, np.roll(k, j % n)] = 1.0  # row i holds its one at column (i - j) mod n
    return m


def dft_matrix(n: int) -> np.ndarray:
    """Unitary symmetric matrix with entries s^(-j*k)/sqrt(n).

    Row j carries the powers of s^(n-j), which is the orientation for
    which shift = W @ clock @ W^dagger holds exactly (not a permuted
    version).  The products j*k are reduced mod n before exponentiation
    so every entry is an n-th root of unity to machine precision.
    """
    n = require_level(n)
    jk = np.outer(np.arange(n), np.arange(n)) % n
    return np.exp(-2j * np.pi * jk / n) / np.sqrt(n)


def _diagonalization_defect(s1: np.ndarray, s3: np.ndarray, w: np.ndarray) -> float:
    # max |shift - W clock W^dagger|, on matrices built once per level by the caller
    return max_abs(s1 - w @ s3 @ w.conj().T)


def diagonalize_shift_residual(n: int) -> float:
    """Max-norm residual of shift - W @ clock @ W^dagger."""
    return _diagonalization_defect(shift_matrix(n), clock_matrix(n), dft_matrix(n))


def _require_square_finite(a, what: str = "matrix", stacked: bool = False) -> np.ndarray:
    """a as a float64 array if it is real, else complex128, once it is square and finite.

    stacked asks for a stack of square matrices, shape (T, n, n).
    """
    a = np.asarray(a)
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 + stacked or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DomainError(f"invalid-matrix: {what} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"invalid-matrix: {what} has non-finite entries")
    return a


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a fixed Taylor core.

    The argument is scaled by 2^-s so its 1-norm is at most 0.5, the
    order-16 Taylor polynomial of the scaled matrix B is evaluated, and
    the result is squared s times.  At that scaling the Taylor remainder
    is ~2e-20, so the result is accurate to machine precision for
    moderate norms.

    The polynomial is evaluated by Paterson-Stockmeyer with block size 4:
    with P_i(B) = sum_{j<4} B^j / (4i + j)!, it is
    P_0 + B^4 (P_1 + B^4 (P_2 + B^4 (P_3 + B^4 / 16!))), which takes
    B^2, B^3, B^4 and three products by B^4, i.e. 6 + s matrix products
    in all (Horner would take 16 + s).  Each Horner step
    R <- P_i + B^4 R is one product of a row of coefficients with the
    adjacent planes B, B^2, B^3 and B^4 R (B^4, B, B^2, B^3 for the
    innermost P_3 + B^4 / 16!), plus the identity term 1/(4i)! on the
    diagonal.

    The working memory is one block of 6 n x n planes of the working
    dtype, allocated once per call: B^4, B, B^2, B^3, the product B^4 R
    and R; once the polynomial is formed, the freed power planes hold
    the magnitudes and the sqrt(tiny) mask of the squarings and every
    other square.  Every product, the coefficient rows included, writes
    into a plane of it (np.matmul(..., out=)).  The result is the
    only other allocation (the square that the last squaring writes, or a
    copy of the polynomial when there is none), and it owns its memory,
    so no view keeps the block alive.  The peak is therefore 7 planes:
    7 n^2 * 8 bytes for a real argument, 14 n^2 * 8 for a complex one,
    and 7 n^2 * 8 for a complex argument run in real arithmetic (see
    below), whose complex128 result is made after the block is freed.
    Fewer fresh planes per call also means fewer first-touch page faults
    at large n.

    Before each squaring, the entries of R (for a complex R, its real
    and imaginary parts) smaller than sqrt(tiny) ~ 1.5e-154 in magnitude
    are set to 0.  No product of two kept entries then falls below the
    smallest normal double, where BLAS runs many times slower.  Each
    entry of the square moves by less than 3 n sqrt(tiny) max|R|, below
    the product's own rounding n eps max|R|^2 whenever max|R| > 1e-137.
    The cost is that an entry fed only by such products comes back as 0
    instead of a subnormal number.

    A real argument is exponentiated in real arithmetic and returns
    float64.  So is a complex argument whose imaginary parts are all
    exactly zero, but it returns complex128, bit for bit the real result
    with a zero imaginary part; anything else runs in complex arithmetic.
    """
    a = _require_square_finite(a)
    if np.iscomplexobj(a) and not a.imag.any():
        return _taylor_exp(a.real).astype(complex)
    return _taylor_exp(a)


def _floats(plane: np.ndarray) -> np.ndarray:
    # the memory of a contiguous array as flat float64: a complex plane gives 2 n^2 parts
    return plane.reshape(-1).view(np.float64)


def _taylor_exp(a: np.ndarray) -> np.ndarray:
    """The scaling-and-squaring core of mat_exp, in the arithmetic of a's dtype."""
    n = a.shape[0]
    # one block of working planes: B^4, B, B^2, B^3, the product B^4 R and R
    work = np.empty((6, n, n), a.dtype)
    b4, b, b2, b3, product, r = work
    norm = float(np.abs(a, out=_floats(r)[: n * n].reshape(n, n)).sum(axis=0).max())
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm) + 1.0))
    np.divide(a, 2.0 ** squarings, out=b)
    np.matmul(b, b, out=b2)
    np.matmul(b2, b, out=b3)
    np.matmul(b2, b2, out=b4)
    for i in (3, 2, 1, 0):
        # R = P_i + B^4 R as one row of coefficients times four adjacent planes;
        # real coefficients act on real and imaginary parts alike
        if i < 3:
            np.matmul(b4, r, out=product)
        planes = work[:4] if i == 3 else work[1:5]
        np.matmul(_HORNER_ROWS[i], _floats(planes).reshape(4, -1), out=_floats(r))
        r.reshape(-1)[:: n + 1] += _BLOCK_IDENTITY[i]
    if not squarings:
        return r.copy()
    # the squarings alternate between a freed power plane and the result, so
    # the last one lands in the result; b and b2 hold the magnitudes and the
    # sqrt(tiny) mask
    result = np.empty_like(r)
    magnitude = _floats(b)
    small = _floats(b2).view(bool)[: magnitude.size]
    for k in range(squarings):
        parts = _floats(r)
        np.less(np.abs(parts, out=magnitude), _SQRT_TINY, out=small)
        np.copyto(parts, 0.0, where=small)
        target = result if (squarings - k) % 2 else b3
        np.matmul(r, r, out=target)
        r = target
    return result


def determinant(a) -> complex | np.ndarray:
    """Determinant via LAPACK's LU with partial pivoting (np.linalg.det).

    A real matrix is factored in real arithmetic.  Exact on permutation
    matrices; an exactly singular matrix gives 0.  A stack of matrices,
    shape (T, n, n), gives their T determinants as an array (float64 for
    real matrices), each bit for bit the call on its own matrix.  numpy
    copies each matrix into LAPACK's layout, so a strided view (such as a
    stack of circulant views) needs no dense copy of its own.
    """
    if np.ndim(a) == 3:
        return np.linalg.det(_require_square_finite(a, stacked=True))
    return complex(np.linalg.det(_require_square_finite(a)))


def pauli_residuals(n: int) -> dict[str, float]:
    """Max-norm residuals of the defining relations at level n.

    Keys: root_order (sigma^n = 1), root_sum (1 + sigma + ... = 0),
    shift_order and clock_order (n-th powers are the identity), weyl
    (clock @ shift = sigma * shift @ clock), unitary (W W^dagger = 1)
    and diagonalization (shift = W clock W^dagger).
    """
    n = require_level(n)
    sigma = primitive_root(n)
    s1 = shift_matrix(n)
    s3 = clock_matrix(n)
    w = dft_matrix(n)
    eye = np.eye(n)
    powers = sigma ** np.arange(n)
    return {
        "root_order": abs(sigma ** n - 1.0),
        "root_sum": abs(powers.sum()),
        "shift_order": max_abs(np.linalg.matrix_power(s1, n) - eye),
        "clock_order": max_abs(np.linalg.matrix_power(s3, n) - eye),
        "weyl": max_abs(s3 @ s1 - sigma * (s1 @ s3)),
        "unitary": max_abs(w @ w.conj().T - eye),
        "diagonalization": _diagonalization_defect(s1, s3, w),
    }
