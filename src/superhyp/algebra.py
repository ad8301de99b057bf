"""Dense complex linear algebra for cyclic clock-and-shift systems.

Everything here is a pure function of its arguments. Matrices are plain
numpy arrays, complex128 unless their values are real: mat_exp keeps a
real argument float64, and circulant keeps the dtype of its column;
comparisons throughout the package use the entrywise max norm.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, require_level

TAYLOR_ORDER = 16
# 1/k! for k = 0..TAYLOR_ORDER, the Taylor coefficients of exp
_INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(TAYLOR_ORDER + 1))
# Paterson-Stockmeyer blocks P_i(B) = sum_{j<4} B^j / (4i + j)!, i = 0..3:
# row i holds the coefficients of B, B^2, B^3; the identity terms go on the diagonals
_BLOCK_COEFFS = np.array([[_INV_FACTORIAL[4 * i + j] for j in (1, 2, 3)] for i in range(4)])
_BLOCK_IDENTITY = _INV_FACTORIAL[0:16:4]
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)  # 2^-511, exactly


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
    """The n-th roots of unity s^k, k = 0..n-1, with s = exp(2*pi*i/n)."""
    n = require_level(n)
    return np.exp(2j * np.pi * np.arange(n) / n)


def circulant_column(eig) -> np.ndarray:
    """First column of the circulant whose eigenvalue on the k-th Fourier mode is eig[k].

    Entry m is (1/n) sum_k s^(-m*k) eig[k], every m at once by one FFT
    (O(n log n)).  Because the DFT diagonalizes every circulant, this is
    the single kernel behind exp(x * shift), the roots-of-unity filter and
    the generating-matrix classes.
    """
    eig = np.asarray(eig, dtype=complex)
    return np.fft.fft(eig) / eig.size


def circulant(col) -> np.ndarray:
    """Dense circulant with first column col: entry (i, k) is col[(i - k) mod n].

    Entry (i, k) is element n - 1 - i + k of rev = (col reversed, then
    col[n-1], ..., col[1]), so row i is the forward slice
    rev[n-1-i : 2n-1-i] and the matrix is a view of rev with strides
    (-1, +1) elements, copied once into a fresh C-ordered array: O(n^2)
    writes and no index arrays.  The inner stride is positive because
    numpy copies a complex128 view faster that way (at n = 1024, 2.0 ms
    with strides (+1, -1) against 1.0 ms, on a 2-core Xeon); a float64
    copy takes the same time either way.
    """
    col = np.asarray(col)
    n = col.size
    rev = np.concatenate((col[::-1], col[:0:-1]))
    step = rev.itemsize
    view = np.ndarray((n, n), rev.dtype, buffer=rev, offset=(n - 1) * step, strides=(-step, step))
    return view.copy()


def clock_matrix(n: int) -> np.ndarray:
    """diag(1, s, ..., s^(n-1)) with s = exp(2*pi*i/n)."""
    return np.diag(roots_of_unity(n))


def shift_power(n: int, j: int) -> np.ndarray:
    """j-th power of the cyclic shift, as a permutation matrix."""
    n = require_level(n)
    return np.roll(np.eye(n, dtype=complex), j % n, axis=0)


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


def diagonalize_shift_residual(n: int) -> float:
    """Max-norm residual of shift - W @ clock @ W^dagger."""
    w = dft_matrix(n)
    return max_abs(shift_matrix(n) - w @ clock_matrix(n) @ w.conj().T)


def _require_square_finite(a, what: str = "matrix") -> np.ndarray:
    """a as a float64 array if it is real, else complex128, once it is square and finite."""
    a = np.asarray(a)
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
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
    in all (Horner would take 16 + s).  The four blocks come from one
    (4 x 3) . (3 x n^2) product of their coefficients with B, B^2, B^3
    stacked in one array, plus the identity terms 1/(4i)! added on the
    diagonals.  Every product writes into a preallocated plane
    (np.matmul(..., out=)) and every sum is in place, so the peak working
    memory is 7 n x n planes of the working dtype (the stacked powers and
    the blocks): 7 n^2 * 8 bytes for a real argument, 14 n^2 * 8 for a
    complex one, and 7 n^2 * 8 for a complex argument run in real
    arithmetic (see below), whose complex128 result is made after the
    working planes are freed.

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
    powers = np.empty((3, n, n), a.dtype)
    b, b2, b3 = powers
    norm = float(np.abs(a, out=_floats(b)[: n * n].reshape(n, n)).sum(axis=0).max())
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm) + 1.0))
    np.divide(a, 2.0 ** squarings, out=b)
    np.matmul(b, b, out=b2)
    np.matmul(b2, b, out=b3)
    blocks = np.empty((4, n, n), a.dtype)
    # real coefficients act on real and imaginary parts alike
    np.matmul(_BLOCK_COEFFS, _floats(powers).reshape(3, -1), out=_floats(blocks).reshape(4, -1))
    for i, c in enumerate(_BLOCK_IDENTITY):
        blocks[i].reshape(-1)[:: n + 1] += c
    b4 = np.matmul(b2, b2, out=b)
    np.multiply(b4, _INV_FACTORIAL[TAYLOR_ORDER], out=b3)
    blocks[3] += b3
    r = blocks[3]
    for i, dst in zip((2, 1, 0), (b3, b2, b3)):
        np.matmul(b4, r, out=dst)
        dst += blocks[i]
        r = dst
    del blocks
    if not squarings:
        return r.copy()
    # the squarings alternate between b and a fresh result so the last one
    # lands in the result; b2 holds the magnitudes for the sqrt(tiny) cut
    result = np.empty_like(b)
    magnitude = _floats(b2)
    small = np.empty(magnitude.size, dtype=bool)
    for k in range(squarings):
        parts = _floats(r)
        np.less(np.abs(parts, out=magnitude), _SQRT_TINY, out=small)
        np.copyto(parts, 0.0, where=small)
        dst = result if (squarings - k) % 2 else b
        np.matmul(r, r, out=dst)
        r = dst
    return result


def determinant(a) -> complex:
    """Determinant via LAPACK's LU with partial pivoting (np.linalg.det).

    A real matrix is factored in real arithmetic.  Exact on permutation
    matrices; an exactly singular matrix gives 0.
    """
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
        "diagonalization": diagonalize_shift_residual(n),
    }
