"""Dense complex linear algebra for cyclic clock-and-shift systems.

Everything here is a pure function of its arguments. Matrices are plain
numpy arrays of complex128; comparisons throughout the package use the
entrywise max norm.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, require_level

TAYLOR_ORDER = 16


def max_abs(a) -> float:
    """Entrywise max norm."""
    return float(np.abs(a).max())


def primitive_root(n: int) -> complex:
    """exp(2*pi*i/n), generator of the n-th roots of unity."""
    return complex(roots_of_unity(n)[1])


def shift_matrix(n: int) -> np.ndarray:
    """Cyclic down-shift: 1 at (i+1 mod n, i), zero elsewhere."""
    n = require_level(n)
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        m[(i + 1) % n, i] = 1.0
    return m


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
    """Dense circulant with first column col: entry (i, k) is col[(i - k) mod n]."""
    col = np.asarray(col)
    k = np.arange(col.size)
    return col[(k[:, None] - k[None, :]) % col.size]


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
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"invalid-matrix: {what} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"invalid-matrix: {what} has non-finite entries")
    return a


def mat_exp(a, tol: float = 1e-13) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a fixed Taylor core.

    The argument is scaled so its 1-norm is at most 0.5, the order-16
    Taylor polynomial is evaluated by Horner, and the result is squared
    back up.  At that scaling the Taylor remainder is ~2e-20, so the
    result is accurate to machine precision for moderate norms; `tol` is
    validated but never loosens the scheme.
    """
    a = _require_square_finite(a)
    if not 0.0 < tol <= 1e-6:
        raise DomainError(f"invalid-tolerance: need 0 < tol <= 1e-6, got {tol!r}")
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm) + 1.0))
    b = a / (2.0 ** squarings)
    eye = np.eye(a.shape[0], dtype=complex)
    r = eye.copy()
    for k in range(TAYLOR_ORDER, 0, -1):
        r = eye + (b @ r) / k
    for _ in range(squarings):
        r = r @ r
    return r


def determinant(a) -> complex:
    """Determinant via LU with partial pivoting on magnitude.

    Ties in the pivot search resolve to the lowest row index, so the
    elimination order (and hence rounding) is deterministic.  Exact on
    permutation matrices.
    """
    a = _require_square_finite(a).copy()
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
