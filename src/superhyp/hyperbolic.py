"""Sectioned exponential series and their circulant-exponential identities.

For a level count n, the exponential series splits into n residue
classes: c_j(x) = sum_k x^(k*n+j) / (k*n+j)!  for j = 0..n-1.  At n=2
these are cosh and sinh.  The same values fall out of a roots-of-unity
filter, c_j(x) = (1/n) sum_k s^(-j*k) exp(s^k x) with s = exp(2*pi*i/n),
and both routes are implemented so each can check the other.

The vector (c_0(x), ..., c_{n-1}(x)) is the first column of the
circulant matrix exp(x * shift), which is where the determinant,
addition and mixed-product identities verified here come from.  The
filter gets all n classes from one FFT (`algebra.circulant_column`), and
each check has an FFT-free side: `c_series` for the filter (agreement);
the exact value 1 for the LU determinant of `exp_circulant` and for the
printed polynomials in series values (identity, polynomial); series at
x+y against the convolution of series at x and y (addition); the series
product against one filter column (mixed).  Tests also compare
`exp_circulant` with the dense `algebra.mat_exp`.

Error model: for x >= 0 every series term is nonnegative and the sums
are accurate to relative machine precision.  For x < 0 the partial sums
reach exp(|x|) scale before cancelling, so absolute accuracy degrades
like exp(|x|) * eps even with compensated summation; residual checks
scale their tolerances accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import circulant, circulant_column, determinant, max_abs, roots_of_unity
from .errors import DomainError, ValidationError, require_index, require_level, require_tol, require_x

X_MAX = 700.0
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps

METHODS = ("series", "filter")

# Expanded determinant identities P_n(c_0..c_{n-1}) = 1 for small n, kept
# as (coefficient, exponent tuple) monomials in one place.  The n=4 list
# has exactly ten monomials; a unit test pins them.
POLY_IDENTITY_MONOMIALS = {
    2: (
        (1.0, (2, 0)),
        (-1.0, (0, 2)),
    ),
    3: (
        (1.0, (3, 0, 0)),
        (1.0, (0, 3, 0)),
        (1.0, (0, 0, 3)),
        (-3.0, (1, 1, 1)),
    ),
    4: (
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
    ),
}


def c_series(n: int, j: int, x: float, tol: float = 1e-14) -> float:
    """Residue-class j of the exponential series at x, by direct summation.

    Terms are generated by the ratio t_{k+1} = t_k * x^n / ((kn+j+1) ...
    (kn+j+n)), never from standalone factorials, and accumulated with
    Kahan compensation.  Summation stops once the next term falls below
    tol * (|sum| + tiny) and the term index has passed |x| (before that
    the terms may still be growing).
    """
    n = require_level(n)
    j = require_index(j, n)
    x = require_x(x, X_MAX)
    tol = require_tol(tol)

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
        if abs(term) <= tol * (abs(total) + _TINY) and m >= abs(x):
            return total


def filter_column(n: int, x: float) -> np.ndarray:
    """Raw filter sums (1/n) sum_k s^(-j*k) exp(s^k x) for every class j, by one FFT.

    This is the first column of exp(x * shift).  The imaginary parts are
    pure rounding residue and should stay below about 1e-10 * exp(|x|).
    """
    return circulant_column(np.exp(require_x(x, X_MAX) * roots_of_unity(n)))


def c_filter_complex(n: int, j: int, x: float) -> complex:
    """Raw roots-of-unity filter sum (1/n) sum_k s^(-j*k) exp(s^k x), entry j of filter_column.

    Callers wanting the value use c_filter.
    """
    j = require_index(j, require_level(n))
    return complex(filter_column(n, x)[j])


def c_filter(n: int, j: int, x: float) -> float:
    """Residue-class j of the exponential series, via the roots-of-unity filter."""
    return c_filter_complex(n, j, x).real


def _values(n: int, x: float, method: str, tol: float = 1e-14) -> np.ndarray:
    if method == "series":
        return np.array([c_series(n, j, x, tol) for j in range(n)])
    if method == "filter":
        return filter_column(n, x).real
    raise DomainError(f"invalid-method: expected one of {METHODS}, got {method!r}")


@dataclass(frozen=True)
class SuperHypValues:
    """The vector (c_0(x), ..., c_{n-1}(x)) with its defining parameters."""

    n: int
    x: float
    values: np.ndarray
    method: str

    def validate(self) -> None:
        """Check the invariants the vector must satisfy.

        The components sum to exp(x); for that check (and all others)
        the tolerance carries the exp(|x|) double-precision error scale,
        which for x >= 0 is just relative accuracy.  Nonnegativity for
        x >= 0 is exact on the series route and allowed a small rounding
        slack on the filter route.  For even n, flipping the sign of x
        flips the sign of the odd-j components.
        """
        v = self.values
        scale = math.exp(min(abs(self.x), X_MAX))
        if abs(self.x) <= 20:
            if abs(v.sum() - math.exp(self.x)) > 1e-11 * scale:
                raise ValidationError(
                    f"component sum departs from exp({self.x}): {v.sum()!r}"
                )
        if self.x >= 0:
            slack = 0.0 if self.method == "series" else 64 * _EPS * scale
            if v.min() < -slack:
                raise ValidationError(f"negative component at x={self.x}: {v.min()!r}")
        if self.n % 2 == 0:
            mirror = _values(self.n, -self.x, self.method)
            signs = (-1.0) ** np.arange(self.n)
            if max_abs(mirror - signs * v) > 1e-11 * scale:
                raise ValidationError(f"parity violated at n={self.n}, x={self.x}")


def c_all(n: int, x: float, method: str = "series") -> SuperHypValues:
    """All n residue-class values at x, validated before returning."""
    n = require_level(n)
    x = require_x(x, X_MAX)
    out = SuperHypValues(n=n, x=x, values=_values(n, x, method), method=method)
    out.validate()
    return out


def exp_circulant(n: int, x: float) -> np.ndarray:
    """exp(x * shift) built spectrally, as a circulant matrix.

    O(n log n) column (one FFT of the eigenvalues exp(x s^k)), O(n^2)
    dense gather: entry (i, k) is c_{(i-k) mod n}(x).
    """
    n = require_level(n)
    x = require_x(x, 50.0)
    return circulant(filter_column(n, x))


def fundamental_identity_residual(n: int, x: float) -> float:
    """|det exp(x * shift) - 1|.

    The determinant is the product of exp(x * s^k) over all n-th roots
    of unity s^k, and the exponents sum to zero, so the exact value is 1
    for every n and x.
    """
    n = require_level(n)
    x = require_x(x, 10.0)
    return abs(determinant(exp_circulant(n, x)) - 1.0)


def polynomial_identity_residual(n: int, x: float) -> float:
    """|P_n(c_0..c_{n-1}) - 1| for the explicitly expanded identities.

    Available for n in {2, 3, 4}; the component values come from the
    series route.  This is the same quantity as the determinant residual
    computed through the printed polynomial instead of an LU sweep.
    """
    if n not in POLY_IDENTITY_MONOMIALS:
        raise DomainError(
            f"invalid-level: expanded polynomial known for n in (2, 3, 4), got {n!r}"
        )
    x = require_x(x, 10.0)
    c = _values(n, x, "series")
    total = 0.0
    for coeff, powers in POLY_IDENTITY_MONOMIALS[n]:
        term = coeff
        for base, p in zip(c, powers):
            term *= base ** p
        total += term
    return abs(total - 1.0)


def addition_residual(n: int, x: float, y: float) -> np.ndarray:
    """Per-class residuals of c_j(x+y) = sum_{k+l=j mod n} c_k(x) c_l(y)."""
    n = require_level(n)
    x = require_x(x, 10.0)
    y = require_x(y, 10.0)
    cx = _values(n, x, "series")
    cy = _values(n, y, "series")
    cxy = _values(n, x + y, "series")
    res = np.empty(n)
    for j in range(n):
        rhs = sum(cx[k] * cy[(j - k) % n] for k in range(n))
        res[j] = abs(cxy[j] - rhs)
    return res


def mixed_product_residual(n: int, x: float, y: float) -> np.ndarray:
    """Per-class residuals of the mixed bilinear relation for exp(x*shift) exp(y*shift^T).

    Left side of class j: the series product sum_k c_k(x) c_{(k-j) mod n}(y).
    Right side: (1/n) sum_k s^(k(n-j)) exp(x s^k + y s^(n-k)), all classes
    from one circulant column, whose imaginary parts are checked to be
    rounding-level before the real parts are compared.
    """
    n = require_level(n)
    x = require_x(x, 10.0)
    y = require_x(y, 10.0)
    cx = _values(n, x, "series")
    cy = _values(n, y, "series")
    roots = roots_of_unity(n)
    rhs = circulant_column(np.exp(x * roots + y * np.conj(roots)))
    imag = max_abs(rhs.imag)
    if imag > 1e-10 * math.exp(abs(x) + abs(y)):
        raise ValidationError(f"filter sum failed to collapse to a real value: imag={imag!r}")
    res = np.empty(n)
    for j in range(n):
        lhs = sum(cx[k] * cy[(k - j) % n] for k in range(n))
        res[j] = abs(lhs - rhs[j].real)
    return res
