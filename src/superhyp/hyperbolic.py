"""Sectioned exponential series and their circulant-exponential identities.

For a level count n, the exponential series splits into n residue
classes: c_j(x) = sum_k x^(k*n+j) / (k*n+j)!  for j = 0..n-1.  At n=2
these are cosh and sinh.  The same values fall out of a roots-of-unity
filter, c_j(x) = (1/n) sum_k s^(-j*k) exp(s^k x) with s = exp(2*pi*i/n),
and both routes are implemented so each can check the other.

The vector (c_0(x), ..., c_{n-1}(x)) is the first column of the
circulant matrix exp(x * shift), which is where the determinant,
addition and mixed-product identities verified here come from.  The
filter gets all n classes from one FFT (`filter_column`), the series
all n classes from one pass over its terms (`series_column`), and each
check has an FFT-free side: `series_column` for the filter (agreement);
the exact value 1 for the LU determinant (LAPACK) of the dense
`exp_circulant` and for the printed polynomials in series values
(identity, polynomial); series at x+y against the convolution of series
at x and y (addition); the series product against one filter column
(mixed).  The identity check factors the dense matrix rather than
multiplying its eigenvalues, whose product is 1 by construction.  Tests
also compare `exp_circulant` with the dense `algebra.mat_exp`.

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


def series_column(n: int, x: float, tol: float = 1e-14) -> np.ndarray:
    """All n residue classes of the exponential series at x, from one pass over its terms.

    Term m = x^m/m! comes from the ratio t_m = t_{m-1} * x/m, never from a
    standalone factorial, and goes to class m mod n.  Each class keeps its
    own Kahan-compensated sum and stops once its next term falls below
    tol * (|sum| + tiny) and the term index has passed |x| (before that
    the terms may still be growing).  This is the FFT-free reference for
    filter_column.
    """
    n = require_level(n)
    x = require_x(x, X_MAX)
    tol = require_tol(tol)
    total = [1.0]
    comp = [0.0] * n
    live = [True] * n
    left = n
    term = 1.0
    m = 0
    while term != 0.0:
        m += 1
        term *= x / m
        j = m % n
        if m < n:
            total.append(term)
        elif live[j]:
            y = term - comp[j]
            t = total[j] + y
            comp[j] = (t - total[j]) - y
            total[j] = t
            if abs(term) <= tol * (abs(t) + _TINY) and m >= abs(x):
                live[j] = False
                left -= 1
                if not left:
                    return np.array(total)
    # Term m underflowed to zero, and so does every later term, its sign
    # flipping at each step when x is negative.  Each live class adds its
    # next term, a zero that meets its stop rule; a class past m first
    # takes a zero leading term.  So the rest of the pass is one vector step.
    flips = math.copysign(1.0, x) < 0

    def zero_at(steps):
        return np.where(flips & (steps % 2 == 1), -term, term)

    seen = len(total)  # classes 0..seen-1 already hold their leading term
    steps = (np.arange(n) - m - 1) % n + 1  # from term m to each class's next term
    out = np.empty(n)
    out[seen:] = zero_at(steps[seen:]) + zero_at(steps[seen:] + n)  # leading zero plus one
    live = np.array(live[:seen])
    out[:seen] = total
    out[:seen][live] += zero_at(steps[:seen][live]) - np.array(comp[:seen])[live]
    return out


def c_series(n: int, j: int, x: float, tol: float = 1e-14) -> float:
    """Residue-class j of the exponential series at x, entry j of series_column."""
    j = require_index(j, require_level(n))
    return float(series_column(n, x, tol)[j])


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
        return series_column(n, x, tol)
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
    """Per-class residuals of c_j(x+y) = sum_{k+l=j mod n} c_k(x) c_l(y).

    The right side is the cyclic convolution of the series columns at x
    and y, i.e. the circulant of c(y) applied to c(x).
    """
    n = require_level(n)
    x = require_x(x, 10.0)
    y = require_x(y, 10.0)
    cx = _values(n, x, "series")
    cy = _values(n, y, "series")
    return np.abs(_values(n, x + y, "series") - circulant(cy) @ cx)


def mixed_product_residual(n: int, x: float, y: float) -> np.ndarray:
    """Per-class residuals of the mixed bilinear relation for exp(x*shift) exp(y*shift^T).

    Left side of class j: the series product sum_k c_k(x) c_{(k-j) mod n}(y),
    i.e. c(x) times the circulant of c(y).
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
    return np.abs(cx @ circulant(cy) - rhs.real)
