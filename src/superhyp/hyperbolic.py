"""Sectioned exponential series and their circulant-exponential identities.

For a level count n, the exponential series splits into n residue
classes: c_j(x) = sum_k x^(k*n+j) / (k*n+j)!  for j = 0..n-1.  At n=2
these are cosh and sinh.  The same values fall out of a roots-of-unity
filter, c_j(x) = (1/n) sum_k s^(-j*k) exp(s^k x) with s = exp(2*pi*i/n),
and both routes are implemented so each can check the other.  The value
functions (`series_column`, `filter_column`, `c_all`, and `c_series` and
`c_filter_complex` for one class) only compute: the invariants of the
values (sum exp(x), sign for x >= 0, parity for even n) are asserted by
the tests, and the identity residuals below are judged in verify.py.

The vector (c_0(x), ..., c_{n-1}(x)) is the first column of the
circulant matrix exp(x * shift), which is where the determinant,
addition and mixed-product identities verified here come from.  The
filter gets all n classes from one FFT (`filter_column`), the series
all n classes from one pass over its terms (`series_column`), and each
check has an FFT-free side: `series_column` for the filter (agreement);
the exact value 1 for the LU determinant (a real LAPACK LU) of the
dense float64 `exp_circulant` and for the printed polynomials in series
values (identity, polynomial); series at x+y against the convolution of
series at x and y (addition); the series product against one filter
column (mixed).  The identity check factors the dense matrix rather than
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
from .errors import DomainError, ValidationError, require_index, require_level, require_x

X_MAX = 700.0
# relative stopping tolerance of each class sum in series_column
_SERIES_TOL = 1e-14
_TINY = np.finfo(float).tiny

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


def series_column(n: int, x: float) -> np.ndarray:
    """All n residue classes of the exponential series at x, from one pass over its terms.

    Term m = x^m/m! comes from the ratio t_m = t_{m-1} * x/m, never from a
    standalone factorial, and goes to class m mod n.  Each class keeps its
    own Kahan-compensated sum and stops once its next term falls below
    _SERIES_TOL * (|sum| + tiny) and the term index has passed |x|
    (before that the terms may still be growing).  This is the FFT-free
    reference for filter_column.
    """
    n = require_level(n)
    x = require_x(x, X_MAX)
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
            if abs(term) <= _SERIES_TOL * (abs(t) + _TINY) and m >= abs(x):
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


def c_series(n: int, j: int, x: float) -> float:
    """Residue-class j of the exponential series at x, entry j of series_column."""
    j = require_index(j, require_level(n))
    return float(series_column(n, x)[j])


def filter_column(n: int, x: float) -> np.ndarray:
    """Raw filter sums (1/n) sum_k s^(-j*k) exp(s^k x) for every class j, by one FFT.

    This is the first column of exp(x * shift).  The imaginary parts are
    pure rounding residue and should stay below about 1e-10 * exp(|x|).
    """
    return circulant_column(np.exp(require_x(x, X_MAX) * roots_of_unity(n)))


def c_filter_complex(n: int, j: int, x: float) -> complex:
    """Raw roots-of-unity filter sum (1/n) sum_k s^(-j*k) exp(s^k x), entry j of filter_column.

    The value c_j(x) is its real part; the imaginary part is rounding residue.
    """
    j = require_index(j, require_level(n))
    return complex(filter_column(n, x)[j])


def _real_column(col: np.ndarray, scale: float) -> np.ndarray:
    """The real part of a filter column whose exact value is real.

    The imaginary part must be rounding residue, at most 1e-10 * scale
    (scale is exp of the summed |arguments|); a larger or NaN residue
    raises ValidationError.
    """
    imag = max_abs(col.imag)
    if not imag <= 1e-10 * scale:
        raise ValidationError(f"filter sum failed to collapse to a real value: imag={imag!r}")
    return col.real


@dataclass(frozen=True)
class SuperHypValues:
    """The vector (c_0(x), ..., c_{n-1}(x)) with its defining parameters.

    A plain record that nothing checks; it is kept rather than a bare
    array because benchmark/workloads.py reads its `.values`.
    """

    n: int
    x: float
    values: np.ndarray
    method: str


def c_all(n: int, x: float, method: str = "series") -> SuperHypValues:
    """All n residue-class values at x by one route: series_column or the real filter_column.

    The values are returned as computed; no invariant is checked here.
    """
    n = require_level(n)
    x = require_x(x, X_MAX)
    if method == "series":
        values = series_column(n, x)
    elif method == "filter":
        values = filter_column(n, x).real
    else:
        raise DomainError(f"invalid-method: expected one of {METHODS}, got {method!r}")
    return SuperHypValues(n=n, x=x, values=values, method=method)


def exp_circulant(n: int, x: float) -> np.ndarray:
    """exp(x * shift) built spectrally, as a real float64 circulant matrix.

    O(n log n) column (one FFT of the eigenvalues exp(x s^k)), O(n^2)
    dense gather: entry (i, k) is c_{(i-k) mod n}(x), n^2 * 8 bytes.
    The matrix is real, so the imaginary part of the filter column must
    be rounding residue (at most 1e-10 * exp(|x|)); a larger or NaN
    residue raises ValidationError, and only the real part is gathered.
    """
    n = require_level(n)
    x = require_x(x, 50.0)
    return circulant(_real_column(filter_column(n, x), math.exp(abs(x))))


def fundamental_identity_residual(n: int, x: float) -> float:
    """|det exp(x * shift) - 1|.

    The determinant is the product of exp(x * s^k) over all n-th roots
    of unity s^k, and the exponents sum to zero, so the exact value is 1
    for every n and x.  It is computed by a real LU (LAPACK) of the
    dense float64 `exp_circulant`, not from those eigenvalues.
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
    c = series_column(n, x)
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
    cx = series_column(n, x)
    cy = series_column(n, y)
    return np.abs(series_column(n, x + y) - circulant(cy) @ cx)


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
    cx = series_column(n, x)
    cy = series_column(n, y)
    roots = roots_of_unity(n)
    rhs = circulant_column(np.exp(x * roots + y * np.conj(roots)))
    return np.abs(cx @ circulant(cy) - _real_column(rhs, math.exp(abs(x) + abs(y))))
