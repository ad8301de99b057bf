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

The series, filter and residual functions (`series_column`,
`filter_column`, `c_all`, `exp_circulant`, `series_residuals`,
`fundamental_identity_residual`, `polynomial_identity_residual`,
`addition_residual`, `mixed_product_residual`) take x (and y) as a float
or as a 1-D array of T points (a batch: the errors module's rule says
what one is, and caps its size).  A float gives the per-point shape, an
array one row per point, and row t is bit for bit the call at point t:
the rows share one series pass, one FFT, one stack of circulants and
one batched LU, so a grid costs one call instead of T.  Each kernel
takes its points block_rows(width) rows at a time through the block
loop `algebra._blocked`, at width n (the addition and mixed residuals
read the circulant views in place) except the determinant's, at n^2
for the dense matrices its LU factors, so its working arrays hold
O(BLOCK + n^2) entries beyond its result; the entries a point keeps
for the whole call are its width under that cap.  The identity
residuals take |x| <= IDENTITY_X_MAX (10).

Error model: for x >= 0 every series term is nonnegative and the sums
are accurate to relative machine precision.  For x < 0 the partial sums
reach exp(|x|) scale before cancelling, so absolute accuracy degrades
like exp(|x|) * eps even with compensated summation; residual checks
scale their tolerances accordingly.
"""

from __future__ import annotations

from reprlib import repr as _short
from typing import NamedTuple

import numpy as np

from .algebra import _blocked, circulant, circulant_column, determinant, roots_of_unity
from .errors import DomainError, ValidationError, require_index, require_level, require_xs

X_MAX = 700.0
# |x| bound of the identity residuals (determinant, polynomial, addition, mixed)
IDENTITY_X_MAX = 10.0
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


def series_column(n: int, x) -> np.ndarray:
    """All n residue classes of the exponential series at x, from one pass over its terms.

    x is a float, giving shape (n,), or a 1-D array of T floats, giving
    (T, n) whose row t is bit for bit the call at x[t].  Term m = x^m/m!
    comes from the ratio t_m = t_{m-1} * x/m, never from a standalone
    factorial, and goes to class m mod n.  Each step of the pass takes the
    next period of n terms for every x at once: np.multiply.accumulate
    over the ratios x/m, seeded with the last term of the previous period,
    which is the same sequence of products as a scalar loop.  Each class
    keeps its own Kahan-compensated sum and stops once its next term falls
    below _SERIES_TOL * (|sum| + tiny) and the term index has passed |x|
    (before that the terms may still be growing); the update and the stop
    rule run masked per (x, class), and the pass ends when no class is
    live.  A term that underflows needs no special step: every later term
    is a signed zero, which meets the stop rule at its class's next
    update.  The x are taken in blocks of width n (_blocked), so the
    working arrays beyond the result hold O(BLOCK) entries.  This is the
    FFT-free reference for filter_column.
    """
    n = require_level(n)
    x = require_xs(x, X_MAX, n)
    return _blocked(lambda xs: _series_block(n, xs[:, None]), n, x)


def _series_block(n: int, x: np.ndarray) -> np.ndarray:
    # the pass of series_column for x of shape (rows, 1), as (rows, n)
    m = np.arange(n, dtype=float)  # term indices of the current period
    terms = np.empty((len(x), n))
    terms[:, 0] = 1.0
    np.divide(x, m[1:], out=terms[:, 1:])
    np.multiply.accumulate(terms, axis=1, out=terms)
    total = terms.copy()  # period 0: the leading term of each class
    comp = np.zeros_like(total)
    live = np.ones(total.shape, dtype=bool)
    ratios, y, s, c = (np.empty_like(total) for _ in range(4))
    stop = np.empty_like(live)
    absx = np.abs(x)
    growing = float(absx.max(initial=0.0))  # 0.0 for no rows
    while live.any():
        m += n
        np.divide(x, m, out=ratios)
        ratios[:, 0] *= terms[:, -1]
        np.multiply.accumulate(ratios, axis=1, out=terms)
        np.subtract(terms, comp, out=y)
        np.add(total, y, out=s)
        np.subtract(s, total, out=c)
        np.subtract(c, y, out=c)
        np.copyto(total, s, where=live)
        np.copyto(comp, c, where=live)
        np.abs(s, out=s)
        s += _TINY
        s *= _SERIES_TOL
        np.abs(terms, out=y)
        np.less_equal(y, s, out=stop)
        if m[0] < growing:
            stop &= m >= absx
        live &= ~stop
    return total


def c_series(n: int, j: int, x: float) -> float:
    """Residue-class j of the exponential series at x, entry j of series_column."""
    j = require_index(j, require_level(n))
    return float(series_column(n, x)[j])


def filter_column(n: int, x) -> np.ndarray:
    """Raw filter sums (1/n) sum_k s^(-j*k) exp(s^k x) for every class j, by one FFT.

    This is the first column of exp(x * shift).  The imaginary parts are
    pure rounding residue and should stay below about 1e-10 * exp(|x|).
    A 1-D x gives one row per x, from one FFT along the rows of each block
    of width n (_blocked).
    """
    n = require_level(n)
    x = require_xs(x, X_MAX, n)
    roots = roots_of_unity(n)
    return _blocked(lambda xs: circulant_column(np.exp(np.multiply.outer(xs, roots))), n, x)


def c_filter_complex(n: int, j: int, x: float) -> complex:
    """Raw roots-of-unity filter sum (1/n) sum_k s^(-j*k) exp(s^k x), entry j of filter_column.

    The value c_j(x) is its real part; the imaginary part is rounding residue.
    """
    j = require_index(j, require_level(n))
    return complex(filter_column(n, x)[j])


def _real_column(col: np.ndarray, scale) -> np.ndarray:
    """The real part of a filter column, or rows of them, whose exact value is real.

    The imaginary part of each row must be rounding residue, at most
    1e-10 * scale (scale is exp of the summed |arguments|, one per row); a
    larger or NaN residue raises ValidationError.
    """
    imag = np.abs(col.imag).max(axis=-1)
    bad = ~(imag <= 1e-10 * scale)
    if bad.any():
        worst = float(np.max(imag, where=bad, initial=-np.inf))
        raise ValidationError(f"filter sum failed to collapse to a real value: imag={worst!r}")
    return col.real


class SuperHypValues(NamedTuple):
    """The vector (c_0(x), ..., c_{n-1}(x)) with its defining parameters.

    A plain record that nothing checks; it is kept rather than a bare
    array because benchmark/workloads.py reads its `.values`.
    """

    n: int
    x: float | np.ndarray
    values: np.ndarray
    method: str


def c_all(n: int, x, method: str = "series") -> SuperHypValues:
    """All n residue-class values at x by one route: series_column or the real filter_column.

    A 1-D x gives values of shape (T, n), one row per x.  The values are
    returned as computed; no invariant is checked here.
    """
    n = require_level(n)
    x = require_xs(x, X_MAX, n)
    if method == "series":
        values = series_column(n, x)
    elif method == "filter":
        values = filter_column(n, x).real
    else:
        raise DomainError(f"invalid-method: expected one of {METHODS}, got {method!r}")
    return SuperHypValues(n=n, x=x, values=values, method=method)


def exp_circulant(n: int, x) -> np.ndarray:
    """exp(x * shift) built spectrally, as a real float64 circulant matrix.

    O(n log n) column (one FFT of the eigenvalues exp(x s^k)), returned
    as algebra.circulant's read-only view: entry (i, k) is
    c_{(i-k) mod n}(x), held in 2n - 1 float64 entries, not n^2.
    The matrix is real, so the imaginary part of the filter column must
    be rounding residue (at most 1e-10 * exp(|x|)); a larger or NaN
    residue raises ValidationError, and only the real part is gathered.
    A 1-D x gives the stack (T, n, n) of views, one per x.
    """
    n = require_level(n)
    x = require_xs(x, 50.0, 2 * n)
    return circulant(_real_column(filter_column(n, x), np.exp(np.abs(x))))


def fundamental_identity_residual(n: int, x) -> float | np.ndarray:
    """|det exp(x * shift) - 1|.

    The determinant is the product of exp(x * s^k) over all n-th roots
    of unity s^k, and the exponents sum to zero, so the exact value is 1
    for every n and x.  It is computed by a real LU (LAPACK, on its own
    dense copy of the float64 `exp_circulant` view), not from those
    eigenvalues.  A 1-D x gives one residual per x, bit for bit the float
    call: one stack of circulant views and one batched LU per block of
    width n^2 (_blocked).
    """
    n = require_level(n)
    x = require_xs(x, IDENTITY_X_MAX)

    def residual(xs):
        return np.abs(determinant(exp_circulant(n, xs)) - 1.0)

    return _blocked(residual, n * n, x) if isinstance(x, np.ndarray) else float(residual(x))


def polynomial_identity(n: int, values) -> np.ndarray:
    """P_n(c_0..c_{n-1}), the printed determinant polynomial, for n in {2, 3, 4}.

    values holds the classes, shape (n,) or one row per point (T, n); any
    other shape, or a value that is not a number, is a DomainError.  Each
    power is Python's float ** int, value by value: numpy's vectorised
    power can differ from it in the last bit.  A power that overflows a
    double raises DomainError.
    """
    if n not in POLY_IDENTITY_MONOMIALS:
        raise DomainError(
            f"invalid-level: expanded polynomial known for n in (2, 3, 4), got {n!r}"
        )
    try:
        rows = np.atleast_2d(values)
    except ValueError:  # a ragged list
        rows = None
    if rows is None or rows.ndim != 2 or rows.shape[1] != n:
        raise DomainError(f"invalid-grid: need {n} class values, shape ({n},) or (T, {n}), got {_short(values)}")
    total = 0.0
    for coeff, powers in POLY_IDENTITY_MONOMIALS[n]:
        term = coeff
        for column, p in zip(rows.T.tolist(), powers):
            try:
                term = term * np.array([v**p for v in column])
            except OverflowError:
                raise DomainError(f"overflow-domain: a class value to the power {p} overflows a double") from None
            except TypeError:  # e.g. None or a string
                raise DomainError(f"invalid-grid: need class values that are numbers, got {_short(values)}") from None
        total = total + term
    return total if np.ndim(values) == 2 else total[0]


def polynomial_identity_residual(n: int, x) -> float | np.ndarray:
    """|P_n(c_0..c_{n-1}) - 1| for the explicitly expanded identities.

    Available for n in {2, 3, 4}; the component values come from the
    series route (a 1-D x gives one residual per x).  This is the same
    quantity as the determinant residual computed through the printed
    polynomial instead of an LU sweep.
    """
    x = require_xs(x, IDENTITY_X_MAX, require_level(n))
    return np.abs(polynomial_identity(n, series_column(n, x)) - 1.0)


def series_residuals(n: int, x) -> np.ndarray:
    """What one series pass at x checks: max_j |series c_j - real filter c_j|, then |P_n - 1|.

    The second column, the printed polynomial on the same series values,
    is there for n in {2, 3, 4}.  A 1-D x gives one row per x; each block
    of width n (_blocked) reduces its own columns, never held whole.
    """
    n = require_level(n)
    x = require_xs(x, X_MAX, 2)

    def block(xs):
        series = series_column(n, xs)
        spread = np.abs(series - filter_column(n, xs).real).max(axis=1)
        if n not in POLY_IDENTITY_MONOMIALS:
            return spread[:, None]
        return np.stack((spread, np.abs(polynomial_identity(n, series) - 1.0)), axis=1)

    return _blocked(block, n, x)


def _pair_rows(n: int, x, y) -> tuple[int, float | np.ndarray, float | np.ndarray]:
    # n, x and y (|.| <= 10): both floats, or 1-D of one length; a point keeps n
    # residuals, its series and circulant view (2n - 1 entries) live only in its
    # block of width n (_blocked)
    n = require_level(n)
    x = require_xs(x, IDENTITY_X_MAX, n)
    y = require_xs(y, IDENTITY_X_MAX, n)
    if np.shape(x) != np.shape(y):
        raise DomainError(f"invalid-grid: need x and y of one shape, got {np.shape(x)} and {np.shape(y)}")
    return n, x, y


def addition_residual(n: int, x, y) -> np.ndarray:
    """Per-class residuals of c_j(x+y) = sum_{k+l=j mod n} c_k(x) c_l(y).

    The right side is the cyclic convolution of the series columns at x
    and y, i.e. the circulant of c(y) applied to c(x).  Floats x, y give
    shape (n,); 1-D x, y of length T give (T, n), one series call per
    block of width n (_blocked), whose products read algebra.circulant's
    views in place: O(BLOCK) entries at once, no n x n matrix.
    """
    n, x, y = _pair_rows(n, x, y)

    def block(xs, ys):
        cx, cy, cxy = np.split(series_column(n, np.concatenate((xs, ys, xs + ys))), 3)
        return np.abs(cxy - (circulant(cy) @ cx[:, :, None])[:, :, 0])

    return _blocked(block, n, x, y)


def mixed_product_residual(n: int, x, y) -> np.ndarray:
    """Per-class residuals of the mixed bilinear relation for exp(x*shift) exp(y*shift^T).

    Left side of class j: the series product sum_k c_k(x) c_{(k-j) mod n}(y),
    i.e. c(x) times the circulant of c(y).
    Right side: (1/n) sum_k s^(k(n-j)) exp(x s^k + y s^(n-k)), all classes
    from one circulant column, whose imaginary parts are checked to be
    rounding-level before the real parts are compared.  Shapes and memory
    as in addition_residual.
    """
    n, x, y = _pair_rows(n, x, y)
    roots = roots_of_unity(n)

    def block(xs, ys):
        cx, cy = np.split(series_column(n, np.concatenate((xs, ys))), 2)
        rhs = circulant_column(np.exp(np.multiply.outer(xs, roots) + np.multiply.outer(ys, np.conj(roots))))
        lhs = (cx[:, None, :] @ circulant(cy))[:, 0, :]
        return np.abs(lhs - _real_column(rhs, np.exp(np.abs(xs) + np.abs(ys))))

    return _blocked(block, n, x, y)
