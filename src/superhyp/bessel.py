"""Modified Bessel functions of integer order, real argument.

Small arguments and orders use the ascending series; everything else
uses Miller's backward three-term recurrence, normalized through
exp(x) = I_0(x) + 2 * sum_{k>=1} I_k(x).  Negative arguments reduce to
positive ones through I_k(-x) = (-1)^k I_k(x) and negative orders
through I_{-k} = I_k, so the recurrence always runs in its stable
regime.  Arguments are capped at |x| = 700 to stay below exp overflow.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import MAX_ORDER, require_order, require_weights, require_x, unit_scale

X_MAX = 700.0
_SERIES_X_MAX = 20.0
_SERIES_ORDER_MAX = 30
# relative stopping tolerance of bessel_i's ascending series
_SERIES_TOL = 1e-14
_RESCALE_BITS = 830
_RESCALE_LIMIT = 2.0 ** _RESCALE_BITS  # about 7.5e249
# below this the per-step factor 2m/x could overflow between rescales
_MILLER_X_MIN = 1e-6
_TINY = np.finfo(float).tiny


def miller_start_order(kmax: int, x: float) -> int:
    """Starting order for the backward recurrence.

    kmax + ceil(10 + |x| + 15*sqrt(max(|x|, 1))), a safety margin large
    enough that the unnormalized iterate has converged to the true ratio
    by the time it reaches kmax.
    """
    ax = abs(float(x))
    return int(kmax) + int(math.ceil(10.0 + ax + 15.0 * math.sqrt(max(ax, 1.0))))


def _series_i(k: int, x: float, tol: float) -> float:
    # ascending series at x >= 0, k >= 0; all terms nonnegative
    term = 1.0
    for i in range(1, k + 1):
        term *= (x / 2.0) / i
    total = term
    m = 0
    q = (x / 2.0) ** 2
    while True:
        m += 1
        term *= q / (m * (m + k))
        total += term
        if term <= tol * (total + _TINY) and q < m * (m + k):
            return total


def _miller_values(kmax: int, x: float) -> np.ndarray:
    # one backward pass at x > 0; returns the full normalized array,
    # orders 0 .. miller_start_order(kmax, x) + 1.  A rescale divides only
    # the two live iterates: the stored orders get the rescales they missed
    # (those at steps m < i) exactly, by ldexp, together with the
    # normalization, so a normal-double value is never flushed to zero.
    # The loop runs on Python floats (the same IEEE operations as numpy
    # scalars, at a fraction of the cost); order m is stored after step m,
    # the last step that can rescale it.
    m_start = miller_start_order(kmax, x)
    stored = [0.0] * (m_start + 2)
    missed = np.zeros(m_start + 2, dtype=int)
    upper, lower = 0.0, 1.0  # p[m + 1], p[m]
    for m in range(m_start, 0, -1):
        upper, lower = lower, upper + (2.0 * m / x) * lower
        if lower > _RESCALE_LIMIT:
            upper *= 1.0 / _RESCALE_LIMIT
            lower *= 1.0 / _RESCALE_LIMIT
            missed[m + 1] -= _RESCALE_BITS
        stored[m] = upper
    stored[0] = lower
    p = np.array(stored)
    shift = np.cumsum(missed)
    scaled = np.ldexp(p, shift)
    mantissa, exponent = math.frexp(math.exp(x) / (scaled[0] + 2.0 * scaled[1:].sum()))
    return np.ldexp(p * mantissa, shift + exponent)


class BesselTable(NamedTuple):
    """Orders 0..kmax at a fixed argument, from one recurrence pass.

    norm_residual is the defect of the normalization identity
    exp(|x|) = I_0 + 2 * sum I_k evaluated over the full recurrence
    range at |x| (the signed values for x < 0 are derived afterwards),
    so it measures rounding only, not table truncation.
    """

    x: float
    kmax: int
    values: np.ndarray
    norm_residual: float


def bessel_table(kmax: int, x: float) -> BesselTable:
    """Consistent table I_0(x)..I_kmax(x).

    Parameters
    ----------
    kmax : int
        Highest order, 0..MAX_ORDER.
    x : float
        Argument, |x| <= 700.  Negative x yields the signed values
        (-1)^k I_k(|x|).

    Returns
    -------
    BesselTable
    """
    kmax = require_order(kmax)
    x = require_x(x, X_MAX)
    ax = abs(x)
    if ax == 0.0:
        values = np.zeros(kmax + 1)
        values[0] = 1.0
        return BesselTable(x=x, kmax=kmax, values=values, norm_residual=0.0)

    if ax >= _MILLER_X_MIN:
        full = _miller_values(kmax, ax)
    else:
        # tiny arguments: the recurrence steps would overflow, and the
        # series needs only a couple of terms per order
        top = max(kmax, 12)
        full = np.array([_series_i(k, ax, 1e-15) for k in range(top + 1)])
    # re-sum the scaled pass to record the rounding defect of the normalization
    norm_residual = abs(full[0] + 2.0 * full[1:].sum() - math.exp(ax))
    values = full[: kmax + 1].copy()
    if x < 0:
        values[1::2] *= -1.0
    return BesselTable(x=x, kmax=kmax, values=values, norm_residual=norm_residual)


def bessel_i(k: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order.

    Parameters
    ----------
    k : int
        Order, any sign (I_{-k} = I_k).
    x : float
        Argument, |x| <= 700.

    Returns
    -------
    float

    Notes
    -----
    The ascending series is used for |x| <= 20 or |k| <= 30, where it is
    both stable (all terms positive) and short, and stops at relative
    tolerance _SERIES_TOL; larger cases go through the normalized
    backward recurrence.
    """
    k = abs(require_order(k, -MAX_ORDER))
    x = require_x(x, X_MAX)
    ax = abs(x)
    if ax == 0.0:
        return 1.0 if k == 0 else 0.0
    if ax <= _SERIES_X_MAX or k <= _SERIES_ORDER_MAX:
        value = _series_i(k, ax, _SERIES_TOL)
    else:
        value = float(_miller_values(k, ax)[k])
    if value == 0.0:
        return 0.0
    if x < 0 and k % 2 == 1:
        value = -value
    return value


class ClassicResiduals(NamedTuple):
    """Residuals of the four classical I_k summation identities."""

    one: float
    exp: float
    cosh: float
    sinh: float


def classic_min_order(x: float) -> int:
    """Smallest truncation order classic_identity_residuals accepts at x: ceil(2*max(8, |x|))."""
    return math.ceil(2 * max(8.0, abs(float(x))))


def classic_identity_residuals(x: float, K: int) -> ClassicResiduals:
    """Defects of the classical identities, truncated at order K.

    The identities: 1 = I_0 + 2*sum (-1)^k I_2k;  exp(+-x) = I_0 +
    2*sum (+-1)^k I_k (the worse of the two signs is reported);
    cosh x = I_0 + 2*sum I_2k;  sinh x = 2*sum I_{2k-1}.

    K must be at least 2*max(8, |x|) so the truncated tails are
    negligible against the exp(|x|) working scale.
    """
    x = require_x(x, X_MAX)
    K = require_order(K, classic_min_order(x))
    v = bessel_table(K, x).values
    k = np.arange(1, K + 1)
    even = v[2::2]
    odd = v[1::2]
    alt_even = ((-1.0) ** np.arange(1, even.size + 1)) * even
    alt_all = ((-1.0) ** k) * v[1:]
    return ClassicResiduals(
        one=abs(1.0 - (v[0] + 2.0 * alt_even.sum())),
        exp=max(
            abs(math.exp(x) - (v[0] + 2.0 * v[1:].sum())),
            abs(math.exp(-x) - (v[0] + 2.0 * alt_all.sum())),
        ),
        cosh=abs(math.cosh(x) - (v[0] + 2.0 * even.sum())),
        sinh=abs(math.sinh(x) - 2.0 * odd.sum()),
    )


def generating_function_residual(x: float, w, K: int) -> float | np.ndarray:
    """|exp((x/2)(w + 1/w)) - sum_{|k|<=K} I_k(x) w^k|.

    x and w must pass `unit_scale` (ARG_MAX bounds); the truncated
    bilateral sum folds negative orders through I_{-k} = I_k.
    Useful accuracy needs |w| within roughly [0.5, 2], where the w^k
    tails still decay against I_k.  w may be a batch of weights (the
    errors module's rule): the call builds one table for all of them and
    returns one residual per weight, bit for bit the one-weight call; a
    bad weight raises the DomainError of its one-weight call.
    """
    batch = require_weights(w)
    weights = [w] if batch is None else batch
    for v in weights:
        unit_scale(x, v)
    x = float(x)
    K = require_order(K)
    values = bessel_table(K, x).values
    residuals = []
    for v in weights:
        v = complex(v)
        residuals.append(abs(np.exp((x / 2.0) * (v + 1.0 / v)) - _comb_sum(values, 1, v, 0, K)))
    return residuals[0] if batch is None else np.array(residuals)


def _comb_sum(values, n: int, w: complex, j: int, K: int) -> complex:
    """sum over k of values[|n*k-j|] w^(n*k-j) for |n*k-j| <= K, with values a Bessel table.

    The bilateral Bessel sum behind `generating_function_residual` (n=1,
    j=0) and `genmatrix.bessel_comb_series`.  Orders past the table's
    last nonzero value add nothing (see unit_scale), so the sum stops
    there even when K is larger.  The loop runs on Python scalars
    (`item`): the same IEEE products as numpy scalars, at a fraction of
    the cost.
    """
    K = min(K, int(np.flatnonzero(values)[-1]))
    k_lo = math.ceil((-K + j) / n)
    k_hi = math.floor((K + j) / n)
    total = 0j
    for k in range(k_lo, k_hi + 1):
        m = n * k - j
        total += values.item(abs(m)) * w ** m
    return total
