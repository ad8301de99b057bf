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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

X_MAX = 700.0
# bound on |x| * max(|w|, 1/|w|) for the generating function and its matrix form
ARG_MAX = 50.0
_SERIES_X_MAX = 20.0
_SERIES_ORDER_MAX = 30
_RESCALE_BITS = 830
_RESCALE_LIMIT = 2.0 ** _RESCALE_BITS  # about 7.5e249
# below this the per-step factor 2m/x could overflow between rescales
_MILLER_X_MIN = 1e-6
_TINY = np.finfo(float).tiny


def _require_x(x) -> float:
    x = float(x)
    if not math.isfinite(x) or abs(x) > X_MAX:
        raise DomainError(f"overflow-domain: need |x| <= {X_MAX}, got {x!r}")
    return x


def unit_scale(x: float, w: complex) -> float:
    """|x| * max(|w|, 1/|w|), the working magnitude of the generating function sums.

    Raises DomainError unless w is nonzero and finite and the magnitude
    is at most ARG_MAX, so exp(unit_scale(x, w)) never overflows.
    """
    w = complex(w)
    if w == 0:
        raise DomainError("invalid-argument: w must be nonzero")
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(f"invalid-argument: w must be finite, got {w!r}")
    r = math.hypot(w.real, w.imag)  # inf, not OverflowError, for huge finite w
    scale = abs(float(x)) * max(r, 1.0 / r)
    if not scale <= ARG_MAX:
        raise DomainError(
            f"overflow-domain: need |x|*max(|w|,1/|w|) <= {ARG_MAX}, got x={float(x)!r}, w={w!r}"
        )
    return scale


def _require_order(k) -> int:
    if isinstance(k, bool) or not float(k).is_integer():
        raise DomainError(f"invalid-index: order must be an integer, got {k!r}")
    return int(k)


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
    m_start = miller_start_order(kmax, x)
    p = np.zeros(m_start + 2)
    p[m_start] = 1.0
    missed = np.zeros(m_start + 2, dtype=int)
    for m in range(m_start, 0, -1):
        p[m - 1] = p[m + 1] + (2.0 * m / x) * p[m]
        if p[m - 1] > _RESCALE_LIMIT:
            p[m - 1:m + 1] *= 1.0 / _RESCALE_LIMIT
            missed[m + 1] -= _RESCALE_BITS
    shift = np.cumsum(missed)
    scaled = np.ldexp(p, shift)
    mantissa, exponent = math.frexp(math.exp(x) / (scaled[0] + 2.0 * scaled[1:].sum()))
    return np.ldexp(p * mantissa, shift + exponent)


@dataclass(frozen=True)
class BesselTable:
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
        Highest order, >= 0.
    x : float
        Argument, |x| <= 700.  Negative x yields the signed values
        (-1)^k I_k(|x|).

    Returns
    -------
    BesselTable
    """
    kmax = _require_order(kmax)
    if kmax < 0:
        raise DomainError(f"invalid-index: kmax must be >= 0, got {kmax}")
    x = _require_x(x)
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


def bessel_i(k: int, x: float, tol: float = 1e-14) -> float:
    """Modified Bessel function of the first kind, integer order.

    Parameters
    ----------
    k : int
        Order, any sign (I_{-k} = I_k).
    x : float
        Argument, |x| <= 700.
    tol : float
        Relative stopping tolerance for the ascending series.

    Returns
    -------
    float

    Notes
    -----
    The ascending series is used for |x| <= 20 or |k| <= 30, where it is
    both stable (all terms positive) and short; larger cases go through
    the normalized backward recurrence.
    """
    k = abs(_require_order(k))
    x = _require_x(x)
    if not 0.0 < tol <= 1e-6:
        raise DomainError(f"invalid-tolerance: need 0 < tol <= 1e-6, got {tol!r}")
    ax = abs(x)
    if ax == 0.0:
        return 1.0 if k == 0 else 0.0
    if ax <= _SERIES_X_MAX or k <= _SERIES_ORDER_MAX:
        value = _series_i(k, ax, tol)
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


def classic_identity_residuals(x: float, K: int) -> ClassicResiduals:
    """Defects of the classical identities, truncated at order K.

    The identities: 1 = I_0 + 2*sum (-1)^k I_2k;  exp(+-x) = I_0 +
    2*sum (+-1)^k I_k (the worse of the two signs is reported);
    cosh x = I_0 + 2*sum I_2k;  sinh x = 2*sum I_{2k-1}.

    K must be at least 2*max(8, |x|) so the truncated tails are
    negligible against the exp(|x|) working scale.
    """
    x = _require_x(x)
    K = _require_order(K)
    if K < 2 * max(8.0, abs(x)):
        raise DomainError(f"invalid-index: need K >= 2*max(8, |x|), got {K}")
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


def generating_function_residual(x: float, w: complex, K: int) -> float:
    """|exp((x/2)(w + 1/w)) - sum_{|k|<=K} I_k(x) w^k|.

    w must be nonzero with |x| * max(|w|, 1/|w|) <= ARG_MAX; the
    truncated bilateral sum folds negative orders through I_{-k} = I_k.
    Useful accuracy needs |w| within roughly [0.5, 2], where the w^k
    tails still decay against I_k.
    """
    x = _require_x(x)
    unit_scale(x, w)
    w = complex(w)
    K = _require_order(K)
    if K < 0:
        raise DomainError(f"invalid-index: need K >= 0, got {K}")
    v = bessel_table(K, x).values
    total = complex(v[0])
    for k in range(1, K + 1):
        total += v[k] * (w ** k + w ** (-k))
    lhs = np.exp((x / 2.0) * (w + 1.0 / w))
    return abs(lhs - total)
