"""Error types and the argument domains shared across the package.

Each domain rule is written once here; the modules call these checks and
keep only their own bound constants (the |x| caps).  The size caps bound
the memory and work one call may request, so a huge size is a
DomainError instead of an out-of-memory failure or a loop without end.
Messages echo the offending value through reprlib, abbreviated when long.
"""

import math
from reprlib import repr as _short

# Largest level count n: a dense complex128 n x n matrix is then at most
# 256 MiB.  Also bounds the lattice dimension 2N+1.
MAX_LEVEL = 4096
# Largest Bessel order or truncation (bessel_table is an O(order) Python loop).
MAX_ORDER = 100_000
# Most points in one CLI grid; a range's count is checked before its list is built.
MAX_GRID_POINTS = 10_000
# Bound on max(|w|, 1/|w|) and on |x| * max(|w|, 1/|w|) for the generating
# function exp((x/2)(w + 1/w)) and its matrix and lattice forms.
ARG_MAX = 50.0


class DomainError(ValueError):
    """An argument violates a documented precondition (dimension, index, range)."""


class ValidationError(RuntimeError):
    """A computed value failed its own consistency checks."""


def require_int(value, name: str, lo: int, hi: int) -> int:
    """`value` as an int in lo..hi.

    Bools, non-integral or non-finite values and non-numbers raise
    DomainError.  The range is compared before any conversion, so an int
    too large for a float is rejected, never an OverflowError.
    """
    try:
        if lo <= value <= hi and value == int(value) and not isinstance(value, bool):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"invalid-integer: need {name} an integer in [{lo}, {hi}], got {_short(value)}")


def require_level(n) -> int:
    """A level count (matrix dimension) in 2..MAX_LEVEL."""
    return require_int(n, "level count n", 2, MAX_LEVEL)


def require_index(j, n: int) -> int:
    """A residue index in 0..n-1."""
    return require_int(j, "index j", 0, n - 1)


def require_order(k, minimum: int = 0) -> int:
    """A Bessel order or truncation in minimum..MAX_ORDER."""
    return require_int(k, "order", minimum, MAX_ORDER)


def require_half_width(N) -> int:
    """A lattice half-width N >= 1 with dimension 2N+1 <= MAX_LEVEL."""
    return require_int(N, "half-width N", 1, (MAX_LEVEL - 1) // 2)


def _real(value) -> float:
    # value as a float, or nan (which every range test rejects) for bools and non-reals
    try:
        return math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def require_x(x, bound: float) -> float:
    """`x` as a float with |x| <= bound, hence finite."""
    value = _real(x)
    if not abs(value) <= bound:
        raise DomainError(f"overflow-domain: need |x| <= {bound}, got {_short(x)}")
    return value


def unit_scale(x, w) -> float:
    """|x| * max(|w|, 1/|w|), the working magnitude of the generating function sums.

    Raises DomainError unless w is a nonzero finite complex number with
    max(|w|, 1/|w|) <= ARG_MAX on its own and |x| * max(|w|, 1/|w|) <=
    ARG_MAX, so exp(unit_scale(x, w)) never overflows, also at x = 0.

    The Bessel sums (`bessel.generating_function_residual`,
    `genmatrix.bessel_comb_series`) evaluate w^k only at orders k whose
    table value I_k(x) is a nonzero double.  Under both bounds every such
    power is finite and nonzero: for |k| <= 181, |w|^k lies within
    50^(+-181), about 10^(+-307.5); beyond that |I_k(x) w^k| <= 25^k/k! *
    exp(x^2/(4(k+1))) < 1e-80 while I_k(x) >= 5e-324, so |w|^(+-k) < 1e244.
    """
    x = require_x(x, ARG_MAX)
    try:
        w = complex(math.nan if isinstance(w, bool) else w)
    except (TypeError, ValueError, OverflowError):
        w = complex(math.nan)
    r = math.hypot(w.real, w.imag)  # inf, not OverflowError, for huge finite w
    radius = max(r, 1.0 / r) if r else math.inf
    scale = abs(x) * radius
    if not (radius <= ARG_MAX and scale <= ARG_MAX):
        raise DomainError(
            f"overflow-domain: need w nonzero and finite with max(|w|,1/|w|) <= {ARG_MAX}"
            f" and |x|*max(|w|,1/|w|) <= {ARG_MAX}, got x={_short(x)}, w={_short(w)}"
        )
    return scale
