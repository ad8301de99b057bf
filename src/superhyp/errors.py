"""Error types and the argument domains shared across the package.

Each domain rule is written once here; the modules call these checks and
keep only their own bound constants (the |x| caps).  The size caps bound
the memory and work one call may request, so a huge size is a
DomainError instead of an out-of-memory failure or a loop without end;
MAX_CASES keeps the report of one `verify` run below about 350 MB
(250 to 330 MB measured just under the cap, largest for genmatrix).
Messages echo the offending value through reprlib, abbreviated when long.

Batches.  `require_xs`, `require_indices`, `require_cells` and
`require_weights` take a number or a batch of numbers, by one rule.  A
Python or NumPy scalar is a number, taken as it is.  Anything else is a
batch if numpy reads it as a 1-D array (a list, tuple, range or array),
a number if it has no length or numpy reads it as 0-d (None, a 0-d
array, a string), and otherwise (ragged, or two or more dimensions) a
DomainError (invalid-grid).  The entries of a batch, if any, must be of
the reader's numpy kind (real for x, integer for j, complex for w; never
bool), and its length times `width`, the entries the caller keeps per
point, at most MAX_BATCH; a length past that is refused before numpy
builds the array.  Each entry then meets the number's check (for w, the
caller's unit_scale), so a bad entry raises the DomainError of its own
number call, and a one-entry batch gives the number's result as a
one-entry array.
"""

import math
from reprlib import repr as _short

import numpy as np

# Largest level count n: a dense complex128 n x n matrix is then at most
# 256 MiB.  Also bounds the lattice dimension 2N+1.
MAX_LEVEL = 4096
# Largest Bessel order or truncation (bessel_table is an O(order) Python loop).
MAX_ORDER = 100_000
# Most points in one CLI grid; a range's count is checked before its list is built.
MAX_GRID_POINTS = 10_000
# Most cases one verify suite may report, counted from its grids (trials
# times the levels for addition, trials times the sum of the levels for
# mixed, and so on; pauli's 7 per level cannot reach it).  A case costs
# about 3 KB of report and JSON output; the count is checked before any
# kernel runs.
MAX_CASES = 100_000
# Most entries per row times rows that a call over a 1-D array of x may
# request: the largest CLI grid at the largest level.  A row counts the
# entries the call keeps for all of its rows; the working arrays of a
# block (algebra.block_rows) are bounded there, not here.
MAX_BATCH = MAX_GRID_POINTS * MAX_LEVEL
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


def require_indices(j, n: int):
    """`j` through require_index, or a batch of such indices as an int64 array."""
    array = _vector(j, "iu", 1, "j")
    if array is None:
        return require_index(j, n)
    _first_outside(array, (0 <= array) & (array < n), lambda v: require_index(v, n))
    return array.astype(int)


def require_cases(count: int, what: str) -> None:
    """Raise DomainError (invalid-grid) if a suite's `count` cases exceed MAX_CASES."""
    if count > MAX_CASES:
        raise DomainError(f"invalid-grid: need at most {MAX_CASES} cases in {what}, got {count}")


def require_order(k, minimum: int = 0) -> int:
    """A Bessel order or truncation in minimum..MAX_ORDER."""
    return require_int(k, "order", minimum, MAX_ORDER)


def require_half_width(N) -> int:
    """A lattice half-width N >= 1 with dimension 2N+1 <= MAX_LEVEL."""
    return require_int(N, "half-width N", 1, (MAX_LEVEL - 1) // 2)


def as_number(value, kind=float):
    """kind(value) (float or complex), or kind(nan), which every range test rejects, for a bool or a non-number."""
    try:
        return kind(math.nan if isinstance(value, bool) else value)
    except (TypeError, ValueError, OverflowError):
        return kind(math.nan)


def require_x(x, bound: float) -> float:
    """`x` as a float with |x| <= bound, hence finite."""
    value = as_number(x)
    if not abs(value) <= bound:
        raise DomainError(f"overflow-domain: need |x| <= {bound}, got {_short(x)}")
    return value


def require_xs(x, bound: float, width: int = 1):
    """`x` through require_x, or a batch of such values as a float64 array."""
    array = _vector(x, "iuf", width, "x")
    if array is None:
        return require_x(x, bound)
    values = array.astype(float)
    _first_outside(array, np.abs(values) <= bound, lambda v: require_x(v, bound))
    return values


def require_cells(x, w, width: int = 1):
    """(x, w, unit_scale(x, w)) of one cell, or of equal-length batches of T cells.

    Numbers give a float, a complex and their scale; batches give float64
    x, complex128 w and the float64 scales, each bit for bit unit_scale of
    its cell, taken as array operations; the first cell outside the bounds
    raises unit_scale's DomainError on its entries as the caller gave them.
    A number against a batch, or batches of two lengths, raise DomainError
    (invalid-grid).
    """
    xs, ws = _vector(x, "iuf", width, "x"), _vector(w, "iufc", width, "w")
    if xs is None and ws is None:
        scale = unit_scale(x, w)
        return float(x), complex(w), scale
    if xs is None or ws is None or xs.size != ws.size:
        raise DomainError(f"invalid-grid: need x and w both numbers or of one length, got {_short(x)} and {_short(w)}")
    x, w = xs.astype(float), ws.astype(complex)
    # unit_scale's arithmetic on every cell at once: math.hypot's radii, whose last
    # bit np.hypot does not always share, then IEEE divisions, maxima and products
    r = np.array([math.hypot(v.real, v.imag) for v in w.tolist()], dtype=float)
    with np.errstate(all="ignore"):  # inf and nan cells fail the bounds below
        radius = np.maximum(r, 1.0 / r)  # inf at r = 0, as unit_scale's
        scales = np.abs(x) * radius
    inside = (np.abs(x) <= ARG_MAX) & (radius <= ARG_MAX) & (scales <= ARG_MAX)
    if not inside.all():
        bad = inside.argmin()
        unit_scale(xs[bad].item(), ws[bad].item())
    return x, w, scales


def require_weights(w) -> list | None:
    """None for a number w, or a batch of weights as a list; each weight is the caller's to check."""
    array = _vector(w, "iufc", 1, "w")
    return None if array is None else array.tolist()


def _vector(value, kinds: str, width: int, name: str):
    """None for a number, else `value` as a 1-D array of a dtype kind in `kinds`: the batch rule above."""
    if isinstance(value, (int, float, complex, np.generic)):
        return None
    try:
        size = len(value)
    except TypeError:  # None, a 0-d array
        return None
    except OverflowError:  # a range too long for len()
        size = math.inf
    try:
        array = np.asarray(value) if size * width <= MAX_BATCH else None
    except (TypeError, ValueError):  # e.g. a ragged list
        array = None
    if array is not None and array.ndim == 0:  # e.g. a string
        return None
    if array is None or array.ndim != 1 or array.size and array.dtype.kind not in kinds:
        raise DomainError(
            f"invalid-grid: need {name} a number or a 1-D array of at most {MAX_BATCH // max(width, 1)} of them,"
            f" got {_short(value)}"
        )
    return array


def _first_outside(array, inside, check) -> None:
    # the number check's DomainError for the first entry of the batch not `inside`
    if not inside.all():
        check(array[inside.argmin()].item())


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
    v = as_number(w, complex)
    r = math.hypot(v.real, v.imag)  # inf, not OverflowError, for huge finite w
    radius = max(r, 1.0 / r) if r else math.inf
    scale = abs(x) * radius
    if not (radius <= ARG_MAX and scale <= ARG_MAX):
        raise DomainError(
            f"overflow-domain: need w nonzero and finite with max(|w|,1/|w|) <= {ARG_MAX}"
            f" and |x|*max(|w|,1/|w|) <= {ARG_MAX}, got x={_short(x)}, w={_short(w)}"
        )
    return scale
