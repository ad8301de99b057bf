"""Truncated shift lattices and their large-size Bessel limit.

The basis is labelled -N..N (dimension 2N+1).  The number operator G is
the exact integer diagonal diag(-N..N), the unit shift S moves every
basis vector up one site, and exp(2*pi*i*(G + alpha)/(2N+1)) is the
clock built from the gauge-shifted number operator, alpha in [0, 1).

Two boundary modes:

* cyclic: S wraps around, so S^(2N+1) = 1 and the commutator [G, S]
  equals S everywhere except one corner entry that is off by exactly
  -(2N+1), i.e. [G, S] = S modulo 2N+1 as an integer-matrix statement.
* open: the wraparound entry is dropped, S^(2N+1) = 0, and [G, S] = S
  holds exactly on the whole truncated space at the cost of S losing
  unitarity on one boundary vector.

On the open lattice, interior matrix elements of
exp((x/2)(w S + (1/w) S^T)) converge (fast, in N) to I_{m-k}(x) w^(m-k);
convergence_study quantifies that against the Bessel routines.

generating_operator exponentiates the open lattice in real arithmetic.
Write w = r u with r = |w| and |u| = 1.  Without a wraparound bond the
diagonal unitary gauge D = diag(u^i) gives D (r S + S^T/r) D^* =
w S + S^T/w, so exp((x/2)(w S + S^T/w))[m, k] is u^(m-k) times the same
element of the real exponential exp((x/2)(r S + S^T/r)).  The phase has
modulus 1, so no power of |w| beyond the one the element itself carries
enters the rounding.  The cyclic lattice has no such gauge: going once
around the ring picks up the flux u^(2N+1), which no diagonal gauge
removes, so cyclic mode keeps the complex exponential (real at real w).
Either way the argument is written straight into the off-diagonals (and,
cyclic, the two corners) of one array, without building S, and the open
gauge phases are applied in place on the one complex result.  Elements
so far from the diagonal that they lie below the smallest normal double
come back as 0, not as subnormal numbers (mat_exp's sqrt(tiny) cut).
Neither route reads a Bessel value, so convergence_study compares two
independent computations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import mat_exp
from .bessel import bessel_i
from .errors import DomainError, require_half_width, require_int, require_x, unit_scale

MODES = ("cyclic", "open")
X_MAX = 30.0

# Raw element-vs-Bessel discrepancies below this many eps times the
# working scale exp(|x| max(|w|, 1/|w|)) are indistinguishable from
# rounding; convergence_study reports them as resolved zeros.
RESOLUTION_EPS_FACTOR = 1024.0
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class LatticeOperators:
    """Truncated lattice operators on dimension 2N+1.

    g and s are exact integer matrices; sigma3t is the complex clock
    exp(2*pi*i*(G + alpha)/(2N+1)).
    """

    N: int
    mode: str
    alpha: float
    g: np.ndarray
    s: np.ndarray
    sigma3t: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.N + 1


def build_lattice(N: int, mode: str = "cyclic", alpha: float = 0.0) -> LatticeOperators:
    """Construct the truncated operators and validate their inputs."""
    N = require_half_width(N)
    if mode not in MODES:
        raise DomainError(f"invalid-mode: expected one of {MODES}, got {mode!r}")
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"invalid-gauge: need 0 <= alpha < 1, got {alpha!r}")
    dim = 2 * N + 1
    levels = np.arange(-N, N + 1, dtype=np.int64)
    g = np.diag(levels)
    s = np.eye(dim, k=-1, dtype=np.int64)
    if mode == "cyclic":
        s[0, dim - 1] = 1
    sigma3t = np.diag(np.exp(2j * np.pi * (levels + alpha) / dim))
    return LatticeOperators(N=N, mode=mode, alpha=alpha, g=g, s=s, sigma3t=sigma3t)


@dataclass(frozen=True)
class CommutatorReport:
    """Exact integer accounting of [G, S] - S.

    corner_defect is the single wraparound entry (cyclic mode; 0 when
    open), max_other_defect the largest magnitude anywhere else, and
    defect_mod_dim the corner reduced modulo 2N+1.  exact means the
    relation holds in the mode's sense: literally for open, modulo the
    dimension for cyclic.
    """

    mode: str
    dim: int
    corner_defect: int
    max_other_defect: int
    defect_mod_dim: int
    exact: bool


def commutator_check(ops: LatticeOperators) -> CommutatorReport:
    """Evaluate [G, S] - S in integer arithmetic."""
    levels = np.diag(ops.g)
    defect = np.subtract.outer(levels, levels) * ops.s - ops.s
    corner = int(defect[0, ops.dim - 1])
    rest = defect.copy()
    rest[0, ops.dim - 1] = 0
    max_other = int(np.abs(rest).max())
    if ops.mode == "cyclic":
        exact = max_other == 0 and corner % ops.dim == 0
    else:
        exact = max_other == 0 and corner == 0
    return CommutatorReport(
        mode=ops.mode,
        dim=ops.dim,
        corner_defect=corner,
        max_other_defect=max_other,
        defect_mod_dim=corner % ops.dim,
        exact=exact,
    )


def generating_operator(ops: LatticeOperators, x: float, w: complex = 1.0) -> np.ndarray:
    """exp((x/2)(w S + (1/w) S^T)) on the truncated lattice; |x| <= X_MAX, w as in unit_scale.

    The argument is written straight into one array: (x/2) times the
    weight of S on the subdiagonal, (x/2) times that of S^T on the
    superdiagonal, and in cyclic mode the two wraparound corners.  Open
    mode exponentiates the real matrix (x/2)(|w| S + S^T/|w|) and puts
    the phase u^(m-k), u = w/|w|, on element (m, k) of the one complex
    result, in place (the gauge argument in the module docstring).
    Cyclic mode exponentiates (x/2)(w S + S^T/w), in float64 when w is
    real.  Either way the result is complex128.
    """
    x = require_x(x, X_MAX)
    unit_scale(x, w)
    w = complex(w)
    if ops.mode == "open":
        w_arg = abs(w)
    elif w.imag:
        w_arg = np.complex128(w)  # 1/w then rounds as numpy's array division S^T / w does
    else:
        w_arg = w.real
    up, down = (x / 2.0) * w_arg, (x / 2.0) * (1.0 / w_arg)
    arg = np.zeros((ops.dim, ops.dim), dtype=type(w_arg))
    flat = arg.reshape(-1)
    flat[ops.dim :: ops.dim + 1] = up  # S: (i + 1, i)
    flat[1 :: ops.dim + 1] = down  # S^T: (i, i + 1)
    if ops.mode == "cyclic":
        arg[0, -1], arg[-1, 0] = up, down  # the wraparound bond
        return mat_exp(arg).astype(complex, copy=False)
    # u^m for m = -N..N, so the phases of central elements carry the least rounding
    gauge = np.exp(1j * cmath.phase(w) * np.arange(-ops.N, ops.N + 1))
    result = np.multiply(gauge[:, None], mat_exp(arg))
    result *= gauge.conj()
    return result


def generating_operator_element(N: int, x: float, w: complex, m: int, k: int) -> complex:
    """<m| exp((x/2)(w S + (1/w) S^T)) |k> on the open lattice."""
    N = require_half_width(N)
    m, k = require_int(m, "row m", -N, N), require_int(k, "column k", -N, N)
    ops = build_lattice(N, mode="open")
    return complex(generating_operator(ops, x, w)[m + N, k + N])


@dataclass(frozen=True)
class ConvergencePoint:
    """One truncation size of a convergence study.

    error is the raw |element - I_order(x) w^order|; resolved is the
    same number with values below the double-precision measurement
    floor reported as 0.0 (they cannot be distinguished from rounding);
    boundary_limited marks elements too close to the lattice edge for
    the truncation error to dominate, which are reported but carry no
    monotonicity claim.
    """

    N: int
    error: float
    resolved: float
    boundary_limited: bool


def convergence_study(N_list, x: float, w: complex, order: int) -> list[ConvergencePoint]:
    """Element-vs-Bessel error at the central element, for increasing N.

    The element is taken at (m, k) straddling the origin with
    m - k = order.  Past N >= |x| + |order| + 5 the resolved errors are
    nonincreasing; the raw values bottom out at rounding level.
    """
    N_list = [require_half_width(N) for N in N_list]
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise DomainError(f"invalid-argument: N_list must be increasing, got {N_list}")
    order = require_int(order, "order", -min(N_list), min(N_list))
    x = require_x(x, X_MAX)
    floor = RESOLUTION_EPS_FACTOR * _EPS * math.exp(unit_scale(x, w))
    w = complex(w)

    m0 = order - order // 2
    k0 = m0 - order
    reference = bessel_i(order, x) * w ** order
    points = []
    for N in N_list:
        ops = build_lattice(N, mode="open")
        element = generating_operator(ops, x, w)[m0 + N, k0 + N]
        raw = float(abs(element - reference))
        distance = N - max(abs(m0), abs(k0))
        points.append(
            ConvergencePoint(
                N=N,
                error=raw,
                resolved=0.0 if raw < floor else raw,
                boundary_limited=distance <= abs(x) + abs(order) + 5,
            )
        )
    return points
