"""Truncated shift lattices and their large-size Bessel limit.

The basis is labelled -N..N (dimension 2N+1).  The number operator G is
the exact integer diagonal diag(-N..N), the unit shift S moves every
basis vector up one site, and V(alpha) = exp(2*pi*i*(G + alpha)/(2N+1))
is the clock built from the gauge-shifted number operator, alpha in
[0, 1).  All three are O(N) data: G and V are diagonals, and S is its
subdiagonal of 1s plus one wraparound entry.  With
omega = exp(2*pi*i/(2N+1)) the cyclic pair obeys the Weyl relation
V S = omega S V, the finite form of Ohnuki-Kitakado's [G, U] = U.

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

generating_operator exponentiates the open lattice exactly in its
eigenbasis.  Write w = r u with r = |w| and |u| = 1.  Without a
wraparound bond the diagonal unitary gauge D = diag(u^i) gives
D (r S + S^T/r) D^* = w S + S^T/w, so exp((x/2)(w S + S^T/w))[m, k] is
u^(m-k) times the same element of the real exponential
exp((x/2)(r S + S^T/r)).  After a second, real diagonal similarity that
real chain is the symmetric open chain, whose eigenvectors are sine
modes; the method of images turns the sum over modes into one Toeplitz
and two Hankel terms, sums of r^e I_e(x) read from one FFT of the
generating function, with no power of r amplifying their rounding
(_OpenExponential).  An element then takes O(N log N) work and the
whole matrix O(N^2), against O(N^3) for a dense exponential, and every
entry carries an absolute rounding of a few (1 + |m| + |k|) eps
exp((|x|/2)(r + 1/r)): far from the diagonal that rounding is what comes
back, not 0.

The cyclic lattice has no such gauge: going once around the ring picks
up the flux u^(2N+1), which no diagonal gauge removes, so cyclic mode
exponentiates its complex argument (real at real w) with mat_exp, a
route independent of genmatrix's FFT.  Neither route reads a Bessel
value, so convergence_study compares FFT quadrature against bessel_i,
two independent computations.
"""

from __future__ import annotations

import cmath
import math
from reprlib import repr as _short
from typing import NamedTuple

import numpy as np

from .algebra import mat_exp
from .bessel import bessel_i
from .errors import ARG_MAX, DomainError, as_number, require_half_width, require_int, require_x, unit_scale

MODES = ("cyclic", "open")
X_MAX = 30.0

# Raw element-vs-Bessel discrepancies below this many eps times the
# working scale exp(|x| max(|w|, 1/|w|)) are indistinguishable from
# rounding; convergence_study reports them as resolved zeros.
RESOLUTION_EPS_FACTOR = 1024.0
_EPS = np.finfo(float).eps


class LatticeOperators(NamedTuple):
    """Truncated lattice operators on dimension 2N+1, as O(N) data.

    The fields are N, mode and alpha; nothing else is stored.  G is
    diag(levels), S has 1 on its whole subdiagonal and `corner` at the
    wraparound entry S[0, 2N], and the clock V(alpha) is diag(clock).
    No (2N+1)^2 matrix is built.
    """

    N: int
    mode: str
    alpha: float

    @property
    def dim(self) -> int:
        return 2 * self.N + 1

    @property
    def levels(self) -> np.ndarray:
        """The exact int64 diagonal -N..N of G."""
        return np.arange(-self.N, self.N + 1, dtype=np.int64)

    @property
    def corner(self) -> int:
        """S[0, 2N]: 1 on the cyclic lattice, 0 on the open one."""
        return 1 if self.mode == "cyclic" else 0

    @property
    def clock(self) -> np.ndarray:
        """The complex diagonal exp(2*pi*i*(levels + alpha)/(2N+1)) of V(alpha)."""
        return np.exp(2j * np.pi * (self.levels + self.alpha) / self.dim)


def build_lattice(N: int, mode: str = "cyclic", alpha: float = 0.0) -> LatticeOperators:
    """Validate the inputs of the truncated operators; O(1) after validation."""
    N = require_half_width(N)
    if mode not in MODES:
        raise DomainError(f"invalid-mode: expected one of {MODES}, got {mode!r}")
    value = as_number(alpha)
    if not 0.0 <= value < 1.0:
        raise DomainError(f"invalid-gauge: need 0 <= alpha < 1, got {_short(alpha)}")
    return LatticeOperators(N=N, mode=mode, alpha=value)


class CommutatorReport(NamedTuple):
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
    """Evaluate [G, S] - S in integer arithmetic on the band of S.

    [G, S] - S vanishes off the support of S.  Entry (i + 1, i) of the
    subdiagonal is levels[i + 1] - levels[i] - 1, and the corner (0, 2N)
    is (levels[0] - levels[-1] - 1) times the wraparound entry S[0, 2N].
    """
    levels = ops.levels
    max_other = int(np.abs(levels[1:] - levels[:-1] - 1).max())
    corner = int((levels[0] - levels[-1] - 1) * ops.corner)
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


def _tail_order(bound: float) -> int:
    """Smallest K with |R^e I_e(x)| < eps for every |e| >= K, R >= 1, |x| R <= bound.

    For R >= 1, |x| <= |x| R <= bound, and |I_e(x)| <= (|x|/2)^e / e! *
    exp(x^2 / (4(e + 1))), so |R^e I_e(x)| <= (bound/2)^e / e! *
    exp(bound^2 / (4(e + 1))), which decreases once e > bound/2; a
    negative index only adds a factor R^(-2|e|) <= 1.
    """
    def log_bound(e):
        return e * math.log(bound / 2.0) - math.lgamma(e + 1) + bound * bound / (4 * (e + 1))

    k = math.ceil(bound / 2.0)
    while log_bound(k) >= math.log(_EPS):
        k += 1
    return k


# past this order every coefficient R^e I_e(x) in the domain of unit_scale is below eps
_TAIL_ORDER = _tail_order(ARG_MAX)


def _band(vec: np.ndarray, offset: int, row_step: int, col_step: int, n: int) -> np.ndarray:
    """n x n view of contiguous vec with entry (i, j) = vec[offset + row_step*i + col_step*j]."""
    step = vec.itemsize
    return np.ndarray(
        (n, n), vec.dtype, buffer=vec, offset=offset * step, strides=(row_step * step, col_step * step)
    )


class _OpenExponential(NamedTuple):
    """The O(n) vectors that fix exp((x/2)(w S + S^T/w)) on the open lattice, n = 2N+1.

    Label the sites p = m + N + 1 in 1..n, so the walls sit at 0 and
    L = n + 1, and take R = max(|w|, 1/|w|) >= 1.  The similarity
    diag(R^p) turns (x/2)(R S + S^T/R) into (x/2)(S + S^T), which the sine
    modes sin(pi q p / L) diagonalize with eigenvalues x cos(pi q / L),
    and the method of images sums the resulting kernel in closed form:

        E_R[p, p'] = R^(p-p') sum_j [I_{p-p'+2jL}(x) - I_{p+p'+2jL}(x)],

    with E_R = exp((x/2)(R S + S^T/R)) and, for |w| < 1, E_|w| = E_R^T.
    Every term is R^a c(b) with a <= 0 and c(e) = R^e I_e(x), so no
    power of R amplifies the rounding of c: with g(e) = sum_{i>=0}
    R^(-2iL) c(e + 2iL) for e = 0..2L and v(k) = R^(-2k),

        E_R[p, p'] = t(p - p') - v(p') g(p + p') - v(L - p) g(2L - p - p'),
        t(d)  = g(d) + v(L - d) g(2L - d),       d = 0..n-1,
        t(-d) = v(d) g(d) + v(L) g(2L - d),

    a Toeplitz matrix minus two weighted Hankel matrices.  The c(e) are
    the Fourier coefficients of exp((x/2)(R z + 1/(R z))) on |z| = 1,
    read from one real FFT of length M, the smallest power of two
    >= 2(2L + _TAIL_ORDER).  That length is not a tuning knob: c is then
    exact to rounding at every index below 2L + _TAIL_ORDER, and every
    coefficient past it, including what the FFT aliases onto the kept
    ones, is below eps throughout the domain that unit_scale admits.
    No Bessel value is read.

    Each c(e) carries an absolute rounding of order eps
    exp((|x|/2)(R + 1/R)), the largest sample of the generating
    function, and so does each entry of E_R.  The phase u^(m-k) of the
    diagonal unitary gauge, u = w/|w|, is exp(i phase(w) (m - k)) from
    one vector over m - k; its rounding adds about |m - k| eps to the
    relative error of the element it multiplies.
    """

    n: int
    transposed: bool  # |w| < 1, so the matrix is E_R^T
    toeplitz: np.ndarray  # t(d) at index d + n - 1
    images: np.ndarray  # g(e) at index e = 0..2L
    weights: np.ndarray  # v(k) = R^(-2k) at index k = 0..L
    cos: np.ndarray  # Re u^d at index d + n - 1
    sin: np.ndarray  # Im u^d at index d + n - 1

    @classmethod
    def build(cls, N: int, x: float, w: complex) -> "_OpenExponential":
        """The vectors for validated N, x and w (O(n log n) time, O(n) memory)."""
        n = 2 * N + 1
        L = n + 1
        r = abs(w)
        R = 1.0 / r if r < 1.0 else r
        half = 1 << (2 * L + _TAIL_ORDER - 1).bit_length()  # M / 2
        # samples of conj(exp((x/2)(R z + 1/(R z)))) at z = exp(2 pi i k / M), k = 0..M/2;
        # the inverse real FFT of the conjugate gives the (real) Fourier coefficients c
        theta = np.arange(half + 1) * (math.pi / half)
        samples = np.empty(half + 1, dtype=complex)
        np.multiply(np.cos(theta), (x / 2.0) * (R + 1.0 / R), out=samples.real)
        np.multiply(np.sin(theta), (x / 2.0) * (1.0 / R - R), out=samples.imag)
        del theta
        np.exp(samples, out=samples)
        coeffs = np.fft.irfft(samples, 2 * half)[:half]
        del samples
        images = np.zeros(2 * L + 1)
        for start in range(0, half, 2 * L):
            fold = coeffs[start : start + 2 * L + 1]
            images[: fold.size] += R ** -start * fold
        del coeffs
        weights = R ** (-2.0 * np.arange(L + 1))
        # t(d) and t(-d) for d = 0..n-1, from the slices g[0..n-1], g[2L..L+2] and v[L..2]
        near, far, far_weight = images[:n], images[2 * L : L + 1 : -1], weights[L:1:-1]
        toeplitz = np.concatenate(
            ((weights[:n] * near + weights[L] * far)[:0:-1], near + far_weight * far)
        )
        angle = cmath.phase(w) * np.arange(1 - n, n)
        return cls(n, r < 1.0, toeplitz, images, weights, np.cos(angle), np.sin(angle))

    def element(self, m: int, k: int) -> complex:
        """Entry (m, k), labels -N..N: the same operations as matrix() makes at that entry."""
        n = self.n
        L = n + 1
        d = m - k + n - 1
        p, q = m + L // 2, k + L // 2  # sites: L // 2 = N + 1
        if self.transposed:
            p, q = q, p
        t, g, v = self.toeplitz, self.images, self.weights
        value = t[p - q + n - 1] - v[q] * g[p + q] - v[L - p] * g[2 * L - p - q]
        return complex(value * self.cos[d], value * self.sin[d])

    def matrix(self) -> np.ndarray:
        """The whole complex128 matrix: peak memory 2 n^2 float64 planes (the result) plus O(n).

        E is built in the result's real parts, with its imaginary parts as
        the scratch for the two weighted Hankel terms; the phases then
        write E sin into the imaginary parts and E cos over E.
        """
        n = self.n
        L = n + 1
        sign = -1 if self.transposed else 1
        result = np.empty((n, n), dtype=complex)
        real, scratch = result.real, result.imag
        np.copyto(real, _band(self.toeplitz, n - 1, sign, -sign, n))
        near = self.weights[1 : n + 1]  # v(p'), or v(p) for E_R^T
        far = near[::-1]  # v(L - p), or v(L - p') for E_R^T
        near, far = (near[:, None], far) if self.transposed else (near, far[:, None])
        real -= np.multiply(_band(self.images, 2, 1, 1, n), near, out=scratch)
        real -= np.multiply(_band(self.images, 2 * L - 2, -1, -1, n), far, out=scratch)
        np.multiply(real, _band(self.sin, n - 1, 1, -1, n), out=result.imag)
        np.multiply(real, _band(self.cos, n - 1, 1, -1, n), out=real)
        return result


def generating_operator(ops: LatticeOperators, x: float, w: complex = 1.0) -> np.ndarray:
    """exp((x/2)(w S + (1/w) S^T)) on the truncated lattice; |x| <= X_MAX, w as in unit_scale.

    Open mode is exact in the sine basis of the open chain: a Toeplitz
    matrix minus two weighted Hankel matrices, all gathered from O(n)
    vectors built by one FFT, times the gauge phases u^(m-k)
    (_OpenExponential).  It takes O(n log n + n^2) time and two n^2
    float64 planes, those of the complex result.  Every entry
    is within a few (1 + |m| + |k|) eps exp((|x|/2)(|w| + 1/|w|)) of
    the exact value; far from the diagonal that rounding, not 0, is what
    comes back.

    Cyclic mode writes (x/2)(w S + S^T/w) into one array (the weight of
    S on the subdiagonal and the lower-left corner, that of S^T on the
    superdiagonal and the upper-right corner) and exponentiates it with
    mat_exp, in float64 when w is real.  Either way the result is
    complex128.
    """
    x = require_x(x, X_MAX)
    unit_scale(x, w)
    w = complex(w)
    if ops.mode == "open":
        return _OpenExponential.build(ops.N, x, w).matrix()
    # 1/w rounds as numpy's array division S^T / w does
    w_arg = np.complex128(w) if w.imag else w.real
    up, down = (x / 2.0) * w_arg, (x / 2.0) * (1.0 / w_arg)
    arg = np.zeros((ops.dim, ops.dim), dtype=type(w_arg))
    flat = arg.reshape(-1)
    flat[ops.dim :: ops.dim + 1] = up  # S: (i + 1, i)
    flat[1 :: ops.dim + 1] = down  # S^T: (i, i + 1)
    arg[0, -1], arg[-1, 0] = up, down  # the wraparound bond
    return mat_exp(arg).astype(complex, copy=False)


def generating_operator_element(N: int, x: float, w: complex, m: int, k: int) -> complex:
    """<m| exp((x/2)(w S + (1/w) S^T)) |k> on the open lattice.

    Bit for bit entry (m + N, k + N) of generating_operator on the open
    lattice, from the same O(N) vectors without the (2N+1)^2 matrix.
    """
    N = require_half_width(N)
    m, k = require_int(m, "row m", -N, N), require_int(k, "column k", -N, N)
    x = require_x(x, X_MAX)
    unit_scale(x, w)
    return _OpenExponential.build(N, x, complex(w)).element(m, k)


class ConvergencePoint(NamedTuple):
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
    if not N_list or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise DomainError(f"invalid-argument: N_list must be nonempty and increasing, got {N_list}")
    order = require_int(order, "order", -min(N_list), min(N_list))
    x = require_x(x, X_MAX)
    floor = RESOLUTION_EPS_FACTOR * _EPS * math.exp(unit_scale(x, w))
    w = complex(w)

    m0 = order - order // 2
    k0 = m0 - order
    reference = bessel_i(order, x) * w ** order
    points = []
    for N in N_list:
        element = _OpenExponential.build(N, x, w).element(m0, k0)
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
