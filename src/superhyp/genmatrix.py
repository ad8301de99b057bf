"""Matrix-valued Bessel generating function on the cyclic shift.

exp((x/2) (w * shift + (1/w) * shift^dagger)) is a circulant whose
coefficient of shift^m collects the orders congruent to m mod n of the
scalar generating function sum_k I_k(x) w^k.  Trace projections against
shift powers extract one residue class at a time, by three independent
routes: the literal trace of the matrix built from one FFT
(`trace_projection`); the direct, FFT-free O(n) roots-of-unity sum
`exponential_sum`, the reference of the trace_vs_sum check; and the
truncated bilateral Bessel sum `bessel_comb_series`, the reference of
trace_vs_bessel.  The completeness check compares the sum of all n
traces with exp((x/2)(w + 1/w)).
"""

from __future__ import annotations

import math

import numpy as np

from dataclasses import dataclass

from .algebra import circulant, circulant_column, roots_of_unity
from .bessel import bessel_table
from .errors import require_index, require_level, require_order, unit_scale


@dataclass(frozen=True)
class GeneratingMatrixEval:
    """exp((x/2)(w*shift + shift^dagger/w)) together with its parameters."""

    n: int
    x: float
    w: complex
    matrix: np.ndarray


def generating_matrix(n: int, x: float, w: complex) -> GeneratingMatrixEval:
    """Evaluate the matrix generating function spectrally.

    The eigenvalues are exp((x/2)(w s^k + s^(-k)/w)) over the n-th roots
    of unity s^k: O(n log n) column (one FFT of the eigenvalues), O(n^2)
    dense gather of the circulant from it.
    """
    n = require_level(n)
    unit_scale(x, w)
    x, w = float(x), complex(w)
    roots = roots_of_unity(n)
    eig = np.exp((x / 2.0) * (w * roots + np.conj(roots) / w))
    return GeneratingMatrixEval(n=n, x=x, w=w, matrix=circulant(circulant_column(eig)))


def trace_projection(n: int, x: float, w: complex, j: int) -> complex:
    """(1/n) tr(generating matrix @ shift^j), the literal trace route.

    Taken over M rolled left by j, as (M @ shift^j)[i, i] = M[i, (i+j) mod n].
    """
    ev = generating_matrix(n, x, w)
    j = require_index(j, ev.n)
    return complex(np.trace(np.roll(ev.matrix, -j, axis=1)) / ev.n)


def exponential_sum(n: int, x: float, w: complex, j: int) -> complex:
    """(1/n) sum_l s^(l*j) exp((x/2)(w s^l + s^(-l)/w)), the closed scalar form, summed directly."""
    n = require_level(n)
    unit_scale(x, w)
    x, w = float(x), complex(w)
    j = require_index(j, n)
    roots = roots_of_unity(n)
    phases = roots[(np.arange(n) * j) % n]
    return complex((phases * np.exp((x / 2.0) * (w * roots + np.conj(roots) / w))).sum() / n)


def default_comb_truncation(n: int, x: float, w: complex, j: int) -> int:
    """Truncation order ending on a complete period: n*ceil((scale+30)/n) + j.

    Bumped by whole periods if needed so the bilateral-sum precondition
    K >= n + |x| + 20 always holds.
    """
    n = require_level(n)
    j = require_index(j, n)
    K = n * int(math.ceil((unit_scale(x, w) + 30.0) / n)) + j
    while K < n + abs(float(x)) + 20:
        K += n
    return K


def bessel_comb_series(n: int, x: float, w: complex, j: int, K: int) -> complex:
    """sum over k of I_{n*k-j}(x) w^(n*k-j), truncated to |n*k-j| <= K.

    Negative orders fold through I_{-m} = I_m.  K must be at least
    n + |x| + 20 so the discarded tails sit below the working scale.
    """
    n = require_level(n)
    unit_scale(x, w)
    x, w = float(x), complex(w)
    j = require_index(j, n)
    K = require_order(K, math.ceil(n + abs(x) + 20))
    values = bessel_table(K, x).values
    K = int(np.flatnonzero(values)[-1])  # orders past the underflow add nothing (see unit_scale)
    k_lo = math.ceil((-K + j) / n)
    k_hi = math.floor((K + j) / n)
    total = 0j
    for k in range(k_lo, k_hi + 1):
        m = n * k - j
        total += values[abs(m)] * w ** m
    return total
