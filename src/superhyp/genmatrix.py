"""Matrix-valued Bessel generating function on the cyclic shift.

exp((x/2) (w * shift + (1/w) * shift^dagger)) is a circulant whose
coefficient of shift^m collects the orders congruent to m mod n of the
scalar generating function sum_k I_k(x) w^k.  Trace projections against
shift powers extract one residue class at a time, by three independent
routes: the trace of the matrix times a shift power, which for a
circulant is one entry of its first column, built from one FFT
(`generating_column`, `trace_projection`); the direct, FFT-free O(n)
roots-of-unity sum `exponential_sum`, the reference of the trace_vs_sum
check; and the truncated bilateral Bessel sum `bessel_comb_series`, the
reference of trace_vs_bessel.  Each route has an all-class form, one
call for every class of an (n, x, w) cell: the column itself,
`exponential_sum` with a 1-D array of classes j (blocks of width n,
`algebra._blocked`, each entry bit for bit the int-j call), and
`bessel_comb_column` (one Bessel table and one numpy pass, equal to the
per-class sums up to numpy's complex powers).  The completeness check
compares the sum of all n traces with exp((x/2)(w + 1/w)).
"""

from __future__ import annotations

import math

import numpy as np

from dataclasses import dataclass

from .algebra import _blocked, circulant, circulant_column, roots_of_unity
from .bessel import _comb_sum, bessel_table
from .errors import require_index, require_indices, require_level, require_order, unit_scale


@dataclass(frozen=True)
class GeneratingMatrixEval:
    """exp((x/2)(w*shift + shift^dagger/w)) together with its parameters."""

    n: int
    x: float
    w: complex
    matrix: np.ndarray


def generating_column(n: int, x: float, w: complex) -> np.ndarray:
    """First column of the generating matrix, in O(n log n) by one FFT.

    The eigenvalues are exp((x/2)(w s^k + s^(-k)/w)) over the n-th roots
    of unity s^k; entry m is the class sum of the orders congruent to m
    mod n.
    """
    n = require_level(n)
    unit_scale(x, w)
    x, w = float(x), complex(w)
    roots = roots_of_unity(n)
    return circulant_column(np.exp((x / 2.0) * (w * roots + np.conj(roots) / w)))


def generating_matrix(n: int, x: float, w: complex) -> GeneratingMatrixEval:
    """Evaluate the matrix generating function spectrally.

    The circulant of `generating_column`, as algebra.circulant's read-only
    view: O(n log n) time for the column and O(n) memory for the matrix
    (2n - 1 complex entries).  Callers that need only traces read the
    column instead (`trace_projection`).
    """
    col = generating_column(n, x, w)
    return GeneratingMatrixEval(n=col.size, x=float(x), w=complex(w), matrix=circulant(col))


def trace_projection(n: int, x: float, w: complex, j: int) -> complex:
    """(1/n) tr(generating matrix @ shift^j), read from one column entry.

    (M @ shift^j)[i, i] = M[i, (i+j) mod n] = col[-j mod n] for every i,
    since M is the circulant of col, so the n diagonal terms are equal and
    their mean is that entry: O(n log n) time and O(n) memory, no n x n
    matrix.
    """
    col = generating_column(n, x, w)
    j = require_index(j, col.size)
    return complex(col[-j % col.size])


def exponential_sum(n: int, x: float, w: complex, j) -> complex | np.ndarray:
    """(1/n) sum_l s^(l*j) exp((x/2)(w s^l + s^(-l)/w)), the closed scalar form, summed directly.

    j is a class index, or a 1-D integer array of them giving one sum per
    entry, bit for bit the int-j call.  The phases s^(l*j) of an array
    are taken block_rows(n) classes at a time (_blocked, width n), so the
    working arrays hold O(BLOCK + n) entries, never an n x n plane.
    """
    n = require_level(n)
    unit_scale(x, w)
    x, w = float(x), complex(w)
    j = require_indices(j, n)
    roots = roots_of_unity(n)
    exps = np.exp((x / 2.0) * (w * roots + np.conj(roots) / w))
    if isinstance(j, np.ndarray):
        return _blocked(lambda js: (roots[np.multiply.outer(js, np.arange(n)) % n] * exps).sum(axis=1) / n, n, j)
    return complex((roots[(np.arange(n) * j) % n] * exps).sum() / n)


def default_comb_truncation(n: int, x: float, w: complex, j) -> int | np.ndarray:
    """Truncation order ending on a complete period: n*ceil((scale+30)/n) + j.

    Bumped by one period if needed so the bilateral-sum precondition
    K >= n + |x| + 20 always holds; one is enough, since the unbumped K
    is at least scale + 30 >= |x| + 30.  A 1-D array of classes j gives
    one order per class.
    """
    n = require_level(n)
    j = require_indices(j, n)
    K = n * int(math.ceil((unit_scale(x, w) + 30.0) / n)) + j
    return K + n * (K < n + abs(float(x)) + 20)


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
    return _comb_sum(bessel_table(K, x).values, n, w, j, K)


def bessel_comb_column(n: int, x: float, w: complex) -> np.ndarray:
    """The sums of bessel_comb_series for every class j at its default truncation, in one numpy pass.

    The table is built once, at the largest per-class truncation; class j
    still sums only the orders |n*k-j| <= default_comb_truncation(n, x, w, j),
    and, as in bessel_comb_series, none past the table's last nonzero
    value.  The terms of every class form one (periods, n) array, order
    n*k - j at row k, column j, zero outside the truncation; its column
    sums add the terms of each class in the order of k, as the scalar sum
    does.  The powers w^m are numpy's, which can differ from Python's
    w ** m in the last bit, so an entry can differ from
    bessel_comb_series at rounding level.
    """
    n = require_level(n)
    unit_scale(x, w)
    x, w = float(x), complex(w)
    K = default_comb_truncation(n, x, w, np.arange(n))
    values = bessel_table(int(K.max()), x).values
    K = np.minimum(K, np.flatnonzero(values)[-1])
    top = int(K.max())
    orders = n * np.arange(-(top // n), (top + n - 1) // n + 1)[:, None] - np.arange(n)
    size = np.abs(orders)
    keep = size <= K
    terms = np.zeros(orders.shape, complex)
    terms[keep] = values[size[keep]] * w ** orders[keep]
    return terms.sum(axis=0)
