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
`exponential_sum` with a 1-D array of classes j (each entry bit for bit
the int-j call), and `bessel_comb_column` (one numpy pass on a Bessel
table, equal to the per-class sums up to numpy's complex powers and the
table's Miller start order).  The completeness check compares the sum of
all n traces with exp((x/2)(w + 1/w)).

`generating_column`, `trace_projection`, `exponential_sum` and
`bessel_comb_column` also take x and w as equal-length 1-D arrays of T
cells (batches: the errors module's rule says what one is, and caps its
size): row t is bit for bit the call on cell t alone, and numbers keep
their own shape.  The cells go
through the block loop `algebra._blocked` at width n (the columns, and
`exponential_sum`'s flattened (cell, class) pairs), so no T x n x n or
n x n plane is formed; `bessel_comb_column` builds one Bessel table per
distinct x of the call.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .algebra import _blocked, block_rows, circulant, circulant_column, roots_of_unity
from .bessel import _comb_sum, bessel_table
from .errors import (
    ARG_MAX,
    require_cells,
    require_index,
    require_indices,
    require_level,
    require_order,
    unit_scale,
)


class GeneratingMatrixEval(NamedTuple):
    """exp((x/2)(w*shift + shift^dagger/w)) together with its parameters."""

    n: int
    x: float
    w: complex
    matrix: np.ndarray


def _eigenvalues(roots, x, w) -> np.ndarray:
    # exp((x/2)(w s^k + s^(-k)/w)) over the roots: one cell, or (T, 1) columns of cells giving (T, n)
    return np.exp((x / 2.0) * (w * roots + np.conj(roots) / w))


def _columns(n: int, x, w, entries) -> np.ndarray:
    """The picked `entries` of the generating column of checked cells, in blocks of width n.

    One cell (numbers x, w) takes the column directly, bit for bit its
    row in a batch.
    """
    roots = roots_of_unity(n)
    if not isinstance(x, np.ndarray):
        return circulant_column(_eigenvalues(roots, x, w))[entries]
    return _blocked(lambda xs, ws: circulant_column(_eigenvalues(roots, xs[:, None], ws[:, None]))[:, entries], n, x, w)


def generating_column(n: int, x, w) -> np.ndarray:
    """First column of the generating matrix, in O(n log n) by one FFT.

    The eigenvalues are exp((x/2)(w s^k + s^(-k)/w)) over the n-th roots
    of unity s^k; entry m is the class sum of the orders congruent to m
    mod n.  Cell arrays x, w of length T give shape (T, n).
    """
    n = require_level(n)
    x, w, _ = require_cells(x, w, n)
    return _columns(n, x, w, slice(None))


def generating_matrix(n: int, x: float, w: complex) -> GeneratingMatrixEval:
    """Evaluate the matrix generating function spectrally, at one cell.

    The circulant of `generating_column`, as algebra.circulant's read-only
    view: O(n log n) time for the column and O(n) memory for the matrix
    (2n - 1 complex entries).  Callers that need only traces read the
    column instead (`trace_projection`).
    """
    n = require_level(n)
    unit_scale(x, w)
    x, w = float(x), complex(w)
    return GeneratingMatrixEval(n=n, x=x, w=w, matrix=circulant(_columns(n, x, w, slice(None))))


def trace_projection(n: int, x, w, j: int) -> complex | np.ndarray:
    """(1/n) tr(generating matrix @ shift^j), read from one column entry.

    (M @ shift^j)[i, i] = M[i, (i+j) mod n] = col[-j mod n] for every i,
    since M is the circulant of col, so the n diagonal terms are equal and
    their mean is that entry: O(n log n) time and O(n) memory, no n x n
    matrix.  Cell arrays x, w of length T give the T traces, each block's
    columns dropped once their entry is read.
    """
    n = require_level(n)
    x, w, _ = require_cells(x, w)
    j = require_index(j, n)
    if isinstance(x, np.ndarray):
        return _columns(n, x, w, -j % n)
    return complex(_columns(n, x, w, -j % n))


def exponential_sum(n: int, x, w, j) -> complex | np.ndarray:
    """(1/n) sum_l s^(l*j) exp((x/2)(w s^l + s^(-l)/w)), the closed scalar form, summed directly.

    j is a class index, or a 1-D integer array of J classes giving one
    sum per entry, bit for bit the int-j call; cell arrays x, w of length
    T give shape (T,) for an int j and (T, J) for an array.  The phases
    s^(l*j) are taken block_rows(n) classes (for cells, flattened
    (cell, class) pairs) at a time (_blocked, width n), so the working
    arrays hold O(BLOCK + n) entries, never an n x n plane.  One cell
    with an int j keeps its own one-row kernel, in half the time of the
    blocked path: per-cell callers take it, batches of cells or classes
    (verify genmatrix) the blocked path.
    """
    n = require_level(n)
    j = require_indices(j, n)
    x, w, _ = require_cells(x, w, j.size if isinstance(j, np.ndarray) else 1)
    roots = roots_of_unity(n)
    if not isinstance(x, np.ndarray) and not isinstance(j, np.ndarray):
        return complex((roots[(np.arange(n) * j) % n] * _eigenvalues(roots, x, w)).sum() / n)
    sums = _cell_sums(n, roots, np.atleast_1d(x), np.atleast_1d(w), j)
    return sums if isinstance(x, np.ndarray) else sums[0]


def _cell_sums(n: int, roots, x: np.ndarray, w: np.ndarray, j) -> np.ndarray:
    """exponential_sum over cell arrays, blocked over the flattened (cell, class) pairs.

    A pair's phases times its cell's eigenvalues, summed along the row:
    the same products and sum as the int-j call on its own cell.
    """
    js = np.atleast_1d(j)
    shape = (x.size, js.size) if isinstance(j, np.ndarray) else (x.size,)
    if not x.size * js.size:
        return np.empty(shape, complex)

    # one set of block arrays for every block; the phase indices l*j mod n
    # are formed in int32, since (n - 1)^2 < 2^31 up to MAX_LEVEL
    js32, ls = js.astype(np.int32), np.arange(n, dtype=np.int32)
    rows = min(block_rows(n), x.size * js.size)
    indices, phases = np.empty((rows, n), np.int32), np.empty((rows, n), complex)

    @functools.lru_cache(maxsize=1)  # a cell whose classes span several blocks is exponentiated once
    def eigenvalues(lo, hi):
        return _eigenvalues(roots, x[lo:hi, None], w[lo:hi, None])

    def block(pairs):
        cell, k = np.divmod(np.arange(pairs.start, pairs.stop), js.size)
        lo = int(cell[0])
        exps = eigenvalues(lo, int(cell[-1]) + 1)
        exps = exps[0] if len(exps) == 1 else exps[cell - lo]
        index, phase = indices[: k.size], phases[: k.size]
        np.remainder(np.multiply.outer(js32[k], ls, out=index), n, out=index)
        np.take(roots, index, out=phase)
        phase *= exps
        return phase.sum(axis=1) / n

    return _blocked(block, n, range(x.size * js.size)).reshape(shape)


def _truncation(n: int, scale, ax, j):
    # n*ceil((scale+30)/n) + j, one period more where that is below n + |x| + 20;
    # scale and ax are floats, or (T, 1) arrays giving a (T, len(j)) array
    if isinstance(scale, float):
        periods = math.ceil((scale + 30.0) / n)
    else:
        periods = np.ceil((scale + 30.0) / n).astype(int)
    K = n * periods + j
    return K + n * (K < n + ax + 20)


def default_comb_truncation(n: int, x: float, w: complex, j) -> int | np.ndarray:
    """Truncation order ending on a complete period: n*ceil((scale+30)/n) + j.

    Bumped by one period if needed so the bilateral-sum precondition
    K >= n + |x| + 20 always holds; one is enough, since the unbumped K
    is at least scale + 30 >= |x| + 30.  A 1-D array of classes j gives
    one order per class.
    """
    n = require_level(n)
    j = require_indices(j, n)
    return _truncation(n, unit_scale(x, w), abs(float(x)), j)


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


def comb_table_order(n: int) -> int:
    """Order of the Bessel table behind bessel_comb_column at level n.

    The largest default_comb_truncation of any admissible cell at level n:
    every class at unit_scale = |x| = ARG_MAX.
    """
    n = require_level(n)
    return int(_truncation(n, ARG_MAX, ARG_MAX, np.arange(n)).max())


def bessel_comb_column(n: int, x, w) -> np.ndarray:
    """The sums of bessel_comb_series for every class j at its default truncation, in one numpy pass.

    Each x gets one table, bessel_table(comb_table_order(n), x), sized
    from n alone, so a row depends only on its own (n, x, w).  Class j
    sums the orders |n*k-j| <= default_comb_truncation(n, x, w, j) and,
    as bessel_comb_series, none past the table's last nonzero value.  The
    terms of every class form one (periods, n) array over the orders of
    the table, order n*k - j at row k, column j, zero outside the
    truncation; its column sums add the terms of each class in the order
    of k, as the scalar sum does.  Two things separate an entry from
    bessel_comb_series, both at rounding level: the table's Miller start
    order, which follows its size, and numpy's powers w^m, which can
    differ from Python's w ** m in the last bit.

    Cell arrays x, w of length T give shape (T, n), row t bit for bit
    the call on cell t alone: the cells go through _blocked (width: the
    entries of the terms array) in the order of x, and the calls build
    one table per distinct x.
    """
    n = require_level(n)
    x, w, scale = require_cells(x, w, n)
    kmax = comb_table_order(n)
    orders = n * np.arange(-(kmax // n), (kmax + n - 1) // n + 1)[:, None] - np.arange(n)
    size = np.abs(orders)
    tables = {}  # x -> (table values, index of its last nonzero value), kept for the next block

    def block(xs, ws, scales):
        nonlocal tables
        distinct, which = np.unique(xs, return_inverse=True)
        tables = {v: tables.get(v) or _nonzero_table(kmax, v) for v in distinct.tolist()}
        values = np.reshape([v for v, _ in tables.values()], (-1, kmax + 1))
        last = np.array([top for _, top in tables.values()], dtype=int)
        K = np.minimum(_truncation(n, scales[:, None], np.abs(xs)[:, None], np.arange(n)), last[which, None])
        cell, period, j = np.nonzero(size <= K[:, None, :])
        terms = np.zeros((xs.size, *size.shape), complex)
        terms[cell, period, j] = values[which[cell], size[period, j]] * ws[cell] ** orders[period, j]
        return terms.sum(axis=1)

    if not isinstance(x, np.ndarray):
        return _blocked(block, size.size, x, w, scale)
    order = np.argsort(x, kind="stable")
    rows = np.empty((x.size, n), complex)
    rows[order] = _blocked(block, size.size, x[order], w[order], scale[order])
    return rows


def _nonzero_table(kmax: int, x: float) -> tuple[np.ndarray, int]:
    # I_0(x)..I_kmax(x) and the order of its last nonzero value
    values = bessel_table(kmax, x).values
    return values, int(np.flatnonzero(values)[-1])
