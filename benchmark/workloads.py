"""Operation lists and output checks of the in-process workloads.

Checks use a route independent of the one timed: a numpy FFT of the
eigenvalues for circulant classes, the ascending series of bessel_i
for Bessel values, and the grid a verify report declares for its case
count.  Tolerances are the ones the library documents for the same
comparison (verify.DEFAULT_TOLERANCES and the circle resolution floor).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from measure import Op
from superhyp import algebra, bessel, circle, genmatrix, hyperbolic, verify

SUITES = verify.SUITE_NAMES
LARGE_N = {
    "exp_circulant_n": (256, 1024, 2048),
    "generating_matrix_n": 1024,
    "trace_n": 64,
    "c_all_n": 256,
    "identity_n": 256,
    "mat_exp_n": 256,
    "lattice_N": 200,
    "bessel_table": (2000, 500.0),
}
_TOL = verify.DEFAULT_TOLERANCES
_EPS = np.finfo(float).eps


def _classes(n: int, x: float) -> np.ndarray:
    """c_0(x)..c_{n-1}(x) as the DFT of exp(x s^k), by numpy's FFT."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    return (np.fft.fft(np.exp(x * roots)) / n).real


def _gen_classes(n: int, x: float, w: complex) -> np.ndarray:
    """(1/n) sum_l s^(l j) exp((x/2)(w s^l + s^-l / w)) for every j, by FFT."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    return np.fft.ifft(np.exp((x / 2.0) * (w * roots + np.conj(roots) / w)))


def _mismatch(what: str, got, want, tol: float) -> str | None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol:  # also catches NaN
        return f"{what}: error {err:.3e} > tolerance {tol:.3e}"
    return None


# -- verify-grid -------------------------------------------------------------


def expected_cases(report) -> int:
    """Case count implied by the grid the report declares in its params."""
    p = report.params
    s = report.suite
    if s == "pauli":
        return len(p["n_values"]) * len(algebra.pauli_residuals(2))
    if s == "superhyp":
        per_n = [2 + 2 * (n in hyperbolic.POLY_IDENTITY_MONOMIALS) for n in p["n_values"]]
        return sum(per_n) * len(p["x_values"])
    if s == "addition":
        return len(p["n_values"]) * p["trials"]
    if s == "mixed":
        return sum(p["n_values"]) * p["trials"]
    if s == "bessel":
        xs = p["x_values"]
        return (
            4 * len(xs)
            + 20 * sum(x != 0 for x in xs)
            + len(p["w_values"]) * sum(abs(x) <= 5 for x in xs)
        )
    if s == "genmatrix":
        per_xw = sum(2 * n + 1 for n in p["n_values"])
        return len(p["x_values"]) * len(p["w_values"]) * per_xw
    if s == "circle":
        return len(p["N_values"]) * (3 * len(p["modes"]) + len(p["alphas"]))
    raise KeyError(s)


def _spot_check(report) -> str | None:
    """Recompute the kernel behind the suite's worst case by an independent route."""
    worst = max(report.cases, key=lambda c: c.residual / c.tolerance if c.tolerance else c.residual)
    inp = worst.inputs
    if report.suite in ("superhyp", "addition", "mixed"):
        n = inp["n"]
        for x in {inp["x"], inp.get("y", inp["x"])}:
            series = [hyperbolic.c_series(n, j, x) for j in range(n)]
            err = _mismatch(f"c_series n={n} x={x}", series, _classes(n, x),
                            _TOL["superhyp"]["cross_method"] * math.exp(abs(x)))
            if err:
                return err
    elif report.suite == "bessel":
        x = inp["x"]
        table = bessel.bessel_table(30, x).values
        series = [bessel.bessel_i(k, x) for k in range(31)]
        return _mismatch(f"bessel_table x={x}", table, series,
                         _TOL["bessel"]["recurrence"] * math.exp(abs(x)))
    elif report.suite == "genmatrix":
        n, x = inp["n"], inp["x"]
        w = complex(inp["w"]["re"], inp["w"]["im"])
        scale = math.exp(genmatrix.unit_scale(x, w))
        traces = [genmatrix.trace_projection(n, x, w, j) for j in range(n)]
        return _mismatch(f"trace_projection n={n} x={x}", traces, _gen_classes(n, x, w),
                         _TOL["genmatrix"]["trace_vs_sum"] * scale)
    return None


def check_report(report) -> str | None:
    """A verify report is right when it passes, each case re-derives as a
    pass from its own residual and tolerance, it covers its declared grid,
    and the kernel at its worst case agrees with an independent route."""
    if not report.passed:
        return f"suite {report.suite} reported a failure"
    bad = [c for c in report.cases if not (math.isfinite(c.residual) and c.residual <= c.tolerance)]
    if bad:
        return f"suite {report.suite}: {len(bad)} cases exceed their tolerance"
    want = expected_cases(report)
    if len(report.cases) != want:
        return f"suite {report.suite}: {len(report.cases)} cases, grid implies {want}"
    return _spot_check(report)


def verify_grid_ops(rng: np.random.Generator) -> list[Op]:
    """One operation: a whole verification grid, i.e. all seven suites at
    default grids (what a user waits for); the addition and mixed suites
    draw their seeds from rng."""
    plan = [
        (suite, {"seed": int(rng.integers(2**31))} if suite in ("addition", "mixed") else {})
        for suite in SUITES
    ]

    def check(reports):
        return next(filter(None, map(check_report, reports)), None)

    return [
        Op(
            "verify.grid",
            lambda: [verify.run_suite(suite, **kwargs) for suite, kwargs in plan],
            check,
            lambda reports: sum(len(r.cases) for r in reports),
        )
    ]


# -- large-n -----------------------------------------------------------------


def _check_circulant(n, x, js):
    def check(m):
        tol = _TOL["superhyp"]["cross_method"] * math.exp(abs(x))
        for j in js:
            want = hyperbolic.c_series(n, j, x)
            k = (7 * j + 3) % n  # a second, unrelated column
            err = _mismatch(f"exp_circulant n={n} class {j}", [m[j, 0], m[(j + k) % n, k]], [want, want], tol)
            if err:
                return err
        return None

    return check


def _check_generating_matrix(n, x, w, js):
    def check(ev):
        # row 0 holds the classes: entry (0, j) is the j-th exponential sum
        tol = _TOL["genmatrix"]["trace_vs_sum"] * math.exp(genmatrix.unit_scale(x, w))
        want = [genmatrix.exponential_sum(n, x, w, j) for j in js]
        return _mismatch(f"generating_matrix n={n}", ev.matrix[0, list(js)], want, tol)

    return check


def large_n_ops(rng: np.random.Generator) -> list[Op]:
    """The fixed list of big-size calls; arguments come from rng.

    x is drawn from [1.1, 1.9] and the lattice x from [4.5, 5.5], with
    |w| = 1, so the mat_exp squaring count (and the work per call) is
    the same for every seed.
    """
    def x():
        return float(rng.uniform(1.1, 1.9))

    def w():
        return cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))

    ops = []

    def classes(n, lowest):
        # three classes from lowest..5 (mod n), where the values are O(1), and one anywhere
        near = [int(j) % n for j in rng.choice(np.arange(lowest, 6), size=3, replace=False)]
        return near + [int(rng.integers(n))]

    for n in LARGE_N["exp_circulant_n"]:
        xv = x()
        js = classes(n, 0)  # c_j(x) ~ x^j / j! decays with j
        ops.append(Op(f"exp_circulant.{n}", lambda n=n, xv=xv: hyperbolic.exp_circulant(n, xv),
                      _check_circulant(n, xv, js)))

    ng, xg, wg = LARGE_N["generating_matrix_n"], x(), w()
    ops.append(Op(f"generating_matrix.{ng}", lambda: genmatrix.generating_matrix(ng, xg, wg),
                  _check_generating_matrix(ng, xg, wg, classes(ng, -5))))

    nt, xt, wt = LARGE_N["trace_n"], x(), w()
    scale_t = math.exp(genmatrix.unit_scale(xt, wt))

    def check_traces(values):
        want = [genmatrix.exponential_sum(nt, xt, wt, j) for j in range(nt)]
        return _mismatch(f"trace_projection n={nt}", values, want, _TOL["genmatrix"]["trace_vs_sum"] * scale_t)

    def check_sums(values):
        return _mismatch(f"exponential_sum n={nt}", values, _gen_classes(nt, xt, wt),
                         _TOL["genmatrix"]["trace_vs_sum"] * scale_t)

    def check_comb(values):
        want = _gen_classes(nt, xt, wt)
        return _mismatch(f"bessel_comb_series n={nt}", values, want, _TOL["genmatrix"]["trace_vs_bessel"] * scale_t)

    ops.append(Op(f"trace_projection.{nt}", lambda: [genmatrix.trace_projection(nt, xt, wt, j) for j in range(nt)],
                  check_traces))
    ops.append(Op(f"exponential_sum.{nt}", lambda: [genmatrix.exponential_sum(nt, xt, wt, j) for j in range(nt)],
                  check_sums))
    ops.append(Op(
        f"bessel_comb_series.{nt}",
        lambda: [genmatrix.bessel_comb_series(nt, xt, wt, j, genmatrix.default_comb_truncation(nt, xt, wt, j))
                 for j in range(nt)],
        check_comb,
    ))

    nc = LARGE_N["c_all_n"]
    for method in hyperbolic.METHODS:
        xv = x()
        ops.append(Op(
            f"c_all.{method}.{nc}",
            lambda method=method, xv=xv: hyperbolic.c_all(nc, xv, method),
            lambda out, xv=xv: _mismatch(f"c_all n={nc}", out.values, _classes(nc, xv),
                                         _TOL["superhyp"]["cross_method"] * math.exp(abs(xv))),
        ))

    ni, xi = LARGE_N["identity_n"], x()
    ops.append(Op(
        f"fundamental_identity.{ni}",
        lambda: hyperbolic.fundamental_identity_residual(ni, xi),
        lambda r: None if r <= _TOL["superhyp"]["identity"] else f"det residual {r:.3e} at n={ni}, x={xi}",
    ))

    nm, xm = LARGE_N["mat_exp_n"], x()
    ops.append(Op(
        f"mat_exp.{nm}",
        lambda: algebra.mat_exp(xm * algebra.shift_matrix(nm)),
        lambda m: _mismatch(f"mat_exp n={nm}", m, hyperbolic.exp_circulant(nm, xm),
                            _TOL["superhyp"]["cross_method"] * math.exp(abs(xm))),
    ))

    N, xl, wl = LARGE_N["lattice_N"], float(rng.uniform(4.5, 5.5)), w()
    offsets = [int(d) for d in rng.integers(-6, 7, size=4)]

    def check_lattice(g):
        # interior elements, far from the edge, equal I_d(x) w^d up to the
        # circle module's documented resolution floor
        floor = circle.RESOLUTION_EPS_FACTOR * _EPS * math.exp(abs(xl) * max(abs(wl), 1.0 / abs(wl)))
        got = [g[d - d // 2 + N, -(d // 2) + N] for d in offsets]
        want = [bessel.bessel_i(d, xl) * wl ** d for d in offsets]
        return _mismatch(f"generating_operator N={N}", got, want, floor)

    ops.append(Op(
        f"generating_operator.{N}",
        lambda: circle.generating_operator(circle.build_lattice(N, mode="open"), xl, wl),
        check_lattice,
    ))

    kmax, xb = LARGE_N["bessel_table"]
    orders = [int(k) for k in rng.choice(31, size=4, replace=False)]

    def check_table(table):
        # orders <= 30 take bessel_i's ascending series, a route
        # independent of the table's backward recurrence
        got = table.values[orders] / math.exp(xb)
        want = np.array([bessel.bessel_i(k, xb) for k in orders]) / math.exp(xb)
        return _mismatch(f"bessel_table({kmax}, {xb})", got, want, _TOL["bessel"]["recurrence"])

    ops.append(Op(f"bessel_table.{kmax}", lambda: bessel.bessel_table(kmax, xb), check_table))
    return ops


def passes(workload: str, rng: np.random.Generator):
    """Endless op lists, one per pass: a fresh grid draw for verify-grid,
    the same fixed list for large-n."""
    if workload == "large-n":
        ops = large_n_ops(rng)
        while True:
            yield ops
    while True:
        yield verify_grid_ops(rng)
