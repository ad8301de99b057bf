"""End-to-end acceptance checks, one test per criterion.

Run `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  Every tolerance is pinned here, not configurable.
"""

import cmath
import math
import time

import numpy as np

from superhyp import (
    algebra,
    bessel,
    circle,
    genmatrix,
    hyperbolic,
    verify,
)

W_SET = (1.0 + 0j, 0.8 + 0j, cmath.exp(1j * math.pi / 5))
X_GRID = (-3.0, -1.5, 0.0, 0.7, 1.3, 3.0)


def _report(num, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {status}: {description} ({detail})")
    assert ok, f"criterion {num} {description}: {detail}"


def test_criterion_01_clock_shift_relations():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 17):
        worst = max(worst, max(algebra.pauli_residuals(n).values()))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "clock/shift relations for n=2..16 at 1e-12",
        worst <= 1e-12 and elapsed < 1.0,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_determinant_identity():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        for x in X_GRID:
            worst = max(worst, hyperbolic.fundamental_identity_residual(n, x))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "|det exp(x*shift) - 1| <= 1e-9 for n=2..8 on the x grid",
        worst <= 1e-9 and elapsed < 1.0,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_printed_polynomials():
    worst_value = 0.0
    worst_agreement = 0.0
    for n in (2, 3, 4):
        for x in X_GRID:
            poly = hyperbolic.polynomial_identity_residual(n, x)
            det = hyperbolic.fundamental_identity_residual(n, x)
            worst_value = max(worst_value, poly)
            worst_agreement = max(worst_agreement, abs(poly - det))
    _report(
        3,
        "expanded polynomials equal 1 within 1e-10 and track the determinant within 1e-10",
        worst_value <= 1e-10 and worst_agreement <= 1e-10,
        f"max polynomial residual {worst_value:.2e}, max disagreement {worst_agreement:.2e}",
    )


def test_criterion_04_addition_formulas():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n in range(2, 9):
        for _ in range(100):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            worst = max(worst, float(hyperbolic.addition_residual(n, x, y).max()))
    elapsed = time.perf_counter() - start
    _report(
        4,
        "addition formulas, 100 seeded points per n=2..8, residual <= 1e-10",
        worst <= 1e-10 and elapsed < 2.0,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_mixed_relations():
    rng = np.random.default_rng(0)
    worst_scaled = 0.0
    for n in range(2, 7):
        for _ in range(50):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            scale = math.exp(abs(x) + abs(y))
            worst_scaled = max(
                worst_scaled, hyperbolic.mixed_product_residual(n, x, y).max() / scale
            )
    # the n=3 cases must also match coefficients extracted from the
    # product of the two dense exponentials
    s = algebra.shift_matrix(3)
    worst_oracle = 0.0
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.uniform(-3.0, 3.0, size=2)
        coeffs = (algebra.mat_exp(x * s) @ algebra.mat_exp(y * s.conj().T))[:, 0]
        cx = [hyperbolic.c_series(3, k, x) for k in range(3)]
        cy = [hyperbolic.c_series(3, k, y) for k in range(3)]
        for j in range(3):
            lhs = sum(cx[k] * cy[3 - j + k] for k in range(j))
            lhs += sum(cx[k] * cy[k - j] for k in range(j, 3))
            scale = math.exp(abs(x) + abs(y))
            worst_oracle = max(worst_oracle, abs(lhs - coeffs[j]) / scale)
    _report(
        5,
        "mixed relations <= 1e-10*exp(|x|+|y|) for n=2..6, n=3 matches coefficient extraction",
        worst_scaled <= 1e-10 and worst_oracle <= 1e-10,
        f"max scaled residual {worst_scaled:.2e}, oracle gap {worst_oracle:.2e}",
    )


def test_criterion_06_series_filter_agreement():
    worst_scaled = 0.0
    for n in range(2, 13):
        for x in (-10.0, -5.0, -2.0, -0.5, 0.0, 0.5, 2.0, 5.0, 10.0):
            scale = math.exp(abs(x))
            for j in range(n):
                gap = abs(hyperbolic.c_series(n, j, x) - hyperbolic.c_filter_complex(n, j, x).real)
                worst_scaled = max(worst_scaled, gap / scale)
    _report(
        6,
        "series vs filter within 1e-10*exp(|x|) for n<=12, |x|<=10",
        worst_scaled <= 1e-10,
        f"max scaled gap {worst_scaled:.2e}",
    )


def test_criterion_07_bessel_identities():
    worst_classic = 0.0
    for x in (0.5, 1.0, 5.0, 10.0):
        residuals = bessel.classic_identity_residuals(x, 80)
        worst_classic = max(worst_classic, max(residuals) / math.exp(x))
    worst_recurrence = 0.0
    for x in (0.5, 1.0, 5.0, 10.0):
        table = bessel.bessel_table(22, x).values
        for k in range(1, 21):
            gap = abs(table[k - 1] - table[k + 1] - (2.0 * k / x) * table[k])
            worst_recurrence = max(worst_recurrence, gap / abs(table[k - 1]))
    worst_generating = 0.0
    for x in (0.5, 1.0, 2.0, 5.0):
        K = int(2 * (x + 20))
        for w in W_SET:
            gap = bessel.generating_function_residual(x, w, K)
            worst_generating = max(worst_generating, gap / math.exp(2 * x))
    _report(
        7,
        "classical identities, recurrence, and generating function at stated tolerances",
        worst_classic <= 1e-10 and worst_recurrence <= 1e-9 and worst_generating <= 1e-10,
        f"classic {worst_classic:.2e}, recurrence {worst_recurrence:.2e}, "
        f"generating {worst_generating:.2e}",
    )


def test_criterion_08_trace_projections():
    worst = 0.0
    for n in range(2, 7):
        for x in (0.5, 1.0, 2.0):
            for w in W_SET:
                for j in range(n):
                    tr = genmatrix.trace_projection(n, x, w, j)
                    es = genmatrix.exponential_sum(n, x, w, j)
                    K = genmatrix.default_comb_truncation(n, x, w, j)
                    comb = genmatrix.bessel_comb_series(n, x, w, j, K)
                    worst = max(worst, abs(tr - es), abs(tr - comb))
    # n=3 classes: projections against shift^j collect exactly the
    # orders 3k, 3k-1, 3k-2
    worst_class = 0.0
    table = bessel.bessel_table(60, 1.0).values
    for w in W_SET:
        for j in range(3):
            expected = 0j
            for k in range(-20, 21):
                order = 3 * k - j
                if abs(order) <= 60:
                    expected += table[abs(order)] * w**order
            worst_class = max(
                worst_class, abs(genmatrix.trace_projection(3, 1.0, w, j) - expected)
            )
    _report(
        8,
        "three-way trace agreement within 1e-9 and n=3 order classes",
        worst <= 1e-9 and worst_class <= 1e-9,
        f"max three-way gap {worst:.2e}, class gap {worst_class:.2e}",
    )


def test_criterion_09_circle_limit():
    commutators_ok = True
    for N in (1, 2, 5, 20):
        cyc = circle.commutator_check(circle.build_lattice(N, mode="cyclic"))
        opn = circle.commutator_check(circle.build_lattice(N, mode="open"))
        commutators_ok &= cyc.corner_defect == -(2 * N + 1) and cyc.max_other_defect == 0
        commutators_ok &= opn.exact and opn.corner_defect == 0

    worst_element = 0.0
    for x in (0.5, 1.0, 2.0):
        ops = circle.build_lattice(40, mode="open")
        matrix = circle.generating_operator(ops, x, 1.0)
        for diff in range(-5, 6):
            m0 = diff - diff // 2
            k0 = m0 - diff
            gap = abs(matrix[m0 + 40, k0 + 40] - bessel.bessel_i(diff, x))
            worst_element = max(worst_element, gap)

    monotone = True
    for x in (0.5, 1.0, 2.0):
        for order in range(6):
            points = circle.convergence_study([10, 20, 40], x, 1.0, order)
            resolved = [p.resolved for p in points]
            monotone &= all(b <= a for a, b in zip(resolved, resolved[1:]))
            monotone &= points[-1].error <= 1e-8
    _report(
        9,
        "corner defect -(2N+1), open commutator exact, elements within 1e-8 of "
        "Bessel values at N=40, errors nonincreasing over N=10,20,40",
        commutators_ok and worst_element <= 1e-8 and monotone,
        f"max element gap {worst_element:.2e}",
    )


def test_criterion_10_performance():
    def median_ms(fn):
        times = sorted(_timed(fn) for _ in range(5))
        return times[2]

    def _timed(fn):
        t0 = time.perf_counter()
        fn()
        return (time.perf_counter() - t0) * 1e3

    n = 256
    spectral = median_ms(lambda: hyperbolic.exp_circulant(n, 1.0))
    s = algebra.shift_matrix(n)
    dense = median_ms(lambda: algebra.mat_exp(1.0 * s))

    start = time.perf_counter()
    suite_results = {name: verify.run_suite(name) for name in verify.SUITE_NAMES}
    suites_elapsed = time.perf_counter() - start
    all_pass = all(report.passed for report in suite_results.values())
    _report(
        10,
        "spectral beats dense at n=256 and the full verification run stays under 60 s",
        spectral < dense and suites_elapsed < 60.0 and all_pass,
        f"spectral {spectral:.1f} ms vs dense {dense:.1f} ms, "
        f"suites {suites_elapsed:.1f}s, all pass: {all_pass}",
    )
