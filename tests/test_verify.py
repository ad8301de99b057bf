import cmath
import collections
import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from reference_report import Case, payload
from test_circle import _eager_lattice
from test_hyperbolic import _loop_addition_residual, _loop_mixed_residual

from superhyp import bessel, circle, cli, errors, genmatrix, hyperbolic, verify
from superhyp.errors import MAX_CASES, MAX_GRID_POINTS, DomainError


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        ("pauli", {"n_values": [2.5]}),
        ("pauli", {"n_values": []}),
        ("superhyp", {"x_values": []}),
        ("superhyp", {"x_values": [math.nan]}),
        ("bessel", {"kmax": 80.5}),
        ("genmatrix", {"w_values": []}),
        ("circle", {"N_values": [0]}),
        ("circle", {"alphas": []}),
        ("addition", {"trials": 0}),
        ("addition", {"trials": -5}),
        ("mixed", {"trials": 2.7}),
        ("mixed", {"trials": MAX_GRID_POINTS + 1}),
        ("addition", {"seed": 1.9}),
        ("mixed", {"seed": -1}),
        ("circle", {"mode": ""}),
        ("superhyp", {"n_values": [2], "x_values": [0.5] * (MAX_GRID_POINTS + 1)}),
        ("pauli", {"n_values": 5}),
        ("circle", {"alphas": 0.5}),
        ("genmatrix", {"w_values": [None]}),
        ("bessel", {"w_values": [None]}),
        ("genmatrix", {"w_values": ["x"]}),
        ("bessel", {"w_values": ["x"]}),
        ("bessel", {"x_values": [10.0], "w_values": [0.0]}),  # no generating-function case reads w
        ("circle", {"alphas": [None]}),
        ("circle", {"alphas": ["x"]}),
        ("superhyp", {"tol": "abc"}),
        ("superhyp", {"tol": -1}),
        ("superhyp", {"tol": math.nan}),
    ],
)
def test_grids_go_through_the_shared_validators(suite, kwargs):
    with pytest.raises(DomainError):
        verify.run_suite(suite, **kwargs)


ZERO_TOLERANCE_GRIDS = {
    "pauli": {"n_values": [2, 3]},
    "superhyp": {"n_values": [2, 5], "x_values": [0.0, 1.0]},
    "addition": {"n_values": [2], "trials": 3},
    "mixed": {"n_values": [2], "trials": 3},
    "bessel": {"x_values": [0.0, 1.0, 1e-300, 5e-324]},
    "genmatrix": {"n_values": [2], "x_values": [0.0, 1.0]},
    "circle": {"N_values": [2]},
}


def test_a_zero_tolerance_is_valid():
    for suite in verify.SUITE_NAMES:
        report = verify.run_suite(suite, tol=0, **ZERO_TOLERANCE_GRIDS[suite])
        assert set(report.params["tol"].values()) == {0.0}
        cases = report.cases
        # the recurrence's underflow allowance U does not scale with tol: its
        # cases read their tolerance relative to |I_{k-1}| + U, U / (|I_{k-1}| + U)
        assert all(c.tolerance == 0.0 for c in cases if "underflow" not in c.details)
        assert all(0.0 < c.tolerance <= 1.0 for c in cases if "underflow" in c.details)
        # an exact agreement passes, a nonzero residual fails, but for the
        # recurrence's underflow allowance
        exact = [c for c in cases if c.residual == 0]
        assert exact and all(c.passed for c in exact), suite
        for c in cases:
            if c.residual != 0 and "underflow" not in c.details:
                assert not c.passed, (suite, c.inputs)
        assert report.passed == all(c.passed for c in cases)


def test_the_recurrence_underflow_allowance_holds_at_zero_tolerance():
    # at tiny x the two sides differ by no more than the underflow term U: the
    # cases pass at tol = 0 as at the default tol, judged as |lhs - rhs| <= tol |I_{k-1}| + U
    report = verify.run_suite("bessel", x_values=[5e-324, 1e-310], tol=0)
    recurrence = [c for c in report.cases if c.inputs["identity"] == "recurrence"]
    assert any(c.details and c.residual > 0 for c in recurrence)
    assert all(c.passed for c in recurrence)
    # the margin |lhs - rhs| / (tol |I_{k-1}| + U) agrees with the verdict
    summary = next(c for c in report.checks if c.name == "recurrence").summary()
    assert summary["failed"] == 0 and 0.0 < summary["worst_margin"] <= 1.0, summary


@pytest.mark.parametrize("tol", [0, None])
@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_a_passing_check_reports_no_margin_above_one(suite, tol):
    # the margin is residual / tolerance; a check that passes every case,
    # on an underflow allowance too, reads at most 1
    report = verify.run_suite(suite, tol=tol, **ZERO_TOLERANCE_GRIDS[suite])
    passing = [c for c in report.checks if c.passed.all()]
    assert passing or tol == 0
    for check in passing:
        assert check.summary()["worst_margin"] <= 1.0, (suite, check.name)


@pytest.mark.parametrize("suite", ["addition", "mixed"])
def test_pair_suites_pass_on_the_wide_level_grid(suite):
    # levels 2..32, where the addition check comes closest to its tolerance
    report = verify.run_suite(suite, n_values=range(2, 33))
    assert len(report.cases) == {"addition": 3100, "mixed": 26350}[suite]
    assert report.passed, max(c.residual / c.tolerance for c in report.cases)


# grids just past MAX_CASES: 2858 trials of levels 2..8 (mixed: 2858 * 35 cases),
# 1001 trials of 100 levels (addition: 1001 * 100 cases), 3847 points x of levels
# 2..11 (superhyp: 3847 * 26), 3704 points 0 < x <= 5 (bessel: 3704 * 27), 77 cells
# of levels 2..20 (genmatrix: 77 * 3 * 437), 100 half-widths with 995 gauges
# (circle: 100 * (6 + 995))
OVERSIZED_GRIDS = [
    ("mixed", {"n_values": range(2, 9), "trials": 2858}),
    ("addition", {"n_values": range(2, 102), "trials": 1001}),
    ("superhyp", {"n_values": range(2, 12), "x_values": np.linspace(-3.0, 3.0, 3847)}),
    ("bessel", {"x_values": np.linspace(0.01, 5.0, 3704)}),
    ("genmatrix", {"n_values": range(2, 21), "x_values": np.linspace(0.1, 2.0, 77)}),
    ("circle", {"N_values": range(1, 101), "alphas": np.linspace(0.0, 0.99, 995)}),
]


@pytest.mark.parametrize("suite, kwargs", OVERSIZED_GRIDS)
def test_an_oversized_pair_grid_is_refused_before_any_kernel(suite, kwargs):
    # run, these grids take seconds and hundreds of MB; refused, neither time nor memory
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError, match=f"invalid-grid: need at most {MAX_CASES} cases"):
            verify.run_suite(suite, **kwargs)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 2**20, (elapsed, peak)


def test_pair_grids_are_counted_in_cases(monkeypatch):
    # trials x levels for addition, trials x the sum of the levels for mixed
    monkeypatch.setattr(errors, "MAX_CASES", 60)
    assert len(verify.run_suite("addition", n_values=[2, 3, 4], trials=20).cases) == 60
    assert len(verify.run_suite("mixed", n_values=[2, 4], trials=10).cases) == 60
    with pytest.raises(DomainError, match="got 63"):
        verify.run_suite("addition", n_values=[2, 3, 4], trials=21)
    with pytest.raises(DomainError, match="got 66"):
        verify.run_suite("mixed", n_values=[2, 4], trials=11)


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        ("superhyp", {"n_values": [2, 5, 4], "x_values": [-1.0, 0.0, 2.5]}),
        ("bessel", {"x_values": [0.0, -5.0, 5.5, 1e-300], "w_values": [1.0, 0.8]}),
        ("genmatrix", {"n_values": [2, 7], "x_values": [0.0, 1.5], "w_values": [1.0, 0.8, 1j]}),
        ("circle", {"N_values": [1, 4], "alphas": [0.0, 0.5]}),
        ("circle", {"N_values": [3], "mode": "open", "alphas": [0.25]}),
    ],
)
def test_suite_grids_are_counted_in_cases(monkeypatch, suite, kwargs):
    # each suite counts its cases from its grids before any kernel runs, exactly
    count = len(verify.run_suite(suite, **kwargs).cases)
    monkeypatch.setattr(errors, "MAX_CASES", count)
    assert len(verify.run_suite(suite, **kwargs).cases) == count
    monkeypatch.setattr(errors, "MAX_CASES", count - 1)
    with pytest.raises(DomainError, match=f"cases in verify {suite} .*, got {count}$"):
        verify.run_suite(suite, **kwargs)


def test_default_grids_are_reported_as_before():
    report = verify.run_suite("pauli")
    assert report.params["n_values"] == list(range(2, 17))
    assert all(type(n) is int for n in report.params["n_values"])
    report = verify.run_suite("superhyp", n_values=[3])
    assert report.params["x_values"] == list(verify.DEFAULT_GRIDS["superhyp_x"])


@pytest.mark.parametrize("n", [2, 5, 8])
def test_cross_method_uses_one_filter_column_bit_for_bit(n):
    # entry j of one FFT column is exactly the real part of c_filter_complex(n, j, x)
    report = verify.run_suite("superhyp", n_values=[n])
    residuals = {
        c.inputs["x"]: c.residual for c in report.cases if c.inputs["check"] == "cross_method"
    }
    for x in verify.DEFAULT_GRIDS["superhyp_x"]:
        column = hyperbolic.filter_column(n, x).real
        per_filter = [hyperbolic.c_filter_complex(n, j, x).real for j in range(n)]
        assert list(column) == per_filter
        per_class = max(abs(hyperbolic.c_series(n, j, x) - per_filter[j]) for j in range(n))
        assert residuals[x] == per_class


@pytest.mark.parametrize("suite", ["addition", "mixed", "superhyp"])
def test_default_suites_make_one_series_call_per_level(monkeypatch, suite):
    calls = []
    series = hyperbolic.series_column

    def counted(n, x):
        calls.append(n)
        return series(n, x)

    monkeypatch.setattr(hyperbolic, "series_column", counted)
    verify.run_suite(suite)
    assert calls == list(verify.DEFAULT_GRIDS[f"{suite}_n"])


def _payload_cases(report):
    return report.to_payload()["cases"]


def _reference_cases(cases):
    return payload("", {}, cases, 0.0)["cases"]


def _rounding(n, x, y):
    return 16 * n * np.finfo(float).eps * math.exp(abs(x) + abs(y))


def _per_trial_cases(suite, seed, trials):
    # the suites as a loop over trials: one draw of 2 per trial, scalar calls
    rng = np.random.default_rng(seed)
    tol = verify.DEFAULT_TOLERANCES[suite][suite]
    cases = []
    for n in verify.DEFAULT_GRIDS[f"{suite}_n"]:
        for trial in range(trials):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            inputs = {"n": n, "trial": trial, "x": float(x), "y": float(y)}
            if suite == "addition":
                residual = hyperbolic.addition_residual(n, x, y)
                assert np.abs(residual - _loop_addition_residual(n, x, y)).max() <= _rounding(n, x, y)
                cases.append(Case(inputs, residual.max(), tol))
            else:
                residual = hyperbolic.mixed_product_residual(n, x, y)
                assert np.abs(residual - _loop_mixed_residual(n, x, y)).max() <= _rounding(n, x, y)
                for j, r in enumerate(residual):
                    cases.append(Case({**inputs, "j": j}, r, tol * math.exp(abs(x) + abs(y))))
    return _reference_cases(cases)


@pytest.mark.parametrize("suite", ["addition", "mixed"])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trials", [1, 100])
def test_batched_trial_suites_equal_the_per_trial_loop(suite, seed, trials):
    report = verify.run_suite(suite, seed=seed, trials=trials)
    assert _payload_cases(report) == _per_trial_cases(suite, seed, trials)


def test_batched_superhyp_equals_the_per_point_loop():
    report = verify.run_suite("superhyp")
    tol = verify.DEFAULT_TOLERANCES["superhyp"]
    cases = []
    for n in verify.DEFAULT_GRIDS["superhyp_n"]:
        for x in verify.DEFAULT_GRIDS["superhyp_x"]:
            det = hyperbolic.fundamental_identity_residual(n, x)
            cases.append(Case({"n": n, "x": x, "check": "identity"}, det, tol["identity"]))
            c = hyperbolic.series_column(n, x)
            if n in hyperbolic.POLY_IDENTITY_MONOMIALS:
                # the monomials as scalar ** on each value, not numpy's vectorised power
                total = 0.0
                for coeff, powers in hyperbolic.POLY_IDENTITY_MONOMIALS[n]:
                    term = coeff
                    for base, p in zip(c, powers):
                        term *= base**p
                    total += term
                poly = abs(total - 1.0)
                cases.append(Case({"n": n, "x": x, "check": "polynomial"}, poly, tol["polynomial"]))
                cases.append(Case({"n": n, "x": x, "check": "agreement"}, abs(poly - det), tol["agreement"]))
            spread = np.abs(c - hyperbolic.filter_column(n, x).real).max()
            cases.append(
                Case({"n": n, "x": x, "check": "cross_method"}, spread, tol["cross_method"] * math.exp(abs(x)))
            )
    assert _payload_cases(report) == _reference_cases(cases)


def test_batched_genmatrix_equals_the_per_class_loop():
    # trace_vs_sum and completeness bit for bit; trace_vs_bessel moves only by
    # numpy's complex powers in bessel_comb_column, a few ulps of each term
    report = verify.run_suite("genmatrix")
    tol = verify.DEFAULT_TOLERANCES["genmatrix"]
    eps = np.finfo(float).eps
    cases = {}
    for n in verify.DEFAULT_GRIDS["genmatrix_n"]:
        for x in verify.DEFAULT_GRIDS["genmatrix_x"]:
            for w in verify.DEFAULT_GRIDS["w_values"]:
                scale = math.exp(genmatrix.unit_scale(x, w))
                w_pay = verify.complex_payload(w)
                # the Bessel sums on the column's table (sized from n alone), on Python's powers
                K = [genmatrix.default_comb_truncation(n, x, w, j) for j in range(n)]
                table = bessel.bessel_table(genmatrix.comb_table_order(n), x).values
                totals = 0j
                for j in range(n):
                    tr = genmatrix.trace_projection(n, x, w, j)
                    es = genmatrix.exponential_sum(n, x, w, j)
                    comb = bessel._comb_sum(table, n, w, j, K[j])
                    totals += tr
                    base = {"n": n, "x": x, "j": j, "w": w_pay}
                    for check, residual in (("trace_vs_sum", abs(tr - es)), ("trace_vs_bessel", abs(tr - comb))):
                        case = Case({**base, "check": check}, residual, tol[check] * scale)
                        cases[repr(case.inputs)] = case
                generating = cmath.exp((x / 2.0) * (w + 1.0 / w))
                case = Case(
                    {"n": n, "x": x, "w": w_pay, "check": "completeness"},
                    abs(totals - generating),
                    tol["completeness"] * scale,
                )
                cases[repr(case.inputs)] = case
    assert len(report.cases) == len(cases)
    for case in report.cases:
        want = cases[repr(case.inputs)]
        assert case.tolerance == want.tolerance and case.passed == want.passed
        if case.inputs["check"] == "trace_vs_bessel":
            scale = want.tolerance / tol["trace_vs_bessel"]
            assert abs(case.residual - want.residual) <= 8 * eps * scale, case.inputs
        else:
            assert np.float64(case.residual).tobytes() == np.float64(want.residual).tobytes(), case.inputs


def _circle_key(case):
    # (check, N, mode) per lattice, (check, N, alpha) per weyl case
    inputs = case.inputs
    return inputs["check"], inputs["N"], inputs.get("mode", inputs.get("alpha"))


def test_genmatrix_makes_one_call_per_route_per_level(monkeypatch):
    calls = collections.Counter()
    tables = collections.Counter()

    def counted(name, fn):
        def wrapper(n, *args):
            calls[name, n] += 1
            return fn(n, *args)

        return wrapper

    for name in ("generating_column", "exponential_sum", "bessel_comb_column"):
        monkeypatch.setattr(genmatrix, name, counted(name, getattr(genmatrix, name)))
    table = genmatrix.bessel_table

    def counted_table(kmax, x):
        tables[kmax] += 1
        return table(kmax, x)

    monkeypatch.setattr(genmatrix, "bessel_table", counted_table)
    n_values = [2, 3, 64]
    x_values = [0.5, -2.0, 0.5, 1.0]  # a repeated x shares its table
    report = verify.run_suite("genmatrix", n_values=n_values, x_values=x_values)
    assert report.passed
    routes = ("generating_column", "exponential_sum", "bessel_comb_column")
    assert calls == {(route, n): 1 for route in routes for n in n_values}
    assert tables == {genmatrix.comb_table_order(n): len(set(x_values)) for n in n_values}


def test_bessel_builds_one_table_per_call(monkeypatch):
    # four classic tables, four recurrence tables and one generating-function table
    # for each x <= 5 (three weights each): 11, where one table per weight made 17
    orders = []
    table = bessel.bessel_table

    def counted(kmax, x):
        orders.append(kmax)
        return table(kmax, x)

    monkeypatch.setattr(bessel, "bessel_table", counted)
    verify.run_suite("bessel")
    assert len(orders) == 11
    assert orders.count(22) == 4


@pytest.mark.parametrize("x", [1e-16, -1e-16, 1e-300, 5e-324, -5e-324, 1e-310, 2.225073858507e-311, 1e-320])
def test_recurrence_passes_where_the_orders_underflow(x):
    # I_k(x) underflows to 0 or to a subnormal while I_{k-1}(x) does not: the
    # case allows 2^-1074 per such value, scaled by 2k/|x| for I_k
    report = verify.run_suite("bessel", x_values=[x])
    recurrence = [c for c in report.cases if c.inputs["identity"] == "recurrence"]
    assert len(recurrence) == 20
    assert report.passed, [(c.inputs, c.residual) for c in report.cases if not c.passed]
    assert any("underflow" in c.details for c in recurrence)


@pytest.mark.parametrize("x", [0.5, 5.0, -10.0, 1e-6, 1e-16, -1e-16, 1e-300])
def test_recurrence_still_fails_on_a_wrong_order(monkeypatch, x):
    # order k of the table, a normal double, scaled by 1 + 1e-6: the case at k fails
    table = bessel.bessel_table
    normal = [k for k in range(1, 21) if abs(table(22, x).values[k]) >= np.finfo(float).tiny]
    assert normal
    for k in normal:

        def wrong(kmax, arg, k=k):
            good = table(kmax, arg)
            values = good.values.copy()
            values[k] *= 1 + 1e-6
            return bessel.BesselTable(good.x, good.kmax, values, good.norm_residual)

        with monkeypatch.context() as patch:
            patch.setattr(bessel, "bessel_table", wrong)
            report = verify.run_suite("bessel", x_values=[x])
        failed = {c.inputs["k"] for c in report.cases if c.inputs["identity"] == "recurrence" and not c.passed}
        assert k in failed, (x, k)


def test_default_bessel_report_has_no_underflow_term():
    report = verify.run_suite("bessel")
    recurrence = [c for c in report.cases if c.inputs["identity"] == "recurrence"]
    assert len(recurrence) == 80
    assert all(not c.details and c.tolerance == 1e-9 for c in recurrence)


@pytest.mark.parametrize("N", [1, 2, 5, 20])
@pytest.mark.parametrize("mode", circle.MODES)
@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.7])
def test_band_circle_checks_equal_the_dense_ones(N, mode, alpha):
    report = verify.run_suite("circle", N_values=[N], mode=mode, alphas=[alpha])
    cases = {_circle_key(c): c for c in report.cases}
    s = _eager_lattice(N, mode, 0.0)["s"]
    expected = np.eye(2 * N + 1, dtype=np.int64)
    if mode == "open":
        expected[-1, -1] = 0
    assert cases["shift_isometry", N, mode].residual == np.abs(s.T @ s - expected).max()
    # the Weyl pair runs on the cyclic lattice whichever mode is asked for
    eager = _eager_lattice(N, "cyclic", alpha)
    s, v = eager["s"].astype(complex), eager["sigma3t"]
    omega = np.exp(2j * np.pi / (2 * N + 1))
    dense = np.abs(v @ s - omega * (s @ v)).max()
    assert cases["weyl", N, alpha].details["weyl_defect"] == dense


def test_weyl_case_fails_on_a_wrong_clock(monkeypatch):
    # a clock of period 2N+2 breaks V S = omega S V and the alpha covariance
    wrong = property(lambda self: np.exp(2j * np.pi * (self.levels + self.alpha) / (self.dim + 1)))
    monkeypatch.setattr(circle.LatticeOperators, "clock", wrong)
    report = verify.run_suite("circle", alphas=[0.0, 0.5])
    for case in report.cases:
        assert case.passed == (case.inputs["check"] != "weyl"), case.inputs
    assert not report.passed


@pytest.mark.parametrize("mode", [None, *circle.MODES])
def test_circle_case_layout_is_pinned(mode):
    # N * (3 * modes + alphas): three checks per (N, mode), one weyl per (N, alpha)
    kwargs = {} if mode is None else {"mode": mode}
    report = verify.run_suite("circle", N_values=[1, 3], alphas=[0.0, 0.5], **kwargs)
    modes = list(circle.MODES) if mode is None else [mode]
    assert report.params["modes"] == modes
    assert len(report.cases) == 2 * (3 * len(modes) + 2)
    want = collections.Counter(
        [(check, N, m) for check in ("commutator", "gauge", "shift_isometry") for N in (1, 3) for m in modes]
        + [("weyl", N, a) for N in (1, 3) for a in (0.0, 0.5)]
    )
    assert collections.Counter(map(_circle_key, report.cases)) == want
    assert report.passed


def test_circle_at_the_size_cap_is_o_of_n():
    # one (2N+1)^2 int64 plane at N = 2047 would be 128 MiB
    tracemalloc.start()
    try:
        report = verify.run_suite("circle", N_values=[2047])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2**20, peak


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: bessel.bessel_table(3, 1.0), "values"),
        (lambda: hyperbolic.c_all(3, 1.0), "values"),
        (lambda: genmatrix.generating_matrix(3, 1.0, 0.8), "matrix"),
        (lambda: circle.build_lattice(2), "N"),
        (lambda: circle.commutator_check(circle.build_lattice(2)), "exact"),
        (lambda: circle._OpenExponential.build(2, 1.0, 0.8), "toeplitz"),
        (lambda: circle.convergence_study([8], 1.0, 0.8, 0)[0], "error"),
        (lambda: verify.run_suite("circle", N_values=[1]).cases[0], "residual"),
        (lambda: verify.run_suite("circle", N_values=[1]), "cases"),
    ],
    ids=[
        "BesselTable", "SuperHypValues", "GeneratingMatrixEval", "LatticeOperators", "CommutatorReport",
        "_OpenExponential", "ConvergencePoint", "CaseResult", "VerificationReport",
    ],
)
def test_records_are_read_only(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_every_case_holds_a_float_residual_and_a_bool_verdict(suite):
    # numpy scalars from a kernel are converted where the case is built, as the deleted wrapper did
    for case in verify.run_suite(suite).cases:
        assert type(case.residual) is float and type(case.tolerance) is float and type(case.passed) is bool


@pytest.mark.parametrize("position", ["first", "middle", "last"])
def test_a_nan_residual_shows_in_max_residual(monkeypatch, capsys, position):
    # levels 2..4, 3 trials each: one addition residual is NaN, at the first,
    # a middle or the last case of the check's columns
    where = {"first": (2, 0), "middle": (3, 1), "last": (4, 2)}[position]
    residual = hyperbolic.addition_residual

    def with_nan(n, x, y):
        rows = residual(n, x, y)
        if n == where[0]:
            rows[where[1]] = math.nan
        return rows

    monkeypatch.setattr(hyperbolic, "addition_residual", with_nan)
    report = verify.run_suite("addition", n_values=[2, 3, 4], trials=3)
    assert math.isnan(report.max_residual)
    assert not report.passed
    assert [c.inputs["trial"] for c in report.cases if math.isnan(c.residual)] == [where[1]]
    assert cli.main(["verify", "addition", "--n", "2..4", "--trials", "3"]) == cli.EXIT_VERIFY_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert math.isnan(doc["max_residual"]) and doc["pass"] is False
    assert doc["checks"]["addition"]["failed"] == 1 and math.isnan(doc["checks"]["addition"]["worst_margin"])


def test_the_checks_block_summarises_each_check():
    report = verify.run_suite("superhyp", n_values=[2, 3], x_values=[0.5, 3.0], tol=1e-15)
    checks = report.to_payload()["checks"]
    assert sorted(checks) == sorted(verify.DEFAULT_TOLERANCES["superhyp"])
    for name, summary in checks.items():
        cases = [c for c in report.cases if c.inputs["check"] == name]
        margins = [c.residual / c.tolerance if c.residual else 0.0 for c in cases]
        worst = max(range(len(cases)), key=margins.__getitem__)
        assert summary == {
            "cases": len(cases),
            "failed": sum(not c.passed for c in cases),
            "worst_inputs": cases[worst].inputs,
            "worst_margin": margins[worst],
        }


def test_a_zero_tolerance_margin_is_infinite():
    checks = verify.run_suite("pauli", n_values=[3], tol=0).to_payload()["checks"]
    assert checks["relations"]["worst_margin"] == math.inf and checks["relations"]["failed"] > 0
    # no residual at all gives a margin of 0
    checks = verify.run_suite("circle", N_values=[1], alphas=[0.0], tol=0.5).to_payload()["checks"]
    assert checks["shift_isometry"]["worst_margin"] == 0.0
