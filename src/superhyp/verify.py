"""Grid-driven verification suites with machine-readable reports.

Each suite evaluates one family of residual checks over a parameter
grid and returns a VerificationReport.  Default grids and tolerances
live in the two catalogs below so there is a single audit point; a
caller-supplied tolerance replaces the per-check base values (scale
factors such as exp(|x|) still apply where documented).
"""

from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra, bessel, circle, genmatrix, hyperbolic

SUITE_NAMES = ("pauli", "superhyp", "addition", "mixed", "bessel", "genmatrix", "circle")

DEFAULT_GRIDS = {
    "pauli_n": tuple(range(2, 17)),
    "superhyp_n": tuple(range(2, 9)),
    "superhyp_x": (-3.0, -1.5, 0.0, 0.7, 1.3, 3.0),
    "addition_n": tuple(range(2, 9)),
    "addition_trials": 100,
    "mixed_n": tuple(range(2, 7)),
    "mixed_trials": 50,
    "bessel_x": (0.5, 1.0, 5.0, 10.0),
    "bessel_kmax": 80,
    "genmatrix_n": tuple(range(2, 7)),
    "genmatrix_x": (0.5, 1.0, 2.0),
    "w_values": (1.0 + 0j, 0.8 + 0j, cmath.exp(1j * math.pi / 5)),
    "circle_N": (1, 2, 5, 20),
    "circle_alphas": (0.0, 0.25, 0.7),
}

DEFAULT_TOLERANCES = {
    "pauli": {"relations": 1e-12},
    "superhyp": {"identity": 1e-9, "polynomial": 1e-10, "agreement": 1e-10, "cross_method": 1e-10},
    "addition": {"addition": 1e-10},
    "mixed": {"mixed": 1e-10},
    "bessel": {"classic": 1e-10, "recurrence": 1e-9, "generating_function": 1e-10},
    "genmatrix": {"trace_vs_sum": 1e-11, "trace_vs_bessel": 1e-9, "completeness": 1e-9},
    "circle": {"commutator": 0.0, "gauge": 0.0, "spectrum": 1e-12, "shift_isometry": 0.0},
}


@dataclass
class CaseResult:
    inputs: dict
    residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    suite: str
    params: dict
    cases: list
    max_residual: float
    passed: bool
    wall_time_ms: float

    def to_payload(self) -> dict:
        cases = []
        for c in sorted(self.cases, key=lambda c: json.dumps(c.inputs, sort_keys=True)):
            entry = {
                "inputs": c.inputs,
                "residual": float(c.residual),
                "tolerance": float(c.tolerance),
                "pass": bool(c.passed),
            }
            if c.details:
                entry["details"] = c.details
            cases.append(entry)
        return {
            "suite": self.suite,
            "params": self.params,
            "cases": cases,
            "max_residual": float(self.max_residual),
            "pass": bool(self.passed),
            "wall_time_ms": float(self.wall_time_ms),
        }


def complex_payload(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _tols(suite: str, tol):
    base = dict(DEFAULT_TOLERANCES[suite])
    if tol is not None:
        base = {key: float(tol) for key in base}
    return base


def _case(inputs, residual, tolerance, **details) -> CaseResult:
    residual = float(residual)
    tolerance = float(tolerance)
    return CaseResult(
        inputs=inputs,
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        details={k: v for k, v in details.items() if v is not None},
    )


def _finish(suite: str, params: dict, cases: list, started: float) -> VerificationReport:
    return VerificationReport(
        suite=suite,
        params=params,
        cases=cases,
        max_residual=max((c.residual for c in cases), default=0.0),
        passed=all(c.passed for c in cases),
        wall_time_ms=(time.perf_counter() - started) * 1e3,
    )


def verify_pauli(n_values=None, tol=None) -> VerificationReport:
    """Defining clock/shift relations over a range of levels."""
    started = time.perf_counter()
    n_values = [int(n) for n in (n_values or DEFAULT_GRIDS["pauli_n"])]
    t = _tols("pauli", tol)
    cases = []
    for n in n_values:
        for relation, residual in algebra.pauli_residuals(n).items():
            cases.append(_case({"n": n, "relation": relation}, residual, t["relations"]))
    return _finish("pauli", {"n_values": n_values, "tol": t}, cases, started)


def verify_superhyp(n_values=None, x_values=None, tol=None) -> VerificationReport:
    """Determinant identity, printed polynomials, and series/filter agreement."""
    started = time.perf_counter()
    n_values = [int(n) for n in (n_values or DEFAULT_GRIDS["superhyp_n"])]
    x_values = [float(x) for x in (x_values or DEFAULT_GRIDS["superhyp_x"])]
    t = _tols("superhyp", tol)
    cases = []
    for n in n_values:
        for x in x_values:
            det_res = hyperbolic.fundamental_identity_residual(n, x)
            cases.append(_case({"n": n, "x": x, "check": "identity"}, det_res, t["identity"]))
            if n in hyperbolic.POLY_IDENTITY_MONOMIALS:
                poly_res = hyperbolic.polynomial_identity_residual(n, x)
                cases.append(
                    _case({"n": n, "x": x, "check": "polynomial"}, poly_res, t["polynomial"])
                )
                cases.append(
                    _case(
                        {"n": n, "x": x, "check": "agreement"},
                        abs(poly_res - det_res),
                        t["agreement"],
                    )
                )
            spread = max(
                abs(hyperbolic.c_series(n, j, x) - hyperbolic.c_filter(n, j, x))
                for j in range(n)
            )
            cases.append(
                _case(
                    {"n": n, "x": x, "check": "cross_method"},
                    spread,
                    t["cross_method"] * math.exp(abs(x)),
                )
            )
    return _finish(
        "superhyp", {"n_values": n_values, "x_values": x_values, "tol": t}, cases, started
    )


def verify_addition(n_values=None, trials=None, seed=0, tol=None) -> VerificationReport:
    """Addition formulas on seeded random points in [-3, 3]^2."""
    started = time.perf_counter()
    n_values = [int(n) for n in (n_values or DEFAULT_GRIDS["addition_n"])]
    trials = int(trials if trials is not None else DEFAULT_GRIDS["addition_trials"])
    seed = int(seed)
    t = _tols("addition", tol)
    rng = np.random.default_rng(seed)
    cases = []
    for n in n_values:
        for trial in range(trials):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            residual = float(hyperbolic.addition_residual(n, x, y).max())
            cases.append(
                _case(
                    {"n": n, "trial": trial, "x": float(x), "y": float(y)},
                    residual,
                    t["addition"],
                )
            )
    return _finish(
        "addition",
        {"n_values": n_values, "trials": trials, "seed": seed, "tol": t},
        cases,
        started,
    )


def verify_mixed(n_values=None, trials=None, seed=0, tol=None) -> VerificationReport:
    """Mixed bilinear relations, all class indices, seeded random points."""
    started = time.perf_counter()
    n_values = [int(n) for n in (n_values or DEFAULT_GRIDS["mixed_n"])]
    trials = int(trials if trials is not None else DEFAULT_GRIDS["mixed_trials"])
    seed = int(seed)
    t = _tols("mixed", tol)
    rng = np.random.default_rng(seed)
    cases = []
    for n in n_values:
        for trial in range(trials):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            scale = math.exp(abs(x) + abs(y))
            for j, residual in enumerate(hyperbolic.mixed_product_residual(n, x, y)):
                cases.append(
                    _case(
                        {"n": n, "trial": trial, "j": j, "x": float(x), "y": float(y)},
                        residual,
                        t["mixed"] * scale,
                    )
                )
    return _finish(
        "mixed",
        {"n_values": n_values, "trials": trials, "seed": seed, "tol": t},
        cases,
        started,
    )


def verify_bessel(x_values=None, kmax=None, w_values=None, tol=None) -> VerificationReport:
    """Classical summation identities, three-term recurrence, generating function."""
    started = time.perf_counter()
    x_values = [float(x) for x in (x_values or DEFAULT_GRIDS["bessel_x"])]
    K = int(kmax if kmax is not None else DEFAULT_GRIDS["bessel_kmax"])
    w_values = [complex(w) for w in (w_values or DEFAULT_GRIDS["w_values"])]
    t = _tols("bessel", tol)
    cases = []
    for x in x_values:
        scale = math.exp(abs(x))
        residuals = bessel.classic_identity_residuals(x, K)
        for name, value in residuals._asdict().items():
            cases.append(
                _case({"x": x, "K": K, "identity": name}, value, t["classic"] * scale)
            )
        if x != 0:
            table = bessel.bessel_table(22, x).values
            for k in range(1, 21):
                lhs = table[k - 1] - table[k + 1]
                rhs = (2.0 * k / x) * table[k]
                cases.append(
                    _case(
                        {"x": x, "k": k, "identity": "recurrence"},
                        abs(lhs - rhs) / abs(table[k - 1]),
                        t["recurrence"],
                    )
                )
    for x in [x for x in x_values if abs(x) <= 5]:
        K_gen = int(2 * (abs(x) + 20))
        for w in w_values:
            residual = bessel.generating_function_residual(x, w, K_gen)
            cases.append(
                _case(
                    {"x": x, "K": K_gen, "identity": "generating_function", "w": complex_payload(w)},
                    residual,
                    t["generating_function"] * math.exp(2 * abs(x)),
                )
            )
    return _finish(
        "bessel",
        {"x_values": x_values, "kmax": K, "w_values": [complex_payload(w) for w in w_values], "tol": t},
        cases,
        started,
    )


def verify_genmatrix(n_values=None, x_values=None, w_values=None, tol=None) -> VerificationReport:
    """Three-way agreement of the trace projections, plus class completeness."""
    started = time.perf_counter()
    n_values = [int(n) for n in (n_values or DEFAULT_GRIDS["genmatrix_n"])]
    x_values = [float(x) for x in (x_values or DEFAULT_GRIDS["genmatrix_x"])]
    w_values = [complex(w) for w in (w_values or DEFAULT_GRIDS["w_values"])]
    t = _tols("genmatrix", tol)
    cases = []
    for n in n_values:
        for x in x_values:
            for w in w_values:
                scale = math.exp(genmatrix.unit_scale(x, w))
                w_pay = complex_payload(w)
                totals = 0j
                for j in range(n):
                    tr = genmatrix.trace_projection(n, x, w, j)
                    es = genmatrix.exponential_sum(n, x, w, j)
                    comb = genmatrix.bessel_comb_series(
                        n, x, w, j, genmatrix.default_comb_truncation(n, x, w, j)
                    )
                    totals += tr
                    base = {"n": n, "x": x, "j": j, "w": w_pay}
                    cases.append(
                        _case(
                            {**base, "check": "trace_vs_sum"},
                            abs(tr - es),
                            t["trace_vs_sum"] * scale,
                        )
                    )
                    cases.append(
                        _case(
                            {**base, "check": "trace_vs_bessel"},
                            abs(tr - comb),
                            t["trace_vs_bessel"] * scale,
                        )
                    )
                generating = cmath.exp((x / 2.0) * (w + 1.0 / w))
                cases.append(
                    _case(
                        {"n": n, "x": x, "w": w_pay, "check": "completeness"},
                        abs(totals - generating),
                        t["completeness"] * scale,
                    )
                )
    return _finish(
        "genmatrix",
        {
            "n_values": n_values,
            "x_values": x_values,
            "w_values": [complex_payload(w) for w in w_values],
            "tol": t,
        },
        cases,
        started,
    )


def verify_circle(N_values=None, mode=None, alphas=None, tol=None) -> VerificationReport:
    """Integer commutator accounting, gauge invariance, clock spectrum, isometry."""
    started = time.perf_counter()
    N_values = [int(N) for N in (N_values or DEFAULT_GRIDS["circle_N"])]
    modes = [mode] if mode else list(circle.MODES)
    alphas = [float(a) for a in (alphas or DEFAULT_GRIDS["circle_alphas"])]
    t = _tols("circle", tol)
    cases = []
    for N in N_values:
        dim = 2 * N + 1
        for m in modes:
            ops = circle.build_lattice(N, mode=m)
            report = circle.commutator_check(ops)
            expected_corner = -dim if m == "cyclic" else 0
            residual = float(
                report.max_other_defect + abs(report.corner_defect - expected_corner)
            )
            cases.append(
                _case(
                    {"N": N, "mode": m, "check": "commutator"},
                    residual,
                    t["commutator"],
                    corner_defect=report.corner_defect,
                    defect_mod_dim=report.defect_mod_dim,
                    exact=report.exact,
                )
            )
            reports = {
                a: circle.commutator_check(circle.build_lattice(N, mode=m, alpha=a))
                for a in alphas
            }
            gauge_ok = all(r == report for r in reports.values())
            cases.append(
                _case(
                    {"N": N, "mode": m, "check": "gauge"},
                    0.0 if gauge_ok else 1.0,
                    t["gauge"],
                    alphas=alphas,
                )
            )
            st = ops.s.astype(complex)
            gram = st.conj().T @ st
            expected = np.eye(dim)
            if m == "open":
                expected = expected.copy()
                expected[dim - 1, dim - 1] = 0.0
            cases.append(
                _case(
                    {"N": N, "mode": m, "check": "shift_isometry"},
                    algebra.max_abs(gram - expected),
                    t["shift_isometry"],
                )
            )
        for a in alphas:
            ops = circle.build_lattice(N, mode="cyclic", alpha=a)
            eig = np.linalg.eigvals(ops.sigma3t)
            expected = np.exp(2j * np.pi * (np.arange(-N, N + 1) + a) / dim)
            # match by angle; the points are 2*pi/dim apart, far above noise
            eig = eig[np.argsort(np.angle(eig))]
            expected = expected[np.argsort(np.angle(expected))]
            cases.append(
                _case(
                    {"N": N, "alpha": a, "check": "spectrum"},
                    float(np.abs(eig - expected).max()),
                    t["spectrum"],
                )
            )
    return _finish(
        "circle",
        {"N_values": N_values, "modes": modes, "alphas": alphas, "tol": t},
        cases,
        started,
    )


_SUITES = {
    "pauli": verify_pauli,
    "superhyp": verify_superhyp,
    "addition": verify_addition,
    "mixed": verify_mixed,
    "bessel": verify_bessel,
    "genmatrix": verify_genmatrix,
    "circle": verify_circle,
}


def run_suite(suite: str, **kwargs) -> VerificationReport:
    """Run one named suite; unknown keyword arguments are rejected."""
    if suite not in _SUITES:
        raise KeyError(f"unknown suite {suite!r}, expected one of {SUITE_NAMES}")
    return _SUITES[suite](**kwargs)
