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
from .errors import (
    MAX_GRID_POINTS,
    DomainError,
    require_half_width,
    require_int,
    require_level,
    require_order,
    require_x,
)

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
    "circle": {"commutator": 0.0, "gauge": 0.0, "weyl": 1e-12, "shift_isometry": 0.0},
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


def _grid(values, key: str, check) -> list:
    """The caller's grid, or DEFAULT_GRIDS[key] when it is None, each point through `check`."""
    values = DEFAULT_GRIDS[key] if values is None else values
    if len(values) == 0:
        raise DomainError(f"invalid-grid: the {key} grid is empty")
    return [check(v) for v in values]


def _x(x) -> float:
    return require_x(x, hyperbolic.X_MAX)


def _trials_seed(trials, key: str, seed) -> tuple[int, int]:
    """The trial count (DEFAULT_GRIDS[key] when None) in 1..MAX_GRID_POINTS and a seed >= 0."""
    trials = DEFAULT_GRIDS[key] if trials is None else trials
    return (
        require_int(trials, "trials", 1, MAX_GRID_POINTS),
        require_int(seed, "seed", 0, 2**64 - 1),
    )


def _blocks(values, rows: int):
    """(index of the first item, slice) for consecutive slices of at most `rows` items."""
    for start in range(0, len(values), rows):
        yield start, values[start : start + rows]


def _trial_blocks(rng, trials: int, n: int):
    """(first trial, (xs, ys)) per block of a level's seeded points in [-3, 3]^2.

    All of the level's points come from one draw of shape (trials, 2),
    the same stream as one draw of 2 per trial.  A block holds at most
    hyperbolic.block_rows(n * n) trials, so the residual call for it
    builds O(BLOCK + n^2) circulant entries.
    """
    points = rng.uniform(-3.0, 3.0, size=(trials, 2))
    for start, block in _blocks(points, hyperbolic.block_rows(n * n)):
        yield start, block.T


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
    n_values = _grid(n_values, "pauli_n", require_level)
    t = _tols("pauli", tol)
    cases = []
    for n in n_values:
        for relation, residual in algebra.pauli_residuals(n).items():
            cases.append(_case({"n": n, "relation": relation}, residual, t["relations"]))
    return _finish("pauli", {"n_values": n_values, "tol": t}, cases, started)


def verify_superhyp(n_values=None, x_values=None, tol=None) -> VerificationReport:
    """Determinant identity, printed polynomials, and series/filter agreement."""
    started = time.perf_counter()
    n_values = _grid(n_values, "superhyp_n", require_level)
    x_values = _grid(x_values, "superhyp_x", _x)
    t = _tols("superhyp", tol)
    cases = []
    for n in n_values:
        for _, xs in _blocks(x_values, hyperbolic.block_rows(n)):
            series = hyperbolic.series_column(n, xs)
            spreads = np.abs(series - hyperbolic.filter_column(n, xs).real).max(axis=1)
            if n in hyperbolic.POLY_IDENTITY_MONOMIALS:
                polys = np.abs(hyperbolic.polynomial_identity(n, series) - 1.0)
            for i, x in enumerate(xs):
                det_res = hyperbolic.fundamental_identity_residual(n, x)
                cases.append(_case({"n": n, "x": x, "check": "identity"}, det_res, t["identity"]))
                if n in hyperbolic.POLY_IDENTITY_MONOMIALS:
                    cases.append(
                        _case({"n": n, "x": x, "check": "polynomial"}, polys[i], t["polynomial"])
                    )
                    cases.append(
                        _case(
                            {"n": n, "x": x, "check": "agreement"},
                            abs(polys[i] - det_res),
                            t["agreement"],
                        )
                    )
                cases.append(
                    _case(
                        {"n": n, "x": x, "check": "cross_method"},
                        spreads[i],
                        t["cross_method"] * math.exp(abs(x)),
                    )
                )
    return _finish(
        "superhyp", {"n_values": n_values, "x_values": x_values, "tol": t}, cases, started
    )


def verify_addition(n_values=None, trials=None, seed=0, tol=None) -> VerificationReport:
    """Addition formulas on seeded random points in [-3, 3]^2."""
    started = time.perf_counter()
    n_values = _grid(n_values, "addition_n", require_level)
    trials, seed = _trials_seed(trials, "addition_trials", seed)
    t = _tols("addition", tol)
    rng = np.random.default_rng(seed)
    cases = []
    for n in n_values:
        for start, (xs, ys) in _trial_blocks(rng, trials, n):
            residuals = hyperbolic.addition_residual(n, xs, ys).max(axis=1)
            for trial, (x, y, residual) in enumerate(zip(xs.tolist(), ys.tolist(), residuals.tolist()), start):
                cases.append(
                    _case(
                        {"n": n, "trial": trial, "x": x, "y": y},
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
    n_values = _grid(n_values, "mixed_n", require_level)
    trials, seed = _trials_seed(trials, "mixed_trials", seed)
    t = _tols("mixed", tol)
    rng = np.random.default_rng(seed)
    cases = []
    for n in n_values:
        for start, (xs, ys) in _trial_blocks(rng, trials, n):
            rows = hyperbolic.mixed_product_residual(n, xs, ys)
            for trial, (x, y, row) in enumerate(zip(xs.tolist(), ys.tolist(), rows.tolist()), start):
                scale = math.exp(abs(x) + abs(y))
                for j, residual in enumerate(row):
                    cases.append(
                        _case(
                            {"n": n, "trial": trial, "j": j, "x": x, "y": y},
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
    x_values = _grid(x_values, "bessel_x", _x)
    if kmax is not None:
        kmax = require_order(kmax)
    w_values = _grid(w_values, "w_values", complex)
    t = _tols("bessel", tol)
    # without a caller's kmax the truncation follows x, up from the default
    orders = [
        kmax if kmax is not None else max(DEFAULT_GRIDS["bessel_kmax"], bessel.classic_min_order(x))
        for x in x_values
    ]
    cases = []
    for x, K in zip(x_values, orders):
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
        {"x_values": x_values, "kmax": max(orders), "w_values": [complex_payload(w) for w in w_values], "tol": t},
        cases,
        started,
    )


def verify_genmatrix(n_values=None, x_values=None, w_values=None, tol=None) -> VerificationReport:
    """Three-way agreement of the trace projections, plus class completeness."""
    started = time.perf_counter()
    n_values = _grid(n_values, "genmatrix_n", require_level)
    x_values = _grid(x_values, "genmatrix_x", _x)
    w_values = _grid(w_values, "w_values", complex)
    t = _tols("genmatrix", tol)
    cases = []
    for n in n_values:
        for x in x_values:
            for w in w_values:
                scale = math.exp(genmatrix.unit_scale(x, w))
                w_pay = complex_payload(w)
                # trace_projection for every j at once: entry -j mod n of one column
                col = genmatrix.generating_column(n, x, w)
                combs = genmatrix.bessel_comb_column(n, x, w)
                totals = 0j
                for j in range(n):
                    tr = complex(col[-j % n])
                    es = genmatrix.exponential_sum(n, x, w, j)
                    comb = complex(combs[j])
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
    """Integer commutator accounting, gauge invariance, shift isometry, Weyl pair.

    Every check reads the O(N) band of the lattice: no (2N+1)^2 matrix
    is built.  mode=None runs both modes.
    """
    started = time.perf_counter()
    N_values = _grid(N_values, "circle_N", require_half_width)
    modes = list(circle.MODES) if mode is None else [mode]
    alphas = _grid(alphas, "circle_alphas", float)
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
            # the columns of S have disjoint supports, so S^T S is diagonal:
            # 1 from each subdiagonal entry and corner^2 in the last column,
            # against the identity (cyclic) or the identity less its last 1 (open)
            cases.append(
                _case(
                    {"N": N, "mode": m, "check": "shift_isometry"},
                    abs(ops.corner**2 - int(m == "cyclic")),
                    t["shift_isometry"],
                )
            )
        # V S - omega S V is zero off the band of S: clock[i] - omega clock[i-1]
        # on the subdiagonal, (clock[0] - omega clock[-1]) S[0, 2N] at the corner
        omega = np.exp(2j * np.pi / dim)
        ops = circle.build_lattice(N, mode="cyclic")
        untwisted = ops.clock
        for a in alphas:
            clock = circle.build_lattice(N, mode="cyclic", alpha=a).clock
            band = clock - omega * np.roll(clock, 1)
            band[0] *= ops.corner
            weyl = float(np.abs(band).max())
            covariance = float(np.abs(clock - np.exp(2j * np.pi * a / dim) * untwisted).max())
            cases.append(
                _case(
                    {"N": N, "alpha": a, "check": "weyl"},
                    max(weyl, covariance),
                    t["weyl"],
                    weyl_defect=weyl,
                    covariance_defect=covariance,
                )
            )
    return _finish(
        "circle",
        {"N_values": N_values, "modes": modes, "alphas": alphas, "tol": t},
        cases,
        started,
    )


SUITES = {
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
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}, expected one of {SUITE_NAMES}")
    return SUITES[suite](**kwargs)
