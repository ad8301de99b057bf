"""Grid-driven verification suites with machine-readable reports.

Each suite evaluates one family of residual checks over a parameter
grid and returns its params and cases; run_suite times it and wraps
them in a VerificationReport.  Default grids and tolerances
live in the two catalogs below so there is a single audit point; a
caller-supplied tolerance replaces the per-check base values (scale
factors such as exp(|x|) still apply where documented).
"""

from __future__ import annotations

import cmath
import json
import math
import time
from reprlib import repr as _short
from typing import NamedTuple

import numpy as np

from . import algebra, bessel, circle, genmatrix, hyperbolic
from .errors import (
    MAX_GRID_POINTS,
    DomainError,
    as_number,
    require_cases,
    require_half_width,
    require_int,
    require_level,
    require_order,
    require_x,
    unit_scale,
)

# spacing of the subnormal doubles, and the smallest normal one
_SUBNORMAL = math.ulp(0.0)
_TINY = float(np.finfo(float).tiny)

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


class CaseResult(NamedTuple):
    inputs: dict
    residual: float
    tolerance: float
    details: dict = {}  # shared by every case without details: never mutated

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


class VerificationReport(NamedTuple):
    suite: str
    params: dict
    cases: list
    wall_time_ms: float

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.cases), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

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
    """The caller's grid, or DEFAULT_GRIDS[key] when it is None, each point through `check`.

    A grid holds 1..MAX_GRID_POINTS points, the cap of a command-line grid.
    """
    values = DEFAULT_GRIDS[key] if values is None else values
    try:
        size = len(values)
    except (TypeError, OverflowError):  # a number, or a range too long for len()
        size = math.inf
    if not 0 < size <= MAX_GRID_POINTS:
        raise DomainError(f"invalid-grid: the {key} grid needs 1 to {MAX_GRID_POINTS} points, got {_short(values)}")
    return [check(v) for v in values]


def _x(x) -> float:
    return require_x(x, hyperbolic.X_MAX)


def _w(w) -> complex:
    # a weight inside the bounds of the generating-function checks at x = 0
    unit_scale(0.0, w)
    return complex(w)


def _trials_seed(trials, key: str, seed) -> tuple[int, int]:
    """The trial count (DEFAULT_GRIDS[key] when None) in 1..MAX_GRID_POINTS and a seed >= 0."""
    trials = DEFAULT_GRIDS[key] if trials is None else trials
    return (
        require_int(trials, "trials", 1, MAX_GRID_POINTS),
        require_int(seed, "seed", 0, 2**64 - 1),
    )


def _tols(suite: str, tol):
    """DEFAULT_TOLERANCES[suite], or the caller's tol, a number >= 0, for every check."""
    if tol is not None and not as_number(tol) >= 0.0:
        raise DomainError(f"invalid-tolerance: need tol a number >= 0, got {_short(tol)}")
    return {key: base if tol is None else float(tol) for key, base in DEFAULT_TOLERANCES[suite].items()}


def verify_pauli(n_values=None, tol=None) -> tuple[dict, list]:
    """Defining clock/shift relations over a range of levels."""
    n_values = _grid(n_values, "pauli_n", require_level)
    t = _tols("pauli", tol)
    cases = []
    for n in n_values:
        for relation, residual in algebra.pauli_residuals(n).items():
            cases.append(CaseResult({"n": n, "relation": relation}, float(residual), t["relations"]))
    return {"n_values": n_values, "tol": t}, cases


def verify_superhyp(n_values=None, x_values=None, tol=None) -> tuple[dict, list]:
    """Determinant identity, printed polynomials, and series/filter agreement."""
    n_values = _grid(n_values, "superhyp_n", require_level)
    # the identity check takes |x| <= IDENTITY_X_MAX, so the grid does too
    x_values = _grid(x_values, "superhyp_x", lambda x: require_x(x, hyperbolic.IDENTITY_X_MAX))
    require_cases(
        len(x_values) * sum(2 + 2 * (n in hyperbolic.POLY_IDENTITY_MONOMIALS) for n in n_values),
        "verify superhyp (x points x 2 per level, 4 at a level with a printed polynomial)",
    )
    t = _tols("superhyp", tol)
    cases = []
    for n in n_values:
        # per x: the cross-method spread, and the polynomial residual for n <= 4
        rows = hyperbolic.series_residuals(n, x_values).tolist()
        dets = hyperbolic.fundamental_identity_residual(n, x_values).tolist()
        for x, det_res, (spread, *poly) in zip(x_values, dets, rows):
            cases.append(CaseResult({"n": n, "x": x, "check": "identity"}, det_res, t["identity"]))
            for p in poly:
                cases.append(CaseResult({"n": n, "x": x, "check": "polynomial"}, p, t["polynomial"]))
                cases.append(CaseResult({"n": n, "x": x, "check": "agreement"}, abs(p - det_res), t["agreement"]))
            cases.append(
                CaseResult(
                    {"n": n, "x": x, "check": "cross_method"},
                    spread,
                    t["cross_method"] * math.exp(abs(x)),
                )
            )
    return {"n_values": n_values, "x_values": x_values, "tol": t}, cases


def verify_addition(n_values=None, trials=None, seed=0, tol=None) -> tuple[dict, list]:
    """Addition formulas on seeded random points in [-3, 3]^2."""
    n_values = _grid(n_values, "addition_n", require_level)
    trials, seed = _trials_seed(trials, "addition_trials", seed)
    require_cases(trials * len(n_values), "verify addition (trials x levels)")
    t = _tols("addition", tol)
    rng = np.random.default_rng(seed)
    cases = []
    for n in n_values:
        # one draw of shape (trials, 2): the same stream as one draw of 2 per trial
        xs, ys = rng.uniform(-3.0, 3.0, size=(trials, 2)).T
        residuals = hyperbolic.addition_residual(n, xs, ys).max(axis=1)
        for trial, (x, y, residual) in enumerate(zip(xs.tolist(), ys.tolist(), residuals.tolist())):
            cases.append(CaseResult({"n": n, "trial": trial, "x": x, "y": y}, residual, t["addition"]))
    return {"n_values": n_values, "trials": trials, "seed": seed, "tol": t}, cases


def verify_mixed(n_values=None, trials=None, seed=0, tol=None) -> tuple[dict, list]:
    """Mixed bilinear relations, all class indices, seeded random points."""
    n_values = _grid(n_values, "mixed_n", require_level)
    trials, seed = _trials_seed(trials, "mixed_trials", seed)
    require_cases(trials * sum(n_values), "verify mixed (trials x sum of levels)")
    t = _tols("mixed", tol)
    rng = np.random.default_rng(seed)
    cases = []
    for n in n_values:
        xs, ys = rng.uniform(-3.0, 3.0, size=(trials, 2)).T
        rows = hyperbolic.mixed_product_residual(n, xs, ys)
        for trial, (x, y, row) in enumerate(zip(xs.tolist(), ys.tolist(), rows.tolist())):
            scale = math.exp(abs(x) + abs(y))
            for j, residual in enumerate(row):
                cases.append(
                    CaseResult({"n": n, "trial": trial, "j": j, "x": x, "y": y}, residual, t["mixed"] * scale)
                )
    return {"n_values": n_values, "trials": trials, "seed": seed, "tol": t}, cases


def verify_bessel(x_values=None, kmax=None, w_values=None, tol=None) -> tuple[dict, list]:
    """Classical summation identities, three-term recurrence, generating function.

    recurrence: I_{k-1}(x) - I_{k+1}(x) = (2k/x) I_k(x) for k = 1..20, on
    one table of orders 0..22.  Error model: besides its rounding, a table
    value stored as 0 or as a subnormal double (|I_i| < 2^-1022, u_i = 1,
    else u_i = 0) is off by up to 2^-1074, the spacing of the subnormals.
    The two sides then differ by up to tol |I_{k-1}| + U, with the
    underflow term U = 2^-1074 (u_{k-1} + u_{k+1} + (2k/|x|) u_k), so the
    case reports |lhs - rhs| / (|I_{k-1}| + U/tol) against tol, and U in
    its details where it is not 0.  With no such value (every x of the
    default grid) U = 0 and the residual is |lhs - rhs| / |I_{k-1}|.
    generating_function: one call per x for all weights (one table).
    """
    x_values = _grid(x_values, "bessel_x", _x)
    if kmax is not None:
        kmax = require_order(kmax)
    w_values = _grid(w_values, "w_values", _w)
    generating_x = [x for x in x_values if abs(x) <= 5]
    require_cases(
        4 * len(x_values) + 20 * sum(x != 0 for x in x_values) + len(w_values) * len(generating_x),
        "verify bessel (4 per x, 20 more per nonzero x, one per weight at |x| <= 5)",
    )
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
            cases.append(CaseResult({"x": x, "K": K, "identity": name}, float(value), t["classic"] * scale))
        if x != 0:
            table = bessel.bessel_table(22, x).values
            lost = (np.abs(table) < _TINY).tolist()  # stored as 0 or as a subnormal
            for k in range(1, 21):
                # at tiny |x| the orders underflow to 0 and 2k/x can overflow, where
                # 2k I_k / x stays finite (and 0 for an order that is 0); sides
                # that agree are no defect, where 0 / 0 would give a NaN residual
                lhs = table[k - 1] - table[k + 1]
                factor = 2.0 * k / x
                rhs = factor * table[k] if math.isfinite(factor) else 2.0 * k * table[k] / x
                underflow = _SUBNORMAL * (lost[k - 1] + lost[k + 1]) + lost[k] * (2 * k * _SUBNORMAL / abs(x))
                residual = abs(lhs - rhs) / (abs(table[k - 1]) + underflow / t["recurrence"]) if lhs != rhs else 0.0
                cases.append(
                    CaseResult(
                        {"x": x, "k": k, "identity": "recurrence"},
                        float(residual),
                        t["recurrence"],
                        {"underflow": underflow} if underflow else {},
                    )
                )
    for x in generating_x:
        K_gen = int(2 * (abs(x) + 20))
        residuals = bessel.generating_function_residual(x, w_values, K_gen).tolist()
        for w, residual in zip(w_values, residuals):
            cases.append(
                CaseResult(
                    {"x": x, "K": K_gen, "identity": "generating_function", "w": complex_payload(w)},
                    residual,
                    t["generating_function"] * math.exp(2 * abs(x)),
                )
            )
    params = {"x_values": x_values, "kmax": max(orders), "w_values": [complex_payload(w) for w in w_values], "tol": t}
    return params, cases


def verify_genmatrix(n_values=None, x_values=None, w_values=None, tol=None) -> tuple[dict, list]:
    """Three-way agreement of the trace projections, plus class completeness."""
    n_values = _grid(n_values, "genmatrix_n", require_level)
    x_values = _grid(x_values, "genmatrix_x", _x)
    w_values = _grid(w_values, "w_values", _w)
    require_cases(
        len(x_values) * len(w_values) * sum(2 * n + 1 for n in n_values),
        "verify genmatrix ((x, w) cells x sum of 2n + 1 over the levels)",
    )
    t = _tols("genmatrix", tol)
    cells = [(x, w) for x in x_values for w in w_values]
    xs = np.array([x for x, _ in cells])
    ws = np.array([w for _, w in cells], dtype=complex)
    cases = []
    for n in n_values:
        # every cell and class per route in one call: trace_projection is entry -j mod n
        # of the column; the residuals take Python's abs of each complex (tolist), as
        # one-cell calls did, where np.abs can differ in the last bit
        js = np.arange(n)
        traces = genmatrix.generating_column(n, xs, ws)[:, -js % n].tolist()
        sums = genmatrix.exponential_sum(n, xs, ws, js).tolist()
        combs = genmatrix.bessel_comb_column(n, xs, ws).tolist()
        for (x, w), trace_row, sum_row, comb_row in zip(cells, traces, sums, combs):
            scale = math.exp(genmatrix.unit_scale(x, w))
            w_pay = complex_payload(w)
            totals = 0j
            for j, (tr, es, comb) in enumerate(zip(trace_row, sum_row, comb_row)):
                totals += tr
                base = {"n": n, "x": x, "j": j, "w": w_pay}
                cases.append(CaseResult({**base, "check": "trace_vs_sum"}, abs(tr - es), t["trace_vs_sum"] * scale))
                cases.append(
                    CaseResult({**base, "check": "trace_vs_bessel"}, abs(tr - comb), t["trace_vs_bessel"] * scale)
                )
            generating = cmath.exp((x / 2.0) * (w + 1.0 / w))
            cases.append(
                CaseResult(
                    {"n": n, "x": x, "w": w_pay, "check": "completeness"},
                    abs(totals - generating),
                    t["completeness"] * scale,
                )
            )
    params = {
        "n_values": n_values,
        "x_values": x_values,
        "w_values": [complex_payload(w) for w in w_values],
        "tol": t,
    }
    return params, cases


def verify_circle(N_values=None, mode=None, alphas=None, tol=None) -> tuple[dict, list]:
    """Integer commutator accounting, gauge invariance, shift isometry, Weyl pair.

    Every check reads the O(N) band of the lattice: no (2N+1)^2 matrix
    is built.  mode=None runs both modes.
    """
    N_values = _grid(N_values, "circle_N", require_half_width)
    modes = list(circle.MODES) if mode is None else [mode]
    alphas = _grid(alphas, "circle_alphas", lambda a: circle.build_lattice(1, alpha=a).alpha)
    require_cases(len(N_values) * (3 * len(modes) + len(alphas)), "verify circle (half-widths x (3 per mode + alphas))")
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
                CaseResult(
                    {"N": N, "mode": m, "check": "commutator"},
                    residual,
                    t["commutator"],
                    {
                        "corner_defect": report.corner_defect,
                        "defect_mod_dim": report.defect_mod_dim,
                        "exact": report.exact,
                    },
                )
            )
            reports = {
                a: circle.commutator_check(circle.build_lattice(N, mode=m, alpha=a))
                for a in alphas
            }
            gauge_ok = all(r == report for r in reports.values())
            cases.append(
                CaseResult(
                    {"N": N, "mode": m, "check": "gauge"},
                    0.0 if gauge_ok else 1.0,
                    t["gauge"],
                    {"alphas": alphas},
                )
            )
            # the columns of S have disjoint supports, so S^T S is diagonal:
            # 1 from each subdiagonal entry and corner^2 in the last column,
            # against the identity (cyclic) or the identity less its last 1 (open)
            cases.append(
                CaseResult(
                    {"N": N, "mode": m, "check": "shift_isometry"},
                    float(abs(ops.corner**2 - int(m == "cyclic"))),
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
                CaseResult(
                    {"N": N, "alpha": a, "check": "weyl"},
                    max(weyl, covariance),
                    t["weyl"],
                    {"weyl_defect": weyl, "covariance_defect": covariance},
                )
            )
    return {"N_values": N_values, "modes": modes, "alphas": alphas, "tol": t}, cases


SUITES = {
    "pauli": verify_pauli,
    "superhyp": verify_superhyp,
    "addition": verify_addition,
    "mixed": verify_mixed,
    "bessel": verify_bessel,
    "genmatrix": verify_genmatrix,
    "circle": verify_circle,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(suite: str, **kwargs) -> VerificationReport:
    """Run one named suite and time it into a report; unknown keyword arguments are rejected."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}, expected one of {SUITE_NAMES}")
    started = time.perf_counter()
    params, cases = SUITES[suite](**kwargs)
    return VerificationReport(suite, params, cases, (time.perf_counter() - started) * 1e3)
