"""Grid-driven verification suites with machine-readable reports.

Each suite evaluates one family of residual checks over a parameter
grid and returns its params and one Check per check it runs; run_suite
times it and wraps them in a VerificationReport.  Default grids and
tolerances live in the two catalogs below so there is a single audit
point; a caller-supplied tolerance replaces the per-check base values
(scale factors such as exp(|x|) still apply where documented).

Column layout: a Check holds its cases as numpy columns, built from the
arrays the kernels return: one column per input (or one value all its
cases share), and the residual, tolerance and pass verdict of each case,
with details kept only for the cases that have any.  A report's passed,
max_residual and per-check summary are reductions over these columns.
report.cases reads the columns back as CaseResult records, built on the
first read of each check and kept.  VerificationReport.to_json writes the document from the
columns, without a per-case object: the cases in the lexicographic order
of their inputs' compact JSON, then a "checks" block with each check's
case count, failed count, worst margin (residual / tolerance) and the
worst case's inputs; every other byte is what json.dumps(sort_keys=True,
indent=2) writes for the same values.
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
    """One case of a report, read back from its check's columns."""

    inputs: dict
    residual: float
    tolerance: float
    passed: bool
    details: dict


class Check(NamedTuple):
    """The cases of one check (a key of DEFAULT_TOLERANCES[suite]) as columns.

    inputs maps each input name to a numpy column with one value per case
    (a complex column is written as {"re", "im"}) or to one JSON value
    every case shares; details maps a case's index to its details, for
    the few cases that have any.  records holds the CaseResults once
    cases() has built them.
    """

    name: str
    inputs: dict
    residual: np.ndarray
    tolerance: np.ndarray
    passed: np.ndarray
    details: dict
    records: list

    def case_inputs(self, index: int) -> dict:
        return {
            key: _values(value[index : index + 1])[0] if isinstance(value, np.ndarray) else value
            for key, value in self.inputs.items()
        }

    def cases(self) -> list:
        """The cases as CaseResult records, built from the columns on the first call."""
        if not self.records:
            self.records.extend(self._build_records())
        return self.records

    def _build_records(self) -> list:
        size = len(self.residual)
        columns = [_values(v) if isinstance(v, np.ndarray) else [v] * size for v in self.inputs.values()]
        keys = list(self.inputs)
        inputs = [dict(zip(keys, row)) for row in zip(*columns)]
        details = [{}] * size  # one shared empty dict, never mutated
        for i, case_details in self.details.items():
            details[i] = case_details
        columns = zip(inputs, self.residual.tolist(), self.tolerance.tolist(), self.passed.tolist(), details)
        return list(map(CaseResult._make, columns))

    def summary(self) -> dict:
        """Case count, failed count, and the worst margin (residual / tolerance) with its inputs."""
        with np.errstate(divide="ignore", invalid="ignore"):
            margin = np.where(self.residual == 0, 0.0, self.residual / self.tolerance)
        worst = int(np.argmax(margin))  # the first NaN, if any
        return {
            "cases": len(margin),
            "failed": int(np.count_nonzero(~self.passed)),
            "worst_inputs": self.case_inputs(worst),
            "worst_margin": float(margin[worst]),
        }

    def texts(self) -> tuple[list, list]:
        """Each case's sort key (its inputs as compact JSON) and its report entry."""
        fields = [_field(key, self.inputs[key]) for key in sorted(self.inputs)]
        key = "{" + ", ".join(compact for compact, _, _ in fields) + "}"
        entry = (
            '    {\n      "inputs": {\n'
            + ",\n".join(indented for _, indented, _ in fields)
            + '\n      },\n      "pass": %s,\n      "residual": %s,\n      "tolerance": %s\n    }'
        )
        columns = [texts for _, _, column in fields for texts in column]
        keys = [key % row for row in zip(*columns)] if columns else [key % ()] * len(self.residual)
        entries = [
            entry % row
            for row in zip(*columns, _texts(self.passed), _texts(self.residual), _texts(self.tolerance))
        ]
        for i, details in self.details.items():
            entries[i] = '    {\n      "details": ' + _indented(details, 6) + ",\n" + entries[i][6:]
        return keys, entries


def _check(name, inputs, residual, tolerance, details=None, passed=None) -> Check:
    """A Check from a suite's arrays; passed defaults to residual <= tolerance."""
    residual = np.asarray(residual, dtype=float)
    tolerance = np.broadcast_to(np.asarray(tolerance, dtype=float), residual.shape)
    passed = residual <= tolerance if passed is None else passed
    return Check(name, inputs, residual, tolerance, passed, details or {}, [])


def _scaled(tol: float, scales) -> np.ndarray:
    """tol times each scale; a product past the largest double is inf, as in Python floats."""
    with np.errstate(over="ignore"):
        return tol * np.asarray(scales)


def _values(column: np.ndarray) -> list:
    """The Python values of an input column, a complex one as {"re", "im"} payloads."""
    values = column.tolist()
    return [complex_payload(z) for z in values] if column.dtype.kind == "c" else values


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _texts(column: np.ndarray) -> list:
    """json's text of each value of a real, integer, bool or str column."""
    values = column.tolist()
    kind = column.dtype.kind
    if kind == "f":
        texts = list(map(float.__repr__, values))
        return texts if np.isfinite(column).all() else [_NONFINITE.get(t, t) for t in texts]
    if kind in "iu":
        return list(map(int.__repr__, values))
    if kind == "b":
        return ["true" if v else "false" for v in values]
    encoded = {v: json.dumps(v) for v in set(values)}
    return [encoded[v] for v in values]


def _indented(value, depth: int) -> str:
    """json.dumps(value, sort_keys=True, indent=2) as it reads nested `depth` spaces deep."""
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + " " * depth)


def _field(key: str, value) -> tuple[str, str, list]:
    """One input in a case's sort key and in its entry, as % templates, with the texts they take."""
    name = json.dumps(key)
    if not isinstance(value, np.ndarray):
        compact = json.dumps(value, sort_keys=True).replace("%", "%%")
        return f"{name}: {compact}", f"        {name}: " + _indented(value, 8).replace("%", "%%"), []
    if value.dtype.kind == "c":
        return (
            f'{name}: {{"im": %s, "re": %s}}',
            f'        {name}: {{\n          "im": %s,\n          "re": %s\n        }}',
            [_texts(value.imag), _texts(value.real)],
        )
    return f"{name}: %s", f"        {name}: %s", [_texts(value)]


class VerificationReport(NamedTuple):
    """A suite's params and its Checks, with the suite's run time."""

    suite: str
    params: dict
    checks: list
    wall_time_ms: float

    @property
    def cases(self) -> list:
        """Every case as a CaseResult, check by check, built from the columns on the first read."""
        return [case for check in self.checks for case in check.cases()]

    @property
    def max_residual(self) -> float:
        """The largest residual, NaN if any residual is NaN (0.0 with no cases)."""
        return float(np.max([check.residual.max() for check in self.checks], initial=0.0))

    @property
    def passed(self) -> bool:
        return all(check.passed.all() for check in self.checks)

    def to_json(self) -> str:
        """The report document: json.dumps(self.to_payload(), sort_keys=True, indent=2), written from the columns.

        Its cases run in the lexicographic order of their inputs as compact
        JSON with sorted keys, so "n": 10 sorts before "n": 2.
        """
        keys, entries = [], []
        for check in self.checks:
            check_keys, check_entries = check.texts()
            keys += check_keys
            entries += check_entries
        order = sorted(range(len(keys)), key=keys.__getitem__)
        cases = "[\n" + ",\n".join([entries[i] for i in order]) + "\n  ]" if entries else "[]"
        rest = json.dumps(
            {
                "checks": {check.name: check.summary() for check in self.checks},
                "max_residual": self.max_residual,
                "params": self.params,
                "pass": bool(self.passed),
                "suite": self.suite,
                "wall_time_ms": float(self.wall_time_ms),
            },
            sort_keys=True,
            indent=2,
        )
        return '{\n  "cases": ' + cases + ",\n" + rest[2:]

    def to_payload(self) -> dict:
        """The report document as Python values: suite, params, cases, checks, max_residual, pass, wall_time_ms."""
        return json.loads(self.to_json())


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
    residuals = [algebra.pauli_residuals(n) for n in n_values]
    relations = list(residuals[0])
    inputs = {"n": np.repeat(n_values, len(relations)), "relation": np.array(relations * len(n_values))}
    residual = [float(r) for level in residuals for r in level.values()]
    return {"n_values": n_values, "tol": t}, [_check("relations", inputs, residual, t["relations"])]


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
    dets, spreads, polys, poly_levels = [], [], [], []
    for n in n_values:
        # per x: the cross-method spread, and the polynomial residual for n <= 4
        rows = hyperbolic.series_residuals(n, x_values)
        dets.append(hyperbolic.fundamental_identity_residual(n, x_values))
        spreads.append(rows[:, 0])
        if rows.shape[1] > 1:
            polys.append(rows[:, 1])
            poly_levels.append(n)
    xs = np.array(x_values)
    dets = np.concatenate(dets)

    def grid(check, levels):
        return {"n": np.repeat(levels, len(xs)), "x": np.tile(xs, len(levels)), "check": check}

    checks = [_check("identity", grid("identity", n_values), dets, t["identity"])]
    if poly_levels:
        poly = np.concatenate(polys)
        # the agreement of a level's two residuals: its identity rows, in level order
        with_poly = np.repeat([n in poly_levels for n in n_values], len(xs))
        checks.append(_check("polynomial", grid("polynomial", poly_levels), poly, t["polynomial"]))
        checks.append(
            _check("agreement", grid("agreement", poly_levels), np.abs(poly - dets[with_poly]), t["agreement"])
        )
    scales = np.array([math.exp(abs(x)) for x in x_values])
    checks.append(
        _check(
            "cross_method",
            grid("cross_method", n_values),
            np.concatenate(spreads),
            _scaled(t["cross_method"], np.tile(scales, len(n_values))),
        )
    )
    return {"n_values": n_values, "x_values": x_values, "tol": t}, checks


def verify_addition(n_values=None, trials=None, seed=0, tol=None) -> tuple[dict, list]:
    """Addition formulas on seeded random points in [-3, 3]^2."""
    n_values = _grid(n_values, "addition_n", require_level)
    trials, seed = _trials_seed(trials, "addition_trials", seed)
    require_cases(trials * len(n_values), "verify addition (trials x levels)")
    t = _tols("addition", tol)
    rng = np.random.default_rng(seed)
    xs, ys, residuals = [], [], []
    for n in n_values:
        # one draw of shape (trials, 2): the same stream as one draw of 2 per trial
        x, y = rng.uniform(-3.0, 3.0, size=(trials, 2)).T
        residuals.append(hyperbolic.addition_residual(n, x, y).max(axis=1))
        xs.append(x)
        ys.append(y)
    inputs = {
        "n": np.repeat(n_values, trials),
        "trial": np.tile(np.arange(trials), len(n_values)),
        "x": np.concatenate(xs),
        "y": np.concatenate(ys),
    }
    params = {"n_values": n_values, "trials": trials, "seed": seed, "tol": t}
    return params, [_check("addition", inputs, np.concatenate(residuals), t["addition"])]


def verify_mixed(n_values=None, trials=None, seed=0, tol=None) -> tuple[dict, list]:
    """Mixed bilinear relations, all class indices, seeded random points."""
    n_values = _grid(n_values, "mixed_n", require_level)
    trials, seed = _trials_seed(trials, "mixed_trials", seed)
    require_cases(trials * sum(n_values), "verify mixed (trials x sum of levels)")
    t = _tols("mixed", tol)
    rng = np.random.default_rng(seed)
    columns = {"n": [], "trial": [], "j": [], "x": [], "y": []}
    residuals, tolerances = [], []
    for n in n_values:
        x, y = rng.uniform(-3.0, 3.0, size=(trials, 2)).T
        residuals.append(hyperbolic.mixed_product_residual(n, x, y).ravel())
        scales = np.array([math.exp(s) for s in (np.abs(x) + np.abs(y)).tolist()])
        tolerances.append(np.repeat(_scaled(t["mixed"], scales), n))
        # one case per (trial, class j), trial-major
        columns["n"].append(np.full(trials * n, n))
        columns["trial"].append(np.repeat(np.arange(trials), n))
        columns["j"].append(np.tile(np.arange(n), trials))
        columns["x"].append(np.repeat(x, n))
        columns["y"].append(np.repeat(y, n))
    inputs = {key: np.concatenate(pieces) for key, pieces in columns.items()}
    params = {"n_values": n_values, "trials": trials, "seed": seed, "tol": t}
    return params, [_check("mixed", inputs, np.concatenate(residuals), np.concatenate(tolerances))]


def verify_bessel(x_values=None, kmax=None, w_values=None, tol=None) -> tuple[dict, list]:
    """Classical summation identities, three-term recurrence, generating function.

    recurrence: I_{k-1}(x) - I_{k+1}(x) = (2k/x) I_k(x) for k = 1..20, on
    one table of orders 0..22.  Error model: besides its rounding, a table
    value stored as 0 or as a subnormal double (|I_i| < 2^-1022, u_i = 1,
    else u_i = 0) is off by up to 2^-1074, the spacing of the subnormals.
    The two sides then differ by up to tol |I_{k-1}| + U, with the
    underflow term U = 2^-1074 (u_{k-1} + u_{k+1} + (2k/|x|) u_k), and a
    case passes when |lhs - rhs| <= tol |I_{k-1}| + U, judged without
    dividing by tol.  Where U is not 0 it reports |lhs - rhs| /
    (|I_{k-1}| + U) against (tol |I_{k-1}| + U) / (|I_{k-1}| + U), so the
    margin is |lhs - rhs| / (tol |I_{k-1}| + U) at every tol >= 0 and a
    passing case never reads above 1, with U in its details.  With no such
    value (every x of the default grid) U = 0 and the residual is
    |lhs - rhs| / |I_{k-1}| against tol.
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
    identities = list(bessel.ClassicResiduals._fields)
    classic = [bessel.classic_identity_residuals(x, K) for x, K in zip(x_values, orders)]
    checks = [
        _check(
            "classic",
            {
                "x": np.repeat(x_values, len(identities)),
                "K": np.repeat(orders, len(identities)),
                "identity": np.array(identities * len(x_values)),
            },
            [float(v) for residuals in classic for v in residuals],
            _scaled(t["classic"], np.repeat([math.exp(abs(x)) for x in x_values], len(identities))),
        )
    ]
    recurrence_x = [x for x in x_values if x != 0]
    if recurrence_x:
        checks.append(_recurrence(recurrence_x, t["recurrence"]))
    if generating_x:
        K_gen = [int(2 * (abs(x) + 20)) for x in generating_x]
        residuals = [bessel.generating_function_residual(x, w_values, K) for x, K in zip(generating_x, K_gen)]
        weights = len(w_values)
        checks.append(
            _check(
                "generating_function",
                {
                    "x": np.repeat(generating_x, weights),
                    "K": np.repeat(K_gen, weights),
                    "identity": "generating_function",
                    "w": np.tile(np.array(w_values, dtype=complex), len(generating_x)),
                },
                np.concatenate(residuals),
                _scaled(t["generating_function"], np.repeat([math.exp(2 * abs(x)) for x in generating_x], weights)),
            )
        )
    params = {"x_values": x_values, "kmax": max(orders), "w_values": [complex_payload(w) for w in w_values], "tol": t}
    return params, checks


def _recurrence(x_values, tol: float) -> Check:
    """The recurrence cases k = 1..20 at each nonzero x (verify_bessel's error model)."""
    k = np.arange(1, 21)
    differences, scales, underflows = [], [], []
    with np.errstate(all="ignore"):
        for x in x_values:
            table = bessel.bessel_table(22, x).values
            lost = np.abs(table) < _TINY  # stored as 0 or as a subnormal
            # at tiny |x| the orders underflow to 0 and 2k/x can overflow, where
            # 2k I_k / x stays finite (and 0 for an order that is 0)
            lhs = table[:20] - table[2:22]
            factor = 2.0 * k / x
            rhs = np.where(np.isfinite(factor), factor * table[1:21], 2.0 * k * table[1:21] / x)
            differences.append(np.abs(lhs - rhs))
            scales.append(np.abs(table[:20]))
            underflows.append(_SUBNORMAL * (lost[:20].astype(int) + lost[2:22]) + lost[1:21] * (2 * k * _SUBNORMAL / abs(x)))
        difference, scale, underflow = map(np.concatenate, (differences, scales, underflows))
        bound = tol * scale + underflow
        passed = difference <= bound
        # residual and tolerance both relative to |I_{k-1}| + U, so the margin is
        # |lhs - rhs| / bound at any tol; sides that agree are no defect, where
        # 0 / 0 would give a NaN residual
        relative = scale + underflow
        residual = np.where(difference == 0, 0.0, difference / relative)
        tolerance = np.where(underflow == 0, tol, bound / relative)
    details = {i: {"underflow": u} for i, u in enumerate(underflow.tolist()) if u}
    inputs = {"x": np.repeat(x_values, 20), "k": np.tile(k, len(x_values)), "identity": "recurrence"}
    return _check("recurrence", inputs, residual, tolerance, details, passed)


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
    scales = np.array([math.exp(genmatrix.unit_scale(x, w)) for x, w in cells])
    generating = np.array([cmath.exp((x / 2.0) * (w + 1.0 / w)) for x, w in cells])
    vs_sum, vs_bessel, completeness, class_scales = [], [], [], []
    for n in n_values:
        # every cell and class per route in one call: trace_projection is entry -j mod n
        # of the column; np.hypot is Python's abs of a complex bit for bit, where np.abs
        # can differ in the last bit
        js = np.arange(n)
        traces = genmatrix.generating_column(n, xs, ws)[:, -js % n]
        sums = genmatrix.exponential_sum(n, xs, ws, js)
        combs = genmatrix.bessel_comb_column(n, xs, ws)
        vs_sum.append(_abs(traces - sums).ravel())
        vs_bessel.append(_abs(traces - combs).ravel())
        totals = np.zeros(len(cells), dtype=complex)
        for j in js:  # the classes summed in order, as a running total
            totals += traces[:, j]
        completeness.append(_abs(totals - generating))
        class_scales.append(np.repeat(scales, n))
    per_class = {
        "n": np.repeat(n_values, [len(cells) * n for n in n_values]),
        "x": np.concatenate([np.repeat(xs, n) for n in n_values]),
        "j": np.concatenate([np.tile(np.arange(n), len(cells)) for n in n_values]),
        "w": np.concatenate([np.repeat(ws, n) for n in n_values]),
    }
    per_cell = {"n": np.repeat(n_values, len(cells)), "x": np.tile(xs, len(n_values)), "w": np.tile(ws, len(n_values))}
    class_scales = np.concatenate(class_scales)
    checks = [
        _check("trace_vs_sum", {**per_class, "check": "trace_vs_sum"}, np.concatenate(vs_sum),
               _scaled(t["trace_vs_sum"], class_scales)),
        _check("trace_vs_bessel", {**per_class, "check": "trace_vs_bessel"}, np.concatenate(vs_bessel),
               _scaled(t["trace_vs_bessel"], class_scales)),
        _check("completeness", {**per_cell, "check": "completeness"}, np.concatenate(completeness),
               _scaled(t["completeness"], np.tile(scales, len(n_values)))),
    ]
    params = {
        "n_values": n_values,
        "x_values": x_values,
        "w_values": [complex_payload(w) for w in w_values],
        "tol": t,
    }
    return params, checks


def _abs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


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
    commutator, gauge, isometry, weyl = [], [], [], []
    commutator_details, weyl_details = {}, {}
    for N in N_values:
        dim = 2 * N + 1
        for m in modes:
            ops = circle.build_lattice(N, mode=m)
            report = circle.commutator_check(ops)
            expected_corner = -dim if m == "cyclic" else 0
            commutator_details[len(commutator)] = {
                "corner_defect": report.corner_defect,
                "defect_mod_dim": report.defect_mod_dim,
                "exact": report.exact,
            }
            commutator.append(report.max_other_defect + abs(report.corner_defect - expected_corner))
            reports = {
                a: circle.commutator_check(circle.build_lattice(N, mode=m, alpha=a))
                for a in alphas
            }
            gauge.append(0.0 if all(r == report for r in reports.values()) else 1.0)
            # the columns of S have disjoint supports, so S^T S is diagonal:
            # 1 from each subdiagonal entry and corner^2 in the last column,
            # against the identity (cyclic) or the identity less its last 1 (open)
            isometry.append(abs(ops.corner**2 - int(m == "cyclic")))
        # V S - omega S V is zero off the band of S: clock[i] - omega clock[i-1]
        # on the subdiagonal, (clock[0] - omega clock[-1]) S[0, 2N] at the corner
        omega = np.exp(2j * np.pi / dim)
        ops = circle.build_lattice(N, mode="cyclic")
        untwisted = ops.clock
        for a in alphas:
            clock = circle.build_lattice(N, mode="cyclic", alpha=a).clock
            band = clock - omega * np.roll(clock, 1)
            band[0] *= ops.corner
            defect = float(np.abs(band).max())
            covariance = float(np.abs(clock - np.exp(2j * np.pi * a / dim) * untwisted).max())
            weyl_details[len(weyl)] = {"weyl_defect": defect, "covariance_defect": covariance}
            weyl.append(max(defect, covariance))
    per_lattice = {"N": np.repeat(N_values, len(modes)), "mode": np.array(modes * len(N_values))}
    per_alpha = {"N": np.repeat(N_values, len(alphas)), "alpha": np.tile(alphas, len(N_values))}
    gauge_details = dict.fromkeys(range(len(gauge)), {"alphas": alphas})
    checks = [
        _check("commutator", {**per_lattice, "check": "commutator"}, commutator, t["commutator"], commutator_details),
        _check("gauge", {**per_lattice, "check": "gauge"}, gauge, t["gauge"], gauge_details),
        _check("shift_isometry", {**per_lattice, "check": "shift_isometry"}, isometry, t["shift_isometry"]),
        _check("weyl", {**per_alpha, "check": "weyl"}, weyl, t["weyl"], weyl_details),
    ]
    return {"N_values": N_values, "modes": modes, "alphas": alphas, "tol": t}, checks


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
    params, checks = SUITES[suite](**kwargs)
    return VerificationReport(suite, params, checks, (time.perf_counter() - started) * 1e3)
