"""Reference copy of the per-case report emitter that the column writer replaced.

A report's cases are records, sorted by the compact JSON of their inputs,
and the whole document goes through json.dumps.  Tests compare
VerificationReport.to_json (and the verify command's stdout) with it:
the two must agree byte for byte, apart from the "checks" block the
column writer adds.
"""

import json
from typing import NamedTuple


class Case(NamedTuple):
    inputs: dict
    residual: float
    tolerance: float
    details: dict = {}

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def payload(suite: str, params: dict, cases, wall_time_ms: float) -> dict:
    """The report dict; cases are records with inputs, residual, tolerance, passed and details."""
    entries = []
    for c in sorted(cases, key=lambda c: json.dumps(c.inputs, sort_keys=True)):
        entry = {
            "inputs": c.inputs,
            "residual": float(c.residual),
            "tolerance": float(c.tolerance),
            "pass": bool(c.passed),
        }
        if c.details:
            entry["details"] = c.details
        entries.append(entry)
    return {
        "suite": suite,
        "params": params,
        "cases": entries,
        "max_residual": float(max((c.residual for c in cases), default=0.0)),
        "pass": bool(all(c.passed for c in cases)),
        "wall_time_ms": float(wall_time_ms),
    }


def document(report) -> str:
    """The report as the verify command wrote it, from the records of report.cases."""
    doc = payload(report.suite, report.params, report.cases, report.wall_time_ms)
    return json.dumps(doc, sort_keys=True, indent=2)
