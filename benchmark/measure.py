"""Closed-loop measurement: one caller, one operation at a time.

Each operation is timed on its own; its output is checked after the
clock stops, so checks never count as latency.  An operation that
raises, or whose check reports a mismatch, is a failure.
"""

from __future__ import annotations

import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable


@dataclass
class Op:
    """call runs the operation; check returns None if the output is right,
    else the reason; cases counts the verification cases in the output."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    cases: Callable[[object], int] = lambda result: 0


@dataclass
class OpResult:
    name: str
    seconds: float
    error: str | None
    cases: int


def run_pass(ops, tracer=None) -> list[OpResult]:
    """Run each op once, in order.  With a tracer, each call is traced
    under a root span op.<name>; the check runs with tracing removed."""
    results = []
    for op in ops:
        installed = tracer.installed() if tracer is not None else nullcontext()
        error = None
        out = None
        with installed:
            start = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(f"op.{op.name}"):
                        out = op.call()
                else:
                    out = op.call()
            except Exception as exc:  # an operation that raises is a counted failure
                error = f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        cases = 0
        if error is None:
            try:
                error = op.check(out)
                cases = op.cases(out)
            except Exception as exc:  # a check that cannot run counts as a mismatch
                error = f"check raised {type(exc).__name__}: {exc}"
        results.append(OpResult(op.name, seconds, error, cases))
    if tracer is not None:
        tracer.end_pass()
    return results


def measure_passes(run_one, seconds: float, trace: bool):
    """Run whole passes until `seconds` have elapsed, and at least two.

    run_one(traced, index) runs one pass and returns its OpResults; with
    trace, every second pass is traced, so traced and untraced passes see
    the same inputs and the same host.  Returns the results and pass_ms,
    the op time of each untraced (pass_ms[0]) and traced (pass_ms[1]) pass.
    """
    results, pass_ms = [], {0: [], 1: []}
    begin = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - begin < seconds:
        traced = bool(trace) and index % 2 == 1
        done = run_one(traced, index)
        pass_ms[int(traced)].append(sum(r.seconds for r in done) * 1e3)
        results.extend(done)
        index += 1
    return results, pass_ms


def overhead_ms(pass_ms) -> float:
    """Tracing overhead: median traced pass time minus median untraced one."""
    return statistics.median(pass_ms[1]) - statistics.median(pass_ms[0])


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample; its percentile is 100*(N-10)/N.
    With ten or fewer samples it is the maximum, at percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def summarize(results) -> dict:
    """End-to-end figures of the OpResults of whole passes (latencies in ms).

    Throughputs are completed operations (or cases) over the time spent
    in operations, so a run that drifts between a slow and a fast host
    state moves them in proportion, where a median would jump.
    """
    latencies = [r.seconds * 1e3 for r in results]
    busy = sum(r.seconds for r in results)
    failed = sum(r.error is not None for r in results)
    value, pct = tail(latencies)
    cases = sum(r.cases for r in results)
    by_name: dict[str, list[float]] = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r.seconds * 1e3)
    return {
        "attempted": len(results),
        "failed": failed,
        "ops_per_s": len(results) / busy,
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": value,
        "op_tail_percentile": pct,
        "cases": cases,
        "cases_per_s": cases / busy,
        "fail_ratio": failed / len(results),
        "busy_s": busy,
        "op_p50_ms_by_name": {name: statistics.median(v) for name, v in sorted(by_name.items())},
        "first_errors": [f"{r.name}: {r.error}" for r in results if r.error][:5],
    }

