"""Tests of the benchmark's own accounting.

    PYTHONPATH=src python -m pytest -q benchmark/tests
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from measure import Op, run_pass, summarize, tail  # noqa: E402
from tracer import Probe, Tracer, layer_metrics, merge  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_duration_minus_child_coverage():
    # parent [0, 10]; child a [1, 3]; child b [4, 8] holding grandchild [5, 6]
    tracer = Tracer(clock=fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tracer.span("parent"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    s = tracer.summary()
    assert s["parent"]["busy_ms"] == pytest.approx(10e3)
    assert s["parent"]["self_ms"] == pytest.approx((10 - 2 - 4) * 1e3)
    assert s["b"]["self_ms"] == pytest.approx((4 - 1) * 1e3)
    assert s["c"]["self_ms"] == pytest.approx(1e3)
    assert list(tracer.arrays()["parent"]) == [-1, 0, 0, 2]


def test_verify_self_ms_adds_suite_self_times():
    summary = {
        "verify.a": {"self_ms": 3.0},
        "verify.b": {"self_ms": 5.0},
        "hyperbolic.c_series": {"self_ms": 100.0},
    }
    assert layer_metrics(summary, 2, ["verify.self_ms"]) == {"verify.self_ms": 4.0}


def _module(name, **attrs):
    mod = types.ModuleType(name)
    for key, value in attrs.items():
        setattr(mod, key, value)
    return mod


def test_calls_count_every_invocation_through_every_binding():
    def square(v):
        return v * v

    home = _module("home", square=square)
    other = _module("other", sq=square)  # the same function imported under another name
    tracer = Tracer()
    tracer.bind([Probe(home, "square", "home.square", distinct=True)], [home, other])
    ops = [
        Op("a", lambda: home.square(2), lambda r: None),
        Op("b", lambda: other.sq(3), lambda r: None),
        Op("c", lambda: [home.square(2), other.sq(4)], lambda r: None),
    ]
    for _ in range(3):
        run_pass(ops, tracer)
    assert home.square is square and other.sq is square  # wrappers removed after each op
    metrics = layer_metrics(tracer.summary(), 3, ["home.square.calls", "home.square.distinct_ratio",
                                                  "op.a.calls", "missing.fn.busy_ms"])
    assert metrics["home.square.calls"] == 4
    assert metrics["home.square.distinct_ratio"] == pytest.approx(3 / 4)
    assert metrics["op.a.calls"] == 1
    assert metrics["missing.fn.busy_ms"] == 0.0


def test_merge_adds_fields_of_each_process():
    merged = merge([{"f": {"calls": 2, "busy_ms": 1.5}}, {"f": {"calls": 3}, "g": {"calls": 1}}])
    assert merged == {"f": {"calls": 5, "busy_ms": 1.5}, "g": {"calls": 1}}


def test_wrong_output_and_raising_op_count_as_failures():
    def boom():
        raise ValueError("bad input")

    ops = [
        Op("right", lambda: 4, lambda r: None if r == 4 else "wrong"),
        Op("wrong", lambda: 5, lambda r: None if r == 4 else "wrong"),
        Op("raises", boom, lambda r: None),
        Op("bad-check", lambda: 4, lambda r: r["missing"]),
    ]
    results = run_pass(ops)
    figures = summarize(results)
    assert figures["attempted"] == 4
    assert figures["failed"] == 3
    assert figures["fail_ratio"] == pytest.approx(3 / 4)
    assert [r.error is None for r in results] == [True, False, False, False]


def test_library_check_rejects_a_perturbed_circulant():
    workloads = pytest.importorskip("workloads")
    n, x = 64, 1.3
    check = workloads._check_circulant(n, x, [0, 5, 17])
    right = workloads.hyperbolic.exp_circulant(n, x)
    assert check(right) is None
    wrong = right.copy()
    wrong[5, 0] *= 1 + 1e-6
    assert "class 5" in check(wrong)
    results = run_pass([Op("circ", lambda: wrong, check)])
    assert summarize(results)["fail_ratio"] == 1.0


def test_cli_check_needs_exit_zero_json_and_pass():
    import run

    assert run.check_cli("verify.pauli", 0, b'{"pass": true, "cases": [1, 2]}') == (None, 2)
    assert run.check_cli("verify.pauli", 0, b'{"pass": false, "cases": []}')[0]
    assert run.check_cli("verify.pauli", 1, b"")[0] == "exit code 1"
    assert run.check_cli("eval.bessel", 0, b'{"op": 1}\n{"op": 2}\n') == (None, 0)
    assert run.check_cli("table.bessel", 0, b"order,value\n0,1.0\n")[0].startswith("unparseable")


def test_tail_has_ten_samples_beyond_it():
    values = list(np.arange(100.0))
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(90.0)
    assert tail([3.0, 1.0]) == (3.0, 100.0)
