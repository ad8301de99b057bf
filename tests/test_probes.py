"""The benchmark's probes name functions the library still defines, and its op lists run clean."""

from pathlib import Path

import numpy as np
import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_every_probe_names_an_attribute_of_its_owner(monkeypatch):
    # a traced run binds each probe by vars(owner)[attr], so a renamed or
    # deleted function would otherwise fail only there, as a KeyError
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import probes

    for probe in probes.LIBRARY_PROBES + probes.CLI_PROBES:
        assert probe.attr in vars(probe.owner), probe


@pytest.mark.parametrize("workload", ["large-n", "verify-grid"])
@pytest.mark.parametrize("seed", [0, 1])
def test_one_pass_of_each_in_process_workload_runs_without_a_failed_op(monkeypatch, workload, seed):
    # a library change that breaks an op or its output check would otherwise
    # show only as an incorrect benchmark run
    monkeypatch.syspath_prepend(str(BENCHMARK))
    from measure import run_pass
    from workloads import passes

    results = run_pass(next(passes(workload, np.random.default_rng(seed))))
    assert results
    assert [(r.name, r.error) for r in results if r.error is not None] == []
