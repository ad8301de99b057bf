"""The benchmark's probes name functions the library still defines."""

from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_every_probe_names_an_attribute_of_its_owner(monkeypatch):
    # a traced run binds each probe by vars(owner)[attr], so a renamed or
    # deleted function would otherwise fail only there, as a KeyError
    monkeypatch.syspath_prepend(str(BENCHMARK))
    import probes

    for probe in probes.LIBRARY_PROBES + probes.CLI_PROBES:
        assert probe.attr in vars(probe.owner), probe
