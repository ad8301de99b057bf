"""In-memory span tracer for the benchmark's traced runs.

A traced run wraps public superhyp functions in every namespace that
binds them and records one span per call: name, start, end and the
index of the enclosing span.  Spans live in compact arrays until the
run ends, when they are aggregated into per-name calls, busy time and
self time, and written out.  Nothing in the library is edited; the
wrappers are installed around each traced operation and removed again
before its output is checked.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    owner is the module or class that defines `attr`.  label is the span
    name, or a function of the call arguments that returns it.  counters,
    when given, is called after a successful call as
    counters(tracer, label, args, kwargs, result) and adds derived counts.
    distinct records the argument tuple so distinct_ratio can be formed.
    """

    owner: object
    attr: str
    label: str | Callable[..., str]
    counters: Callable | None = None
    distinct: bool = False


class Tracer:
    """Span recorder with per-name counters.

    Spans are stored as parallel arrays (name id, parent index, start,
    end) so a run of a million spans costs tens of megabytes, not a
    Python object per span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: dict[str, dict[str, float]] = {}
        self._keys: dict[str, set] = {}
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def count(self, name: str, key: str, amount: float) -> None:
        counts = self.counts.setdefault(name, {})
        counts[key] = counts.get(key, 0) + amount

    def end_pass(self) -> None:
        """Fold the distinct argument tuples seen in this pass into counts."""
        for name, keys in self._keys.items():
            self.count(name, "distinct", len(keys))
        self._keys.clear()

    # -- wrapping ------------------------------------------------------

    def wrap(self, probe: Probe, fn):
        label = probe.label

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if probe.distinct:
                self._keys.setdefault(name, set()).add((args, tuple(sorted(kwargs.items()))))
            if probe.counters is not None:
                probe.counters(self, name, args, kwargs, result)
            return result

        return traced

    def bind(self, probes, namespaces) -> None:
        """Prepare wrappers for every namespace binding of each probe's function.

        A function imported into several modules (dft_matrix lives in
        algebra, hyperbolic, genmatrix and the package) is rebound in all
        of them, so internal callers that look it up as a module global
        are traced too.
        """
        self._bindings = []
        for probe in probes:
            original = vars(probe.owner)[probe.attr]
            wrapper = self.wrap(probe, original)
            homes = list(namespaces) + [probe.owner]
            seen = set()
            for home in homes:
                if id(home) in seen:
                    continue
                seen.add(id(home))
                for name, value in list(vars(home).items()):
                    if value is original:
                        self._bindings.append((home, name, original, wrapper))

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        for home, name, _, wrapper in self._bindings:
            setattr(home, name, wrapper)
        try:
            yield
        finally:
            for home, name, original, _ in self._bindings:
                setattr(home, name, original)

    # -- results -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive busy_ms, self_ms, plus its counters.

        Self time is a span's duration minus the time covered by its
        direct children.  Spans of one thread nest, so direct children
        never overlap and their durations simply add.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        covered = np.zeros_like(dur)
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], dur[child])
        size = len(self.names)
        calls = np.bincount(a["name_id"], minlength=size)
        busy = np.bincount(a["name_id"], weights=dur, minlength=size)
        own = np.bincount(a["name_id"], weights=dur - covered, minlength=size)
        out = {
            name: {"calls": int(calls[i]), "busy_ms": busy[i] * 1e3, "self_ms": own[i] * 1e3}
            for i, name in enumerate(self.names)
        }
        for name, counts in self.counts.items():
            out.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}).update(counts)
        return out

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def merge(summaries) -> dict[str, dict[str, float]]:
    """Add per-name summaries field by field (one per traced process)."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, fields in summary.items():
            into = out.setdefault(name, {})
            for key, value in fields.items():
                into[key] = into.get(key, 0) + value
    return out


def layer_metrics(summary, passes: int, names) -> dict[str, float]:
    """Per-pass value of each per-layer metric name from a merged summary.

    A name is `<label>.<field>`.  Counts and times are divided by the
    number of traced passes.  distinct_ratio is distinct argument tuples
    over calls and useful_ratio is useful over computed orders, both
    formed from totals.  verify.self_ms adds the self time of every
    verify suite span.  A label the workload never reached reads 0.
    """
    out = {}
    for metric in names:
        label, _, field = metric.rpartition(".")
        fields = summary.get(label, {})
        if field == "distinct_ratio":
            value = _ratio(fields.get("distinct", 0), fields.get("calls", 0))
        elif field == "useful_ratio":
            value = _ratio(fields.get("useful_orders", 0), fields.get("computed_orders", 0))
        elif label == "verify" and field == "self_ms":
            value = sum(f.get("self_ms", 0.0) for n, f in summary.items() if n.startswith("verify.")) / passes
        else:
            value = fields.get(field, 0) / passes
        out[metric] = float(value)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
