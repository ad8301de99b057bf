"""Traced stand-in for `python -m superhyp ...`, used by the cli-process workload.

    python benchmark/launch.py <parent perf_counter at spawn> <spans.npz> <superhyp args...>

It runs the same cli.main as the real command and writes the same
stdout, then appends one line, LAUNCH_MARK followed by a JSON summary
of this process: per-function spans from the library probes plus a
`cli` entry with interpreter start, the numpy import, the rest of the
superhyp import, run time (the subcommand handler minus emit) and emit
time (report payload, JSON encoding and the write).
"""

import time

FIRST_LINE_AT = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

LAUNCH_MARK = "#superhyp-launch "


def main() -> int:
    spawned_at, spans_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    started = time.perf_counter()
    import numpy  # noqa: F401

    numpy_at = time.perf_counter()
    from superhyp import cli

    superhyp_at = time.perf_counter()

    from probes import CLI_PROBES, LIBRARY_PROBES, namespaces
    from tracer import Tracer

    tracer = Tracer()
    tracer.bind(LIBRARY_PROBES + CLI_PROBES, namespaces())
    with tracer.installed(), tracer.span("cli.main"):
        code = cli.main(argv)
    sys.stdout.flush()
    tracer.end_pass()
    tracer.save(spans_path)

    summary = tracer.summary()
    handler_ms = summary.get("cli.handler", {}).get("busy_ms", 0.0)
    emit_ms = summary.get("cli.emit", {}).get("busy_ms", 0.0)
    summary["cli"] = {
        "interp_start_ms": (FIRST_LINE_AT - spawned_at) * 1e3,
        "import_numpy_ms": (numpy_at - started) * 1e3,
        "import_superhyp_ms": (superhyp_at - numpy_at) * 1e3,
        "run_ms": handler_ms - emit_ms,
        "emit_ms": emit_ms,
    }
    sys.stdout.write(LAUNCH_MARK + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
