"""Process that does the work of one in-process workload run.

    python benchmark/worker.py --workload verify-grid --seed 1 --seconds 20 \
        --trace 0 --spawned-at <parent perf_counter before spawn> [--setup-only]

It imports superhyp, runs one discarded warm-up pass (first calls are
slower), and reports when it is ready; setup time is measured from the
parent's spawn to that moment.  Unless --setup-only, it then runs whole
passes of the workload until --seconds have elapsed and prints one JSON
object on stdout.  With --trace 1 it alternates untraced and traced
passes, so the traced pass time minus the untraced pass time gives the
tracing overhead on the same inputs.  Both processes read
time.perf_counter, which is the system-wide monotonic clock on Linux.
"""

import time

FIRST_LINE_AT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def blas_info(np) -> dict:
    """BLAS library name and the thread count it will use, where readable."""
    info = {"library": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    for lib in (Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                info["threads"] = int(getter())
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    started = time.perf_counter()
    import numpy as np

    numpy_at = time.perf_counter()
    import superhyp

    superhyp_at = time.perf_counter()
    report = {
        "spawned_at": args.spawned_at,
        "first_line_at": FIRST_LINE_AT,
        "import_numpy_s": numpy_at - started,
        "import_superhyp_s": superhyp_at - numpy_at,
    }

    if args.workload == "cli-process":
        # a CLI process is ready once its parser is built and one command has run
        from superhyp import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["eval", "superhyp"])
        report["ready_at"] = time.perf_counter()
        return finish(report, np)

    from measure import measure_passes, overhead_ms, run_pass, summarize
    from workloads import LARGE_N, passes

    op_lists = passes(args.workload, np.random.default_rng(args.seed))
    warm = run_pass(next(op_lists))
    report["ready_at"] = time.perf_counter()
    report["warmup"] = {"attempted": len(warm), "failed": sum(r.error is not None for r in warm),
                        "errors": [f"{r.name}: {r.error}" for r in warm if r.error][:5]}
    report["sizes"] = LARGE_N if args.workload == "large-n" else {"cases_per_grid": warm[0].cases}
    if args.setup_only:
        return finish(report, np)

    tracer = None
    if args.trace:
        from probes import LIBRARY_PROBES, namespaces
        from tracer import Tracer

        tracer = Tracer()
        tracer.bind(LIBRARY_PROBES, namespaces())

    results, pass_ms = measure_passes(
        lambda traced, index: run_pass(next(op_lists), tracer if traced else None),
        args.seconds,
        args.trace,
    )
    done_passes = len(pass_ms[0]) + len(pass_ms[1])
    report["measured"] = summarize(results)
    report["passes"] = done_passes
    report["ops_per_pass"] = len(results) // done_passes
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        report["traced_passes"] = len(pass_ms[1])
        report["trace_overhead_ms"] = overhead_ms(pass_ms)
        report["layers"] = tracer.summary()
        if args.spans:
            tracer.save(args.spans)
    return finish(report, np)


def finish(report: dict, np) -> int:
    """Add library versions (after the timed part) and print the report."""
    import superhyp

    report["blas"] = blas_info(np)
    report["numpy"] = np.__version__
    report["superhyp"] = superhyp.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
