"""Benchmark of superhyp: one workload, one seed, one run.

    python3 benchmark/run.py --workload verify-grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads (closed loop, one caller, one
operation at a time):

  verify-grid  passes over all seven verify suites at default grids, in
               one process; the addition/mixed seeds come from --seed
  large-n      a fixed, seeded list of big-size kernel calls, in one process
  cli-process  fresh `python -m superhyp` processes, one per command

With --trace 0 it prints every end-to-end metric of BENCHMARK.json; with
--trace 1 every per-layer metric and the tracing overhead.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Each run also writes benchmark/out/<workload>-seed<n>-trace<t>.json
with the run metadata, and a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from launch import LAUNCH_MARK
from measure import OpResult, measure_passes, overhead_ms, summarize
from tracer import layer_metrics, merge

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "benchmark"
OUT = HERE / "out"
WORKLOADS = ("verify-grid", "large-n", "cli-process")
SUITES = ("pauli", "superhyp", "addition", "mixed", "bessel", "genmatrix", "circle")
SEEDED_SUITES = ("addition", "mixed")
# fresh processes set up per run; setup_s is their median
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_child(argv, env) -> tuple[float, int, bytes, int]:
    """Run one process to completion: (seconds, exit code, stdout, peak RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out, usage.ru_maxrss


def run_worker(workload, seed, env, seconds=0.0, trace=0, setup_only=False, spans=None) -> dict:
    spawned_at = time.perf_counter()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--spawned-at", repr(spawned_at)]
    if setup_only:
        argv.append("--setup-only")
    if spans:
        argv += ["--spans", str(spans)]
    _, code, out, _ = run_child(argv, env)
    if code != 0:
        raise RuntimeError(f"worker for {workload} exited with code {code}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - report["spawned_at"]
    return report


# -- cli-process ---------------------------------------------------------------


def cli_commands(rng: random.Random) -> list[tuple[str, list[str]]]:
    """One pass: verify for each suite at defaults, three evals, one table, shuffled."""
    cmds = [
        (f"verify.{s}", ["verify", s] + (["--seed", str(rng.randrange(2**31))] if s in SEEDED_SUITES else []))
        for s in SUITES
    ]
    cmds += [
        ("eval.superhyp", ["eval", "superhyp"]),
        ("eval.bessel", ["eval", "bessel"]),
        ("eval.trace", ["eval", "trace"]),
        ("table.bessel", ["table", "bessel", "--format", "json"]),
    ]
    rng.shuffle(cmds)
    return cmds


def check_cli(name: str, code: int, out: bytes) -> tuple[str | None, int]:
    """(failure reason or None, verification cases): exit 0, JSON output, pass true."""
    if code != 0:
        return f"exit code {code}", 0
    try:
        text = out.decode("utf-8")
        if name.startswith("verify."):
            payload = json.loads(text)
            if payload.get("pass") is not True:
                return "report does not pass", 0
            return None, len(payload["cases"])
        if name.startswith("eval."):
            docs = [json.loads(line) for line in text.splitlines() if line.strip()]
        else:
            docs = [json.loads(text)]
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc}", 0
    return (None if docs and all(docs) else "empty output"), 0


def run_cli_pass(commands, env, spans_dir=None, index=0):
    """Run each command as a fresh process.  With spans_dir, through the
    traced launcher: returns the launcher summaries as well."""
    results, summaries, rss = [], [], []
    for name, args in commands:
        if spans_dir is None:
            argv = [sys.executable, "-m", "superhyp", *args]
        else:
            spawned_at = time.perf_counter()
            spans = spans_dir / f"{index:03d}-{name}.npz"
            argv = [sys.executable, str(HERE / "launch.py"), repr(spawned_at), str(spans), *args]
        seconds, code, out, kb = run_child(argv, env)
        error = None
        if spans_dir is not None:
            out, mark, tail = out.rpartition(LAUNCH_MARK.encode())
            if mark:
                summary = json.loads(tail)
                summary["cli"]["stdout_bytes"] = len(out)
                summaries.append(summary)
            else:
                error = "launcher summary missing"
        else:
            rss.append(kb)
        check_error, cases = check_cli(name, code, out)
        results.append(OpResult(name, seconds, error or check_error, cases))
    return results, summaries, rss


def run_cli_workload(seed, seconds, trace, env) -> dict:
    setups = [run_worker("cli-process", seed, env, setup_only=True) for _ in range(SETUP_SAMPLES)]
    rng = random.Random(seed)
    spans_dir = None
    if trace:
        spans_dir = OUT / "spans-cli-process"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    summaries, rss = [], []
    names = sorted(name for name, _ in cli_commands(random.Random(seed)))

    def run_one(traced, index):
        done, layers, kb = run_cli_pass(cli_commands(rng), env, spans_dir if traced else None, index)
        summaries.extend(layers)
        rss.extend(kb)
        return done

    results, pass_ms = measure_passes(run_one, seconds, trace)
    passes = len(pass_ms[0]) + len(pass_ms[1])
    report = {
        "setups": setups,
        "measured": summarize(results),
        "passes": passes,
        "ops_per_pass": len(results) // passes,
        "peak_rss_kb": max(rss),
        "sizes": {"commands_per_pass": names},
        "warmup": {"attempted": 0, "failed": 0},
    }
    report.update({k: setups[0][k] for k in ("blas", "numpy", "superhyp")})
    if trace:
        report["traced_passes"] = len(pass_ms[1])
        report["trace_overhead_ms"] = overhead_ms(pass_ms)
        report["layers"] = merge(summaries)
    return report


def run_inprocess_workload(workload, seed, seconds, trace, env) -> dict:
    setups = [run_worker(workload, seed, env, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    spans = OUT / f"spans-{workload}.npz" if trace else None
    report = run_worker(workload, seed, env, seconds, trace, spans=spans)
    report["setups"] = setups + [report]
    return report


# -- output --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "superhyp" / "__init__.py").is_file():
        print(f"error: no superhyp sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    # byte-compile once so no measured process pays for compilation
    compileall.compile_dir(ROOT / "src" / "superhyp", quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    env = child_env()
    if args.workload == "cli-process":
        report = run_cli_workload(args.seed, args.seconds, args.trace, env)
    else:
        report = run_inprocess_workload(args.workload, args.seed, args.seconds, args.trace, env)

    m = report["measured"]
    attempted = m["attempted"] + report["warmup"]["attempted"]
    failed = m["failed"] + report["warmup"]["failed"]
    setup_samples = [s["setup_s"] for s in report["setups"]]
    if args.trace:
        entries = spec["per_layer"]
        names = [e["name"] for e in entries if e["name"] != "trace.overhead_ms"]
        values = layer_metrics(report["layers"], report["traced_passes"], names)
        values["trace.overhead_ms"] = report["trace_overhead_ms"]
    else:
        entries = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup_samples),
            "ops_per_s": m["ops_per_s"],
            "op_p50_ms": m["op_p50_ms"],
            "op_tail_ms": m["op_tail_ms"],
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}
    units = {e["name"]: e["unit"] for e in entries} | {"op_p50_ms": "ms"}

    info = {
        "op_tail_percentile": round(m["op_tail_percentile"], 3),
        "op_samples": m["attempted"],
        "cases_per_s": m["cases_per_s"],
        "fail_ratio": failed / attempted,
        "fail_ratio_base": f"{failed} failed of {attempted} operations attempted (warm-up included)",
        "passes": report["passes"],
        "ops_per_pass": report["ops_per_pass"],
        "op_p50_ms_by_name": m["op_p50_ms_by_name"],
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": report.get("numpy"),
        "superhyp": report.get("superhyp"),
        "blas": report.get("blas"),
        "blas_thread_limit": nproc(),
        "nproc": nproc(),
        "sizes": report.get("sizes"),
        "setup_samples_s": setup_samples,
        "load": "closed loop, one caller, one operation at a time",
    }
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if not args.trace:
        # reported, but not in the JSON line: see "Not gated" in METRICS.md
        info["op_p50_ms"] = m["op_p50_ms"]
        if args.workload != "large-n":
            print(f"cases_per_s = {info['cases_per_s']:.6g} 1/s")
        print(f"fail_ratio = {info['fail_ratio']:.6g} ({info['fail_ratio_base']})")
        print(f"op_tail_ms is p{info['op_tail_percentile']} of {info['op_samples']} samples")
    print(f"BLAS {meta['blas']}, limit {nproc()} threads; nproc {nproc()}; commit {meta['commit']}")
    for err in m["first_errors"]:
        print(f"failure: {err}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"meta": meta, "info": info, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
