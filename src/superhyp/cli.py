"""Command-line front end: evaluate values, verify identities, bench, tabulate.

Exit codes: 0 success/pass, 1 verification failure, 2 usage error,
3 numeric-domain error.  Grids use the syntax `a..b:step` (both ends
included when (b-a)/step is integral within 1e-9), `a..b` (step 1),
comma lists, or a single value.  Complex flags accept `re,im` or a bare
real shorthand.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from dataclasses import dataclass

from . import bessel, genmatrix, hyperbolic, verify
from .algebra import mat_exp, shift_matrix
from .errors import DomainError

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

BENCH_OPS = ("circulant-exp-spectral", "circulant-exp-dense")
TABLE_KINDS = ("superhyp", "identity", "bessel")
EVAL_OPS = ("superhyp", "bessel", "trace")


def parse_grid(text: str) -> list[float]:
    """Parse `a..b:step`, `a..b`, `v1,v2,...`, or a single value."""
    text = text.strip()
    if ".." in text:
        span, _, step_text = text.partition(":")
        a_text, _, b_text = span.partition("..")
        a, b = float(a_text), float(b_text)
        step = float(step_text) if step_text else 1.0
        if not all(map(math.isfinite, (a, b, step))):
            raise ValueError(f"grid range must be finite, got {text!r}")
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        ratio = (b - a) / step
        count = round(ratio)
        if abs(ratio - count) > 1e-9:
            count = math.floor(ratio + 1e-12)
        return [a + i * step for i in range(count + 1)]
    if "," in text:
        return [float(v) for v in text.split(",")]
    return [float(text)]


def parse_int_grid(text: str) -> list[int]:
    values = parse_grid(text)
    out = []
    for v in values:
        if abs(v - round(v)) > 1e-9:
            raise ValueError(f"expected integer grid values, got {v}")
        out.append(int(round(v)))
    return out


def parse_complex(text: str) -> complex:
    text = text.strip()
    if "," in text:
        re_text, im_text = text.split(",")
        return complex(float(re_text), float(im_text))
    return complex(float(text), 0.0)


@dataclass
class RunConfig:
    """Validated bag of grids and knobs shared by the subcommands."""

    n_values: list | None = None
    N_values: list | None = None
    x_values: list | None = None
    y_values: list | None = None
    w: complex = 1.0 + 0j
    j: int = 0
    method: str = "series"
    mode: str | None = None
    alpha: float | None = None
    kmax: int | None = None
    tol: float | None = None
    trials: int | None = None
    seed: int = 0
    fmt: str = "json"
    out: str | None = None

    def validate(self) -> "RunConfig":
        for name in ("n_values", "N_values", "x_values", "y_values"):
            grid = getattr(self, name)
            if grid is not None and len(grid) == 0:
                raise ValueError(f"empty grid for --{name[0]}")
        if self.tol is not None and not self.tol > 0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        self.seed = int(self.seed)
        return self


def _config(args, **defaults) -> RunConfig:
    cfg = RunConfig(
        n_values=getattr(args, "n", None),
        N_values=getattr(args, "N", None),
        x_values=getattr(args, "x", None),
        y_values=getattr(args, "y", None),
        w=getattr(args, "w", None) if getattr(args, "w", None) is not None else 1.0 + 0j,
        j=getattr(args, "j", 0) or 0,
        method=getattr(args, "method", None) or "series",
        mode=getattr(args, "mode", None),
        alpha=getattr(args, "alpha", None),
        kmax=getattr(args, "kmax", None),
        tol=getattr(args, "tol", None),
        trials=getattr(args, "trials", None),
        seed=getattr(args, "seed", 0),
        fmt=getattr(args, "format", None) or "json",
        out=getattr(args, "out", None),
    )
    for name, value in defaults.items():
        if getattr(cfg, name) is None:
            setattr(cfg, name, value)
    return cfg.validate()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_doc(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def cmd_eval(args) -> int:
    cfg = _config(args, n_values=[2], x_values=[1.0], kmax=10)
    records = []
    if args.target == "superhyp":
        for n in cfg.n_values:
            for x in cfg.x_values:
                values = hyperbolic.c_all(n, x, cfg.method)
                records.append(
                    {
                        "op": "superhyp",
                        "params": {"n": n, "x": x, "method": cfg.method},
                        "values": [float(v) for v in values.values],
                    }
                )
    elif args.target == "bessel":
        for x in cfg.x_values:
            table = bessel.bessel_table(cfg.kmax, x)
            records.append(
                {
                    "op": "bessel",
                    "params": {"x": x, "kmax": cfg.kmax},
                    "values": [float(v) for v in table.values],
                    "norm_residual": table.norm_residual,
                }
            )
    else:
        for n in cfg.n_values:
            for x in cfg.x_values:
                value = genmatrix.trace_projection(n, x, cfg.w, cfg.j)
                records.append(
                    {
                        "op": "trace",
                        "params": {
                            "n": n,
                            "x": x,
                            "w": verify.complex_payload(cfg.w),
                            "j": cfg.j,
                        },
                        "value": verify.complex_payload(value),
                    }
                )
    _emit("\n".join(json.dumps(r, sort_keys=True) for r in records), cfg.out)
    return EXIT_PASS


def cmd_verify(args) -> int:
    cfg = _config(args)
    kwargs: dict = {"tol": cfg.tol}
    if args.suite in ("pauli", "superhyp", "addition", "mixed", "genmatrix"):
        kwargs["n_values"] = cfg.n_values
    if args.suite in ("superhyp", "genmatrix", "bessel"):
        kwargs["x_values"] = cfg.x_values
    if args.suite in ("addition", "mixed"):
        kwargs["trials"] = cfg.trials
        kwargs["seed"] = cfg.seed
    if args.suite == "bessel":
        kwargs["kmax"] = cfg.kmax
    if args.suite in ("bessel", "genmatrix") and getattr(args, "w", None) is not None:
        kwargs["w_values"] = [cfg.w]
    if args.suite == "circle":
        kwargs["N_values"] = cfg.N_values
        kwargs["mode"] = cfg.mode
        if cfg.alpha is not None:
            kwargs["alphas"] = [cfg.alpha]
    report = verify.run_suite(args.suite, **kwargs)
    _emit(_json_doc(report.to_payload()), cfg.out)
    return EXIT_PASS if report.passed else EXIT_VERIFY_FAIL


def _bench_once(op: str, n: int, x: float) -> float:
    start = time.perf_counter()
    if op == "circulant-exp-spectral":
        hyperbolic.exp_circulant(n, x)
    else:
        mat_exp(x * shift_matrix(n))
    return (time.perf_counter() - start) * 1e3


def cmd_bench(args) -> int:
    cfg = _config(args, n_values=[64, 256], x_values=[1.0])
    x = cfg.x_values[0]
    repeats = 5
    results = []
    for n in cfg.n_values:
        times = sorted(_bench_once(args.target, n, x) for _ in range(repeats))
        results.append({"n": n, "median_ms": times[repeats // 2], "times_ms": times})
    payload = {"op": args.target, "x": x, "repeats": repeats, "results": results}
    _emit(_json_doc(payload), cfg.out)
    return EXIT_PASS


def _rows_superhyp(cfg) -> tuple[list[str], list[list]]:
    n = cfg.n_values[0]
    header = ["x"] + [f"c{j}" for j in range(n)]
    rows = []
    for x in sorted(cfg.x_values):
        values = hyperbolic.c_all(n, x, cfg.method)
        rows.append([x] + [float(v) for v in values.values])
    return header, rows


def _rows_identity(cfg) -> tuple[list[str], list[list]]:
    n = cfg.n_values[0]
    rows = [[x, hyperbolic.fundamental_identity_residual(n, x)] for x in sorted(cfg.x_values)]
    return ["x", "residual"], rows


def _rows_bessel(cfg) -> tuple[list[str], list[list]]:
    x = cfg.x_values[0]
    values = bessel.bessel_table(cfg.kmax, x).values
    return ["order", "value"], [[k, float(values[k])] for k in range(cfg.kmax + 1)]


def cmd_table(args) -> int:
    cfg = _config(args, n_values=[3], x_values=[1.0], kmax=8)
    if args.format is None:
        cfg.fmt = "csv"
    header, rows = {
        "superhyp": _rows_superhyp,
        "identity": _rows_identity,
        "bessel": _rows_bessel,
    }[args.kind](cfg)
    if cfg.fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)  # str(float) is the shortest round-trip form
        text = buffer.getvalue()
    else:
        text = _json_doc([dict(zip(header, row)) for row in rows])
    _emit(text, cfg.out)
    return EXIT_PASS


def _add_common_flags(sub) -> None:
    sub.add_argument("--n", type=parse_int_grid, default=None, help="level grid, e.g. 2..8")
    sub.add_argument("--N", type=parse_int_grid, default=None, help="half-width grid")
    sub.add_argument("--x", type=parse_grid, default=None, help="argument grid, e.g. -3..3:0.5")
    sub.add_argument("--y", type=parse_grid, default=None, help="second argument grid")
    sub.add_argument("--w", type=parse_complex, default=None, help="complex as re,im (or re)")
    sub.add_argument("--j", type=int, default=0, help="class index")
    sub.add_argument("--method", choices=hyperbolic.METHODS, default=None)
    sub.add_argument("--mode", choices=("cyclic", "open"), default=None)
    sub.add_argument("--alpha", type=float, default=None, help="gauge offset in [0,1)")
    sub.add_argument("--kmax", type=int, default=None, help="highest order / truncation")
    sub.add_argument("--tol", type=float, default=None, help="tolerance override")
    sub.add_argument("--trials", type=int, default=None, help="random trials per level")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", choices=("json", "csv"), default=None)
    sub.add_argument("--out", default=None, help="write output to this path")


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept grid values like -3..3:0.5 as option values, not flags
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="superhyp",
        description="Evaluate and verify the cyclic-shift exponential identities.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("eval", help="print requested values as JSON lines")
    sub.add_argument("target", choices=EVAL_OPS)
    _add_common_flags(sub)
    sub.set_defaults(handler=cmd_eval)

    sub = commands.add_parser("verify", help="run an identity suite; exit 0 iff it passes")
    sub.add_argument("suite", choices=verify.SUITE_NAMES)
    _add_common_flags(sub)
    sub.set_defaults(handler=cmd_verify)

    sub = commands.add_parser("bench", help="median-of-5 wall times, no pass/fail")
    sub.add_argument("target", choices=BENCH_OPS)
    _add_common_flags(sub)
    sub.set_defaults(handler=cmd_bench)

    sub = commands.add_parser("table", help="emit a CSV or JSON table")
    sub.add_argument("kind", choices=TABLE_KINDS)
    _add_common_flags(sub)
    sub.set_defaults(handler=cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
