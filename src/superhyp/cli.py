"""Command-line front end: evaluate values, verify identities, tabulate.

Exit codes: 0 success/pass, 1 verification failure, 2 usage error,
3 numeric-domain error.  Grids use the syntax `a..b:step` (both ends
included when (b-a)/step is integral within 1e-9), `a..b` (step 1),
comma lists, or a single value.  Complex flags accept `re,im` or a bare
real shorthand.  Each subcommand takes only the flags it reads, each
`eval` target and `table` kind only the flags it reads (TARGET_FLAGS),
and `verify` passes a flag only to a suite that takes it; any other flag
exits 2, as does a grid of several points where `table` reads one.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import re
import sys

from . import bessel, genmatrix, hyperbolic, verify
from .errors import MAX_GRID_POINTS, DomainError

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

class FlagValueError(argparse.ArgumentTypeError, ValueError):
    """A rejected flag value; argparse prints its message, library callers catch a ValueError."""


def parse_grid(text: str) -> list[float]:
    """Parse `a..b:step`, `a..b`, `v1,v2,...`, or a single value.

    Raises ValueError unless the grid holds 1..MAX_GRID_POINTS points; a
    range's point count is checked before its list is built.
    """
    text = text.strip()
    if ".." not in text:
        values = text.split(",")
        if len(values) > MAX_GRID_POINTS:
            raise FlagValueError(f"grid must hold at most {MAX_GRID_POINTS} points")
        return [float(v) for v in values]
    span, _, step_text = text.partition(":")
    a_text, _, b_text = span.partition("..")
    a, b = float(a_text), float(b_text)
    step = float(step_text) if step_text else 1.0
    if not all(map(math.isfinite, (a, b, step))):
        raise FlagValueError(f"grid range must be finite, got {text!r}")
    if step <= 0:
        raise FlagValueError(f"grid step must be positive, got {step}")
    ratio = (b - a) / step
    if not 0.0 <= ratio <= MAX_GRID_POINTS - 1:
        raise FlagValueError(f"grid {text!r} must hold 1..{MAX_GRID_POINTS} points")
    count = round(ratio)
    if abs(ratio - count) > 1e-9:
        count = math.floor(ratio + 1e-12)
    return [a + i * step for i in range(count + 1)]


def parse_int_grid(text: str) -> list[int]:
    out = []
    for v in parse_grid(text):
        if not (math.isfinite(v) and abs(v - round(v)) <= 1e-9):
            raise FlagValueError(f"expected integer grid values, got {v}")
        out.append(int(round(v)))
    return out


def parse_complex(text: str) -> complex:
    text = text.strip()
    if "," in text:
        re_text, im_text = text.split(",")
        return complex(float(re_text), float(im_text))
    return complex(float(text), 0.0)


def positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise FlagValueError(f"must be positive, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise FlagValueError(f"must be >= 1, got {value}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_doc(payload) -> str:
    """JSON with sorted keys and an indent of 2; a VerificationReport writes its own, from its columns."""
    if isinstance(payload, verify.VerificationReport):
        return payload.to_json()
    return json.dumps(payload, sort_keys=True, indent=2)


# flags each eval target and table kind reads, with their defaults
TARGET_FLAGS = {
    "eval": {
        "superhyp": {"n": [2], "x": [1.0], "method": "series"},
        "bessel": {"x": [1.0], "kmax": 10},
        "trace": {"n": [2], "x": [1.0], "w": 1 + 0j, "j": 0},
    },
    "table": {
        "superhyp": {"n": [3], "x": [1.0], "method": "series", "format": "csv"},
        "identity": {"n": [3], "x": [1.0], "format": "csv"},
        "bessel": {"x": [1.0], "kmax": 8, "format": "csv"},
    },
}
EVAL_OPS = tuple(TARGET_FLAGS["eval"])
TABLE_KINDS = tuple(TARGET_FLAGS["table"])


def _target_flags(command: str) -> list[str]:
    """Every flag some target of `command` reads, in first-seen order."""
    return list(dict.fromkeys(f for reads in TARGET_FLAGS[command].values() for f in reads))


def _apply_target_flags(args, command: str, target: str) -> None:
    """Fill the target's defaults; a flag the target does not read is a usage error."""
    reads = TARGET_FLAGS[command][target]
    for flag in _target_flags(command):
        if getattr(args, flag) is None:
            setattr(args, flag, reads.get(flag))
        elif flag not in reads:
            raise ValueError(f"{command} {target} takes no --{flag}")


def cmd_eval(args) -> int:
    _apply_target_flags(args, "eval", args.target)
    records = []
    if args.target == "superhyp":
        for n in args.n:
            values = hyperbolic.c_all(n, args.x, args.method).values
            records.extend(
                {
                    "op": "superhyp",
                    "params": {"n": n, "x": x, "method": args.method},
                    "values": row,
                }
                for x, row in zip(args.x, values.tolist())
            )
    elif args.target == "bessel":
        for x in args.x:
            table = bessel.bessel_table(args.kmax, x)
            records.append(
                {
                    "op": "bessel",
                    "params": {"x": x, "kmax": args.kmax},
                    "values": [float(v) for v in table.values],
                    "norm_residual": table.norm_residual,
                }
            )
    else:
        # one call per level on the whole x grid, each trace bit for bit its one-cell call
        weights = [args.w] * len(args.x)
        for n in args.n:
            values = genmatrix.trace_projection(n, args.x, weights, args.j).tolist()
            records.extend(
                {
                    "op": "trace",
                    "params": {"n": n, "x": x, "w": verify.complex_payload(args.w), "j": args.j},
                    "value": verify.complex_payload(value),
                }
                for x, value in zip(args.x, values)
            )
    _emit("\n".join(json.dumps(r, sort_keys=True) for r in records), args.out)
    return EXIT_PASS


# verify flag -> keyword of the suite functions; w and alpha are single
# values on the command line, lists in the suites
SUITE_KEYWORDS = {
    "n": "n_values", "N": "N_values", "x": "x_values", "w": "w_values", "alpha": "alphas",
    "kmax": "kmax", "trials": "trials", "seed": "seed", "mode": "mode", "tol": "tol",
}


def cmd_verify(args) -> int:
    takes = inspect.signature(verify.SUITES[args.suite]).parameters
    kwargs = {}
    for flag, keyword in SUITE_KEYWORDS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if keyword not in takes:
            raise ValueError(f"suite {args.suite} takes no --{flag}")
        kwargs[keyword] = [value] if flag in ("w", "alpha") else value
    report = verify.run_suite(args.suite, **kwargs)
    _emit(_json_doc(report), args.out)
    return EXIT_PASS if report.passed else EXIT_VERIFY_FAIL


def _one(args, flag: str, where: str):
    """The single value of a grid flag that `where` reads one point of."""
    values = getattr(args, flag)
    if len(values) != 1:
        raise ValueError(f"{where} takes one --{flag} value, got {len(values)}")
    return values[0]


def _rows_superhyp(args) -> tuple[list[str], list[list]]:
    n = _one(args, "n", "table superhyp")
    xs = sorted(args.x)
    values = hyperbolic.c_all(n, xs, args.method).values  # checks n before the header counts to it
    header = ["x"] + [f"c{j}" for j in range(n)]
    return header, [[x] + row for x, row in zip(xs, values.tolist())]


def _rows_identity(args) -> tuple[list[str], list[list]]:
    n = _one(args, "n", "table identity")
    xs = sorted(args.x)
    residuals = hyperbolic.fundamental_identity_residual(n, xs).tolist()
    return ["x", "residual"], [[x, r] for x, r in zip(xs, residuals)]


def _rows_bessel(args) -> tuple[list[str], list[list]]:
    values = bessel.bessel_table(args.kmax, _one(args, "x", "table bessel")).values
    return ["order", "value"], [[k, float(values[k])] for k in range(args.kmax + 1)]


def cmd_table(args) -> int:
    _apply_target_flags(args, "table", args.kind)
    header, rows = {
        "superhyp": _rows_superhyp,
        "identity": _rows_identity,
        "bessel": _rows_bessel,
    }[args.kind](args)
    if args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        writer.writerows(rows)  # str(float) is the shortest round-trip form
        text = buffer.getvalue()
    else:
        text = _json_doc([dict(zip(header, row)) for row in rows])
    _emit(text, args.out)
    return EXIT_PASS


# every option flag; each subcommand adds the ones it reads, plus --out
FLAGS = {
    "n": {"type": parse_int_grid, "help": "level grid, e.g. 2..8"},
    "N": {"type": parse_int_grid, "help": "half-width grid"},
    "x": {"type": parse_grid, "help": "argument grid, e.g. -3..3:0.5"},
    "w": {"type": parse_complex, "help": "complex as re,im (or re)"},
    "j": {"type": int, "help": "class index"},
    "method": {"choices": hyperbolic.METHODS},
    "mode": {"choices": ("cyclic", "open")},
    "alpha": {"type": float, "help": "gauge offset in [0,1)"},
    "kmax": {"type": int, "help": "highest order / truncation"},
    "tol": {"type": positive_float, "help": "tolerance override"},
    "trials": {"type": positive_int, "help": "random trials per level"},
    "seed": {"type": int},
    "format": {"choices": ("json", "csv")},
    "out": {"help": "write output to this path"},
}


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # accept grid values like -3..3:0.5 as option values, not flags
        self._negative_number_matcher = re.compile(r"^-\d")


def _add_flags(sub, *names) -> None:
    for name in (*names, "out"):
        sub.add_argument(f"--{name}", **FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="superhyp",
        description="Evaluate and verify the cyclic-shift exponential identities.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("eval", help="print requested values as JSON lines")
    sub.add_argument("target", choices=EVAL_OPS)
    _add_flags(sub, *_target_flags("eval"))
    sub.set_defaults(handler=cmd_eval)

    sub = commands.add_parser("verify", help="run an identity suite; exit 0 iff it passes")
    sub.add_argument("suite", choices=verify.SUITE_NAMES)
    _add_flags(sub, *SUITE_KEYWORDS)
    sub.set_defaults(handler=cmd_verify)

    sub = commands.add_parser("table", help="emit a CSV or JSON table")
    sub.add_argument("kind", choices=TABLE_KINDS)
    _add_flags(sub, *_target_flags("table"))
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
