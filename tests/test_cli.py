import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_report import document

import superhyp
from superhyp import cli, genmatrix, hyperbolic, verify


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_parse_grid_range_with_step():
    values = cli.parse_grid("-3..3:0.5")
    assert len(values) == 13
    assert values[0] == -3.0 and values[-1] == 3.0


def test_parse_grid_range_default_step():
    assert cli.parse_int_grid("2..8") == [2, 3, 4, 5, 6, 7, 8]


def test_parse_grid_single_and_list():
    assert cli.parse_grid("1.5") == [1.5]
    assert cli.parse_grid("0.5,1,2") == [0.5, 1.0, 2.0]


def test_parse_grid_non_integral_span_truncates():
    values = cli.parse_grid("0..1:0.4")
    assert values == [0.0, 0.4, 0.8]


def test_parse_grid_rejects_bad_step():
    with pytest.raises(ValueError):
        cli.parse_grid("0..1:-0.5")


def test_parse_complex_forms():
    assert cli.parse_complex("1") == 1 + 0j
    assert cli.parse_complex("0.5,-2") == 0.5 - 2j


def test_eval_superhyp_values_sum_to_exp(capsys):
    code, out = run_cli(capsys, "eval", "superhyp", "--n", "3", "--x", "1", "--method", "filter")
    assert code == 0
    record = json.loads(out)
    assert record["op"] == "superhyp"
    assert len(record["values"]) == 3
    assert abs(sum(record["values"]) - math.e) <= 1e-12


def test_eval_bessel_at_zero(capsys):
    code, out = run_cli(capsys, "eval", "bessel", "--x", "0", "--kmax", "4")
    assert code == 0
    record = json.loads(out)
    assert record["values"] == [1.0, 0.0, 0.0, 0.0, 0.0]


def test_eval_trace_is_cosh(capsys):
    code, out = run_cli(capsys, "eval", "trace", "--n", "2", "--x", "1", "--w", "1", "--j", "0")
    assert code == 0
    record = json.loads(out)
    assert abs(record["value"]["re"] - 1.5430806348152437) <= 1e-12
    assert abs(record["value"]["im"]) <= 1e-14


def test_eval_trace_is_the_per_point_loop_byte_for_byte(capsys):
    # one trace_projection call per level over 121 x: the lines of one call per point
    argv = ["eval", "trace", "--n", "2,5,64", "--x", "-20..20:0.3333333", "--w", "0.8,0.3", "--j", "1"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    args = cli.build_parser().parse_args(argv)
    assert len(args.x) >= 100
    records = [
        {
            "op": "trace",
            "params": {"n": n, "x": x, "w": verify.complex_payload(args.w), "j": 1},
            "value": verify.complex_payload(genmatrix.trace_projection(n, x, args.w, 1)),
        }
        for n in args.n
        for x in args.x
    ]
    assert out == "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"


def test_eval_emits_one_json_object_per_grid_point(capsys):
    code, out = run_cli(capsys, "eval", "superhyp", "--n", "2..4", "--x", "0..1:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    # one c_all call per n over the grid: each record is the call at its own x
    for line in lines:
        record = json.loads(line)
        n, x = record["params"]["n"], record["params"]["x"]
        assert record["values"] == hyperbolic.c_all(n, x).values.tolist()


def test_verify_superhyp_passes(capsys):
    code, out = run_cli(capsys, "verify", "superhyp", "--n", "2..8", "--x", "-3..3:0.5")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_residual"] <= 1e-9
    assert all(case["pass"] for case in report["cases"])


def test_verify_exit_code_on_impossible_tolerance(capsys):
    code, out = run_cli(capsys, "verify", "superhyp", "--n", "3", "--tol", "1e-30")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False


def test_verify_circle_reports_corner_defect(capsys):
    code, out = run_cli(capsys, "verify", "circle", "--N", "2", "--mode", "cyclic")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    defects = [
        case["details"]["corner_defect"]
        for case in report["cases"]
        if case["inputs"].get("check") == "commutator"
    ]
    assert defects == [-5]


def test_verify_addition_seeded(capsys):
    code, out = run_cli(
        capsys, "verify", "addition", "--n", "5", "--trials", "100", "--seed", "0"
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["cases"]) == 100


def test_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "everything"])
    assert info.value.code == 2


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2


def test_domain_error_exit_code(capsys):
    code = cli.main(["eval", "superhyp", "--n", "3", "--x", "1000"])
    assert code == 3


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["eval", "superhyp", "--x", "0..inf"], 2),
        (["verify", "genmatrix", "--w", "0"], 3),
        (["verify", "genmatrix", "--w", "1e-200"], 3),
        (["verify", "bessel", "--w", "1e-200"], 3),
        (["verify", "bessel", "--x", "0", "--w", "1e-200"], 3),
        (["verify", "genmatrix", "--x", "0", "--w", "1e-200"], 3),
        (["eval", "superhyp", "--n", "1e400"], 2),
        (["eval", "superhyp", "--n", "inf"], 2),
        (["eval", "superhyp", "--n", "1e300"], 3),
        (["verify", "pauli", "--x", "5"], 2),
        (["verify", "addition", "--trials", "20000"], 3),
        (["verify", "mixed", "--seed", "-1"], 3),
        (["eval", "superhyp", "--x", "-1e300"], 3),
        (["eval", "bessel", "--n", "5,6", "--j", "3", "--method", "filter", "--x", "1"], 2),
        (["table", "bessel", "--n", "2,3,4", "--method", "filter"], 2),
        (["table", "identity", "--kmax", "4", "--method", "filter"], 2),
        (["eval", "superhyp", "--kmax", "3", "--w", "2", "--j", "1"], 2),
        (["table", "superhyp", "--kmax", "5"], 2),
    ],
)
def test_bad_input_exits_with_error_line_not_traceback(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(Path(superhyp.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "superhyp", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == expected, proc.stderr
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    # a huge value (--n 1e300 is a 301-digit integer) is echoed abbreviated
    assert all(len(line) < 200 for line in proc.stderr.splitlines() if "error:" in line)


def test_an_oversized_pair_grid_exits_before_it_grows():
    # 2858 trials of levels 2..8 are 100030 mixed cases: run, about 300 MB of reports.
    # A launcher reads the peak RSS, since exec carries a parent's peak into its child's
    launcher = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    argv = [sys.executable, "-m", "superhyp", "verify", "mixed", "--n", "2..8", "--trials", "2858"]
    env = dict(os.environ, PYTHONPATH=str(Path(superhyp.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", launcher, *argv], capture_output=True, text=True, env=env, check=True)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 3 and proc.stderr.startswith("error: invalid-grid: need at most 100000 cases")
    assert peak_kb < 100 * 1024  # the import alone takes about 30 MB


def test_the_cli_import_builds_no_dataclass():
    # every record is a NamedTuple, so no CLI process pays for the dataclasses import or its code generation
    env = dict(os.environ, PYTHONPATH=str(Path(superhyp.__file__).parents[1]))
    code = "import sys, superhyp.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "False\n"

@pytest.mark.parametrize(
    "argv",
    [
        ("superhyp", "--n", "2..11", "--x", "-3..3:0.0015"),
        ("bessel", "--x", "0.001..5:0.001"),
        ("genmatrix", "--n", "2..20", "--x", "0.1..2:0.01"),
    ],
)
def test_an_oversized_grid_is_one_error_line(capsys, argv):
    # no circle grid reaches the cap here: 10000 half-widths x (3 x 2 modes + 3 gauges) are 90000 cases
    code = cli.main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"error: invalid-grid: need at most 100000 cases in verify {argv[0]} ")


def test_the_cli_import_loads_no_module_beyond_its_budget():
    # the cli-process setup time is this import, after numpy: it may load
    # superhyp's own modules and these, and nothing more
    budget = {
        "__future__", "_csv", "_json", "argparse", "cmath", "csv", "gettext",
        "json", "json.decoder", "json.encoder", "json.scanner",
    }
    env = dict(os.environ, PYTHONPATH=str(Path(superhyp.__file__).parents[1]))
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import superhyp.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert {m for m in loaded if m.split(".")[0] != "superhyp"} <= budget
    assert {"superhyp", "superhyp.cli", "superhyp.verify"} <= loaded


@pytest.mark.parametrize("n, x", [("2", "400"), ("4", "-180"), ("3", "355")])
def test_superhyp_grid_past_the_identity_domain_is_one_error_line(n, x):
    # at n <= 4 a class value's n-th power would overflow in the printed polynomial
    env = dict(os.environ, PYTHONPATH=str(Path(superhyp.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "superhyp", "verify", "superhyp", "--n", n, "--x", x],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == f"error: overflow-domain: need |x| <= 10.0, got {float(x)}\n"


def test_verify_bessel_default_truncation_follows_x(capsys):
    # without --kmax each x takes max(80, ceil(2 max(8, |x|))), the least
    # order the classical identities accept; the default grid keeps 80
    code, out = run_cli(capsys, "verify", "bessel", "--x", "0.5..50:0.5")
    report = json.loads(out)
    assert code == 0 and report["pass"] and len(report["cases"]) == 2430
    orders = {c["inputs"]["x"]: c["inputs"]["K"] for c in report["cases"] if c["inputs"]["identity"] == "exp"}
    assert orders[40.0] == 80 and orders[40.5] == 81 and orders[50.0] == 100
    assert report["params"]["kmax"] == 100
    code, out = run_cli(capsys, "verify", "bessel")
    assert code == 0 and json.loads(out)["params"]["kmax"] == 80
    # an explicit kmax below the bound is still a domain error
    assert run_cli(capsys, "verify", "bessel", "--x", "50", "--kmax", "99")[0] == 3


@pytest.mark.parametrize(
    "argv", [["verify", "pauli", "--x", "5"], ["verify", "bessel", "--n", "3"]]
)
def test_flag_the_suite_does_not_take_is_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    assert f"error: suite {argv[1]} takes no {argv[2]}" in capsys.readouterr().err


def test_every_suite_keyword_has_a_verify_flag():
    # cmd_verify reads each suite's keywords through inspect.signature
    for suite, run in verify.SUITES.items():
        assert set(inspect.signature(run).parameters) <= set(cli.SUITE_KEYWORDS.values()), suite


def test_targets_without_flags_keep_their_defaults(capsys):
    params = {
        "superhyp": {"n": 2, "x": 1.0, "method": "series"},
        "bessel": {"x": 1.0, "kmax": 10},
        "trace": {"n": 2, "x": 1.0, "w": {"re": 1.0, "im": 0.0}, "j": 0},
    }
    for target, expected in params.items():
        _, out = run_cli(capsys, "eval", target)
        assert json.loads(out)["params"] == expected
    for kind, header, rows in (("superhyp", "x,c0,c1,c2", 1), ("identity", "x,residual", 1), ("bessel", "order,value", 9)):
        _, out = run_cli(capsys, "table", kind)
        lines = out.splitlines()
        assert lines[0] == header and len(lines) == 1 + rows and lines[1].startswith(("1.0,", "0,"))


@pytest.mark.parametrize("command", sorted(cli.TARGET_FLAGS))
def test_flag_the_target_does_not_take_is_usage_error(command, capsys):
    values = {"n": "3", "x": "1", "w": "1", "j": "0", "method": "series", "kmax": "4", "format": "csv"}
    for target, reads in cli.TARGET_FLAGS[command].items():
        for flag in cli._target_flags(command):
            code = cli.main([command, target, f"--{flag}", values[flag]])
            err = capsys.readouterr().err
            if flag in reads:
                assert code == 0, (command, target, flag, err)
            else:
                assert code == 2 and f"error: {command} {target} takes no --{flag}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["table", "bessel", "--x", "1,2"], "table bessel takes one --x value"),
        (["table", "superhyp", "--n", "3,4"], "table superhyp takes one --n value"),
        (["table", "identity", "--n", "2,3"], "table identity takes one --n value"),
    ],
)
def test_grid_where_one_value_is_read_is_usage_error(argv, message, capsys):
    assert cli.main(argv) == 2
    assert f"error: {message}, got 2" in capsys.readouterr().err


def test_rejected_grid_names_the_reason(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "superhyp", "--x", "0..20000"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"must hold 1..{cli.MAX_GRID_POINTS} points" in err
    assert "invalid parse_grid value" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "superhyp", "--n", "3..1"],
        ["verify", "superhyp", "--tol", "0"],
        ["verify", "addition", "--trials", "0"],
        ["eval", "superhyp", "--y", "1"],
        ["bench", "circulant-exp-dense", "--n", "4"],
        ["verify", "mixed", "--trials", "2.7"],
    ],
)
def test_argparse_rejects_empty_grids_bad_knobs_and_foreign_flags(argv, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2


def test_eval_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "eval", "superhyp", "--n", "4", "--x", "-2..2:0.5")
    _, second = run_cli(capsys, "eval", "superhyp", "--n", "4", "--x", "-2..2:0.5")
    assert first == second


# the one timing field of a report; everything else is byte-deterministic
_WALL_TIME = re.compile(r'"wall_time_ms": [^\n]*')


def test_verify_report_deterministic_up_to_wall_time(capsys):
    for suite in verify.SUITE_NAMES:
        argv = ("verify", suite, "--seed", "7") if suite in ("addition", "mixed") else ("verify", suite)
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert _WALL_TIME.sub("", first) == _WALL_TIME.sub("", second), suite
        assert len(_WALL_TIME.findall(first)) == 1


REFERENCE_GRIDS = [[s] for s in verify.SUITE_NAMES] + [
    ["mixed", "--n", "2..32"],
    ["genmatrix", "--n", "2..16", "--x", "0.5..20:0.5", "--w", "0.8"],
    ["bessel", "--x", "1e-310,5e-324,1e-300,-1e-16"],
    ["circle", "--tol", "0.5"],
    ["superhyp", "--n", "3", "--tol", "1e-30"],
]


@pytest.mark.parametrize("argv", REFERENCE_GRIDS, ids=" ".join)
def test_verify_stdout_is_the_reference_emitter_byte_for_byte(monkeypatch, capsys, argv):
    # the column writer against the per-case emitter it replaced, on the same report;
    # only the added "checks" block is skipped
    reports = []
    run_suite = verify.run_suite

    def kept(suite, **kwargs):
        reports.append(run_suite(suite, **kwargs))
        return reports[-1]

    monkeypatch.setattr(verify, "run_suite", kept)
    code, out = run_cli(capsys, "verify", *argv)
    (report,) = reports
    assert code == (cli.EXIT_PASS if report.passed else cli.EXIT_VERIFY_FAIL)
    checks = re.compile(r'\n  "checks": \{\n.*?\n  \},', re.S)
    assert len(checks.findall(out)) == 1
    assert checks.sub("", out) == document(report) + "\n"
    if argv[0] == "bessel" and len(argv) > 1:
        assert '"underflow"' in out


def test_table_superhyp_csv_shape_and_round_trip(capsys):
    code, out = run_cli(
        capsys, "table", "superhyp", "--n", "4", "--x", "-3..3:0.5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["x", "c0", "c1", "c2", "c3"]
    assert len(lines) == 14
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 5
        x = float(cells[0])
        for j in range(4):
            assert float(cells[j + 1]) == hyperbolic.c_series(4, j, x)


def test_table_identity_residuals_small(capsys):
    code, out = run_cli(
        capsys, "table", "identity", "--n", "3", "--x", "0..2:0.25", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 9
    for line in lines:
        assert float(line.split(",")[1]) <= 1e-11


def test_table_bessel_json_descending(capsys):
    code, out = run_cli(
        capsys, "table", "bessel", "--x", "1", "--kmax", "8", "--format", "json"
    )
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 9
    values = [e["value"] for e in entries]
    assert all(a > b for a, b in zip(values[1:], values[2:]))


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["verify", "pauli", "--n", "2..4", "--out", str(target)])
    assert code == 0
    report = json.loads(target.read_text())
    assert report["suite"] == "pauli"
    assert capsys.readouterr().out == ""


def test_unwritable_out_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "report.json"
    code = cli.main(["verify", "pauli", "--n", "2..3", "--out", str(target)])
    assert code == 2


# -- every argv ends in an exit code ------------------------------------------

def _int_grids(lo, hi):
    return st.one_of(
        st.integers(lo, hi).map(str),
        st.lists(st.integers(lo, hi), min_size=2, max_size=3).map(lambda v: ",".join(map(str, v))),
        st.tuples(st.integers(lo, hi), st.integers(0, 2)).map(lambda a: f"{a[0]}..{a[0] + a[1]}"),
    )


_REALS = st.floats(-5, 5, allow_nan=False).map(repr)
# the size budget: no drawn value starts more than a fraction of a second of work
_GOOD = {
    "n": _int_grids(2, 6),
    "N": _int_grids(1, 4),
    "x": st.one_of(
        _REALS,
        st.lists(_REALS, min_size=2, max_size=3).map(",".join),
        st.tuples(st.integers(-5, 3), st.sampled_from(["0.5", "1", "2"])).map(
            lambda a: f"{a[0]}..{a[0] + 2}:{a[1]}"
        ),
    ),
    "w": st.one_of(_REALS, st.tuples(_REALS, _REALS).map(",".join)),
    "j": st.integers(0, 6).map(str),
    "method": st.sampled_from(cli.FLAGS["method"]["choices"]),
    "mode": st.sampled_from(cli.FLAGS["mode"]["choices"]),
    "alpha": st.floats(0, 1, exclude_max=True).map(repr),
    "kmax": st.integers(0, 60).map(str),
    "tol": st.sampled_from(["1e-12", "1e-8", "1e-3", "1e-30"]),
    "trials": st.integers(1, 3).map(str),
    "seed": st.integers(0, 9).map(str),
    "format": st.sampled_from(cli.FLAGS["format"]["choices"]),
    "out": st.sampled_from(["out.txt", "missing/out.txt"]),
}
_MALFORMED = st.sampled_from(
    ["", " ", "nan", "inf", "-inf", "1e400", "1e300", "-1", "0", "2.5", "3..1", "1..", "..",
     "0..1:0", "1,,2", "1,2,3,4", "a", "0,1", "1j", "--n", "-", "1e-320"]
)
_COMMANDS = [("eval", t) for t in cli.EVAL_OPS] + [("verify", s) for s in verify.SUITE_NAMES]
_COMMANDS += [("table", k) for k in cli.TABLE_KINDS]


@st.composite
def _argv(draw):
    command = list(draw(st.sampled_from(_COMMANDS)))
    flags = draw(st.lists(st.sampled_from(sorted(cli.FLAGS)), max_size=4, unique=True))
    argv = command
    for flag in flags:
        value = draw(st.one_of(_GOOD[flag], _GOOD[flag], _GOOD[flag], _MALFORMED))
        argv += [f"--{flag}", value]
    return draw(st.permutations(argv)) if draw(st.booleans()) and len(argv) < 5 else argv


@settings(max_examples=150, deadline=None)
@given(_argv())
@example(["verify", "addition", "--trials", "20000"])
@example(["table", "bessel", "--x", "1,2", "--out", "missing/out.txt"])
def test_every_argv_ends_in_an_exit_code(argv):
    # run in a scratch directory, where any drawn --out value lands
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                    assert code == 2, argv
        finally:
            os.chdir(home)
    assert code in (0, 1, 2, 3), argv


# -- every flag a target reads, at the edges of its domain ---------------------

# zero, +-1e-300, the |x| caps of the identities (10), of the weight (ARG_MAX = 50)
# and of the series (700), just past each, non-finite and huge values
_EDGE_REALS = ["0", "1e-300", "-1e-300", "10", "-10", "10.5", "50", "-50", "50.5", "700", "-700", "701",
               "nan", "inf", "-inf", "1e308", "-1e308"]
# sizes stop at small edges, so no drawn run is slow
_EDGES = {
    "n": ["2", "1", "0", "-2", "1e308", "nan", "inf"],
    "N": ["1", "0", "1e308", "nan"],
    "x": _EDGE_REALS,
    "w": [*_EDGE_REALS, "0.02", "0.0199", "1e-300,1", "0,1e308", "nan,1", "1,inf"],
    "j": ["0", "5", "6", "-1", "1e308"],
    "alpha": [*_EDGE_REALS, "0.9999999999999999", "1"],
    "kmax": ["0", "-1", "15", "16", "20"],
    "trials": ["1", "0", "10001", "1e308"],
    "seed": ["0", "-1", str(2**64 - 1), str(2**64)],
    "tol": ["1e-300", "1e308", "inf", "nan", "0", "-1e-300"],
}


def test_every_valued_flag_has_edge_values():
    # a new flag that takes a number gets its edges here; choice flags and --out have none
    choices = {flag for flag, spec in cli.FLAGS.items() if "choices" in spec}
    assert set(_EDGES) == set(cli.FLAGS) - choices - {"out"}


def _reads(command, target):
    """The flags `command target` reads: its TARGET_FLAGS, or the suite's SUITE_KEYWORDS."""
    if command == "verify":
        takes = inspect.signature(verify.SUITES[target]).parameters
        return [flag for flag, keyword in cli.SUITE_KEYWORDS.items() if keyword in takes]
    return list(cli.TARGET_FLAGS[command][target])


@st.composite
def _reading_argv(draw):
    command, target = draw(st.sampled_from(_COMMANDS))
    reads = _reads(command, target)
    argv = [command, target]
    for flag in draw(st.lists(st.sampled_from(reads), max_size=len(reads), unique=True)):
        edges = _EDGES.get(flag)
        value = draw(st.one_of(_GOOD[flag], st.sampled_from(edges)) if edges else _GOOD[flag])
        argv += [f"--{flag}", value]
    return argv


@settings(max_examples=200, deadline=None)
@given(_reading_argv())
@example(["verify", "superhyp", "--n", "2", "--x", "400"])
@example(["verify", "superhyp", "--n", "4", "--x", "-180"])
@example(["verify", "superhyp", "--x", "1e308"])
@example(["table", "identity", "--x", "-10,10"])
@example(["eval", "trace", "--x", "1e-300", "--w", "0.02"])
@example(["table", "superhyp", "--n", "1e308"])  # n is checked before the header is built
def test_every_flag_a_target_reads_ends_in_an_exit_code_at_its_edges(argv):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                    assert code == 2, argv
        finally:
            os.chdir(home)
    assert code in (0, 1, 2, 3), argv
