import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import superhyp
from superhyp import cli


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


def test_eval_emits_one_json_object_per_grid_point(capsys):
    code, out = run_cli(capsys, "eval", "superhyp", "--n", "2..4", "--x", "0..1:0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    for line in lines:
        json.loads(line)


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


def test_eval_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "eval", "superhyp", "--n", "4", "--x", "-2..2:0.5")
    _, second = run_cli(capsys, "eval", "superhyp", "--n", "4", "--x", "-2..2:0.5")
    assert first == second


def test_verify_report_deterministic_up_to_wall_time(capsys):
    argv = ("verify", "addition", "--n", "2..4", "--trials", "20", "--seed", "7")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("wall_time_ms"), b.pop("wall_time_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_table_superhyp_csv_shape_and_round_trip(capsys):
    code, out = run_cli(
        capsys, "table", "superhyp", "--n", "4", "--x", "-3..3:0.5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["x", "c0", "c1", "c2", "c3"]
    assert len(lines) == 14
    from superhyp import hyperbolic

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


def test_bench_smoke(capsys):
    code, out = run_cli(capsys, "bench", "circulant-exp-spectral", "--n", "4,8")
    assert code == 0
    payload = json.loads(out)
    assert payload["op"] == "circulant-exp-spectral"
    assert [r["n"] for r in payload["results"]] == [4, 8]
    assert all(len(r["times_ms"]) == 5 for r in payload["results"])


def test_bench_large_spectral_stays_fast(capsys):
    code, out = run_cli(capsys, "bench", "circulant-exp-spectral", "--n", "1024")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["median_ms"] < 10_000.0
