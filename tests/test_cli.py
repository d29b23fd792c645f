"""End-to-end tests for the ``seqrel`` command-line interface.

Each test drives :func:`seqrel.cli.main` in process and freezes the JSON/CSV
output, so any change to defaults, formatting, or exit codes shows up here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import pytest

from seqrel import cli
from seqrel.cli import main
from seqrel.compare import BENCH_FIELD, BenchRow, run_algorithm, verify_result
from seqrel.monomials import parse_monomial, parse_order
from seqrel.sequences import make_generator


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors exit directly
            code = int(exc.code or 0)
    return code, out.getvalue(), err.getvalue()


def poly_strings(entries: list[dict]) -> list[str]:
    return [f"{c['coefficient']}*{c['monomial']}" for c in entries]


def write_table(tmp_path, data) -> str:
    path = tmp_path / "table.json"
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# seqrel run


def test_run_bms_binomial_golden():
    code, out, _ = run_cli(
        ["run", "--algo", "bms", "--generator", "binomial", "--bound", "x^3"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["algorithm"] == "bms"
    assert data["field"] == "Fp:65537"  # default field
    assert data["order"] == "drl(y<x)"  # default order
    assert data["bound"] == "x^3"
    assert data["queries"] == 10
    assert data["staircase"] == ["1", "y", "x"]
    rels = [(r["shift"], poly_strings(r["poly"])) for r in data["relations"]]
    assert rels == [
        ("x", ["1*y^2"]),
        ("x", ["1*x*y", "65536*y", "65536*1"]),
        ("x", ["1*x^2", "65535*x", "1*1"]),
    ]
    assert all(r["tested"] for r in data["relations"])


def test_run_bms_trace_lines():
    code, out, _ = run_cli(
        ["run", "--algo", "bms", "--generator", "binomial", "--bound", "x^3", "--trace"]
    )
    assert code == 0
    data = json.loads(out)
    trace = data["trace"]
    assert len(trace) == 10
    assert trace[0] == (
        "m = 1: fail {1: 1}; staircase {1}; y := y [translate 1], x := x [translate 1]"
    )
    assert trace[-1] == "m = x^3: pass"


def test_run_sfglm_pow23_golden():
    code, out, _ = run_cli(
        ["run", "--algo", "sfglm", "--generator", "pow23", "--degree", "2", "--field", "Q"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "Q"
    assert data["queries"] == 15
    assert data["staircase"] == ["1", "x"]
    assert data["certified_shift_set"] == ["1", "y", "x", "y^2", "x*y", "x^2"]
    gb = [poly_strings(g) for g in data["gb"]]
    assert gb == [
        ["1*y", "-3*1"],
        ["1*x^2", "-4*x", "4*1"],
    ]


def test_run_rank_binomial_golden():
    code, out, _ = run_cli(
        ["run", "--algo", "rank", "--generator", "binomial", "--bound", "x^3"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["algorithm"] == "rank"
    assert data["queries"] == 10
    rels = [(r["shift"], r["open"], poly_strings(r["poly"])) for r in data["relations"]]
    assert rels == [
        ("x", False, ["1*y^2"]),
        ("x", False, ["1*x*y", "65536*y", "65536*1"]),
        ("x", False, ["1*x^2", "65535*x", "1*1"]),
    ]


def test_run_sq_defaults_to_rationals():
    # the squares table needs characteristic zero; the default flips to Q
    code, out, _ = run_cli(["run", "--algo", "sfglm", "--generator", "sq", "--degree", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "Q"
    gb = [poly_strings(g) for g in data["gb"]]
    assert gb == [
        ["1*x*y", "-1*x", "-1*y", "1*1"],
        ["1*x^2", "-1*y^2", "-2*x", "2*y"],
        ["1*y^3", "-3*y^2", "3*y", "-1*1"],
    ]


def test_run_fib4_defaults_to_lex_order():
    code, out, _ = run_cli(["run", "--algo", "sfglm", "--generator", "fib4", "--degree", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "Fp:65537"
    assert data["order"] == "lex(z<y<x)"
    assert data["queries"] == 165
    gb = [poly_strings(g) for g in data["gb"]]
    assert gb == [
        ["1*z^2", "65536*z", "65536*1"],
        ["1*y", "65536*1"],
        ["1*x", "65534*z", "65535*1"],
    ]


def test_run_output_is_deterministic():
    argv = ["run", "--algo", "bms", "--generator", "binomial", "--bound", "x^3"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first == second  # byte-identical JSON on reruns


def test_run_table_input(tmp_path):
    path = write_table(
        tmp_path,
        {"field": "Fp:65537", "shape": [2, 2], "entries": ["1", "1", "1", "2"]},
    )
    code, out, _ = run_cli(["run", "--table", path, "--bound", "x"])
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "Fp:65537"  # taken from the table file
    assert data["queries"] == 3
    rels = [(r["shift"], poly_strings(r["poly"])) for r in data["relations"]]
    assert rels == [
        ("1", ["1*y", "65536*1"]),
        ("1", ["1*x", "65536*1"]),
    ]


def test_table_file_is_read_once_and_sets_the_default_order(tmp_path, monkeypatch):
    path = write_table(
        tmp_path,
        {"field": "Fp:65537", "shape": [2, 2, 2], "entries": ["1"] * 8},
    )
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", counting_open, raising=False)
    code, out, _ = run_cli(["run", "--table", path, "--bound", "x"])
    assert code == 0
    assert json.loads(out)["order"] == "drl(z<y<x)"  # from the table's dimension
    assert opened == [path]


def test_a_1d_table_runs_under_the_default_order(tmp_path):
    path = write_table(tmp_path, {"field": "Fp:7", "shape": [5], "entries": ["1", "2", "4", "1", "2"]})
    code, out, _ = run_cli(["run", "--table", path, "--bound", "x^2"])
    assert code == 0
    data = json.loads(out)
    assert data["order"] == "drl(x)"
    assert [poly_strings(r["poly"]) for r in data["relations"]] == [["1*x", "5*1"]]  # u_{i+1} = 2·u_i


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "source, order, message",
    [
        ([5], "drl(y<x)", "order drl(y<x) has 2 variables; the sequence has dimension 1"),
        ([2, 2, 2], "drl(y<x)", "order drl(y<x) has 2 variables; the sequence has dimension 3"),
        ([2, 2, 2, 2], None, "order drl(y<x) has 2 variables; the sequence has dimension 4"),
        ("fib4", "drl(y<x)", "order drl(y<x) has 2 variables; the sequence has dimension 3"),
        ("binomial", "drl(z<y<x)", "order drl(z<y<x) has 3 variables; the sequence has dimension 2"),
    ],
)
def test_exit_code_on_an_order_of_another_dimension(tmp_path, command, source, order, message):
    if isinstance(source, str):
        flags = ["--generator", source]
    else:
        entries = ["1"] * math.prod(source)
        flags = ["--table", write_table(tmp_path, {"field": "Fp:7", "shape": source, "entries": entries})]
    if order is not None:
        flags += ["--order", order]
    code, out, err = run_cli([command, *flags, "--bound", "x^2"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_run_table_field_override(tmp_path):
    path = write_table(
        tmp_path,
        {"field": "Fp:65537", "shape": [2, 2], "entries": ["1", "1", "1", "2"]},
    )
    code, out, _ = run_cli(["run", "--table", path, "--bound", "x", "--field", "Q"])
    assert code == 0
    data = json.loads(out)
    assert data["field"] == "Q"  # explicit flag wins over the file's field
    rels = [(r["shift"], poly_strings(r["poly"])) for r in data["relations"]]
    assert rels == [
        ("1", ["1*y", "-1*1"]),
        ("1", ["1*x", "-1*1"]),
    ]


def test_only_table_solvers_enumerate_the_bounds_down_set(monkeypatch):
    # bms and rank enumerate their own window, so `--bound` builds no table
    # for them; sfglm still gets the bound's down-set as T
    def refuse(*args):
        raise AssertionError("enumerate_up_to called for a scan solver")

    with monkeypatch.context() as mp:
        mp.setattr(cli, "enumerate_up_to", refuse)
        for algo in ("bms", "rank"):
            code, out, _ = run_cli(["run", "--algo", algo, "--generator", "binomial", "--bound", "x^3"])
            assert code == 0
            assert json.loads(out)["bound"] == "x^3"
    code, out, _ = run_cli(["run", "--algo", "sfglm", "--generator", "binomial", "--bound", "x^3"])
    assert code == 0
    assert json.loads(out)["certified_shift_set"] == [
        "1", "y", "x", "y^2", "x*y", "x^2", "y^3", "x*y^2", "x^2*y", "x^3"
    ]


def test_run_ideal_input_is_seed_deterministic():
    argv = [
        "run", "--algo", "sfglm", "--ideal", "y^2, x^2",
        "--order", "drl(y<x)", "--degree", "2", "--seed", "7",
    ]
    code, out, _ = run_cli(argv)
    assert code == 0
    assert run_cli(argv) == (code, out, "")
    data = json.loads(out)
    # generic initial values recover exactly the input ideal
    assert [g[0]["monomial"] for g in data["gb"]] == ["y^2", "x^2"]


# ---------------------------------------------------------------------------
# seqrel compare


def test_compare_verdicts():
    code, out, _ = run_cli(
        [
            "compare", "--generator", "binomial", "--bound", "x^5",
            "--degree", "3", "--algos", "bms,sfglm",
        ]
    )
    assert code == 0
    data = json.loads(out)
    assert sorted(data.keys()) == [
        "algorithms", "containment", "field", "ops", "order",
        "queries", "results", "shifts", "verified", "zero_dimensional",
    ]
    assert data["zero_dimensional"] == {"bms": True, "sfglm": False}
    assert data["containment"] == {"bms<=sfglm": False, "sfglm<=bms": True}
    assert data["queries"] == {"bms": 21, "sfglm": 28}


def test_compare_reports_verify_result_per_algorithm():
    code, out, _ = run_cli(
        [
            "compare", "--generator", "sq", "--field", "Q", "--bound", "x^4",
            "--degree", "2", "--algos", "bms,sfglm-tweaked,rank,bms",
        ]
    )
    assert code == 0
    data = json.loads(out)
    assert data["verified"] == {"bms": True, "sfglm-tweaked": True, "rank": True, "bms#2": True}


# ---------------------------------------------------------------------------
# seqrel bench


def test_bench_csv_output():
    code, out, _ = run_cli(
        ["bench", "--family", "simplex", "-n", "2", "-d", "2..3", "--algos", "bms,sfglm"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "family,n,d,algorithm,queries,mults,adds,staircase_size,dmax,wall_ms"
    )
    assert len(lines) == 5
    fixed = [",".join(ln.split(",")[:9]) for ln in lines[1:]]  # drop wall_ms
    assert fixed == [
        "simplex,2,2,bms,10,90,44,3,2",
        "simplex,2,2,sfglm,15,170,72,3,2",
        "simplex,2,3,bms,21,430,238,6,3",
        "simplex,2,3,sfglm,28,841,420,6,3",
    ]


@pytest.mark.parametrize("grid", ["5..4", "abc", "2..", "..2", "2..3..4", "-1"])
def test_exit_code_on_a_degenerate_bench_grid(grid):
    # rejected while parsing: no header, and no vacuous pass of --check
    code, out, err = run_cli(["bench", "--family", "simplex", "-n", "2", "-d", grid, "--check"])
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument -d: expected a degree d or a range lo..hi with lo <= hi, got {grid!r}\n")


@pytest.mark.parametrize("algos", [",", ""])
def test_exit_code_on_an_empty_bench_algorithm_list(algos):
    code, out, err = run_cli(["bench", "--family", "simplex", "-n", "2", "-d", "2", "--algos", algos, "--check"])
    assert (code, out, err) == (2, "", "error: no algorithm to bench\n")


def test_bench_writes_csv_file(tmp_path):
    dest = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        ["bench", "--family", "lshape", "-n", "2", "-d", "2", "--algos", "bms",
         "--out", str(dest)]
    )
    assert code == 0
    assert out == ""
    lines = dest.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("lshape,2,2,bms,10,")


def test_bench_check_matches_reference_queries():
    code, out, err = run_cli(["bench", "--family", "simplex", "-n", "2", "-d", "2..3", "--check"])
    assert code == 0
    assert len(out.splitlines()) == 5
    assert "MISMATCH" not in err
    assert err == "check: 4 points against reference, 0 mismatches\n"


def _row(algorithm: str, d: int, queries: int, family: str = "simplex") -> BenchRow:
    return BenchRow(family, 2, d, algorithm, queries, 0, 0, 0, d, 0.0)


def test_check_queries_reports_a_mismatch_and_exits_1(capsys):
    # simplex 2D: bms reads 10 terms at d = 2 and 21 at d = 3, sfglm 15 at d = 2
    rows = [_row("bms", 2, 10), _row("bms", 3, 22), _row("sfglm", 2, 15), _row("rank", 2, 9)]
    assert cli._check_queries(rows, 2) == 1
    assert capsys.readouterr().err == (
        "MISMATCH simplex n=2 d=3 bms: measured 22, reference 21\n"
        "MISMATCH simplex n=2 d=2 rank: measured 9, reference 10\n"
        "check: 4 points against reference, 2 mismatches\n"
    )


def test_check_queries_counts_points_without_reference_data(capsys):
    rows = [_row("bms", 2, 10), _row("bms-linalg", 2, 10), _row("sfglm", 99, 1), _row("bms", 2, 10, "rectangle")]
    assert cli._check_queries(rows, 2) == 0
    assert capsys.readouterr().err == "check: 1 points against reference, 0 mismatches, 3 without reference data\n"


def test_bench_check_holds_rank_to_the_bms_counts():
    code, _, err = run_cli(
        ["bench", "--family", "simplex", "-n", "2", "-d", "2..3", "--algos", "rank", "--check"]
    )
    assert (code, err) == (0, "check: 2 points against reference, 0 mismatches\n")


def test_bench_gnuplot_series():
    code, out, _ = run_cli(
        ["bench", "--family", "simplex", "-n", "2", "-d", "2..3", "--algos", "bms",
         "--gnuplot", "queries"]
    )
    assert code == 0
    assert out == "# simplex n=2 bms (queries)\n2 10\n3 21\n"


# ---------------------------------------------------------------------------
# seqrel gorenstein


def test_gorenstein_verdicts():
    code, out, _ = run_cli(
        ["gorenstein", "--ideal", "y^2, x^2", "--order", "drl(y<x)",
         "--trials", "5", "--seed", "1"]
    )
    assert (code, out) == (0, "Gorenstein-likely\n")

    code, out, _ = run_cli(
        ["gorenstein", "--ideal", "y^2, x*y, x^2", "--order", "drl(y<x)",
         "--trials", "5", "--seed", "1"]
    )
    assert (code, out) == (0, "NotGorenstein\n")


def test_gorenstein_on_two_bases_of_one_ideal():
    # <x^2 - y, y^2 - 1, x*y - x> = <y - 1, x^2 - 1>, but only the second set
    # is a Gröbner basis under drl(y<x)
    code, out, err = run_cli(["gorenstein", "--ideal", "x^2-y,y^2-1,x*y-x"])
    assert (code, out) == (2, "")
    assert "not a Gröbner basis under drl(y<x)" in err
    assert run_cli(["gorenstein", "--ideal", "y-1,x^2-1"])[:2] == (0, "Gorenstein-likely\n")


def test_exit_code_on_positive_dimensional_ideal_input_names_the_ideal():
    # a bound is given, so the message must not ask for one
    code, out, err = run_cli(["run", "--algo", "bms", "--ideal", "x^2,x*y", "--bound", "x^4"])
    assert (code, out) == (2, "")
    assert err == "error: the ideal <x*y, x^2> is positive-dimensional: its staircase is infinite\n"


def test_exit_code_on_ideal_input_that_is_not_a_groebner_basis():
    # these generators span the unit ideal, yet their staircase has 5 monomials
    code, out, err = run_cli(["run", "--algo", "sfglm", "--ideal", "x^2-y-1,y^2-x,x*y", "--degree", "3"])
    assert (code, out) == (2, "")
    assert "not a Gröbner basis" in err


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_on_parse_error():
    code, _, err = run_cli(["run", "--generator", "binomial", "--bound", "x^^3"])
    assert code == 2
    assert "error:" in err


def test_exit_code_on_missing_bound():
    code, _, err = run_cli(["run", "--generator", "binomial"])
    assert code == 2
    assert "stopping monomial" in err


def test_exit_code_on_missing_table_file():
    code, _, err = run_cli(["run", "--table", "/nonexistent/table.json", "--bound", "x"])
    assert code == 2
    assert "error:" in err


def test_exit_code_on_table_without_shape(tmp_path):
    # with no --order the default order reads the table's dimension
    path = write_table(tmp_path, {"field": "Fp:65537", "entries": ["1"]})
    code, out, err = run_cli(["run", "--table", path, "--bound", "x"])
    assert (code, out) == (2, "")
    assert err == "error: table JSON missing key 'shape'\n"


def test_exit_code_on_table_that_is_not_an_object(tmp_path):
    path = write_table(tmp_path, [1, 2])
    code, out, err = run_cli(["run", "--table", path, "--bound", "x", "--order", "drl(y<x)"])
    assert (code, out) == (2, "")
    assert err == "error: table JSON must be an object, got list\n"


def test_exit_code_on_table_with_a_shape_that_is_not_a_list(tmp_path):
    path = write_table(tmp_path, {"field": "Fp:65537", "shape": 5, "entries": ["1"]})
    code, out, err = run_cli(["run", "--table", path, "--bound", "x", "--order", "drl(y<x)"])
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed table JSON:")


@pytest.mark.parametrize("shape, count", [([-2, -3], 6), ([-1, -1], 1), ([], 1)])
def test_exit_code_on_table_with_a_degenerate_shape(tmp_path, shape, count):
    path = write_table(tmp_path, {"field": "Fp:65537", "shape": shape, "entries": ["3"] * count})
    code, out, err = run_cli(["run", "--table", path, "--bound", "x", "--order", "drl(y<x)"])
    assert (code, out) == (2, "")
    assert err == f"error: a table needs one or more dimensions, each at least 1, got shape {tuple(shape)}\n"


def test_exit_code_on_bound_exceeding_table(tmp_path):
    path = write_table(
        tmp_path,
        {"field": "Fp:65537", "shape": [2, 2], "entries": ["1", "1", "1", "2"]},
    )
    code, _, err = run_cli(["run", "--table", path, "--bound", "x^3"])
    assert code == 3  # truncated-table exhaustion has its own exit code
    assert "a table of shape at least (1, 3) is needed" in err


def test_exit_code_on_candidate_below_the_staircase(tmp_path):
    # lex(y<x), T = {1, y, x}: the shifted-staircase candidate y^2 lies below x
    path = write_table(
        tmp_path,
        {
            "field": "Fp:101",
            "shape": [3, 4],
            "entries": ["1", "2", "3", "5", "7", "11", "13", "17", "19", "23", "29", "31"],
        },
    )
    code, out, err = run_cli(
        ["run", "--algo", "sfglm-tweaked", "--table", path,
         "--order", "lex(y<x)", "--degree", "1"]
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: candidate y^2:")


def test_exit_code_on_an_empty_algorithm_list():
    code, out, err = run_cli(["compare", "--generator", "binomial", "--bound", "x^3", "--algos", ","])
    assert (code, out, err) == (2, "", "error: no algorithm to compare\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--algo", "bms", "--degree", "-1"],
        ["run", "--algo", "sfglm", "--degree", "two"],
        ["compare", "--bound", "x^3", "--window", "-1"],
    ],
)
def test_exit_code_on_a_negative_degree_or_window(argv):
    # rejected while parsing, before any input is read
    code, out, err = run_cli([*argv, "--generator", "binomial"])
    assert (code, out) == (2, "")
    flag, value = argv[-2:]
    assert err.endswith(f"error: argument {flag}: expected a nonnegative integer, got {value!r}\n")


def test_exit_code_on_unknown_arguments():
    code, _, _ = run_cli([])
    assert code == 2
    code, _, _ = run_cli(["run", "--generator", "nope", "--bound", "x"])
    assert code == 2


@pytest.mark.parametrize("bound", ["1", "y^2"])
@pytest.mark.parametrize("algo", ["bms", "rank", "sfglm"])
def test_exit_code_on_an_order_that_is_not_a_well_order(algo, bound):
    # y < 1 under this matrix, so the down-set of every bound is infinite;
    # a subprocess with a timeout, since enumerating it would never return
    proc = subprocess.run(
        [sys.executable, "-m", "seqrel.cli", "run", "--algo", algo, "--generator", "sq",
         "--order", "weight([[-1,-1],[0,-1]];y<x)", "--bound", bound],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "is not a well-order" in proc.stderr


@pytest.mark.parametrize("algo", ["sfglm", "sfglm-tweaked"])
def test_table_solvers_exit_on_an_order_that_is_not_a_well_order(algo):
    code, out, err = run_cli(["run", "--algo", algo, "--generator", "kron",
                              "--order", "weight([[-1,-1],[0,-1]];y<x)", "--degree", "2"])
    assert (code, out) == (2, "")
    assert "is not a well-order" in err


@pytest.mark.parametrize("algo", ["bms", "rank"])
def test_exit_code_on_a_bound_with_an_infinite_down_set(algo):
    # y is the most significant variable, so x^k ≺ y^2 for every k
    code, out, err = run_cli(["run", "--algo", algo, "--generator", "sq",
                              "--order", "weight([[0,1],[1,0]];y<x)", "--bound", "y^2"])
    assert (code, out) == (2, "")
    assert "cannot enumerate below y^2: the down-set is infinite" in err


def test_bound_whose_down_set_has_a_zero_first_weight():
    # z alone has first weight 1, so the down-set of y holds x^k up to x^99;
    # the packing must hold it, and the certificates re-verify
    order = "weight([[0,0,1],[1,100,0],[100,0,0]];z<y<x)"
    code, out, _ = run_cli(["run", "--algo", "bms", "--generator", "fib4", "--order", order, "--bound", "y"])
    assert code == 0
    data = json.loads(out)
    assert data["queries"] == 101
    assert [(r["shift"], r["tested"]) for r in data["relations"]] == [("x^97", True), ("1", True), ("0", False)]
    ord = parse_order(order)
    for algo in ("bms", "rank"):
        res = run_algorithm(algo, make_generator("fib4", BENCH_FIELD), ord, parse_monomial("y", ord), None)
        assert verify_result(make_generator("fib4", BENCH_FIELD), res, ord)


# ---------------------------------------------------------------------------
# console script


def test_console_script_smoke():
    # the installed console script, else the same entry point as a module
    if shutil.which("seqrel") is not None:
        command = ["seqrel"]
    else:
        command = [sys.executable, "-m", "seqrel.cli"]
    proc = subprocess.run(
        [*command, "run", "--generator", "binomial", "--bound", "x^3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["queries"] == 10
