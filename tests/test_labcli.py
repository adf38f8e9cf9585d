"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest

from flatrank import exactla, labcli
from flatrank.formulas import permcom_gap
from flatrank.labcli import (
    STATEMENTS,
    RankOptions,
    VerifyCase,
    main,
    run_scan,
    run_verify,
)
from flatrank.koszul import koszul_flattening
from flatrank.symtensor import catalecticant, gen_product, parse_poly, shifted_partials


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flatten_cat_example(capsys):
    code, out, _ = run_cli(capsys, "flatten", "x1*x2*x3", "--kind", "cat", "--k", "1")
    assert code == 0
    assert "rank: 3" in out


def test_flatten_koszul_example(capsys):
    code, out, _ = run_cli(
        capsys, "flatten", "x1*x2*x3", "--kind", "koszul", "--k", "1", "--p", "1"
    )
    assert code == 0
    assert "rank: 8" in out


def test_flatten_power_with_explicit_ambient(capsys):
    code, out, _ = run_cli(
        capsys, "flatten", "x1^3", "--n-vars", "3",
        "--kind", "koszul", "--k", "1", "--p", "2",
    )
    assert code == 0
    assert "rank: 1" in out


def test_flatten_shifted(capsys):
    code, out, _ = run_cli(
        capsys, "flatten", "x1*x2*x3", "--kind", "shifted", "--k", "1", "--ell", "1"
    )
    assert code == 0
    assert "rank: 7" in out


def test_flatten_usage_errors(capsys):
    code, _, err = run_cli(capsys, "flatten", "x1^2 + x2^3", "--kind", "cat", "--k", "1")
    assert code == 2 and "degree" in err
    code, _, err = run_cli(capsys, "flatten", "x1*x2*x3", "--kind", "cat", "--k", "5")
    assert code == 2 and "k=5" in err
    code, _, err = run_cli(capsys, "flatten", "x1*x2*x3", "--kind", "koszul", "--k", "1")
    assert code == 2 and "--p" in err


def test_flatten_respects_column_budget(capsys):
    code, _, err = run_cli(
        capsys, "flatten", "x1*x2*x3*x4*x5*x6", "--kind", "koszul",
        "--k", "3", "--p", "3", "--budget-cols", "100",
    )
    assert code == 2 and "columns" in err


@pytest.mark.parametrize("kind, build", [
    (("cat",), lambda P: catalecticant(P, 2)),
    (("shifted", "--ell", "2"), lambda P: shifted_partials(P, 2, 2)),
    (("koszul", "--p", "2"), lambda P: koszul_flattening(P, 2, 2)),
])
@pytest.mark.parametrize("poly, n_vars", [("x1*x2*x3*x4", 4), ("x1^3*x2 + 2*x2^2*x3^2", 5)])
def test_flatten_budget_counts_the_built_columns(capsys, kind, build, poly, n_vars):
    # labcli counts the columns before building; the count must be the width built.
    n_cols = build(parse_poly(poly, n_vars)).n_cols
    argv = ["flatten", poly, "--n-vars", str(n_vars), "--kind", *kind, "--k", "2",
            "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--budget-cols", str(n_cols))
    assert code == 0 and json.loads(out)["result"]["n_cols"] == str(n_cols)
    code, out, err = run_cli(capsys, *argv, "--budget-cols", str(n_cols - 1))
    assert (code, out) == (2, "") and f"matrix has {n_cols} columns" in err


def test_flatten_refuses_over_budget_before_building(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the matrix must not be built")

    monkeypatch.setattr(labcli, "koszul_flattening", never)
    code, _, err = run_cli(
        capsys, "flatten", "x1*x2*x3*x4*x5*x6*x7*x8*x9", "--kind", "koszul",
        "--k", "4", "--p", "4", "--budget-cols", "2000",
    )
    assert code == 2
    assert "matrix has 62370 columns, over the --budget-cols limit 2000" in err


@pytest.mark.parametrize("argv", [
    ["flatten", "x1*x2", "--n-vars", "99999999999999999999", "--kind", "cat", "--k", "1"],
    ["flatten", "x99999999999999999999*x1", "--kind", "cat", "--k", "1"],
    ["scan", "x1*x2*x3", "--n-vars", "2001"],
    ["scan", "x99999999999999999999*x1"],
])
def test_variable_count_over_budget_exits_2_before_parsing(capsys, monkeypatch, argv):
    # Every matrix flatten or scan builds has at least n_vars columns, given or inferred.
    def never(*args):
        raise AssertionError("the form must not be parsed")

    monkeypatch.setattr(labcli, "parse_poly", never)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "variables, over the --budget-cols limit 2000" in err


@pytest.mark.parametrize("command", [("flatten", "--kind", "cat", "--k", "1"), ("scan",)])
@pytest.mark.parametrize("form", [("x1*x2", "--n-vars", "3"), ("x1*x3",)])
def test_variable_count_equal_to_budget_still_runs(capsys, command, form):
    code, out, _ = run_cli(capsys, command[0], *form, *command[1:], "--budget-cols", "3")
    assert code == 0
    assert ("n_vars: 3" if command == ("scan",) else "rank: 2") in out


def test_rank_file_modular_ignores_declared_shape(capsys, tmp_path):
    path = tmp_path / "diagonal.txt"
    path.write_text("%%flatrank coordinate rational\n1000000 1000000 3\n"
                    "1 1 1\n500000 500000 2/3\n1000000 1000000 -5\n")
    code, out, _ = run_cli(capsys, "rank", str(path), "--modular")
    assert code == 0
    assert "rank: 3" in out

@pytest.mark.parametrize("primes", ["0", "65", "100000000"])
def test_primes_outside_1_to_64_exit_2_before_any_prime_is_drawn(capsys, tmp_path, primes):
    # A prime drawn fails the test at once instead of hanging on 10^8 draws.
    path = tmp_path / "diagonal.txt"
    path.write_text("%%flatrank coordinate rational\n2 2 2\n1 1 1\n2 2 3\n")
    with mock.patch.object(exactla, "random_prime", side_effect=AssertionError("prime drawn")):
        for argv in (["rank", str(path), "--modular"], ["verify", "nontrivial"]):
            code, out, err = run_cli(capsys, *argv, "--primes", primes)
            assert (code, out) == (2, "")
            assert "--primes must be between 1 and 64" in err
    code, out, _ = run_cli(capsys, "rank", str(path), "--modular", "--primes", "64")
    assert code == 0 and "rank: 2" in out


def test_exact_integers_of_any_length_survive_the_cli(capsys):
    # The ratio has 18,059 digits, past the interpreter's default limit of
    # 4300 on int <-> str conversion, which main lifts for its run.
    code, out, err = run_cli(capsys, "bounds", "--family", "perm-gap", "--n", "30000",
                             "--delta1", "2", "--r", "30000", "--format", "json")
    assert code == 0, err
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        ratio = Fraction(json.loads(out)["result"]["ratio"])
        assert ratio == permcom_gap(30000, 30000, 2)[0]
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_rank_file_input_errors_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("%%flatrank coordinate rational\n2 2 1\n1 1 1/0\n")
    code, _, err = run_cli(capsys, "rank", str(path))
    assert code == 2 and "1/0" in err
    # Indices past int64 rank alike by every engine.
    path.write_text("%%flatrank coordinate rational\n100000000000000000000 3 1\n"
                    "99999999999999999999 1 5\n")
    for engine in ((), ("--exact",), ("--modular",)):
        code, out, _ = run_cli(capsys, "rank", str(path), *engine)
        assert code == 0 and "rank: 1" in out
    # A position listed twice is refused whichever copy is zero.
    for first, second in (("0", "5"), ("5", "0")):
        path.write_text(f"%%flatrank coordinate rational\n2 2 2\n1 1 {first}\n1 1 {second}\n")
        code, _, err = run_cli(capsys, "rank", str(path))
        assert code == 2 and "duplicate entry at (0, 0)" in err


@pytest.mark.parametrize("size, entry", [
    ("1_0 2 1", "1 1 3"),
    ("2 2 1", "1_0 1 3"),
    ("2 2 1", "\u0661 \u0662 3"),
    ("2 2 1", "1 1 1_000/3"),
])
def test_rank_file_reads_ascii_decimals_only(capsys, tmp_path, size, entry):
    path = tmp_path / "bad.txt"
    path.write_text(f"%%flatrank coordinate rational\n{size}\n{entry}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "rank", str(path))
    assert (code, out) == (2, "")
    assert "malformed" in err


def test_flatten_refuses_zero_variables(capsys):
    # --n-vars 0 is refused like any count below 1, not read as "infer".
    for count in ("0", "-1"):
        code, _, err = run_cli(capsys, "flatten", "x1*x2", "--n-vars", count,
                               "--kind", "cat", "--k", "1")
        assert code == 2 and "need at least one variable" in err


def test_flatten_refuses_forms_of_degree_below_two(capsys):
    code, _, err = run_cli(capsys, "flatten", "5", "--n-vars", "2", "--kind", "cat", "--k", "1")
    assert code == 2 and "need a form of degree at least 2" in err
    code, _, err = run_cli(capsys, "flatten", "x1+x2", "--kind", "koszul", "--k", "1", "--p", "1")
    assert code == 2 and "need a form of degree at least 2" in err


def test_flatten_refuses_forms_of_degree_2_to_the_63(capsys):
    # The matrices fit int64 indices, but the exponents would not.
    for argv in (["--kind", "cat"], ["--kind", "shifted", "--ell", "1"],
                 ["--n-vars", "2", "--kind", "koszul", "--p", "1"]):
        code, out, err = run_cli(capsys, "flatten", f"x1^{2**63}", *argv, "--k", "1")
        assert (code, out) == (2, "") and f"a form of degree {2**63} is too large" in err
    code, out, _ = run_cli(capsys, "flatten", f"x1^{2**63 - 1}", "--kind", "cat", "--k", "1")
    assert code == 0 and "rank: 1" in out


def run_child(*argv):
    """The CLI in its own process, killed after 60 s: a timeout is a hang."""
    src = str(Path(labcli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "flatrank.labcli", *argv, "--format", "json"],
                          env=env, capture_output=True, text=True, timeout=60)


def test_flatten_never_lists_the_row_basis():
    # C(69, 9) rows and C(68, 9) * C(10, 2) rows: only the entries are built.
    child = run_child("flatten", "x1^60*x10", "--kind", "cat", "--k", "1")
    assert child.returncode == 0
    result = json.loads(child.stdout)["result"]
    assert (result["n_rows"], result["rank"]) == ("56672074888", "2")
    child = run_child("flatten", "x1^60*x10", "--kind", "koszul", "--k", "1", "--p", "1",
                      "--modular")
    assert child.returncode == 0
    result = json.loads(child.stdout)["result"]
    assert (result["n_rows"], result["rank"]) == ("2217602930400", "18")
    # C(229, 29) rows do not fit the int64 index arithmetic.
    child = run_child("flatten", "x1^200*x30", "--kind", "cat", "--k", "1")
    assert child.returncode == 2 and "too large" in child.stderr


def test_matrix_dump_and_rank_round_trip(capsys, tmp_path):
    path = tmp_path / "matrix.txt"
    code, _, _ = run_cli(
        capsys, "flatten", "x1*x2*x3*x4", "--kind", "cat", "--k", "2",
        "--dump-matrix", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "rank", str(path))
    assert code == 0
    assert "rank: 6" in out
    code, _, err = run_cli(capsys, "rank", str(tmp_path / "missing.txt"))
    assert code == 2


def test_verify_rankchow(capsys):
    code, out, _ = run_cli(capsys, "verify", "rankchow", "--cap", "d=5")
    assert code == 0
    assert "0 failed" in out


def test_verify_unknown_statement(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuchthing")
    assert code == 2 and "unknown statement" in err


def test_verify_bad_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "rankchow", "--cap", "q=3")
    assert code == 2 and "caps" in err
    code, _, err = run_cli(capsys, "verify", "rankchow", "--cap", "d")
    assert code == 2
    code, out, err = run_cli(capsys, "verify", "rankchow", "--cap", "d=5,d=2")
    assert (code, out) == (2, "") and "cap 'd' is given more than once" in err


@pytest.mark.parametrize("argv, caps", [
    (["rankchow", "--cap", "d=-3"], "d=-3"),
    (["rankchow", "--cap", "d=1"], "d=1"),
    (["chowsrank", "--cap", "n=0"], "n=0"),
    (["kyfl11", "--cap", "n=1,d=4"], "n=1,d=4"),
])
def test_verify_caps_that_select_no_case_exit_2_naming_them(capsys, argv, caps):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert (code, out) == (2, "") and f"selects no case at caps {caps}" in err


@pytest.mark.parametrize("statement", sorted(STATEMENTS))
def test_default_caps_select_a_case(statement):
    runner, defaults, _ = STATEMENTS[statement]
    assert next(iter(runner(dict(defaults), 0, RankOptions())), None) is not None


@pytest.mark.parametrize("expected, observed, status", [
    (3, 3, "pass"),
    (3, 4, "fail"),
    (2, Fraction(4, 2), "pass"),
    (True, True, "pass"),
    ((None, None), 7, "bound_holds"),
    ((2, 5), 2, "bound_holds"),
    ((2, 5), 5, "bound_holds"),
    ((2, None), 2, "bound_holds"),
    ((None, 5), 5, "bound_holds"),
    ((2, 5), 1, "fail"),
    ((2, 5), 6, "fail"),
    ((2, None), 1, "fail"),
    ((None, 5), 6, "fail"),
])
def test_verify_case_status_follows_from_expected_and_observed(expected, observed, status):
    # A pair is a bound, inclusive at both ends; any other value is compared with ==.
    assert VerifyCase("s", {}, expected, observed).status == status


def test_readme_statement_table_matches_statements():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Verification suites", 1)[1].split("\n#", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows[cells[0].strip("`")] = set(re.findall(r"`(\w+)`", cells[2]))
    assert rows == {name: set(defaults) for name, (_, defaults, _) in STATEMENTS.items()}


def test_verify_numab_smoke(capsys):
    code, out, _ = run_cli(capsys, "verify", "NUMAB", "--cap", "r=3,d=6")
    assert code == 0
    assert "0 failed" in out


def test_verify_kyfl11_reports_the_degenerate_cell(capsys):
    # at (n, d) = (2, 3) the target space is a line pair (dimension 2), so
    # rank 3 is unattainable; the suite reports that honestly and exits 1
    code, out, _ = run_cli(capsys, "verify", "kyfl11", "--cap", "n=4,d=4")
    assert code == 1
    failing = [line for line in out.splitlines() if "[fail]" in line]
    assert len(failing) == 2
    assert all("n=2 d=3" in line for line in failing)


def test_scan_product_values(capsys):
    code, out, _ = run_cli(capsys, "scan", "x1*x2*x3")
    assert code == 0
    assert "best_bound: 4" in out
    assert "matches_documented" in out
    code, out, _ = run_cli(capsys, "scan", "x1*x2*x3*x4")
    assert code == 0
    assert "best_bound: 7" in out


def test_scan_degree_five_discrepancy_is_noted_not_failed(capsys):
    code, out, _ = run_cli(capsys, "scan", "x1*x2*x3*x4*x5")
    assert code == 0
    assert "best_bound: 13" in out
    assert "reference_value: 14" in out
    assert "discrepancy_noted" in out


def test_scan_warns_when_the_ambient_dimension_exceeds_the_degree(capsys):
    code, out, _ = run_cli(capsys, "scan", "x1*x2 + x3^2")
    assert code == 0
    assert "warning: ambient dimension exceeds the degree" in out
    code, out, _ = run_cli(capsys, "scan", "x1*x2*x3")
    assert "warning" not in out


@pytest.mark.parametrize("form", ["x1^2", "x1^5"])
def test_scan_of_a_one_variable_form_exits_2(capsys, form):
    # 1 <= p < n_vars has no solution, so no Koszul cell exists to bound anything.
    code, out, err = run_cli(capsys, "scan", form)
    assert (code, out) == (2, "")
    assert "scan needs a form in at least 2 variables" in err
    code, out, _ = run_cli(capsys, "scan", form, "--n-vars", "2")
    assert code == 0 and "best_bound: 1" in out


def test_scan_respects_budget(capsys):
    code, out, _ = run_cli(capsys, "scan", "x1*x2*x3*x4*x5", "--budget-cols", "60")
    assert code == 0
    assert "skipped" in out


def test_scan_structured_report():
    report = run_scan(gen_product(4), 0, RankOptions())
    assert report["best_bound"] == 7
    assert (2, 1) in report["best_cells"]
    by_cell = {(c["k"], c["p"]): c for c in report["cells"]}
    assert by_cell[(2, 1)]["rank"] == 20
    assert by_cell[(1, 1)]["rank"] == 15


def test_json_format_is_deterministic_and_stringly_typed(capsys):
    code, first, _ = run_cli(capsys, "verify", "perm", "--format", "json", "--seed", "5")
    assert code == 0
    code, second, _ = run_cli(capsys, "verify", "perm", "--format", "json", "--seed", "5")
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"tool_version", "seed", "cases"}
    assert payload["seed"] == "5"
    for case in payload["cases"]:
        assert isinstance(case["expected"], str)
        assert isinstance(case["observed"], str)
        assert case["status"] == "pass"


def test_text_format_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "scan", "x1*x2*x3*x4", "--seed", "9")
    _, second, _ = run_cli(capsys, "scan", "x1*x2*x3*x4", "--seed", "9")
    assert first == second


def test_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "verify", "permcom_gap", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[0] == "statement_id" and "status" in header
    code, out, _ = run_cli(
        capsys, "flatten", "x1*x2", "--kind", "cat", "--k", "1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "key,value"


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "permcom_gap", "--format", "json", "--out", str(path)
    )
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["cases"]


def test_force_exact_and_modular_flags(capsys):
    code, out, _ = run_cli(
        capsys, "flatten", "x1*x2*x3", "--kind", "cat", "--k", "1", "--modular",
        "--primes", "1",
    )
    assert code == 0
    assert "method: modular" in out and "rank: 3" in out
    code, out, _ = run_cli(
        capsys, "flatten", "x1*x2*x3", "--kind", "cat", "--k", "1", "--exact"
    )
    assert code == 0
    assert "method: exact_rational" in out


def test_bounds_families(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--family", "odd-product", "--n", "2")
    assert code == 0
    assert "closed_form_bound: 310/27" in out
    assert "flattening_ratio_ceiling: 13" in out
    code, out, _ = run_cli(
        capsys, "bounds", "--family", "powersum",
        "--r", "2", "--delta1", "2", "--delta2", "2", "--k", "2",
    )
    assert code == 0
    assert "lower: 1" in out and "upper: 3" in out and "rank: 3" in out
    code, out, _ = run_cli(
        capsys, "bounds", "--family", "perm-gap", "--n", "16", "--delta1", "4", "--r", "16"
    )
    assert code == 0
    assert "gap_exceeds_one: False" in out
    code, _, err = run_cli(capsys, "bounds", "--family", "powersum", "--r", "2")
    assert code == 2


@pytest.mark.parametrize("n, r", [("1", "1"), ("0", "0")])
def test_bounds_perm_gap_refuses_n_below_two_with_exit_2(capsys, n, r):
    code, out, err = run_cli(capsys, "bounds", "--family", "perm-gap", "--n", n,
                             "--delta1", "1", "--r", r)
    assert (code, out) == (2, "")
    assert "n must be at least 2" in err


@pytest.mark.parametrize("argv", [
    ["--family", "odd-product", "--n", "5000"],
    ["--family", "perm-gap", "--n", "100000", "--delta1", "100000", "--r", "100000"],
    ["--family", "perm-gap", "--n", "2000000", "--delta1", "1", "--r", "2000000"],
    ["--family", "powersum", "--r", "100000", "--delta1", "2000", "--delta2", "2", "--k", "2000"],
    # Past float range: the estimates must not convert --n to a float.
    ["--family", "odd-product", "--n", str(10**309)],
    ["--family", "perm-gap", "--n", str(10**309), "--delta1", "1", "--r", "2"],
])
def test_bounds_refuses_arguments_whose_closed_forms_would_hang(capsys, argv):
    # Each of these ran for 20 s or more before its size was checked.
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert time.perf_counter() - started < 1
    assert (code, out) == (2, "")
    assert "over its limit" in err


@pytest.mark.parametrize("r, delta1, delta2, message", [
    ("0", "2", "2", "r must be at least 1, not 0"),
    ("2", "0", "2", "delta1 must be at least 1, not 0"),
    ("2", "2", "-1", "delta2 must be at least 1, not -1"),
])
def test_bounds_powersum_names_a_parameter_below_one(capsys, r, delta1, delta2, message):
    # Checked before k, whose range [1, delta1*delta2 - 1] they would make empty.
    code, out, err = run_cli(capsys, "bounds", "--family", "powersum", "--r", r,
                             "--delta1", delta1, "--delta2", delta2, "--k", "1")
    assert (code, out, err) == (2, "", f"flatrank: error: {message}\n")


@pytest.mark.parametrize("r, delta1, delta2, k", [
    (200, 2, 2, 2),  # 20,100 columns
    # Under the powersum limit: the closed forms take a fraction of a second.
    (1000, 60, 60, 1800),
])
def test_bounds_powersum_says_why_rank_is_missing(capsys, r, delta1, delta2, k):
    code, out, err = run_cli(capsys, "bounds", "--family", "powersum", "--r", str(r),
                             "--delta1", str(delta1), "--delta2", str(delta2), "--k", str(k))
    assert (code, err) == (0, "")
    assert "rank:" not in out
    n_cols = comb(r + k - 1, k)
    assert out.endswith(f"n_cols: {n_cols}\nskipped: over column budget\n")


def test_bounds_powersum_reports_the_coarse_pair(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--family", "powersum",
        "--r", "4", "--delta1", "2", "--delta2", "2", "--k", "2",
    )
    assert code == 0
    assert "coarse_lower: 6" in out and "coarse_upper: 12" in out


def test_permanent_subcommand(capsys):
    code, out, _ = run_cli(capsys, "permanent", "--n", "3")
    assert code == 0
    assert "0 failed" in out


def test_run_verify_library_surface():
    cases = run_verify("secant_cat", {"d": 4, "r": 2}, 0, RankOptions())
    assert cases and all(isinstance(c, VerifyCase) for c in cases)
    assert all(c.status == "pass" for c in cases)
    with pytest.raises(ValueError):
        run_verify("secant_cat", {"bogus": 1}, 0, RankOptions())


def test_poly_file_input(capsys, tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("x1*x2 + x3*x4\n")
    code, out, _ = run_cli(
        capsys, "flatten", "--poly-file", str(path), "--kind", "cat", "--k", "1"
    )
    assert code == 0
    assert "rank: 4" in out


@pytest.mark.parametrize("argv, message", [
    (["x1^²"], "expected an exponent (at position 3)"),
    (["x1 + x١"], "expected a variable index (at position 6)"),
    (["x١", "--n-vars", "2"], "expected a variable index (at position 1)"),
])
def test_cli_reads_ascii_digits_only(capsys, argv, message):
    code, out, err = run_cli(capsys, "flatten", *argv, "--kind", "cat", "--k", "1")
    assert (code, out, err) == (2, "", f"flatrank: error: {message}\n")


def test_parse_poly_inference_matches_cli():
    # the CLI infers the ambient dimension from the largest index
    p = parse_poly("x1*x2 + x3*x4", 4)
    assert p.n_vars == 4
