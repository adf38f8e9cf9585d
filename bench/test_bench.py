"""Tests of the benchmark's output checks, the traced run, the host-speed
rescaling and the peak-RSS reading.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

import hostspeed
import layertrace
import peakrss
import workloads
from workloads import DOCUMENTED, FAIL, PASS


def cli_report(tmp_path, *argv):
    from flatrank.labcli import main

    out = tmp_path / "report.json"
    code = main([*argv, "--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def test_product_rank_matches_known_cells():
    assert workloads.product_rank(7, 1, 1) == 48
    assert workloads.product_rank(8, 4, 3) == 2568
    assert workloads.product_rank(4, 2, 1) == 20


def test_real_reports_pass_their_checks(tmp_path):
    code, report = cli_report(tmp_path, "verify", "rankchow", "--cap", "d=4")
    assert code == workloads.expected_exit(report) == 0
    assert set(workloads.check_suite(14)(report, [])) == {PASS}
    code, report = cli_report(tmp_path, "scan", "x1*x2*x3*x4*x5", "--budget-cols", "300")
    assert set(workloads.check_product_scan(5, 300)(report, [])) == {PASS}


def test_rank_changed_by_one_fails(tmp_path):
    _, report = cli_report(tmp_path, "verify", "rankchow", "--cap", "d=4")
    changed = copy.deepcopy(report)
    case = changed["cases"][5]
    case["observed"] = str(int(case["observed"]) + 1)
    assert workloads.check_suite(14)(changed, []).count(FAIL) == 1

    _, scan = cli_report(tmp_path, "scan", "x1*x2*x3*x4*x5")
    cell = next(c for c in scan["result"]["cells"] if "rank" in c)
    cell["rank"] = str(int(cell["rank"]) - 1)
    assert workloads.check_product_scan(5, 2000)(scan, []).count(FAIL) == 1

    (tmp_path / "F.txt").unlink(missing_ok=True)
    _, flat = cli_report(tmp_path, "flatten", "x1*x2*x3*x4*x5", "--kind", "koszul",
                         "--k", "2", "--p", "2", "--dump-matrix", str(tmp_path / "F.txt"))
    _, ranked = cli_report(tmp_path, "rank", str(tmp_path / "F.txt"))
    assert workloads.check_product_flatten(5, 2, 2)(flat, []) == [PASS]
    assert workloads.check_same_as_flatten(ranked, [flat]) == [PASS]
    ranked["result"]["rank"] = str(int(ranked["result"]["rank"]) + 1)
    assert workloads.check_same_as_flatten(ranked, [flat]) == [FAIL]
    flat["result"]["rank"] = str(int(flat["result"]["rank"]) + 1)
    assert workloads.check_product_flatten(5, 2, 2)(flat, []) == [FAIL]


def test_bound_case_rank_changed_by_one_fails(tmp_path):
    _, report = cli_report(tmp_path, "verify", "rankschow", "--cap", "d=3,r=2")
    assert set(workloads.check_suite(3)(report, [])) == {PASS}
    case = report["cases"][-1]
    assert case["status"] == "bound_holds"
    case["observed"] = str(int(case["observed"]) - 1)
    assert workloads.check_suite(3)(report, []).count(FAIL) == 1


@pytest.mark.parametrize("index, status", [(0, "pass"), (2, "fail"), (3, "fail")])
def test_flipped_status_fails(tmp_path, index, status):
    code, report = cli_report(tmp_path, "verify", "kyfl11", "--cap", "n=2,d=4")
    outcomes = workloads.check_suite(6)(report, [])
    assert outcomes == [DOCUMENTED, DOCUMENTED, PASS, PASS, PASS, PASS]
    assert code == workloads.expected_exit(report) == 1
    flipped = copy.deepcopy(report)
    assert flipped["cases"][index]["status"] != status
    flipped["cases"][index]["status"] = status
    assert workloads.check_suite(6)(flipped, [])[index] == FAIL


def test_dense_form_text_is_seeded_and_parses():
    from flatrank.symtensor import parse_poly

    text = workloads.dense_form_text(3, 4, 7, 2**31 - 1)
    assert text == workloads.dense_form_text(3, 4, 7, 2**31 - 1)
    assert text != workloads.dense_form_text(3, 4, 8, 2**31 - 1)
    assert len(parse_poly(text, 3).terms) == 15


def _flatrank_bindings():
    import flatrank.labcli  # noqa: F401

    modules = {n: m for n, m in sys.modules.items()
               if n == "flatrank" or n.startswith("flatrank.")}
    bindings = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    matrix = modules["flatrank.exactla"].SparseMatrix
    bindings.update({("SparseMatrix", k): v for k, v in vars(matrix).items()})
    return bindings


def test_traced_run_restores_original_functions(tmp_path):
    from flatrank import exactla, labcli

    before = _flatrank_bindings()
    tracer = layertrace.Tracer()
    with tracer:
        assert labcli.rank_auto is not before["flatrank.labcli", "rank_auto"]
        assert labcli.rank_auto is exactla.rank_auto
        code = tracer.run(labcli.main, ["verify", "rankchow", "--cap", "d=4",
                                        "--out", str(tmp_path / "r.txt")])
    after = _flatrank_bindings()
    assert code == 0
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())

    record = json.loads(json.dumps(tracer.record()))
    summary = layertrace.summarize(record, wall_s=1.0)
    metrics = layertrace.layer_metrics([summary])
    assert metrics["exactla.rank_exact.calls"] == 14
    assert metrics["matrix.samples"] == 14
    assert metrics["exactla.multi_component_share"] > 0
    assert 0 < metrics["labcli.self_s"] < 1.0


def test_speed_factor_rates_an_interval_by_its_own_samples():
    probe = hostspeed.SpeedProbe()
    nominal = hostspeed.NOMINAL_S
    # Interpreter work twice as slow as nominal throughout; array work at
    # nominal speed, then half speed around t = 9.
    times = (0.0, 1.0, 1.5, 2.0, 2.5, 9.0)
    probe.samples[0].extend((t, 2 * nominal[0]) for t in times)
    probe.samples[1].extend((t, nominal[1] * (2 if t == 9.0 else 1)) for t in times)
    assert probe.factor(0.9, 2.6) == pytest.approx(0.5 ** 0.5)
    # Too few samples inside: the four of each kind nearest the middle.
    assert probe.factor(8.9, 9.1) == pytest.approx((0.5 * 4 / 5) ** 0.5)


def test_peak_rss_is_the_child_s_own(tmp_path):
    import os
    import subprocess

    import numpy as np

    # The parent holds far more memory than the child will ever touch.
    ballast = np.ones(16_000_000)
    out = tmp_path / "peak.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, str(Path(peakrss.__file__)), str(out),
                           "verify", "rankchow", "--cap", "d=3", "--out", str(tmp_path / "r")],
                          env=env, capture_output=True, check=False)
    assert done.returncode == 0, done.stderr
    assert 1_000 < int(out.read_text()) < ballast.nbytes // 1024 // 2
