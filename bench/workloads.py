"""The benchmark's workloads: the flatrank CLI invocations each one runs, the
inputs it generates from the workload seed, and the checks on every report.

A check yields one outcome per verified item: a ``verify`` case, a ``scan``
cell, or a ``flatten`` / ``rank`` result.  ``DOCUMENTED`` marks the known
boundary where the README says the statement fails; it counts as a failed
check, but it is the correct output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

PASS, FAIL, DOCUMENTED = "pass", "fail", "documented"

# The rank n^2-1 statement degenerates at (n, d) = (2, 3): the target space
# is 2-dimensional, so both kyfl11 rank cases there report rank 2.
KYFL11_BOUNDARY = frozenset(
    ("kyfl11", (("d", "3"), ("n", "2"), ("part", part)))
    for part in ("witness", "random"))


def binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def product_rank(d: int, k: int, p: int) -> int:
    """Koszul flattening rank of x1*...*xd at (k, p): the binomial sum over
    the number s of variables shared by the monomial and the wedge."""
    return sum(
        binom(d, s) * binom(d - s, d - k + p - 2 * s) * binom(d - k + p - 2 * s - 1, p - s)
        for s in range(max(0, p - k), min(p, d - k) + 1)
    )


def _hook(d: int, k: int, p: int) -> Fraction:
    return Fraction(d, d - k + p) * binom(2 * d - k - 1, d) * binom(d - 1, p)


# Rank each verify case must observe, by statement, from the case parameters;
# None where the case checks no rank.
REFERENCE_RANK: dict[str, Callable[[dict], object]] = {
    "rankchow": lambda q: product_rank(q["d"], q["k"], q["p"]),
    "nontrivial": lambda q: (product_rank(q["d"], q["k"], q["p"]) if "part" in q
                             else _hook(q["d"], q["k"], q["p"])),
    "kyfl11": lambda q: None if q["part"] == "trace_kernel" else q["n"] ** 2 - 1,
    "classic": lambda q: min(binom(q["k"] + q["n"] - 1, q["k"]),
                             binom(q["d"] - q["k"] + q["n"] - 1, q["d"] - q["k"])),
    "secant_cat": lambda q: q["r"] * binom(q["d"], q["k"]),
    "YFveronese": lambda q: binom(q["d"] - 1, q["p"]),
    # Exact ranks of sums of r disjoint products at k = p = 1: the closed
    # upper bound d^2 r^2 - r is attained for d >= 3; a sum of r disjoint
    # quadratic products is a full-rank quadric in 2r variables.
    "rankschow": lambda q: (None if "part" in q else
                            binom(2 * q["r"], 2) if q["d"] == 2 else
                            q["d"] ** 2 * q["r"] ** 2 - q["r"]),
}


def _recomputed_status(expected: str, observed: str) -> str:
    """The status the case must carry, from its own expected/observed fields."""
    bounds = None
    if expected == "unbounded":
        bounds = (None, None)
    elif expected.startswith("<= "):
        bounds = (None, Fraction(expected[3:]))
    elif expected.startswith(">= "):
        bounds = (Fraction(expected[3:]), None)
    elif expected.startswith("[") and expected.endswith("]"):
        lower, upper = expected[1:-1].split(", ")
        bounds = (Fraction(lower), Fraction(upper))
    if bounds is None:
        return PASS if expected == observed else FAIL
    value = Fraction(observed)
    lower, upper = bounds
    ok = (lower is None or value >= lower) and (upper is None or value <= upper)
    return "bound_holds" if ok else FAIL


def case_outcome(case: dict) -> str:
    """Outcome of one verify case: its status must follow from its own
    expected and observed values, and its observed rank must equal the
    benchmark's reference rank."""
    params = case["parameters"]
    key = (case["statement_id"],
           tuple(sorted((k, v) for k, v in params.items() if k != "method")))
    consistent = case["status"] == _recomputed_status(case["expected"], case["observed"])
    reference = REFERENCE_RANK.get(case["statement_id"])
    expected_rank = reference({k: v if not v.isdigit() else int(v)
                               for k, v in params.items()}) if reference else None
    agrees = expected_rank is None or Fraction(case["observed"]) == expected_rank
    if key in KYFL11_BOUNDARY:
        return DOCUMENTED if consistent and case["status"] == FAIL and not agrees else FAIL
    return PASS if consistent and agrees and case["status"] != FAIL else FAIL


def check_suite(n_cases: int):
    """Check for a verify report with exactly ``n_cases`` cases."""
    def check(report: dict, earlier: list[dict]) -> list[str]:
        outcomes = [case_outcome(case) for case in report["cases"]]
        if len(outcomes) != n_cases:
            outcomes.append(FAIL)
        return outcomes
    return check


def check_product_scan(d: int, budget_cols: int):
    """Check for ``scan x1*...*xd``: every cell ranked or skipped correctly."""
    def check(report: dict, earlier: list[dict]) -> list[str]:
        result = report["result"]
        outcomes = []
        for cell in result["cells"]:
            k, p, n_cols = int(cell["k"]), int(cell["p"]), int(cell["n_cols"])
            ok = n_cols == binom(k + d - 1, k) * binom(d, p)
            if "rank" in cell:
                rank = product_rank(d, k, p)
                ok = (ok and n_cols <= budget_cols and int(cell["rank"]) == rank
                      and int(cell["bound"]) == -(-rank // binom(d - 1, p)))
            else:
                ok = ok and n_cols > budget_cols
            outcomes.append(PASS if ok else FAIL)
        if len(outcomes) != (d - 1) ** 2:
            outcomes.append(FAIL)
        return outcomes
    return check


def check_product_flatten(d: int, k: int, p: int):
    """Check for the Koszul flattening of x1*...*xd at (k, p)."""
    def check(report: dict, earlier: list[dict]) -> list[str]:
        result = report["result"]
        ok = (int(result["n_rows"]) == binom(d - k - 1 + d - 1, d - 1) * binom(d, p + 1)
              and int(result["n_cols"]) == binom(k + d - 1, k) * binom(d, p)
              and int(result["rank"]) == product_rank(d, k, p))
        return [PASS if ok else FAIL]
    return check


def check_generic_shifted(n: int, d: int, k: int, ell: int):
    """Check for the shifted partials of a dense generic form with every
    coefficient nonzero: full shape and nnz, and maximal rank."""
    def check(report: dict, earlier: list[dict]) -> list[str]:
        result = report["result"]
        rows = binom(d - k + ell + n - 1, n - 1)
        cols = binom(k + n - 1, n - 1) * binom(ell + n - 1, n - 1)
        ok = (int(result["n_rows"]) == rows and int(result["n_cols"]) == cols
              and int(result["nnz"]) == cols * binom(d - k + n - 1, n - 1)
              and int(result["rank"]) == min(rows, cols)
              and result["method"] == "exact_rational")
        return [PASS if ok else FAIL]
    return check


def check_same_as_flatten(report: dict, earlier: list[dict]) -> list[str]:
    """Check for ``rank F``: the shape, nnz and rank of the flatten that dumped F."""
    dumped = earlier[-1]["result"]
    result = report["result"]
    ok = all(result[key] == dumped[key] for key in ("n_rows", "n_cols", "nnz", "rank"))
    return [PASS if ok else FAIL]


def dense_form_text(n: int, d: int, seed: int, coeff_bound: int) -> str:
    """A dense degree-d form in n variables, coefficients uniform in
    [1, coeff_bound], terms in graded-lex order with x1 heaviest."""
    rng = random.Random(seed)

    def basis(n_vars, degree):
        if n_vars == 1:
            yield (degree,)
            return
        for e in range(degree, -1, -1):
            for tail in basis(n_vars - 1, degree - e):
                yield (e,) + tail

    terms = []
    for exps in basis(n, d):
        factors = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                           for i, e in enumerate(exps) if e)
        terms.append(f"{rng.randint(1, coeff_bound)}*{factors}")
    return " + ".join(terms) + "\n"


@dataclass
class Invocation:
    argv: list[str]
    check: Callable[[dict, list[dict]], list[str]]


@dataclass
class Workload:
    invocations: list[Invocation]
    inputs: Callable[[int], dict[str, str]] = lambda seed: {}


def _product(d: int) -> str:
    return "*".join(f"x{i}" for i in range(1, d + 1))


WORKLOADS = {
    # Koszul flattenings of random dense forms ranked mod q (the c06 hot
    # path): matrix building dominates, every matrix is one component and no
    # shape repeats.  A per-shape pattern builder should gain here.
    "dense-generic": Workload(
        [Invocation(["verify", "nontrivial", "--cap", "d=6"], check_suite(43))],
    ),
    # Squarefree products: very sparse block-structured matrices sent down
    # the dense mod-q path, up to the 8400x18480 cell that allocates about
    # 1.2 GB per prime.  A sparse-first rank engine should gain here.
    "product-sparse": Workload([
        Invocation(["verify", "rankchow", "--cap", "d=7"], check_suite(91)),
        Invocation(["scan", _product(7), "--budget-cols", "2000"],
                   check_product_scan(7, 2000)),
        Invocation(["flatten", _product(8), "--kind", "koszul", "--k", "4",
                    "--p", "3", "--budget-cols", "20000"],
                   check_product_flatten(8, 4, 3)),
    ]),
    # Fraction-free exact elimination with coefficient growth; the only
    # workload with shifted partials, a long parser input and the coordinate
    # dump and read path.
    "exact-growth": Workload(
        [
            Invocation(["verify", "kyfl11", "--cap", "n=7,d=5"], check_suite(54)),
            Invocation(["verify", "classic", "--cap", "n=5,d=8"], check_suite(112)),
            Invocation(["flatten", "--poly-file", "form.txt", "--kind", "shifted",
                        "--k", "2", "--ell", "1", "--exact", "--dump-matrix", "F.txt"],
                       check_generic_shifted(5, 6, 2, 1)),
            Invocation(["rank", "F.txt", "--exact"], check_same_as_flatten),
        ],
        lambda seed: {"form.txt": dense_form_text(5, 6, seed, 2**31 - 1)},
    ),
    # Many variables and few terms: basis enumeration and labels dominate and
    # elimination is about 1%.  Shows what a per-shape cache costs.
    "wide-basis": Workload([
        Invocation(["verify", "secant_cat", "--cap", "d=7,r=3"], check_suite(36)),
        Invocation(["verify", "YFveronese", "--cap", "d=8"], check_suite(140)),
        Invocation(["verify", "rankschow", "--cap", "d=5,r=4"], check_suite(13)),
    ]),
}


def expected_exit(report: dict) -> int:
    """The exit code flatrank documents for a report: 1 when a verify case failed."""
    return int(any(case["status"] == FAIL for case in report.get("cases", ())))


def write_inputs(workload: Workload, seed: int, work: Path) -> None:
    for name, text in workload.inputs(seed).items():
        (work / name).write_text(text, encoding="utf-8")
