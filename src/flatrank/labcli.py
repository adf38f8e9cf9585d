"""Command-line front end: build flattening matrices, compute ranks, run the
statement verification suites, scan (k, p) grids for border-rank bounds, and
emit reproducible text/JSON/CSV reports.

Reports are byte-identical across runs for identical flags and seed.  JSON
serializes every integer as a decimal string so arbitrary precision survives;
``main`` lifts Python's limit on the digits of an int converted to or from a
string for its run.
Exit codes: 0 all checks pass or bounds hold, 1 a verification failed,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import __version__
from .exactla import (
    RankResult,
    SparseMatrix,
    binomial,
    rank_auto,
    rank_exact,
    rank_modular,
)
from .formulas import (
    S_formula,
    chowsrank_bound,
    chowsrank_intermediate_sum,
    generic_kyfl11_rank,
    hook_dim,
    num_ab,
    perm_cat_rank,
    permcom_gap,
    psp_rank_bounds,
    secant_chow_cat_rank,
    secant_chow_koszul_ub,
    veronese_point_rank,
)
from .koszul import _koszul_shape, koszul_flattening
from .symtensor import (
    InhomogeneityError,
    ParseError,
    Poly,
    _flattening_shape,
    catalecticant,
    gen_kyfl11_witness,
    gen_permanent,
    gen_power_sum_power,
    gen_product,
    gen_random,
    gen_sum_of_products,
    parse_poly,
    shifted_partials,
)

# Documented reference lower bounds for the squarefree product family, used
# by `scan` to flag agreements and discrepancies without failing the run.
PRODUCT_REFERENCE_BOUNDS = {3: 4, 4: 7, 5: 14, 6: 28}

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_BOUND = "bound_holds"
STATUS_NOTED = "discrepancy_noted"


@dataclass
class VerifyCase:
    """One formula-versus-oracle comparison.

    ``expected`` is an exact value for equality cases, or a (lower, upper)
    pair (either side may be None) for bound cases.  The status follows from
    these two alone: a pair holds when ``observed`` lies within it, ends
    included; any other value passes when it equals ``observed``."""

    statement_id: str
    parameters: dict
    expected: object
    observed: object

    @property
    def status(self) -> str:
        if isinstance(self.expected, tuple):
            lower, upper = self.expected
            ok = ((lower is None or self.observed >= lower)
                  and (upper is None or self.observed <= upper))
            return STATUS_BOUND if ok else STATUS_FAIL
        return STATUS_PASS if self.expected == self.observed else STATUS_FAIL


# --primes accepts 1..MAX_PRIMES; each modular rank draws that many primes.
MAX_PRIMES = 64

# bounds refuses arguments whose closed forms would run for minutes: sizes
# in bits, estimated with logarithms before any large integer is formed.
# odd-product makes O(n) operations on integers the size of (2n+1)!, and
# perm-gap a few on C(n, n//2)^2 and (r·(n//2))^delta1.  powersum's limit is
# on the bits of all its (a, b) pairs and inclusion-exclusion terms together
# (``_powersum_bits``), about a second of work.
ODD_PRODUCT_MAX_BITS = 2**15
PERM_GAP_MAX_BITS = 2**20
POWERSUM_MAX_BITS = 2**29


@dataclass
class RankOptions:
    force: str | None = None  # None (policy), "exact", or "modular"
    primes: int = 2
    budget_cols: int = 2000


def _case_seed(seed: int, *parts: int) -> int:
    x = seed & 0xFFFFFFFF
    for part in parts:
        x = (x * 1000003 + part + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
    return x


def _policy_rank(m: SparseMatrix, opts: RankOptions, seed: int) -> RankResult:
    if opts.force == "exact":
        return rank_exact(m)
    if opts.force == "modular":
        return rank_modular(m, opts.primes, seed)
    return rank_auto(m, seed, opts.primes)


# ---------------------------------------------------------------------------
# verification suites: each yields one (parameters, expected, observed) triple
# per case; run_verify names the statement and VerifyCase.status judges it.


def _verify_rankchow(caps, seed, opts):
    for d in range(2, caps["d"] + 1):
        P = gen_product(d)
        for k in range(1, d):
            for p in range(1, d):
                matrix = koszul_flattening(P, k, p)
                result = _policy_rank(matrix, opts, _case_seed(seed, d, k, p))
                yield ({"d": d, "k": k, "p": p, "method": result.method},
                       S_formula(p, d, k), result.rank)


def _verify_chowsrank(caps, seed, opts):
    for n in range(1, caps["n"] + 1):
        d = 2 * n + 1
        via_rank = Fraction(S_formula(n, d, n) * factorial(n) ** 2, factorial(d))
        yield {"n": n, "part": "intermediate_sum"}, chowsrank_intermediate_sum(n), via_rank
        bound_ceil = math.ceil(chowsrank_bound(n))
        ratio_ceil = math.ceil(Fraction(S_formula(n, d, n), binomial(d - 1, n)))
        yield {"n": n, "part": "closed_vs_ratio"}, (None, ratio_ceil), bound_ceil
        if n == 1:
            yield {"n": 1, "part": "ceiling"}, 4, bound_ceil


def _verify_nontrivial(caps, seed, opts):
    for d in range(2, caps["d"] + 1):
        for k in range(-(-d // 2), d):
            for p in range(1, d):
                P = gen_random(d, d, _case_seed(seed, d, k, p), 2**31 - 1)
                matrix = koszul_flattening(P, k, p)
                observed = rank_modular(matrix, opts.primes, _case_seed(seed, d, k, p, 7)).rank
                yield {"d": d, "k": k, "p": p}, hook_dim(d, k, p), observed
    for d in (6, 7):
        for k in range(-(-d // 2), d - 2):
            for p in range(1, d):
                yield ({"d": d, "k": k, "p": p, "part": "strict_gap"},
                       (None, hook_dim(d, k, p) - 1), S_formula(p, d, k))


def _verify_yfveronese(caps, seed, opts):
    for d in range(2, caps["d"] + 1):
        P = Poly.monomial((d,) + (0,) * (d - 1))
        for k in range(1, d):
            for p in range(1, d):
                observed = rank_exact(koszul_flattening(P, k, p)).rank
                yield {"d": d, "k": k, "p": p}, veronese_point_rank(d, p), observed


def _trace_product(matrix: SparseMatrix, n: int) -> SparseMatrix:
    """matrix, a (1, 1) Koszul flattening in n variables, times the
    coordinate vector of sum_i (dual x_i) (x) x_i: 1 in each column labeled
    (e_i, (i,)), e_i the exponent vector of x_i.  That column is
    glex(e_i) * n + i - 1 = (i - 1)(n + 1)."""
    vector = SparseMatrix(matrix.n_cols, 1, [(i * (n + 1), 0, 1) for i in range(n)])
    return matrix.multiply(vector)


def _verify_kyfl11(caps, seed, opts):
    for n in range(2, caps["n"] + 1):
        for d in range(3, caps["d"] + 1):
            expected = generic_kyfl11_rank(n)
            witness = koszul_flattening(gen_kyfl11_witness(n, d), 1, 1)
            yield {"n": n, "d": d, "part": "witness"}, expected, rank_exact(witness).rank
            random_p = gen_random(n, d, _case_seed(seed, n, d), 1000)
            random_m = koszul_flattening(random_p, 1, 1)
            yield {"n": n, "d": d, "part": "random"}, expected, rank_exact(random_m).rank
            in_kernel = all(_trace_product(m, n).is_zero() for m in (witness, random_m))
            yield {"n": n, "d": d, "part": "trace_kernel"}, True, in_kernel


def _verify_rankschow(caps, seed, opts):
    def meets_general_bracket(d, r):
        # The k = p = 1 closed form against r*[C(d,1)*(C(dr,1) - C(d,1)) + S]:
        # equal for d >= 3, the weaker (larger) bound at d = 2.
        closed = secant_chow_koszul_ub(r, d, 1, 1)
        general = r * (binomial(d, 1) * (binomial(d * r, 1) - binomial(d, 1))
                       + S_formula(1, d, 1))
        return closed > general if d == 2 else closed == general

    symbolic = all(meets_general_bracket(d, r) for d in range(2, 21) for r in range(2, 21))
    yield {"part": "p1k1_identity", "d_max": 20, "r_max": 20}, True, symbolic
    for d in range(2, caps["d"] + 1):
        for r in range(2, caps["r"] + 1):
            matrix = koszul_flattening(gen_sum_of_products(r, d), 1, 1)
            yield {"d": d, "r": r}, (None, d * d * r * r - r), rank_exact(matrix).rank


def _verify_secant_cat(caps, seed, opts):
    for d in range(2, caps["d"] + 1):
        for r in range(1, caps["r"] + 1):
            P = gen_sum_of_products(r, d)
            for k in range(1, d // 2 + 1):
                observed = rank_exact(catalecticant(P, k)).rank
                yield {"d": d, "r": r, "k": k}, secant_chow_cat_rank(r, d, k), observed


def _verify_classic(caps, seed, opts):
    for n in range(2, caps["n"] + 1):
        for d in range(2, caps["d"] + 1):
            for k in range(1, d):
                expected = min(binomial(k + n - 1, k), binomial(d - k + n - 1, d - k))
                P = gen_random(n, d, _case_seed(seed, n, d, k), 1000)
                yield {"n": n, "d": d, "k": k}, expected, rank_exact(catalecticant(P, k)).rank


def _verify_numab(caps, seed, opts):
    for d in range(2, caps["d"] + 1):
        for delta1 in range(1, d + 1):
            if d % delta1:
                continue
            delta2 = d // delta1
            for r in range(1, caps["r"] + 1):
                P = gen_power_sum_power(r, delta1, delta2)
                for k in range(1, d):
                    total = 0
                    for a_val in range(k // delta2 + 1):
                        dim_a = binomial(a_val + r - 1, a_val)
                        for b_val in range(delta1 - a_val - r, delta1 - a_val + 1):
                            total += num_ab(a_val, b_val, k, delta1, delta2, r) * dim_a
                    params = {"r": r, "delta1": delta1, "delta2": delta2, "k": k}
                    yield {**params, "part": "class_partition"}, binomial(k + r - 1, k), total
                    if _flattening_shape(P, k)[1] <= 300:
                        report = psp_rank_bounds(r, delta1, delta2, k)
                        observed = rank_exact(catalecticant(P, k)).rank
                        yield ({**params, "part": "sandwich"},
                               (report.lower, report.upper), observed)


def _verify_bounds(caps, seed, opts):
    for delta1, delta2 in ((2, 2), (2, 3), (3, 2)):
        d = delta1 * delta2
        k = d // 2
        for r in range(2 * delta1, caps["r"] + 1):
            report = psp_rank_bounds(r, delta1, delta2, k)
            observed = rank_exact(catalecticant(gen_power_sum_power(r, delta1, delta2), k)).rank
            yield ({"r": r, "delta1": delta1, "delta2": delta2, "k": k},
                   report.secondary, observed)


def _verify_perm(caps, seed, opts):
    for n in range(2, caps["n"] + 1):
        P = gen_permanent(n)
        for k in range(1, n // 2 + 1):
            yield {"n": n, "k": k}, perm_cat_rank(n, k), rank_exact(catalecticant(P, k)).rank


def _verify_permcom_gap(caps, seed, opts):
    for n, delta1, r in ((4, 2, 4), (9, 3, 9), (16, 4, 16)):
        ratio, _ = permcom_gap(n, r, delta1)
        expected = Fraction(binomial(n, n // 2) ** 2, (r * (n // 2)) ** delta1)
        yield ({"n": n, "delta1": delta1, "r": r, "gap_exceeds_one": str(ratio > 1)},
               expected, ratio)


STATEMENTS = {
    "rankchow": (_verify_rankchow, {"d": 5},
                 "product Koszul flattening rank equals both closed forms"),
    "chowsrank": (_verify_chowsrank, {"n": 8},
                  "odd-degree product bound: intermediate sum and ceiling checks"),
    "nontrivial": (_verify_nontrivial, {"d": 5},
                   "generic Koszul rank attains the hook dimension; product stays below"),
    "YFveronese": (_verify_yfveronese, {"d": 6},
                   "Koszul rank at a d-th power is C(d-1, p) for every k"),
    "kyfl11": (_verify_kyfl11, {"n": 4, "d": 4},
               "first Koszul flattening of a generic form has rank n^2-1"),
    "rankschow": (_verify_rankschow, {"d": 4, "r": 3},
                  "sum-of-products Koszul rank obeys the closed upper bound"),
    "secant_cat": (_verify_secant_cat, {"d": 6, "r": 3},
                   "sum-of-products flattening rank is r*C(d,k)"),
    "classic": (_verify_classic, {"n": 4, "d": 6},
                "random dense flattenings reach maximal rank"),
    "NUMAB": (_verify_numab, {"r": 3, "d": 8},
              "support-class counting: partition identity and rank sandwich"),
    "bounds": (_verify_bounds, {"r": 6},
               "middle flattening of power-sum powers within the coarse pair"),
    "perm": (_verify_perm, {"n": 4},
             "permanent flattening rank is C(n,k)^2"),
    "permcom_gap": (_verify_permcom_gap, {},
                    "exact rank-gap ratios at the fixed desk instances"),
}


def run_verify(statement: str, caps: dict | None, seed: int, opts: RankOptions):
    if statement not in STATEMENTS:
        raise ValueError(f"unknown statement {statement!r}; choose from "
                         + ", ".join(sorted(STATEMENTS)))
    runner, defaults, _ = STATEMENTS[statement]
    merged = dict(defaults)
    for key, value in (caps or {}).items():
        if key not in defaults:
            raise ValueError(f"statement {statement!r} accepts caps "
                             f"{sorted(defaults) or 'none'}, not {key!r}")
        merged[key] = value
    cases = [VerifyCase(statement, params, expected, observed)
             for params, expected, observed in runner(merged, seed, opts)]
    if not cases:
        caps_text = ",".join(f"{key}={value}" for key, value in merged.items())
        raise ValueError(f"statement {statement!r} selects no case at caps {caps_text}")
    return cases


# ---------------------------------------------------------------------------
# scan


def _is_full_product(P: Poly) -> bool:
    if P.n_vars != P.degree or len(P.terms) != 1:
        return False
    (exps,) = P.terms
    return all(e == 1 for e in exps)


def run_scan(P: Poly, seed: int, opts: RankOptions) -> dict:
    d, n = P.degree, P.n_vars
    if d < 2:
        raise ValueError("scan needs a form of degree at least 2")
    if n < 2:
        raise ValueError("scan needs a form in at least 2 variables: "
                         "every Koszul cell has 1 <= p < n_vars")
    cells = []
    best = 0
    best_cells = []
    for k in range(1, d):
        for p in range(1, n):
            _, n_cols = _koszul_shape(P, k, p)
            cell = {"k": k, "p": p, "n_cols": n_cols}
            if n_cols > opts.budget_cols:
                cell["skipped"] = "over column budget"
                cells.append(cell)
                continue
            matrix = koszul_flattening(P, k, p)
            result = _policy_rank(matrix, opts, _case_seed(seed, k, p))
            cell["rank"] = result.rank
            cell["method"] = result.method
            if p < d:
                bound = -(-result.rank // veronese_point_rank(d, p))
                cell["bound"] = bound
                if bound > best:
                    best = bound
                    best_cells = [(k, p)]
                elif bound == best:
                    best_cells.append((k, p))
            cells.append(cell)
    report = {
        "subject": P.to_text(),
        "n_vars": n,
        "degree": d,
        "cells": cells,
        "best_bound": best,
        "best_cells": best_cells,
    }
    if n > d:
        report["warning"] = ("ambient dimension exceeds the degree; the per-point "
                             "divisor C(d-1,p) does not certify a bound here")
    if _is_full_product(P) and d in PRODUCT_REFERENCE_BOUNDS:
        reference = PRODUCT_REFERENCE_BOUNDS[d]
        report["reference_value"] = reference
        report["reference_status"] = (
            "matches_documented" if best == reference else STATUS_NOTED
        )
    return report


# ---------------------------------------------------------------------------
# other commands


def _infer_n_vars(text: str) -> int:
    # ASCII digits, as parse_poly reads them (\d also matches other scripts).
    indices = [int(m) for m in re.findall(r"x([0-9]+)", text)]
    if not indices:
        raise ValueError("no variables found; give --n-vars explicitly")
    return max(indices)


def _load_poly(args) -> Poly:
    if args.poly_file:
        with open(args.poly_file, "r", encoding="utf-8") as handle:
            text = handle.read()
    elif args.poly is not None:
        text = args.poly
    else:
        raise ValueError("give a polynomial inline or via --poly-file")
    n_vars = args.n_vars if args.n_vars is not None else _infer_n_vars(text)
    # Every matrix flatten or scan builds has at least n_vars columns.
    if n_vars > args.budget_cols:
        raise ValueError(f"the form has {n_vars} variables, over the "
                         f"--budget-cols limit {args.budget_cols}")
    return parse_poly(text, n_vars)


# flatten --kind: builder (looked up when called), shape function, flag of the third argument.
FLATTEN_KINDS = {
    "cat": (lambda *a: catalecticant(*a), _flattening_shape, None),
    "shifted": (lambda *a: shifted_partials(*a), _flattening_shape, "ell"),
    "koszul": (lambda *a: koszul_flattening(*a), _koszul_shape, "p"),
}


def run_flatten(args, seed: int, opts: RankOptions) -> dict:
    P = _load_poly(args)
    build, shape, flag = FLATTEN_KINDS[args.kind]
    tail = {flag: getattr(args, flag)} if flag else {}
    if None in tail.values():
        raise ValueError(f"--{flag} is required for the {args.kind} kind")
    _, n_cols = shape(P, args.k, *tail.values())
    if n_cols > opts.budget_cols:
        raise ValueError(f"matrix has {n_cols} columns, over the "
                         f"--budget-cols limit {opts.budget_cols}")
    matrix = build(P, args.k, *tail.values())
    result = _policy_rank(matrix, opts, seed)
    if args.dump_matrix:
        with open(args.dump_matrix, "w", encoding="utf-8") as handle:
            handle.write(matrix.to_coordinate_text())
    head = {"subject": P.to_text(), "kind": args.kind, "k": args.k}
    return _rank_report(head, matrix, result, **tail)


def run_rank_file(path: str, seed: int, opts: RankOptions) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        matrix = SparseMatrix.from_coordinate_text(handle.read())
    return _rank_report({"file": path}, matrix, _policy_rank(matrix, opts, seed))


def _rank_report(head: dict, matrix: SparseMatrix, result: RankResult, **tail) -> dict:
    """``head``, then the matrix's size and rank fields, then ``tail``, then
    the primes of a modular rank: the key order of the report."""
    out = {
        **head,
        "n_rows": matrix.n_rows,
        "n_cols": matrix.n_cols,
        "nnz": matrix.nnz,
        "rank": result.rank,
        "method": result.method,
        "certified_lower_bound": result.is_certified_lower_bound,
        **tail,
    }
    if result.primes_used:
        out["primes_used"] = list(result.primes_used)
    return out


def _log2_factorial(x: int) -> Fraction:
    """log2(x!) for x >= 1 within 0.2 bit, by Stirling's x·log2(x/e) +
    log2(2πx)/2, as an exact rational: math.log2 reads an int of any size,
    where a float of x would overflow past 2^1024."""
    log2_x = math.log2(x)
    return x * Fraction(log2_x - math.log2(math.e)) + Fraction(log2_x + math.log2(2 * math.pi)) / 2


def _log2_binomial(n: int, k: int) -> Fraction:
    return _log2_factorial(n) - _log2_factorial(k) - _log2_factorial(n - k)


def _powersum_bits(r: int, delta1: int, delta2: int, k: int) -> int:
    """About the bits ``psp_rank_bounds`` computes with, for valid arguments:
    a machine word per (a, b) pair, and per inclusion-exclusion term a word
    and its largest binomial, C(n, j) taken as n^j."""
    a_values = k // delta2 + 1
    width = min(delta1, r)  # the most positive residues a class can have
    pairs = a_values * (delta1 + 1)
    terms = a_values * (width + 1) * (width + 2) // 2
    largest = max(width * max(r, k).bit_length(),
                  min(k // delta2, r) * (k // delta2 + r).bit_length(),
                  width * (delta1 + r).bit_length())
    return 64 * (pairs + terms) + terms * largest


def _check_bits(family: str, bits: int | Fraction, limit: int) -> None:
    if bits > limit:
        raise ValueError(f"{family} would compute with integers of about {round(bits)} bits, "
                         f"over its limit of {limit}; choose smaller arguments")


def run_bounds(args, seed: int, opts: RankOptions) -> dict:
    if args.family == "odd-product":
        n = args.n
        if n is None or n < 1:
            raise ValueError("odd-product needs --n >= 1")
        d = 2 * n + 1
        _check_bits("odd-product", _log2_factorial(d), ODD_PRODUCT_MAX_BITS)
        bound = chowsrank_bound(n)
        ratio = Fraction(S_formula(n, d, n), binomial(d - 1, n))
        return {
            "family": "odd-product",
            "degree": d,
            "closed_form_bound": bound,
            "closed_form_ceiling": math.ceil(bound),
            "intermediate_sum": chowsrank_intermediate_sum(n),
            "flattening_ratio": ratio,
            "flattening_ratio_ceiling": math.ceil(ratio),
        }
    if args.family == "powersum":
        for name in ("r", "delta1", "delta2", "k"):
            if getattr(args, name) is None:
                raise ValueError(f"powersum needs --{name}")
        if min(args.r, args.delta1, args.delta2) >= 1 and 1 <= args.k < args.delta1 * args.delta2:
            _check_bits("powersum", _powersum_bits(args.r, args.delta1, args.delta2, args.k),
                        POWERSUM_MAX_BITS)
        report = psp_rank_bounds(args.r, args.delta1, args.delta2, args.k)
        out = {
            "family": "powersum",
            "subject": report.subject,
            "lower": report.lower,
            "upper": report.upper,
            "parameters": report.parameters,
        }
        if report.secondary:
            out["coarse_lower"], out["coarse_upper"] = report.secondary
        # The catalecticant's shape depends only on the form's variables and degree.
        _, n_cols = _flattening_shape(Poly.zero(args.r, args.delta1 * args.delta2), args.k)
        if n_cols <= opts.budget_cols:
            P = gen_power_sum_power(args.r, args.delta1, args.delta2)
            out["rank"] = _policy_rank(catalecticant(P, args.k), opts, seed).rank
        else:
            out["n_cols"], out["skipped"] = n_cols, "over column budget"
        return out
    if args.family == "perm-gap":
        for name in ("n", "delta1", "r"):
            if getattr(args, name) is None:
                raise ValueError(f"perm-gap needs --{name}")
        half = args.n // 2
        if args.n >= 2 and args.r >= 1:
            _check_bits("perm-gap", 2 * _log2_binomial(args.n, half)
                        + args.delta1 * Fraction(math.log2(args.r * half)), PERM_GAP_MAX_BITS)
        ratio, log_ratio = permcom_gap(args.n, args.r, args.delta1)
        return {
            "family": "perm-gap",
            "n": args.n,
            "delta1": args.delta1,
            "r": args.r,
            "ratio": ratio,
            "log2_ratio": round(log_ratio, 6),
            "gap_exceeds_one": ratio > 1,
        }
    raise ValueError(f"unknown bounds family {args.family!r}")


# ---------------------------------------------------------------------------
# rendering


def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, VerifyCase):
        return {
            "statement_id": value.statement_id,
            "parameters": _jsonable(value.parameters),
            "expected": _format_value(value.expected),
            "observed": _format_value(value.observed),
            "status": value.status,
        }
    return str(value)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        lower, upper = value
        if lower is None and upper is None:
            return "unbounded"
        if lower is None:
            return f"<= {upper}"
        if upper is None:
            return f">= {lower}"
        return f"[{lower}, {upper}]"
    return str(value)


def _render_cases_text(statement: str, cases: list[VerifyCase]) -> str:
    lines = []
    failed = 0
    for case in cases:
        params = " ".join(f"{k}={v}" for k, v in case.parameters.items())
        lines.append(
            f"{case.statement_id} {params}: expected={_format_value(case.expected)} "
            f"observed={_format_value(case.observed)} [{case.status}]"
        )
        failed += case.status == STATUS_FAIL
    lines.append(f"verify {statement}: {len(cases)} cases, {failed} failed")
    return "\n".join(lines) + "\n"


def _render_cases_csv(cases: list[VerifyCase]) -> str:
    keys = sorted({k for case in cases for k in case.parameters})
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["statement_id", *keys, "expected", "observed", "status"])
    for case in cases:
        writer.writerow(
            [case.statement_id]
            + [case.parameters.get(k, "") for k in keys]
            + [_format_value(case.expected), _format_value(case.observed), case.status]
        )
    return buffer.getvalue()


def _render_dict_text(result: dict) -> str:
    lines = []
    for key, value in result.items():
        if key == "cells":
            for cell in value:
                parts = " ".join(f"{k}={_format_value(v)}" for k, v in cell.items())
                lines.append(f"cell {parts}")
        else:
            lines.append(f"{key}: {_format_value(value)}" if not isinstance(value, dict)
                         else f"{key}: " + " ".join(f"{k}={v}" for k, v in value.items()))
    return "\n".join(lines) + "\n"


def _render_dict_csv(result: dict) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    cells = result.get("cells")
    if cells is not None:
        keys = sorted({k for cell in cells for k in cell})
        writer.writerow(keys)
        for cell in cells:
            writer.writerow([_format_value(cell.get(k, "")) for k in keys])
        for key, value in result.items():
            if key != "cells":
                writer.writerow([key, _format_value(value)])
    else:
        writer.writerow(["key", "value"])
        for key, value in result.items():
            writer.writerow([key, _format_value(value)])
    return buffer.getvalue()


def _emit(payload: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _render(name: str, fmt: str, seed: int, cases=None, result=None) -> str:
    """The report of ``cases`` of statement ``name``, or of command ``name``'s ``result``."""
    if fmt == "json":
        if cases is not None:
            envelope = {"tool_version": __version__, "seed": str(seed),
                        "cases": [_jsonable(c) for c in cases]}
        else:
            envelope = {"tool_version": __version__, "seed": str(seed),
                        "command": name, "result": _jsonable(result)}
        return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _render_cases_csv(cases) if cases is not None else _render_dict_csv(result)
    if cases is not None:
        return _render_cases_text(name, cases)
    return _render_dict_text(result)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_caps(text: str | None) -> dict:
    caps = {}
    if not text:
        return caps
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValueError(f"cap {chunk!r} is not of the form key=value")
        key, _, value = chunk.partition("=")
        key = key.strip()
        if key in caps:
            raise ValueError(f"cap {key!r} is given more than once")
        try:
            caps[key] = int(value)
        except ValueError as exc:
            raise ValueError(f"cap {chunk!r} needs an integer value") from exc
    return caps


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--seed", type=int, default=0)
    mode = common.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="force exact rational elimination")
    mode.add_argument("--modular", action="store_true",
                      help="force randomized modular rank")
    common.add_argument("--primes", type=int, default=2,
                        help=f"number of random primes for modular ranks (1 to {MAX_PRIMES})")
    common.add_argument("--budget-cols", type=int, default=2000,
                        help="skip or reject matrices wider than this")
    common.add_argument("--out", default=None, help="write the report to a file")

    parser = argparse.ArgumentParser(
        prog="flatrank",
        description="Exact flattening matrices of homogeneous polynomials, "
                    "their ranks, and the rank bounds they certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    form = argparse.ArgumentParser(add_help=False)
    form.add_argument("poly", nargs="?", help="polynomial text, e.g. 'x1*x2*x3'")
    form.add_argument("--poly-file", default=None)
    form.add_argument("--n-vars", type=int, default=None)

    flatten = sub.add_parser("flatten", parents=[common, form],
                             help="build a flattening matrix and report its rank")
    flatten.add_argument("--kind", choices=tuple(FLATTEN_KINDS), required=True)
    flatten.add_argument("--k", type=int, required=True, help="derivative order")
    flatten.add_argument("--ell", type=int, default=None, help="shift degree")
    flatten.add_argument("--p", type=int, default=None, help="wedge degree")
    flatten.add_argument("--dump-matrix", default=None,
                         help="write the matrix in coordinate text form")

    rank = sub.add_parser("rank", parents=[common],
                          help="rank of a matrix stored in coordinate text form")
    rank.add_argument("matrix_file")

    statement_help = "; ".join(
        f"{name} (caps {sorted(defaults) or 'none'}): {doc}"
        for name, (_, defaults, doc) in sorted(STATEMENTS.items())
    )
    verify = sub.add_parser("verify", parents=[common],
                            help="run a statement verification suite",
                            epilog="statements: " + statement_help)
    verify.add_argument("statement", help="statement identifier")
    verify.add_argument("--cap", default=None,
                        help="override size caps, e.g. 'd=5' or 'n=4,d=4'")

    sub.add_parser("scan", parents=[common, form],
                   help="rank every (k, p) Koszul cell and report the "
                        "best border-rank lower bound")

    bounds = sub.add_parser("bounds", parents=[common],
                            help="evaluate closed-form bound families")
    bounds.add_argument("--family", choices=("odd-product", "powersum", "perm-gap"),
                        required=True)
    bounds.add_argument("--n", type=int, default=None)
    bounds.add_argument("--r", type=int, default=None)
    bounds.add_argument("--delta1", type=int, default=None)
    bounds.add_argument("--delta2", type=int, default=None)
    bounds.add_argument("--k", type=int, default=None)

    permanent = sub.add_parser("permanent", parents=[common],
                               help="permanent flattening ranks against C(n,k)^2")
    permanent.add_argument("--n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    # Exact integers of any length: lift the interpreter's limit on int <-> str
    # conversion, where it has one, for the run, then restore it.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(args: argparse.Namespace) -> int:
    opts = RankOptions(
        force="exact" if args.exact else "modular" if args.modular else None,
        primes=args.primes,
        budget_cols=args.budget_cols,
    )
    try:
        # Checked before any work: a modular rank draws this many primes.
        if not 1 <= args.primes <= MAX_PRIMES:
            raise ValueError(f"--primes must be between 1 and {MAX_PRIMES}")
        if args.command in ("verify", "permanent"):
            if args.command == "verify":
                statement, caps = args.statement, _parse_caps(args.cap)
            elif not 2 <= args.n <= 5:
                raise ValueError("permanent supports 2 <= n <= 5")
            else:
                statement, caps = "perm", {"n": args.n}
            cases = run_verify(statement, caps, args.seed, opts)
            _emit(_render(statement, args.format, args.seed, cases=cases), args.out)
            return 1 if any(c.status == STATUS_FAIL for c in cases) else 0
        if args.command == "flatten":
            result = run_flatten(args, args.seed, opts)
        elif args.command == "rank":
            result = run_rank_file(args.matrix_file, args.seed, opts)
        elif args.command == "scan":
            result = run_scan(_load_poly(args), args.seed, opts)
        else:
            result = run_bounds(args, args.seed, opts)
        _emit(_render(args.command, args.format, args.seed, result=result), args.out)
        return 0
    except (ParseError, InhomogeneityError, ValueError, OSError) as exc:
        print(f"flatrank: error: {exc}", file=sys.stderr)
        return 2


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
