"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact; the probabilistic criterion (06) uses the
frozen seed scheme below and requires 9 of 10 successes per cell.
"""

import math
import random
from collections import Counter
from fractions import Fraction

from flatrank.exactla import (
    SparseMatrix,
    _components,
    binomial,
    rank_exact,
    rank_modular,
)
from flatrank.formulas import (
    S_formula,
    chowsrank_bound,
    chowsrank_intermediate_sum,
    hook_dim,
    num_ab,
    perm_cat_rank,
    permcom_gap,
    psp_rank_bounds,
    secant_chow_cat_rank,
    secant_chow_koszul_ub,
)
from flatrank.koszul import (
    _full_koszul,
    exterior_derivative,
    koszul_flattening,
)
from flatrank.labcli import RankOptions, run_scan
from flatrank.symtensor import (
    apply_linear_map,
    catalecticant,
    gen_kyfl11_witness,
    gen_permanent,
    gen_power_sum_power,
    gen_product,
    gen_random,
    gen_sum_of_products,
    set_variables_to_zero,
)
from test_exactla import from_dense
from test_koszul import expected_component_ranks


def report(criterion: str, ok: bool, failures=None):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if failures:
        line += f"  failing instances: {failures[:6]}"
    print(line)
    assert ok, line


def test_c01_product_flattening_rank():
    failures = []
    for d in range(2, 9):
        product = gen_product(d)
        for k in range(1, d):
            observed = rank_exact(catalecticant(product, k)).rank
            if observed != binomial(d, k):
                failures.append((d, k, observed))
    report("01 product flattening rank C(d,k), d<=8", not failures, failures)


def test_c02_product_koszul_rank_vs_both_forms():
    failures = []
    for d in range(2, 7):
        product = gen_product(d)
        for k in range(1, d):
            for p in range(1, d):
                expected = S_formula(p, d, k)
                matrix = koszul_flattening(product, k, p)
                if d <= 5:
                    observed = rank_exact(matrix).rank
                else:
                    observed = rank_modular(matrix, 2, 1000 * d + 10 * k + p).rank
                if observed != expected:
                    failures.append((d, k, p, observed, expected))
    report("02 product Koszul rank = closed form, d<=6", not failures, failures)


def test_c03_closed_forms_agree():
    failures = []
    for d in range(2, 13):
        for k in range(1, d):
            for p in range(1, d):
                try:
                    S_formula(p, d, k)  # raises if the two forms disagree
                except ArithmeticError:
                    failures.append((p, d, k))
    # the degree identity starts at 3: in degree 2 the target is a line
    for d in range(3, 21):
        if S_formula(1, d, 1) != d * d - 1:
            failures.append(("identity", d))
    if S_formula(1, 2, 1) != 1:
        failures.append(("boundary", 2))
    report("03 both closed forms agree; S(1,d,1)=d^2-1", not failures, failures)


def test_c04_scan_border_rank_values():
    opts = RankOptions()
    failures = []
    reports = {d: run_scan(gen_product(d), 0, opts) for d in (3, 4, 5)}
    if reports[3]["best_bound"] != 4:
        failures.append((3, reports[3]["best_bound"]))
    if reports[4]["best_bound"] != 7:
        failures.append((4, reports[4]["best_bound"]))
    if reports[5]["best_bound"] != 13:
        failures.append((5, reports[5]["best_bound"]))
    if reports[5].get("reference_status") != "discrepancy_noted":
        failures.append(("d=5 discrepancy missing", reports[5].get("reference_status")))
    if reports[5].get("reference_value") != 14:
        failures.append(("d=5 reference", reports[5].get("reference_value")))
    report("04 scan bounds 4/7/13 with d=5 discrepancy noted", not failures, failures)


def test_c05_odd_degree_closed_bound():
    failures = []
    if math.ceil(chowsrank_bound(1)) != 4:
        failures.append(("n=1 ceiling", chowsrank_bound(1)))
    if chowsrank_bound(2) != Fraction(10) * Fraction(31, 27):
        failures.append(("n=2 value", chowsrank_bound(2)))
    for n in range(1, 9):
        direct = sum(
            (Fraction(binomial(n, s) ** 2, 1 + 2 * s) for s in range(n + 1)),
            Fraction(0),
        )
        if chowsrank_intermediate_sum(n) != direct:
            failures.append(("intermediate", n))
    report("05 odd-degree closed bound and intermediate sum", not failures, failures)


def test_c06_generic_ranks():
    failures = []
    # Koszul flattenings of random dense forms over random prime fields
    for d in range(2, 7):
        for k in range(-(-d // 2), d):
            for p in range(1, d):
                target = hook_dim(d, k, p)
                hits = 0
                for s in range(10):
                    poly = gen_random(d, d, 10_000 * d + 100 * k + 10 * p + s, 2**31 - 1)
                    result = rank_modular(koszul_flattening(poly, k, p), 1, 777 + s)
                    hits += result.rank == target
                if hits < 9:
                    failures.append(("koszul", d, k, p, hits))
    # catalecticants of random dense integer forms reach maximal rank
    for n in range(2, 5):
        for d in range(2, 7):
            for k in range(1, d):
                expected = min(binomial(k + n - 1, k), binomial(d - k + n - 1, d - k))
                poly = gen_random(n, d, 5000 + 100 * n + 10 * d + k, 1000)
                if rank_exact(catalecticant(poly, k)).rank != expected:
                    failures.append(("cat", n, d, k))
    report("06 generic ranks: hook dimension and maximal flattening", not failures, failures)


def test_c07_first_koszul_flattening_rank():
    # The (1, 1) Koszul flattening maps V (x) V into S^{d-2}V (x) L^2 V and
    # kills the trace tensor, so its rank is at most min(n^2 - 1, target).
    # The target is smaller than n^2 - 1 only at (n, d) = (2, 3), where it is
    # S^1 V (x) L^2 V of dimension 2; every other cell must reach n^2 - 1.
    failures = []
    for n in range(2, 6):
        for d in range(3, 6):
            target = math.comb(n + d - 3, d - 2) * math.comb(n, 2)
            expected = min(n * n - 1, target)
            witness = koszul_flattening(gen_kyfl11_witness(n, d), 1, 1)
            random_m = koszul_flattening(gen_random(n, d, 31 * n + d, 1000), 1, 1)
            for part, matrix in (("witness", witness), ("random", random_m)):
                if matrix.n_rows != target:
                    failures.append(("rows", part, n, d, matrix.n_rows, target))
                observed = rank_exact(matrix).rank
                if observed != expected:
                    failures.append((part, n, d, observed, expected))
                if (n, d) == (2, 3) and not (observed == 2 < n * n - 1):
                    failures.append(("boundary", part, n, d, observed))
                trace = SparseMatrix(
                    matrix.n_cols, 1, [((i * n) + i, 0, 1) for i in range(n)]
                )
                if not matrix.multiply(trace).is_zero():
                    failures.append(("kernel", part, n, d))
    report(
        "07 first Koszul flattening rank min(n^2-1, target dim) with trace kernel",
        not failures,
        failures,
    )


def test_c08_sum_of_products_upper_bound():
    failures = []
    for d in (2, 3, 4):
        for r in (2, 3):
            matrix = koszul_flattening(gen_sum_of_products(r, d), 1, 1)
            observed = rank_exact(matrix).rank
            if observed > d * d * r * r - r:
                failures.append((d, r, observed))
    for d in range(2, 21):
        for r in range(2, 21):
            if secant_chow_koszul_ub(r, d, 1, 1) != d * d * r * r - r:
                failures.append(("symbolic", d, r))
    report("08 sum-of-products Koszul rank within d^2r^2-r", not failures, failures)


def test_c09_sum_of_products_flattening_rank():
    failures = []
    for d in range(2, 7):
        for r in range(1, 4):
            poly = gen_sum_of_products(r, d)
            for k in range(1, d // 2 + 1):
                observed = rank_exact(catalecticant(poly, k)).rank
                if observed != secant_chow_cat_rank(r, d, k):
                    failures.append((d, r, k, observed))
    report("09 sum-of-products flattening rank r*C(d,k)", not failures, failures)


def test_c10_support_class_sandwich():
    failures = []
    pinned = psp_rank_bounds(2, 2, 2, 2)
    pinned_rank = rank_exact(catalecticant(gen_power_sum_power(2, 2, 2), 2)).rank
    if (pinned.lower, pinned.upper, pinned_rank) != (1, 3, 3):
        failures.append(("pinned", pinned.lower, pinned.upper, pinned_rank))
    for r in range(1, 5):
        for delta1 in range(1, 11):
            for delta2 in range(1, 11):
                d = delta1 * delta2
                if not 2 <= d <= 10:
                    continue
                poly = gen_power_sum_power(r, delta1, delta2)
                for k in range(1, d):
                    partition = sum(
                        num_ab(a_val, b_val, k, delta1, delta2, r)
                        * binomial(a_val + r - 1, a_val)
                        for a_val in range(k // delta2 + 1)
                        for b_val in range(delta1 - a_val - r, delta1 - a_val + 1)
                    )
                    if partition != binomial(k + r - 1, k):
                        failures.append(("partition", r, delta1, delta2, k))
                    if binomial(k + r - 1, k) > 300:
                        continue
                    bounds = psp_rank_bounds(r, delta1, delta2, k)
                    rank = rank_exact(catalecticant(poly, k)).rank
                    if not bounds.lower <= rank <= bounds.upper:
                        failures.append((r, delta1, delta2, k, bounds.lower, rank, bounds.upper))
    report("10 support-class sandwich and partition identity", not failures, failures)


def test_c11_permanent():
    failures = []
    for n in range(2, 5):
        poly = gen_permanent(n)
        for k in range(1, n // 2 + 1):
            observed = rank_exact(catalecticant(poly, k)).rank
            if observed != perm_cat_rank(n, k):
                failures.append((n, k, observed))
    for n, delta1, r in ((4, 2, 4), (9, 3, 9)):
        expected = Fraction(binomial(n, n // 2) ** 2, (r * (n // 2)) ** delta1)
        if permcom_gap(n, r, delta1)[0] != expected:
            failures.append(("gap", n, delta1, r))
    report("11 permanent flattening ranks and exact gap ratios", not failures, failures)


def test_c12_algebraic_invariants():
    failures = []
    # the exterior derivative squares to zero
    for n in range(2, 5):
        for a in range(2, 5):
            for p in range(0, 3):
                if p + 1 >= n:
                    continue
                outer = exterior_derivative(a - 1, p + 1, n)
                inner = exterior_derivative(a, p, n)
                if not outer.multiply(inner).is_zero():
                    failures.append(("composition", a, p, n))
    # flattening rank is invariant under invertible substitution
    rng = random.Random(1212)
    for n in range(2, 5):
        for d in range(2, 5):
            for k in range(1, d):
                poly = gen_random(n, d, 7000 + 100 * n + 10 * d + k, 50)
                while True:
                    g = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                    if rank_exact(from_dense(g)).rank == n:
                        break
                before = rank_exact(catalecticant(poly, k)).rank
                after = rank_exact(catalecticant(apply_linear_map(poly, g), k)).rank
                if before != after:
                    failures.append(("substitution", n, d, k))
    # subadditivity and projection monotonicity, 100 seeded instances each
    rng = random.Random(3434)
    for trial in range(100):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        k = rng.randint(1, d - 1)
        p = rng.randint(1, n - 1)
        left = gen_random(n, d, rng.randrange(10**6), 20)
        right = gen_random(n, d, rng.randrange(10**6), 20)
        r_left = rank_exact(koszul_flattening(left, k, p)).rank
        r_right = rank_exact(koszul_flattening(right, k, p)).rank
        r_sum = rank_exact(koszul_flattening(left + right, k, p)).rank
        if r_sum > r_left + r_right:
            failures.append(("subadditivity", trial))
    rng = random.Random(5656)
    for trial in range(100):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        k = rng.randint(1, d - 1)
        poly = gen_random(n, d, rng.randrange(10**6), 20)
        base = rank_exact(catalecticant(poly, k)).rank
        kill = rng.sample(range(1, n + 1), rng.randint(1, n))
        projected = rank_exact(catalecticant(set_variables_to_zero(poly, kill), k)).rank
        if projected > base:
            failures.append(("projection", trial))
    report("12 algebraic invariants suite", not failures, failures)


def test_block_sum_consistency_full_grid():
    # companion check to criterion 02: the connected components of every
    # product cell up to degree 6 are its weight blocks, with the block ranks,
    # and their exact ranks add up to the closed form
    failures = []
    for d in range(2, 7):
        product = gen_product(d)
        for k in range(1, d):
            for p in range(1, d):
                ranks = Counter()
                for c, count in _components(_full_koszul(product, k, p)):
                    ranks[rank_exact(c).rank] += count
                if (ranks != expected_component_ranks(d, k, p)
                        or sum(r * n for r, n in ranks.items()) != S_formula(p, d, k)):
                    failures.append((d, k, p))
    report("block-sum consistency d<=6", not failures, failures)
