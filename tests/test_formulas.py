"""Closed-form values and bounds against their independent oracles."""

import itertools
import math
from fractions import Fraction

import pytest

from flatrank.exactla import binomial, rank_exact, rank_modular
from flatrank.formulas import (
    BoundReport,
    S_formula,
    border_rank_lb,
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
from flatrank.koszul import koszul_flattening
from flatrank.labcli import _trace_product
from flatrank.symtensor import (
    Poly,
    catalecticant,
    gen_permanent,
    gen_power_sum_power,
    gen_product,
    gen_random,
    gen_sum_of_products,
)


def test_s_formula_values():
    assert S_formula(1, 3, 1) == 8
    assert S_formula(1, 4, 2) == 20
    assert S_formula(2, 5, 2) == 76  # summands 6 + 40 + 30
    with pytest.raises(ValueError):
        S_formula(3, 3, 1)


def test_s_formula_closed_forms_agree_everywhere():
    # the evaluation itself cross-checks the two forms; sweep the full grid
    for d in range(2, 13):
        for k in range(1, d):
            for p in range(1, d):
                S_formula(p, d, k)


def test_s_formula_degree_identity():
    # S(1,d,1) = d^2-1 from degree 3 on; in degree 2 the flattening target
    # is a line, so the rank is 1
    for d in range(3, 21):
        assert S_formula(1, d, 1) == d * d - 1
    assert S_formula(1, 2, 1) == 1


def test_hook_dim_values():
    assert hook_dim(3, 2, 1) == 3
    assert hook_dim(4, 2, 1) == 20
    assert hook_dim(6, 3, 2) == 336
    assert rank_modular(
        koszul_flattening(gen_random(6, 6, 12345, 2**31 - 1), 3, 2), 1, 7
    ).rank == 336


def test_veronese_point_rank():
    assert veronese_point_rank(3, 1) == 2
    assert veronese_point_rank(4, 2) == 3
    assert veronese_point_rank(5, 4) == 1
    with pytest.raises(ValueError):
        veronese_point_rank(3, 3)


def test_border_rank_lb_values():
    assert border_rank_lb(gen_product(3), 1, 1).lower == 4
    assert border_rank_lb(gen_product(4), 2, 1).lower == 7
    power = Poly.monomial((5, 0, 0, 0, 0))
    for p in (1, 2, 3):
        assert border_rank_lb(power, 2, p).lower == 1


def test_chowsrank_bound_values():
    assert chowsrank_bound(1) == Fraction(15, 4)
    assert math.ceil(chowsrank_bound(1)) == 4
    assert chowsrank_bound(2) == Fraction(310, 27)
    assert chowsrank_intermediate_sum(1) == Fraction(4, 3)


def test_chowsrank_sum_ties_to_koszul_rank():
    # S(n, 2n+1, n) equals (2n+1)!/(n!)^2 times the intermediate sum
    for n in range(1, 9):
        lhs = Fraction(S_formula(n, 2 * n + 1, n))
        rhs = Fraction(math.factorial(2 * n + 1), math.factorial(n) ** 2)
        assert lhs == rhs * chowsrank_intermediate_sum(n)


def test_chowsrank_bound_never_beats_the_ratio():
    for n in range(1, 9):
        ratio = Fraction(S_formula(n, 2 * n + 1, n), binomial(2 * n, n))
        assert math.ceil(chowsrank_bound(n)) <= math.ceil(ratio)


def test_secant_chow_cat_rank():
    assert secant_chow_cat_rank(2, 4, 2) == 12
    assert rank_exact(catalecticant(gen_sum_of_products(2, 4), 2)).rank == 12
    assert secant_chow_cat_rank(1, 5, 2) == binomial(5, 2)
    assert secant_chow_cat_rank(3, 3, 1) == 9
    assert rank_exact(catalecticant(gen_sum_of_products(3, 3), 1)).rank == 9
    with pytest.raises(ValueError):
        secant_chow_cat_rank(2, 4, 3)


def test_secant_chow_koszul_ub():
    for d, r in itertools.product(range(2, 21), range(2, 21)):
        assert secant_chow_koszul_ub(r, d, 1, 1) == d * d * r * r - r
    assert secant_chow_koszul_ub(2, 3, 1, 1) == 34
    assert secant_chow_koszul_ub(2, 2, 1, 1) == 14
    with pytest.raises(ValueError):
        secant_chow_koszul_ub(1, 3, 1, 1)


def test_secant_chow_koszul_ub_bounds_every_small_cell():
    # The general expression, (k, p) != (1, 1), against exact Koszul ranks
    # of the sum of products at every cell of at most 3000 columns.
    cells = equal = 0
    for d, r in itertools.product((3, 4), (2, 3)):
        P = gen_sum_of_products(r, d)
        for k, p in itertools.product(range(1, d), repeat=2):
            n_cols = binomial(k + P.n_vars - 1, k) * binomial(P.n_vars, p)
            if (k, p) == (1, 1) or n_cols > 3000:
                continue
            rank = rank_exact(koszul_flattening(P, k, p)).rank
            bound = secant_chow_koszul_ub(r, d, k, p)
            assert rank <= bound, (d, r, k, p)
            cells += 1
            equal += rank == bound
    assert (cells, equal) == (15, 2)


def test_generic_kyfl11_rank_and_kernel():
    assert generic_kyfl11_rank(2) == 3
    assert generic_kyfl11_rank(3) == 8
    n, d = 3, 3
    matrix = koszul_flattening(gen_random(n, d, 5, 100), 1, 1)
    from flatrank.exactla import SparseMatrix

    trace = SparseMatrix(matrix.n_cols, 1, [((i * n) + i, 0, 1) for i in range(n)])
    assert matrix.multiply(trace).is_zero()
    # verify kyfl11 finds the trace columns (e_i, (i,)) arithmetically: times
    # the identity, its product lists them.
    for n in range(2, 7):
        labels = koszul_flattening(gen_random(n, 3, n, 100), 1, 1).col_labels
        identity = SparseMatrix(len(labels), len(labels), [(j, j, 1) for j in range(len(labels))])
        columns = [j for j, _, _ in _trace_product(identity, n).entries()]
        assert columns == [j for j, (e, (i,)) in enumerate(labels) if e[i - 1]]


def num_ab_enumeration_oracle(A, B, k, delta1, delta2, r):
    count = 0
    for beta in itertools.product(range(delta2), repeat=r):
        if (
            sum(beta) == k - A * delta2
            and sum(1 for b in beta if b) == delta1 - B - A
        ):
            count += 1
    return count


def test_num_ab_values():
    assert num_ab(0, 0, 2, 2, 2, 2) == 1
    assert num_ab(1, 1, 2, 2, 2, 2) == 1
    assert num_ab(0, 1, 2, 2, 2, 2) == 0
    assert num_ab(5, 0, 2, 2, 2, 2) == 0


def test_num_ab_matches_enumeration_oracle():
    for r, delta1, delta2 in ((2, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2)):
        d = delta1 * delta2
        for k in range(1, d):
            for a_val in range(k // delta2 + 1):
                for b_val in range(delta1 - a_val - r, delta1 - a_val + 1):
                    assert num_ab(a_val, b_val, k, delta1, delta2, r) == (
                        num_ab_enumeration_oracle(a_val, b_val, k, delta1, delta2, r)
                    )


def test_num_ab_partition_identity():
    for r in (2, 3, 4, 6):
        for delta1, delta2 in ((2, 2), (3, 2), (2, 3), (3, 4), (6, 2)):
            d = delta1 * delta2
            for k in range(1, min(d, 9)):
                total = sum(
                    num_ab(a_val, b_val, k, delta1, delta2, r)
                    * binomial(a_val + r - 1, a_val)
                    for a_val in range(k // delta2 + 1)
                    for b_val in range(delta1 - a_val - r, delta1 - a_val + 1)
                )
                assert total == binomial(k + r - 1, k)


def test_psp_rank_bounds_pinned_case():
    report = psp_rank_bounds(2, 2, 2, 2)
    assert (report.lower, report.upper) == (1, 3)
    true_rank = rank_exact(catalecticant(gen_power_sum_power(2, 2, 2), 2)).rank
    assert true_rank == 3


def test_psp_rank_bounds_secondary_pair():
    report = psp_rank_bounds(4, 2, 2, 2)
    assert report.secondary is not None
    assert report.secondary[0] == binomial(4, 2) == 6
    assert report.secondary[1] == 2 * 6 * binomial(1, 1)
    assert psp_rank_bounds(3, 2, 2, 2).secondary is None  # needs r >= 2*delta1


def test_psp_sandwich_holds_on_desk_sweep():
    for r in (1, 2, 3):
        for delta1, delta2 in ((2, 2), (2, 3), (3, 2), (4, 1), (1, 4)):
            d = delta1 * delta2
            poly = gen_power_sum_power(r, delta1, delta2)
            for k in range(1, d):
                if binomial(k + r - 1, k) > 300:
                    continue
                report = psp_rank_bounds(r, delta1, delta2, k)
                rank = rank_exact(catalecticant(poly, k)).rank
                assert report.lower <= rank <= report.upper


def test_bound_report_invariant():
    with pytest.raises(ValueError):
        BoundReport("x", 5, 4, "src", {})


def test_perm_cat_rank():
    assert perm_cat_rank(2, 1) == 4
    assert rank_exact(catalecticant(gen_permanent(2), 1)).rank == 4
    assert perm_cat_rank(3, 1) == 9
    assert perm_cat_rank(4, 2) == 36
    assert perm_cat_rank(4, 0) == 1
    with pytest.raises(ValueError):
        perm_cat_rank(4, 3)


def test_permcom_gap_values():
    ratio, log_ratio = permcom_gap(4, 4, 2)
    assert ratio == Fraction(36, 64)
    assert abs(log_ratio - math.log2(36 / 64)) < 1e-9
    ratio, _ = permcom_gap(9, 9, 3)
    assert ratio == Fraction(126 * 126, 36**3)
    # the gap only opens at larger parameters: here the comparison falls the
    # other way (165636900 < 268435456) and the exact ratio says so
    ratio, _ = permcom_gap(16, 16, 4)
    assert ratio == Fraction(165636900, 268435456)
    assert ratio < 1
    with pytest.raises(ValueError):
        permcom_gap(9, 9, 2)  # delta1 must divide n


@pytest.mark.parametrize("n, r, delta1", [(1, 1, 1), (0, 0, 1)])
def test_permcom_gap_refuses_n_below_two(n, r, delta1):
    # n // 2 = 0 would put a zero in the ratio's denominator.
    with pytest.raises(ValueError, match="n must be at least 2"):
        permcom_gap(n, r, delta1)
