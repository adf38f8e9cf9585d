"""Wedge combinatorics, the exterior derivative, Koszul flattenings, the
weight blocks of the product's Koszul flattening, and a monomial's
flattening ranked from one weight block per orbit."""

import random
from argparse import Namespace
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatrank.exactla import (
    SparseMatrix,
    _components,
    _modular_rank,
    binomial,
    rank_auto,
    rank_exact,
    rank_modular,
)
from flatrank.formulas import S_formula, hook_dim
from flatrank.koszul import (
    _full_koszul,
    _weight_orbits,
    exterior_derivative,
    koszul_flattening,
    monomial_blocks,
    wedge_basis,
    weight_block,
    wedge_insert,
)
from flatrank.labcli import RankOptions, _case_seed, run_bounds
from flatrank.symtensor import Poly, gen_product, gen_random


def test_wedge_basis():
    assert wedge_basis(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert wedge_basis(4, 0) == [()]
    assert len(wedge_basis(6, 3)) == binomial(6, 3)


def test_wedge_insert_signs():
    assert wedge_insert(2, (1, 3)) == (-1, (1, 2, 3))
    assert wedge_insert(1, (2, 3)) == (1, (1, 2, 3))
    assert wedge_insert(4, (1, 3)) == (1, (1, 3, 4))
    assert wedge_insert(3, (1, 3)) is None


def test_exterior_derivative_injection_at_degree_one():
    m = exterior_derivative(1, 0, 2)
    assert (m.n_rows, m.n_cols) == (2, 2)
    assert rank_exact(m).rank == 2


def test_exterior_derivative_self_wedge_sign():
    # x1*x2 (x) x1 maps to -x1 (x) (x1^x2): the x1 summand dies on the
    # self-wedge and the x2 summand picks up the sorting sign.
    m = exterior_derivative(2, 1, 2)
    col = m.col_labels.index(((1, 1), (1,)))
    row = m.row_labels.index(((1, 0), (1, 2)))
    assert m.entry(row, col) == -1
    assert sum(1 for i, j, _ in m.entries() if j == col) == 1


def test_exterior_derivative_composition_is_zero():
    composed = exterior_derivative(2, 2, 3).multiply(exterior_derivative(3, 1, 3))
    assert composed.is_zero()
    for n in (2, 3, 4):
        for a in (2, 3, 4):
            for p in (0, 1, 2):
                if p + 1 >= n:
                    continue
                outer = exterior_derivative(a - 1, p + 1, n)
                inner = exterior_derivative(a, p, n)
                assert outer.multiply(inner).is_zero()


def test_exterior_derivative_parameter_errors():
    with pytest.raises(ValueError):
        exterior_derivative(0, 0, 2)
    with pytest.raises(ValueError):
        exterior_derivative(1, 2, 2)


def test_koszul_flattening_power_and_product():
    cube = Poly.monomial((3, 0, 0))
    assert rank_exact(koszul_flattening(cube, 1, 1)).rank == 2
    assert rank_exact(koszul_flattening(cube, 1, 2)).rank == 1
    product = koszul_flattening(gen_product(3), 1, 1)
    assert (product.n_rows, product.n_cols) == (9, 9)
    assert rank_exact(product).rank == 8


def test_koszul_flattening_zero_polynomial():
    m = koszul_flattening(Poly.zero(3, 3), 1, 1)
    assert m.is_zero()
    assert rank_exact(m).rank == 0


def test_koszul_flattening_parameter_errors():
    with pytest.raises(ValueError):
        koszul_flattening(gen_product(3), 3, 1)
    with pytest.raises(ValueError):
        koszul_flattening(gen_product(3), 1, 3)


def test_koszul_flattening_labels():
    m = koszul_flattening(gen_product(3), 1, 1)
    assert m.col_labels[0] == ((1, 0, 0), (1,))
    assert m.row_labels[0] == ((1, 0, 0), (1, 2))


def expected_component_ranks(d, k, p):
    """Multiset of the nonzero ranks of the torus-weight blocks of the Koszul
    flattening of x1*...*xd.  A block shares s variables between monomial and
    wedge and splits free = d-k+p-2s more between them: there are
    C(d,s)*C(d-s,free) blocks of overlap s, each of rank C(free-1, p-s)."""
    ranks = Counter()
    for s in range(max(0, p - k), min(p, d - k) + 1):
        free = d - k + p - 2 * s
        rank = comb(free - 1, p - s) if free else 0
        if rank:
            ranks[rank] += comb(d, s) * comb(d - s, free)
    return ranks


def test_product_components_are_weight_blocks():
    # The row/column split finds the weight blocks by itself: one connected
    # component per block of nonzero rank, so the blocks' images are
    # independent and their ranks add up to the closed form.
    for d in range(2, 7):
        product = gen_product(d)
        for k in range(1, d):
            for p in range(1, d):
                ranks = Counter()
                for c, count in _components(_full_koszul(product, k, p)):
                    ranks[rank_exact(c).rank] += count
                assert ranks == expected_component_ranks(d, k, p), (d, k, p)
                assert sum(r * n for r, n in ranks.items()) == S_formula(p, d, k)
    # d=3, (1,1): x2x3 (x) x1, x1x3 (x) x2 and x1x2 (x) x3 span the one
    # overlap-free block of rank 2; each of the six overlap-1 blocks is 1x1.
    shapes = Counter()
    for c, count in _components(_full_koszul(gen_product(3), 1, 1)):
        shapes[c.n_rows, c.n_cols, rank_exact(c).rank] += count
    assert shapes == Counter({(3, 3, 2): 1, (1, 1, 1): 6})


def columns(*picks):
    """The matrix whose columns are those of m at the positions js, for each
    (m, js) in turn."""
    entries, n_cols = [], 0
    for m, js in picks:
        at = {j: n_cols + new for new, j in enumerate(js)}
        entries += [(i, at[j], v) for i, j, v in m.entries() if j in at]
        n_cols += len(js)
    return SparseMatrix(picks[0][0].n_rows, n_cols, entries)


def product_weight_blocks(m):
    """Columns of the Koszul flattening m of x1*...*xd grouped by torus
    weight.  Column (alpha, w) with alpha squarefree carries x^(1-alpha) (x) w,
    of weight (1-alpha) + e_w; the other columns are zero.  The overlap s of a
    block is the number of 2s in its weight."""
    blocks = defaultdict(list)
    for j, (alpha, w) in enumerate(m.col_labels):
        if max(alpha) > 1:
            continue
        weight = [1 - a for a in alpha]
        for v in w:
            weight[v - 1] += 1
        blocks[tuple(weight)].append(j)
    return blocks


def test_weight_blocks_small_case():
    m = koszul_flattening(gen_product(3), 1, 1)
    blocks = product_weight_blocks(m)
    by_overlap = Counter(weight.count(2) for weight in blocks)
    assert by_overlap == Counter({0: 1, 1: 6})
    ranks = {weight: rank_exact(columns((m, cols))).rank for weight, cols in blocks.items()}
    assert ranks[(1, 1, 1)] == 2
    assert all(r == 1 for weight, r in ranks.items() if weight != (1, 1, 1))
    assert sum(ranks.values()) == 8
    # the overlap-free block spans the three squarefree complements
    # x2x3 (x) x1, x1x3 (x) x2 and x1x2 (x) x3
    assert {m.col_labels[j] for j in blocks[(1, 1, 1)]} == {
        ((1, 0, 0), (1,)), ((0, 1, 0), (2,)), ((0, 0, 1), (3,))
    }


def test_weight_block_counts_match_formula():
    for d in (3, 4, 5):
        product = gen_product(d)
        for k in range(1, d):
            for p in range(1, d):
                m = _full_koszul(product, k, p)
                counts = Counter(weight.count(2) for weight in product_weight_blocks(m))
                expected = Counter()
                for s in range(max(0, p - k), min(p, d - k) + 1):
                    expected[s] = binomial(d, s) * binomial(d - s, d - k + p - 2 * s)
                assert counts == expected, (d, k, p)
                # one component of the engine's split per block of nonzero rank
                assert sum(count for _, count in _components(m)) == sum(
                    expected_component_ranks(d, k, p).values())


def test_weight_block_matrices_achieve_stated_rank():
    for d, k, p in ((3, 1, 1), (4, 2, 1), (4, 1, 2), (5, 2, 2)):
        m = koszul_flattening(gen_product(d), k, p)
        total = 0
        for weight, cols in product_weight_blocks(m).items():
            s = weight.count(2)
            stated = binomial(d - k + p - 2 * s - 1, p - s)
            assert rank_exact(columns((m, cols))).rank == stated, (d, k, p, weight)
            total += stated
        assert total == rank_exact(m).rank == S_formula(p, d, k)


def test_full_overlap_blocks_have_rank_zero():
    # at s = d-k the monomial support equals the shared set, so every image
    # vector dies on a self-wedge: x_l (x) w with l in w, for d=3, k=p=2
    m = koszul_flattening(gen_product(3), 2, 2)
    full_overlap = [j for j, (alpha, w) in enumerate(m.col_labels)
                    if max(alpha) == 1 and alpha.index(0) + 1 in w]
    assert len(full_overlap) == 6
    assert not {j for _, j, _ in m.entries()} & set(full_overlap)
    assert rank_exact(m).rank == S_formula(2, 3, 2) == 1


def test_fast_rank_product_values():
    # the modular rank, the engine's fast path, on the split product matrix
    for (d, k, p), expected in (((3, 1, 1), 8), ((4, 2, 1), 20), ((5, 2, 2), 76)):
        result = rank_modular(koszul_flattening(gen_product(d), k, p), 2, d)
        assert result.rank == expected


def test_fast_rank_product_matches_matrix_rank():
    for d in range(2, 6):
        product = gen_product(d)
        for k in range(1, d):
            for p in range(1, d):
                m = koszul_flattening(product, k, p)
                assert rank_modular(m, 2, 10 * k + p).rank == rank_exact(m).rank


@pytest.mark.parametrize("n, rank, ceiling, closed_form", [
    (1, 8, 4, 4), (2, 76, 13, 12), (3, 832, 42, 39), (4, 10036, 144, 138), (5, 128864, 512, 498),
    (6, 1723632, 1866, 1831),
])
def test_middle_cells_certify_the_odd_product_bound(n, rank, ceiling, closed_form):
    # The paper's lower bound for x1...x(2n+1), from the brute mod-q rank of
    # its (n, n) Koszul cell: a mod-q rank is a lower bound over Q, so
    # ceil(rank / C(2n, n)) bounds the symmetric border rank whatever the primes.
    # The d = 13 cell is ranked from one weight block per orbit: built in
    # full, it takes about 8 s.
    d = 2 * n + 1
    result = rank_modular(koszul_flattening(gen_product(d), n, n), 2, 0)
    assert result.rank == S_formula(n, d, n) == rank
    bounds = run_bounds(Namespace(family="odd-product", n=n), 0, RankOptions())
    assert -(-result.rank // binomial(2 * n, n)) == bounds["flattening_ratio_ceiling"] == ceiling
    assert bounds["closed_form_ceiling"] == closed_form <= ceiling


def test_block_sum_equals_assembled_rank():
    # the component ranks add up to the rank of the assembled matrix, which
    # is the closed form
    for d in range(2, 6):
        product = gen_product(d)
        for k in range(1, d):
            for p in range(1, d):
                m = _full_koszul(product, k, p)
                assembled = rank_exact(m).rank
                assert sum(count * rank_exact(c).rank for c, count in _components(m)) == assembled
                assert assembled == S_formula(p, d, k)


def test_image_contained_in_squarefree_part():
    # every column of the product flattening lies in the image of the
    # squarefree monomials tensored with p-wedges
    for d in (2, 3, 4):
        for k in range(1, d):
            for p in range(1, d):
                flattening = koszul_flattening(gen_product(d), k, p)
                derivative = exterior_derivative(d - k, p, d)
                squarefree = [
                    j
                    for j, (mono, _) in enumerate(derivative.col_labels)
                    if max(mono) <= 1
                ]
                everything = range(flattening.n_cols)
                assert (
                    rank_exact(columns((derivative, squarefree), (flattening, everything))).rank
                    == rank_exact(columns((derivative, squarefree))).rank
                )


def test_koszul_flattening_subadditive():
    rng = random.Random(9)
    for _ in range(8):
        d = rng.randint(2, 4)
        k = rng.randint(1, d - 1)
        p = rng.randint(1, 2)
        a = gen_random(3, d, rng.randrange(10**6), 15)
        b = gen_random(3, d, rng.randrange(10**6), 15)
        ra = rank_exact(koszul_flattening(a, k, p)).rank
        rb = rank_exact(koszul_flattening(b, k, p)).rank
        assert rank_exact(koszul_flattening(a + b, k, p)).rank <= ra + rb


def test_generic_koszul_rank_is_hook_dimension():
    for d in (3, 4, 5):
        for k in range(-(-d // 2), d):
            for p in range(1, d):
                poly = gen_random(d, d, 800 + 100 * d + 10 * k + p, 2**31 - 1)
                observed = rank_modular(koszul_flattening(poly, k, p), 2, 31 * d + p)
                assert observed.rank == hook_dim(d, k, p)


def test_product_rank_strictly_below_generic():
    for d in (6, 7):
        for k in range(-(-d // 2), d - 2):
            for p in range(1, d):
                assert S_formula(p, d, k) < hook_dim(d, k, p)


def rank_profile(m, seed):
    """What a report or a verify case reads of m: shape, nnz, the policy's
    rank, method and primes, the exact rank, and the rank mod each prime."""
    modular = rank_modular(m, 2, seed)
    per_prime = [_modular_rank(_components(m), q) for q in modular.primes_used]
    return (m.n_rows, m.n_cols, m.nnz), rank_auto(m, seed), modular, rank_exact(m), per_prime


def test_orbit_path_matches_the_full_build_on_product_cells():
    # Every (k, p) cell of x1...xd up to d = 8, at the seeds scan draws.
    for d in range(2, 9):
        product = gen_product(d)
        for k in range(1, d):
            for p in range(1, d):
                seed = _case_seed(0, k, p)
                full = rank_profile(_full_koszul(product, k, p), seed)
                assert rank_profile(koszul_flattening(product, k, p), seed) == full


@st.composite
def monomial_cells(draw):
    """(c*x^a, k, p): repeated exponents, variables outside the support, and
    a coefficient that is usually a fraction."""
    support = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    exps = draw(st.permutations(support + [0] * draw(st.integers(0, 2))))
    if len(exps) < 2 or sum(exps) < 2:
        exps = [*exps, 1, 1]
    coeff = Fraction(draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1])),
                     draw(st.integers(1, 6)))
    k = draw(st.integers(1, sum(exps) - 1))
    p = draw(st.integers(1, len(exps) - 1))
    return Poly.monomial(tuple(exps), coeff), k, p


@settings(max_examples=60, deadline=None)
@given(monomial_cells(), st.integers(0, 2**32))
# Classes with long value ranges, which the drawn exponents 1..3 never give.
@example((Poly.monomial((9, 9)), 4, 1), 0)
@example((Poly.monomial((9, 9)), 9, 1), 0)
@example((Poly.monomial((9, 9)), 16, 1), 0)
@example((Poly.monomial((6, 6, 1)), 3, 1), 0)
@example((Poly.monomial((6, 6, 1)), 6, 2), 0)
@example((Poly.monomial((6, 6, 1)), 11, 2), 0)
@example((Poly.monomial((5, 5, 5), Fraction(3, 2)), 4, 1), 0)
@example((Poly.monomial((5, 5, 5), Fraction(3, 2)), 8, 2), 0)
@example((Poly.monomial((5, 5, 5), Fraction(3, 2)), 13, 1), 0)
def test_orbit_path_matches_the_full_build_on_random_monomials(cell, seed):
    P, k, p = cell
    full = rank_profile(_full_koszul(P, k, p), seed)
    assert rank_profile(koszul_flattening(P, k, p), seed) == full


def weight_of(a, label, is_column):
    """The torus weight of a row label (m', w') or a column label (alpha, w)."""
    mono, wedge = label
    weight = [e - x for e, x in zip(a, mono)] if is_column else list(mono)
    for v in wedge:
        weight[v - 1] += 1
    return tuple(weight)


def wedge_image(sigma, wedge):
    """(sign, sorted wedge) of the image of a wedge when x_v goes to x_sigma[v-1]."""
    image = [sigma[v - 1] for v in wedge]
    inversions = sum(x > y for i, x in enumerate(image) for y in image[i + 1:])
    return (-1) ** inversions, tuple(sorted(image))


def block_entries(block):
    """{(row wedge, column wedge): value} of a weight block."""
    return {(block.row_labels[i], block.col_labels[j]): v for i, j, v in block.entries()}


def stabiliser_sample(a, rng, count):
    """``count`` random permutations (1-based images) of the variables that fix a."""
    classes = defaultdict(list)
    for v, e in enumerate(a, 1):
        classes[e].append(v)
    sample = []
    for _ in range(count):
        sigma = list(range(1, len(a) + 1))
        for members in classes.values():
            for v, image in zip(members, rng.sample(members, len(members))):
                sigma[v - 1] = image
        sample.append(sigma)
    return sample


@pytest.mark.parametrize("a, coeff, k, p", [
    ((2, 2, 1, 1, 0, 1), Fraction(5, 3), 3, 2),
    ((1, 1, 1, 1, 1, 0, 0), Fraction(1), 2, 3),
    ((3, 0, 3, 2, 0), Fraction(-2, 7), 4, 2),
])
def test_weight_blocks_are_the_full_matrix_by_weight_and_permute_by_sign(a, coeff, k, p):
    P = Poly.monomial(a, coeff)
    full = _full_koszul(P, k, p)
    by_weight = defaultdict(dict)
    for i, j, v in full.entries():
        row, col = full.row_labels[i], full.col_labels[j]
        weight = weight_of(a, col, True)
        assert weight_of(a, row, False) == weight
        by_weight[weight][row[1], col[1]] = v
    # Each nonzero weight block of the full matrix, entry by entry.
    for weight, cells in by_weight.items():
        assert block_entries(weight_block(P, weight, p)) == cells
    # One weight per orbit, the orbit sizes adding up to the blocks.
    orbits = list(_weight_orbits(a, k, p))
    assert sum(size for _, size in orbits) == len(by_weight)
    assert {mu for mu, _ in orbits} <= set(by_weight)
    assert [size for _, size in orbits] == [size for _, size in monomial_blocks(P, k, p)]
    # The block of sigma(mu) is the block of mu, signed and permuted.
    rng = random.Random(sum(a) + k + p)
    for sigma in stabiliser_sample(a, rng, 4):
        for weight in by_weight:
            moved = [0] * len(a)
            for v, x in enumerate(weight, 1):
                moved[sigma[v - 1] - 1] = x
            expected = {}
            for (row, col), v in block_entries(weight_block(P, weight, p)).items():
                (s_row, row_image), (s_col, col_image) = wedge_image(sigma, row), wedge_image(sigma, col)
                expected[row_image, col_image] = s_row * s_col * v
            assert block_entries(weight_block(P, tuple(moved), p)) == expected


def test_deferred_flattening_builds_only_when_its_entries_are_read():
    def built(m):
        # The slot itself: reading m._values would build it.
        try:
            SparseMatrix._values.__get__(m)
        except AttributeError:
            return False
        return True

    P = Poly.monomial((2, 1, 1, 0), Fraction(3, 2))
    full = _full_koszul(P, 2, 1)
    m = koszul_flattening(P, 2, 1)
    assert (rank_exact(m), rank_modular(m), m.nnz, m.is_zero()) == (
        rank_exact(full), rank_modular(full), full.nnz, False)
    assert m.row_labels == full.row_labels and not built(m)
    assert m == full and m.to_coordinate_text() == full.to_coordinate_text() and built(m)
