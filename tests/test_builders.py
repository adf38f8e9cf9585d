"""The four matrix builders as one linear map of P: pinned layouts, an
independent per-source oracle and the Koszul factorization through the
catalecticant."""

import contextlib
import hashlib
import io
import itertools
from fractions import Fraction
from math import comb, lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank.exactla import (
    SparseMatrix,
    _components,
    binomial,
    rank_auto,
    rank_exact,
    rank_modular,
)
from flatrank import symtensor
from flatrank.koszul import (
    _exterior_pattern,
    _koszul_shape,
    exterior_derivative,
    koszul_flattening,
    wedge_basis,
    wedge_insert,
)
from flatrank.labcli import main
from flatrank.symtensor import (
    Poly,
    _derivative_pattern,
    _flattening_shape,
    _from_pattern,
    _glex_rank,
    _term_values,
    catalecticant,
    gen_permanent,
    gen_power_sum_power,
    gen_product,
    gen_random,
    gen_sum_of_products,
    monomial_basis,
    parse_poly,
    partial_derivative,
    shifted_partials,
)
from memory import traced_peak
from stored import assert_stored

FORMS = {
    "product5": lambda: gen_product(5),
    "sum_of_products_2_3": lambda: gen_sum_of_products(2, 3),
    "power_sum_power_3_2_2": lambda: gen_power_sum_power(3, 2, 2),
    "permanent3": lambda: gen_permanent(3),
    "random_4_5": lambda: gen_random(4, 5, 20261018, 2**31 - 1),
    "fractional_cubic": lambda: parse_poly(
        "1/2*x1^3 - 2/3*x1*x2*x3 + 5/7*x2^2*x3 + x3^3 - 3/4*x1*x2^2 + 6*x2*x3^2", 3),
    "zero_3_4": lambda: Poly.zero(3, 4),
}

# SHA-256 of every builder's coordinate text and labels over each form's
# valid (k, p, ell) grid, recorded before the builders shared one assembly loop.
FORM_DIGESTS = {
    "product5": "7a834f2a67aeb7cdcc7ebcb85d28931f83edec8965e38f3b63cd3fff0eec43d9",
    "sum_of_products_2_3": "7192b653c29a47c86a388f0b870a00795e82df7331fb3139ca56f34799673991",
    "power_sum_power_3_2_2": "c505be6bec407cb1512931a025cb53c8b1191e1aaa4186b183557f9a08a68ad2",
    "permanent3": "d68bd94b098822d2f1fc8983df5f77388be383bc3a466801af21a7ed96da7225",
    "random_4_5": "6a9a18ab22ba38e6c9b6e750b8aa219e3bce9f48cc1e2a5c9d090d2b4de6c5cb",
    "fractional_cubic": "e8d0539ad6e8a9f3894b3c389e258f65eeb336c578135705e026b5db149d1787",
    "zero_3_4": "2646f32bafb7e44cab53be9093aca8613ed275cc21cae0de7c97137855cc1ac7",
}
EXTERIOR_DIGEST = "8b55e6c1b67f5bb27b0ed0385f828a0b201d7fb52c39b99e2ad38b67088401ff"


def _digest(matrices) -> str:
    h = hashlib.sha256()
    for name, m in matrices:
        h.update(f"== {name}\n".encode())
        h.update(m.to_coordinate_text().encode())
        h.update(repr((m.row_labels, m.col_labels)).encode())
    return h.hexdigest()


def _form_matrices(P: Poly):
    d, n = P.degree, P.n_vars
    for k in range(1, d):
        yield f"cat k={k}", catalecticant(P, k)
        if not P.is_zero():
            for ell in (1, 2):
                yield f"shifted k={k} ell={ell}", shifted_partials(P, k, ell)
        for p in range(1, n):
            yield f"koszul k={k} p={p}", koszul_flattening(P, k, p)


@pytest.mark.parametrize("name", sorted(FORMS))
def test_builder_layouts_are_pinned(name):
    assert _digest(_form_matrices(FORMS[name]())) == FORM_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(FORMS))
def test_builders_keep_the_storage_invariant(name):
    for _, m in _form_matrices(FORMS[name]()):
        for block, _ in m._split or ():  # a monomial's deferred weight blocks
            assert_stored(block)
        assert_stored(m)  # built in full when deferred


@pytest.mark.parametrize("coeff", [Fraction(2, 3), 2**61, 2**64, -(2**70)])
def test_monomial_blocks_keep_the_storage_invariant(coeff):
    P = Poly.monomial((3, 2, 1, 1), coeff)
    for k in range(1, 7):
        for p in range(1, 4):
            m = koszul_flattening(P, k, p)
            assert m._split is not None
            for block, _ in m._split:
                assert_stored(block)
            assert_stored(m)


@pytest.mark.parametrize("name", ["fractional_cubic", "permanent3", "product5"])
def test_labels_read_after_a_rank_are_pinned(name):
    # A builder lists its labels on first read; ranking first must not change them.
    matrices = list(_form_matrices(FORMS[name]()))
    for _, m in matrices:
        rank_auto(m)
    assert _digest(matrices) == FORM_DIGESTS[name]


def test_exterior_derivative_layouts_are_pinned():
    matrices = (
        (f"ext a={a} p={p} n={n}", exterior_derivative(a, p, n))
        for n in range(2, 5) for a in range(1, 4) for p in range(n)
    )
    assert _digest(matrices) == EXTERIOR_DIGEST


def kron_identity(m: SparseMatrix, size: int) -> SparseMatrix:
    """m (x) I_size, row (i, w) and column (j, w) at i*size + w and j*size + w."""
    return SparseMatrix(
        m.n_rows * size, m.n_cols * size,
        [(i * size + w, j * size + w, v) for i, j, v in m.entries() for w in range(size)],
    )


@st.composite
def rational_forms(draw):
    n = draw(st.integers(2, 4))
    d = draw(st.integers(2, 4))
    basis = monomial_basis(n, d)
    support = draw(st.lists(st.sampled_from(basis), min_size=1, max_size=len(basis), unique=True))
    coeffs = st.builds(Fraction, st.integers(-50, 50), st.integers(2, 12)).filter(
        lambda c: c.denominator > 1)
    terms = {m: draw(coeffs) for m in support}
    return Poly(n, d, terms)


@settings(max_examples=60, deadline=None)
@given(rational_forms(), st.data())
def test_koszul_is_exterior_derivative_after_catalecticant(P, data):
    d, n = P.degree, P.n_vars
    k = data.draw(st.integers(1, d - 1))
    p = data.draw(st.integers(1, n - 1))
    # The catalecticant written down from its definition, not by the builders.
    alphas = monomial_basis(n, k)
    row = {m: i for i, m in enumerate(monomial_basis(n, d - k))}
    cat = SparseMatrix(len(row), len(alphas), [
        (row[m], j, c) for j, alpha in enumerate(alphas)
        for m, c in partial_derivative(P, alpha).terms.items()
    ])
    assert catalecticant(P, k) == cat
    lifted = kron_identity(cat, binomial(n, p))
    assert koszul_flattening(P, k, p) == exterior_derivative(d - k, p, n).multiply(lifted)


# The oracle: each column is the image of one source (a monomial ->
# coefficient map: a partial derivative of P, or a single monomial) under one
# extra (a shift monomial or a wedge), summed term by term into a dict.
def oracle(sources, extras, image, rows, cols) -> SparseMatrix:
    row = {label: i for i, label in enumerate(rows)}
    acc: dict = {}
    j = 0
    for terms in sources:
        for extra in extras:
            for m, c in terms.items():
                for label, z in image(m, extra).items():
                    key = (row[label], j)
                    acc[key] = acc.get(key, 0) + c * z
            j += 1
    entries = [(i, j, v) for (i, j), v in acc.items() if v]
    return SparseMatrix(len(rows), len(cols), entries, row_labels=rows, col_labels=cols)


def wedge_image(m, w) -> dict:
    """d(x^m (x) w): peel one x_i off the monomial and wedge it onto w."""
    out: dict = {}
    for i, e in enumerate(m):
        inserted = wedge_insert(i + 1, w) if e else None
        if inserted is not None:
            sign, bigger = inserted
            key = (m[:i] + (e - 1,) + m[i + 1:], bigger)
            out[key] = out.get(key, 0) + sign * e
    return out


def tensor_basis(n, degree, p):
    return [(m, w) for m in monomial_basis(n, degree) for w in wedge_basis(n, p)]


def derivatives(P, k):
    return [partial_derivative(P, alpha).terms for alpha in monomial_basis(P.n_vars, k)]


def oracle_catalecticant(P, k):
    n, d = P.n_vars, P.degree
    return oracle(derivatives(P, k), [None], lambda m, _: {m: 1},
                  monomial_basis(n, d - k), monomial_basis(n, k))


def oracle_shifted_partials(P, k, ell):
    n, d = P.n_vars, P.degree
    shifts = monomial_basis(n, ell)
    return oracle(derivatives(P, k), shifts,
                  lambda m, s: {tuple(a + b for a, b in zip(m, s)): 1},
                  monomial_basis(n, d - k + ell),
                  [(alpha, s) for alpha in monomial_basis(n, k) for s in shifts])


def oracle_koszul_flattening(P, k, p):
    n, d = P.n_vars, P.degree
    return oracle(derivatives(P, k), wedge_basis(n, p), wedge_image,
                  tensor_basis(n, d - k - 1, p + 1), tensor_basis(n, k, p))


def oracle_exterior_derivative(a, p, n):
    return oracle(({m: 1} for m in monomial_basis(n, a)), wedge_basis(n, p), wedge_image,
                  tensor_basis(n, a - 1, p + 1), tensor_basis(n, a, p))


def assert_same(built: SparseMatrix, expected: SparseMatrix):
    assert built.to_coordinate_text() == expected.to_coordinate_text()
    assert (built.row_labels, built.col_labels) == (expected.row_labels, expected.col_labels)


@st.composite
def sparse_forms(draw, denominators=(1, 1, 2, 3, 7)):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 6))
    basis = monomial_basis(n, d)
    support = draw(st.lists(st.sampled_from(basis), max_size=6, unique=True))
    coeffs = st.builds(Fraction, st.integers(-40, 40).filter(bool), st.sampled_from(denominators))
    return Poly(n, d, {m: draw(coeffs) for m in support})


@settings(max_examples=40, deadline=None)
@given(sparse_forms())
def test_builders_match_per_source_oracle(P):
    n, d = P.n_vars, P.degree
    for k in range(1, d):
        assert_same(catalecticant(P, k), oracle_catalecticant(P, k))
        if not P.is_zero():
            for ell in (1, 2):
                assert_same(shifted_partials(P, k, ell), oracle_shifted_partials(P, k, ell))
        for p in range(1, n):
            assert_same(koszul_flattening(P, k, p), oracle_koszul_flattening(P, k, p))
    for p in range(n):
        assert_same(exterior_derivative(d, p, n), oracle_exterior_derivative(d, p, n))


# flatten --kind, builder, shape function, flag of the third argument.
SHAPED_KINDS = [
    ("cat", catalecticant, _flattening_shape, None),
    ("shifted", shifted_partials, _flattening_shape, "--ell"),
    ("koszul", koszul_flattening, _koszul_shape, "--p"),
]


@settings(max_examples=200, deadline=None)
@given(sparse_forms(), st.sampled_from(SHAPED_KINDS), st.data())
def test_shape_functions_size_and_refuse_like_their_builders(P, kind, data):
    name, build, shape, flag = kind
    # Each range reaches below and above the valid values, negatives included.
    k = data.draw(st.integers(-1, P.degree), label="k")
    args = (P, k)
    if flag:
        args += (data.draw(st.integers(-1, 3) if flag == "--ell" else st.integers(-1, P.n_vars),
                           label=flag),)
    try:
        m = build(*args)
    except ValueError as exc:
        # flatten runs the shape function before the builder: a refusal by
        # either must read as the builder's own.
        argv = ["flatten", "--n-vars", str(P.n_vars), "--kind", name, "--k", str(k),
                "--budget-cols", str(2**62), *([flag, str(args[2])] if flag else []),
                "--", P.to_text()]  # after "--", a form may start with "-"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert (code, err.getvalue()) == (2, f"flatrank: error: {exc}\n")
    else:
        # The labels are listed from monomial and wedge bases, not binomials.
        assert shape(*args) == (m.n_rows, m.n_cols) == (len(m.row_labels), len(m.col_labels))


def test_zero_form_builds_empty_matrices():
    P = Poly.zero(3, 4)
    assert_same(catalecticant(P, 2), oracle_catalecticant(P, 2))
    assert_same(koszul_flattening(P, 2, 1), oracle_koszul_flattening(P, 2, 1))
    assert koszul_flattening(P, 2, 1).is_zero()


def test_factors_beyond_int64_are_exact():
    P = parse_poly("x1^40*x2^25 + 3*x1^30*x2^35", 2)
    for built, expected in (
        (catalecticant(P, 30), oracle_catalecticant(P, 30)),
        (koszul_flattening(P, 20, 1), oracle_koszul_flattening(P, 20, 1)),
    ):
        assert max(abs(v) for _, _, v in built.entries()) >= 2**63
        assert_same(built, expected)
        assert rank_modular(built, 2, 5).rank == rank_exact(built).rank


def test_falling_factorials_are_tabled_only_where_they_occur():
    # Two nonzeros in a 100001 x 2 matrix: the table must not grow with d.
    P = Poly.monomial((10**5, 1))
    with mock.patch.object(symtensor, "_falling", wraps=symtensor._falling) as falling:
        m = catalecticant(P, 1)
    assert falling.call_count <= 5
    assert (m.n_rows, m.n_cols) == (10**5 + 1, 2)
    assert m.entries() == [(0, 1, 1), (1, 0, 10**5)]


def test_permanent_catalecticant_memory_follows_the_pattern():
    # gen_permanent stops at n = 5, so the 720 terms of the 6 x 6 permanent
    # are listed here.  Its middle catalecticant has 14,400 nonzeros.
    terms = {}
    for sigma in itertools.permutations(range(6)):
        exps = [0] * 36
        for i, j in enumerate(sigma):
            exps[6 * i + j] = 1
        terms[tuple(exps)] = 1
    P = Poly(36, 6, terms)
    m, peak = traced_peak(catalecticant, P, 3)
    assert (m.n_rows, m.n_cols, m.nnz) == (8436, 8436, 14400)
    assert peak < 24 * 2**20


def test_exterior_pattern_memory_follows_the_pattern():
    # The 315 x 1120 cell (k = p = 3) of a dense sextic in six variables has
    # 70,560 nonzeros, so each of the three returned arrays takes 0.56 MB; the
    # bound leaves room for a few more such temporaries, not for index arrays
    # that spell out the expansion (5.65 MB with them).
    _, alpha, m, factor = _derivative_pattern(gen_random(6, 6, 1, 2**31 - 1), 3)
    group = _glex_rank(alpha)
    (row, *_), peak = traced_peak(_exterior_pattern, group, m, factor, 6, 3)
    assert row.size == 70560
    assert peak < 4 * 10**6


def test_shifted_partials_memory_follows_the_pattern():
    # A dense sextic in five variables at k = 2, ell = 1: 5,250 nonzeros.
    # Index arrays over the (entry, shift) grid took the peak to 0.82 MB.
    P = gen_random(5, 6, 1, 2**31 - 1)
    matrix, peak = traced_peak(shifted_partials, P, 2, 1)
    assert (matrix.n_rows, matrix.n_cols, matrix.nnz) == (126, 75, 5250)
    assert peak < 750_000


@pytest.mark.parametrize("n", range(1, 6))
def test_glex_rank_is_the_basis_index(n):
    for degree in range(6):
        basis = monomial_basis(n, degree)
        ranks = _glex_rank(np.array(basis, dtype=np.int64).reshape(len(basis), n))
        assert ranks.tolist() == list(range(len(basis)))


def basis_index(row) -> int:
    """Index of ``row`` in monomial_basis(len(row), sum(row)), counted
    directly: the vectors of that degree that are lexicographically larger,
    by the first position j where they differ and their value v there."""
    n, left, index = len(row), sum(row), 0
    for j, e in enumerate(row[:-1]):
        index += sum(comb(left - v + n - j - 2, n - j - 2) for v in range(e + 1, left + 1))
        left -= e
    return index


@st.composite
def glex_rows(draw, n, big):
    """An exponent row in n variables: of degree 10^5 with a tail sum
    (the sum past x1) between 100 and 1000 when ``big``, else of degree at
    most 6."""
    degree = 10**5 if big else draw(st.integers(0, 6))
    if n == 1:
        return (degree,)
    tail = draw(st.integers(100, 1000) if big else st.integers(0, degree))
    cuts = sorted(draw(st.lists(st.integers(0, tail), min_size=n - 2, max_size=n - 2)))
    return (degree - tail, *(b - a for a, b in zip([0, *cuts], [*cuts, tail])))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.data())
def test_glex_rank_counts_the_larger_vectors(n, big, data):
    # At least 7 rows of degree at most 6 take the binomial table over every
    # tail sum, with no sort; at most 8 rows of degree 10^5 would need a
    # table past the rows' own size, and sort the sums that occur instead.
    rows = data.draw(st.lists(glex_rows(n, big), min_size=1 if big else 7,
                              max_size=8 if big else 30))
    if not big:
        degree = max(map(sum, rows))
        basis = monomial_basis(n, degree)
        assert [basis_index(r) for r in basis] == list(range(len(basis)))
    with mock.patch.object(np, "unique", wraps=np.unique) as unique:
        ranks = _glex_rank(np.array(rows, dtype=np.int64).reshape(len(rows), n))
    assert ranks.dtype == np.int64
    assert ranks.tolist() == [basis_index(r) for r in rows]
    assert unique.called == (big and n > 1)


@settings(max_examples=30, deadline=None)
@given(sparse_forms(denominators=(1,)), st.data())
def test_coordinate_text_round_trip_on_builder_output(P, data):
    d, n = P.degree, P.n_vars
    if d < 2 or n < 2:
        m = exterior_derivative(d, 0, n)
    else:
        m = koszul_flattening(P, data.draw(st.integers(1, d - 1)), data.draw(st.integers(1, n - 1)))
    assert all(type(v) is int for _, _, v in m.entries())
    assert SparseMatrix.from_coordinate_text(m.to_coordinate_text()) == m


def test_building_and_ranking_never_run_the_checked_constructor(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a built matrix went through SparseMatrix.__init__")

    monkeypatch.setattr(SparseMatrix, "__init__", refuse)
    cat = catalecticant(gen_random(3, 4, 7, 2**31 - 1), 2)
    product = koszul_flattening(gen_product(3), 1, 1)
    built = [cat, shifted_partials(parse_poly("x1^3 - 2/3*x1*x2*x3", 3), 1, 1), product,
             exterior_derivative(2, 1, 3), cat.multiply(cat),
             exterior_derivative(1, 1, 3).multiply(exterior_derivative(2, 0, 3))]
    assert len(_components(cat)) == 1
    assert sum(count for _, count in _components(product)) == 7
    ranks = [(rank_exact(m).rank, rank_modular(m).rank) for m in built]
    # x2 * d/dx2 and x3 * d/dx3 meet in x1*x2*x3; the Koszul complex is exact.
    assert ranks == [(6, 6), (8, 8), (8, 8), (8, 8), (6, 6), (0, 0)]
    assert built[-1].is_zero()  # d o d = 0


def test_from_pattern_refuses_a_position_outside_or_listed_twice():
    term, factor = np.zeros(2, dtype=np.int64), np.array([2, -3])

    def build(row, col):
        return _from_pattern(np.array(row), np.array(col),
                             *_term_values([Fraction(5, 2)], term, factor), (2, 2), None)

    assert build([0, 1], [1, 0]).entries() == [(0, 1, 5), (1, 0, Fraction(-15, 2))]
    for row, col in (([0, 2], [1, 0]), ([0, 1], [1, -1]), ([1, 1], [0, 0])):
        with pytest.raises(ValueError):
            build(row, col)


def gathered_values(coeffs, term, factor, order):
    """The values of a pattern gathered as the builders first did: Python-int
    numerators over the common denominator picked per position, multiplied
    in int64 when the bit lengths of the two gathered arrays prove it exact."""
    den = lcm(*(c.denominator for c in coeffs))
    num = np.array([c.numerator * (den // c.denominator) for c in coeffs], dtype=object)
    a, b = num[term[order]], factor[order]
    if not a.size or sum(int(np.abs(x).max()).bit_length() for x in (a, b)) < 63:
        return a.astype(np.int64) * b.astype(np.int64)
    return a.astype(object) * b.astype(object)


# Magnitudes on both sides of the int64 bound, alone and as a product.
NEAR_BOUND = st.sampled_from([1, 2, 3, 2**31 - 1, 2**62 - 1, 2**62, 2**62 + 1, 2**63 + 5])


@st.composite
def patterns(draw):
    """(coeffs, row, col, term, factor, shape) with distinct positions in
    random order, coefficients near 2^62 or fractional, some unused, and
    factors int64 or Python ints; the shape has 2^62 more rows on demand,
    past the int64 key row * n_cols + col."""
    numerator = st.builds(lambda m, s: m * s, NEAR_BOUND | st.integers(1, 50),
                          st.sampled_from([1, -1]))
    coeffs = draw(st.lists(st.builds(Fraction, numerator, st.sampled_from([1, 1, 2, 3, 7])),
                           min_size=1, max_size=5))
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                          unique=True, max_size=n_rows * n_cols))
    row = np.array([i for i, _ in cells], dtype=np.int64)
    col = np.array([j for _, j in cells], dtype=np.int64)
    term = np.array(draw(st.lists(st.integers(0, len(coeffs) - 1), min_size=len(cells),
                                  max_size=len(cells))), dtype=np.int64)
    factors = draw(st.lists(st.builds(lambda m, s: m * s, NEAR_BOUND | st.integers(1, 9),
                                      st.sampled_from([1, -1])),
                            min_size=len(cells), max_size=len(cells)))
    if all(abs(f) < 2**63 for f in factors) and draw(st.booleans()):
        factor = np.array(factors, dtype=np.int64)
    else:
        factor = np.array(factors, dtype=object)
    shape = (n_rows + draw(st.sampled_from([0, 2**62])), n_cols)
    return coeffs, row, col, term, factor, shape


@settings(max_examples=200, deadline=None)
@given(patterns())
def test_from_pattern_values_match_the_object_gather(pattern):
    coeffs, row, col, term, factor, shape = pattern
    # row and col are _from_pattern's scratch: it is given copies.
    m = _from_pattern(row.copy(), col.copy(), *_term_values(coeffs, term, factor), shape, None)
    order = np.lexsort((col, row))
    expected = gathered_values(coeffs, term, factor, order)
    # Stored int64 exactly when every value fits, whichever dtype the gather took.
    fits = all(-2**63 <= v < 2**63 for v in expected.tolist())
    assert m._values.dtype == (np.int64 if fits else object)
    assert m._values.tolist() == expected.tolist()
    assert m._rows.tolist() == row[order].tolist() and m._cols.tolist() == col[order].tolist()
    assert m._den == lcm(*(c.denominator for c in coeffs))
