"""Polynomial model, generators, derivatives, and flattening builders."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatrank.exactla import binomial, rank_exact
from flatrank.symtensor import (
    InhomogeneityError,
    ParseError,
    Poly,
    apply_linear_map,
    catalecticant,
    gen_kyfl11_witness,
    gen_permanent,
    gen_power_sum_power,
    gen_product,
    gen_random,
    gen_sum_of_products,
    monomial_basis,
    parse_poly,
    partial_derivative,
    set_variables_to_zero,
    shifted_partials,
)
from test_exactla import dense_rank_oracle


def test_monomial_basis_graded_lex_order():
    basis = monomial_basis(3, 2)
    assert basis == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert len(monomial_basis(4, 3)) == binomial(6, 3)


def test_parse_simple_monomial():
    p = parse_poly("x1*x2*x3", 3)
    assert p.terms == {(1, 1, 1): Fraction(1)}
    assert p.degree == 3


def test_parse_two_terms():
    p = parse_poly("x1^2 + x2^2", 2)
    assert p.terms == {(2, 0): Fraction(1), (0, 2): Fraction(1)}


def test_parse_rejects_inhomogeneous():
    with pytest.raises(InhomogeneityError):
        parse_poly("x1^2 + x2^3", 2)


def test_parse_coefficients_signs_and_fractions():
    p = parse_poly("3*x1^2 - 1/2*x1*x2 + x2^2", 2)
    assert p.terms == {(2, 0): Fraction(3), (1, 1): Fraction(-1, 2), (0, 2): Fraction(1)}
    assert parse_poly("-x1*x2", 2).terms == {(1, 1): Fraction(-1)}
    assert parse_poly("  x1 ^ 2+ x1 * x2 ", 2).degree == 2


def test_parse_bare_coefficients_are_degree_zero_terms():
    assert parse_poly("5", 2) == Poly(2, 0, {(0, 0): 5})
    assert parse_poly("-3/2", 1) == Poly(1, 0, {(0,): Fraction(-3, 2)})
    assert parse_poly("0", 3) == Poly.zero(3, 0)
    assert parse_poly("2 - 1/2", 1).terms == {(0,): Fraction(3, 2)}
    with pytest.raises(InhomogeneityError):
        parse_poly("x1 + 1", 1)
    with pytest.raises(ParseError):
        parse_poly("2 x1", 1)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + y2", 2)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("2x1", 1)  # missing '*'
    with pytest.raises(ParseError):
        parse_poly("", 2)
    with pytest.raises(ParseError) as err:
        parse_poly("x1*x5", 3)
    assert "x5" in str(err.value)


@pytest.mark.parametrize("text, message, position", [
    ("x1^²", "expected an exponent", 3),
    ("x١", "expected a variable index", 1),
    ("٣*x1", "expected a variable factor like 'x1'", 0),
])
def test_parse_reads_ascii_digits_only(text, message, position):
    # str.isdigit() accepts '²' and '١', and int() reads '١' as 1.
    with pytest.raises(ParseError) as err:
        parse_poly(text, 2)
    assert (str(err.value), err.value.position) == (f"{message} (at position {position})",
                                                    position)


def test_parse_cancellation_keeps_degree():
    p = parse_poly("x1*x2 - x1*x2", 2)
    assert p.is_zero()
    assert p.degree == 2


def test_gen_product():
    assert gen_product(1).terms == {(1,): Fraction(1)}
    assert gen_product(3).terms == {(1, 1, 1): Fraction(1)}
    five = gen_product(5)
    assert len(five.terms) == 1 and five.n_vars == 5


def test_gen_sum_of_products():
    assert gen_sum_of_products(1, 3) == gen_product(3)
    two = gen_sum_of_products(2, 2)
    assert two.terms == {(1, 1, 0, 0): Fraction(1), (0, 0, 1, 1): Fraction(1)}
    three = gen_sum_of_products(3, 3)
    assert three.n_vars == 9 and len(three.terms) == 3


def test_gen_power_sum_power():
    p = gen_power_sum_power(2, 2, 2)
    assert p.terms == {(4, 0): Fraction(1), (2, 2): Fraction(2), (0, 4): Fraction(1)}
    assert gen_power_sum_power(1, 3, 2).terms == {(6,): Fraction(1)}
    assert len(gen_power_sum_power(3, 2, 1).terms) == 6


def test_gen_permanent():
    assert gen_permanent(1).terms == {(1,): Fraction(1)}
    two = gen_permanent(2)
    assert two.terms == {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(1)}
    assert len(gen_permanent(3).terms) == 6
    with pytest.raises(ValueError):
        gen_permanent(6)


def test_gen_kyfl11_witness():
    assert gen_kyfl11_witness(2, 3).terms == {
        (3, 0): Fraction(1), (0, 3): Fraction(1), (2, 1): Fraction(1)
    }
    expected = {(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0), (2, 0, 1)}
    assert set(gen_kyfl11_witness(3, 3).terms) == expected
    assert len(gen_kyfl11_witness(4, 4).terms) == 7


def test_gen_random_dense_and_reproducible():
    p = gen_random(2, 2, 17, 10)
    assert len(p.terms) == 3
    assert all(1 <= c <= 10 for c in p.terms.values())
    assert gen_random(2, 2, 17, 10) == p
    assert gen_random(2, 2, 18, 10) != p


def test_gen_random_generic_catalecticant_rank():
    m = catalecticant(gen_random(3, 3, 42, 100), 1)
    assert rank_exact(m).rank == 3


def test_partial_derivative():
    p = gen_product(3)
    assert partial_derivative(p, (1, 0, 0)).terms == {(0, 1, 1): Fraction(1)}
    cube = Poly.monomial((3,))
    assert partial_derivative(cube, (2,)).terms == {(1,): Fraction(6)}
    assert partial_derivative(p, (2, 0, 0)).is_zero()
    with pytest.raises(ValueError):
        partial_derivative(p, (2, 2, 0))


@pytest.mark.parametrize("value", [0.1, "3/2", Decimal("0.1")])
def test_poly_refuses_inexact_coefficients(value):
    with pytest.raises(TypeError):
        Poly(2, 1, {(1, 0): value})
    with pytest.raises(TypeError):
        gen_product(2).scale(value)


def test_catalecticant_examples():
    assert rank_exact(catalecticant(gen_product(3), 1)).rank == 3
    power = Poly.monomial((4, 0, 0))
    for k in (1, 2, 3):
        assert rank_exact(catalecticant(power, k)).rank == 1
    assert rank_exact(catalecticant(gen_power_sum_power(2, 2, 2), 2)).rank == 3
    with pytest.raises(ValueError):
        catalecticant(gen_product(3), 3)
    with pytest.raises(ValueError):
        catalecticant(gen_product(3), 0)


def test_catalecticant_layout():
    m = catalecticant(gen_product(3), 1)
    assert m.col_labels == tuple(monomial_basis(3, 1))
    assert m.row_labels == tuple(monomial_basis(3, 2))
    # column alpha holds the derivative of the product: a single monomial
    assert m.entry(m.row_labels.index((0, 1, 1)), 0) == 1


def test_shifted_partials_examples():
    assert rank_exact(shifted_partials(gen_product(3), 1, 1)).rank == 7
    for n in (2, 3, 4):
        power = Poly.monomial((4,) + (0,) * (n - 1))
        assert rank_exact(shifted_partials(power, 1, 1)).rank == n
    with pytest.raises(ValueError):
        shifted_partials(Poly.zero(3, 3), 1, 1)
    with pytest.raises(ValueError):
        shifted_partials(gen_product(3), 1, 0)


def test_generator_outputs_are_homogeneous():
    polys = [
        gen_product(4),
        gen_sum_of_products(2, 3),
        gen_power_sum_power(3, 2, 2),
        gen_permanent(3),
        gen_kyfl11_witness(3, 4),
        gen_random(3, 4, 0, 9),
    ]
    for p in polys:
        assert all(sum(e) == p.degree for e in p.terms)
        d = partial_derivative(p, (1, 0, 0) + (0,) * (p.n_vars - 3))
        assert all(sum(e) == d.degree == p.degree - 1 for e in d.terms)


def test_catalecticant_is_linear():
    rng = random.Random(2)
    for _ in range(5):
        d = rng.randint(2, 5)
        k = rng.randint(1, d - 1)
        p = gen_random(3, d, rng.randrange(10**6), 9)
        q = gen_random(3, d, rng.randrange(10**6), 9)
        a, b = rng.randint(1, 5), rng.randint(-5, -1)
        combined = catalecticant(p.scale(a) + q.scale(b), k)
        mp, mq = catalecticant(p, k), catalecticant(q, k)
        for i in range(combined.n_rows):
            for j in range(combined.n_cols):
                assert combined.entry(i, j) == a * mp.entry(i, j) + b * mq.entry(i, j)


def test_flattening_rank_symmetry():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randint(2, 3)
        d = rng.randint(2, 6)
        p = gen_random(n, d, rng.randrange(10**6), 20)
        for k in range(1, d):
            left = rank_exact(catalecticant(p, k)).rank
            right = rank_exact(catalecticant(p, d - k)).rank
            assert left == right


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(2, 4), st.integers(2, 4), st.integers(0, 10**6))
def test_substitution_invariance(data, n, d, seed):
    k = data.draw(st.integers(1, d - 1))
    g = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                           min_size=n, max_size=n))
    assume(dense_rank_oracle(g) == n)
    p = gen_random(n, d, seed, 30)
    assert (
        rank_exact(catalecticant(apply_linear_map(p, g), k)).rank
        == rank_exact(catalecticant(p, k)).rank
    )


def test_generic_flattenings_have_maximal_rank():
    for n in (2, 3, 4):
        for d in (2, 3, 4, 5, 6):
            for k in range(1, d):
                expected = min(binomial(k + n - 1, k), binomial(d - k + n - 1, d - k))
                p = gen_random(n, d, 1000 * n + 10 * d + k, 1000)
                assert rank_exact(catalecticant(p, k)).rank == expected


def test_projection_monotonicity():
    rng = random.Random(6)
    for _ in range(10):
        n = rng.randint(2, 4)
        d = rng.randint(2, 4)
        k = rng.randint(1, d - 1)
        p = gen_random(n, d, rng.randrange(10**6), 30)
        base = rank_exact(catalecticant(p, k)).rank
        kill = rng.sample(range(1, n + 1), rng.randint(1, n))
        projected = set_variables_to_zero(p, kill)
        assert rank_exact(catalecticant(projected, k)).rank <= base


def test_poly_text_round_trip():
    p = parse_poly("2*x1^2*x2 - 1/3*x2^3 + x1*x2*x3", 3)
    assert parse_poly(p.to_text(), 3) == p
    for zero in (Poly.zero(2, 3), Poly.zero(1, 1), Poly.zero(2, 0)):
        assert parse_poly(zero.to_text(), zero.n_vars) == zero


@st.composite
def forms(draw):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(0, 6))
    support = draw(st.lists(st.sampled_from(monomial_basis(n, d)), max_size=8, unique=True))
    coeffs = st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 90))
    return Poly(n, d, {m: draw(coeffs) for m in support})


@settings(max_examples=100, deadline=None)
@given(forms())
def test_parse_inverts_to_text(P):
    assert parse_poly(P.to_text(), P.n_vars) == P
