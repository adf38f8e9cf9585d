"""The four matrix builders as one linear map of P: pinned layouts and the
Koszul factorization through the catalecticant."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank.exactla import SparseMatrix, binomial
from flatrank.koszul import exterior_derivative, koszul_flattening
from flatrank.symtensor import (
    Poly,
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
