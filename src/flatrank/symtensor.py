"""Homogeneous polynomials with exact coefficients: generators for the
structured families under study, partial derivatives, the classical
flattening / shifted-partial matrix builders, and the compiled pattern that
every matrix builder linear in P goes through.

Monomials are exponent tuples of fixed length ``n_vars``.  All monomial
bases are enumerated in graded-lex order with x1 heaviest, so matrix
layouts are reproducible bit for bit.

Every nonzero entry of a builder's matrix is a single term c_beta * z: one
coefficient of P times an integer z fixed by the kind and the shape (a
product of falling factorials, for Koszul flattenings also m_i and a wedge
sign), and no two terms meet in one entry.  A builder therefore compiles
numpy integer arrays (term, factor) from P's support, computes each term's
value c_term * factor over P's common denominator once (``_term_values``),
ranks rows and columns arithmetically in graded-lex order, and frees every
other pattern array before ``exactla._coordinates`` orders the (row, col,
value) arrays in place.  ``exactla._products`` alone decides whether a
value is formed in int64, where the bit lengths prove it exact, or in Python
ints beyond.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial, perm
from typing import Sequence

import numpy as np

from .exactla import (SparseMatrix, _cleared, _coordinates, _exact, _int64_shape, _products,
                      _stored, binomial)

ExponentVector = tuple[int, ...]


class ParseError(ValueError):
    """Syntax or range error in polynomial text, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InhomogeneityError(ValueError):
    pass


def monomial_basis(n_vars: int, degree: int) -> list[ExponentVector]:
    """All degree-``degree`` exponent vectors in graded-lex order.

    Sorted multisets of variable indices come out of
    ``combinations_with_replacement`` in exactly that order."""
    if n_vars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        return []
    basis = []
    for multiset in itertools.combinations_with_replacement(range(n_vars), degree):
        exps = [0] * n_vars
        for i in multiset:
            exps[i] += 1
        basis.append(tuple(exps))
    return basis


def multinomial(parts: tuple[int, ...]) -> int:
    total = factorial(sum(parts))
    for part in parts:
        total //= factorial(part)
    return total


class Poly:
    """Homogeneous polynomial: sparse map from exponent vector to Fraction.

    The degree is stored explicitly so the zero polynomial of a given
    degree is representable; every stored term has exactly that degree.
    """

    __slots__ = ("n_vars", "degree", "terms")

    def __init__(self, n_vars: int, degree: int, terms: dict):
        if n_vars < 1:
            raise ValueError("need at least one variable")
        if degree < 0:
            raise ValueError("degree must be non-negative")
        self.n_vars = n_vars
        self.degree = degree
        clean: dict[ExponentVector, Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != n_vars or min(exps) < 0:
                raise ValueError(f"bad exponent vector {exps}")
            if sum(exps) != degree:
                raise ValueError(f"term {exps} has degree {sum(exps)}, expected {degree}")
            coeff = Fraction(_exact(coeff))
            if coeff:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, n_vars: int, degree: int) -> "Poly":
        return cls(n_vars, degree, {})

    @classmethod
    def monomial(cls, exps: ExponentVector, coeff=1) -> "Poly":
        return cls(len(exps), sum(exps), {tuple(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.n_vars, self.degree, self.terms) == (other.n_vars, other.degree, other.terms)

    def __add__(self, other: "Poly") -> "Poly":
        if self.n_vars != other.n_vars or self.degree != other.degree:
            raise ValueError("can only add forms of equal degree in the same variables")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Poly(self.n_vars, self.degree, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        c = _exact(c)
        return Poly(self.n_vars, self.degree, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        if self.n_vars != other.n_vars:
            raise ValueError("variable counts differ")
        terms: dict[ExponentVector, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return Poly(self.n_vars, self.degree + other.degree, terms)

    def to_text(self) -> str:
        """Render in the input grammar (graded-lex term order), keeping a zero form's degree."""
        if not self.terms:
            return f"0*x1^{self.degree}" if self.degree else "0"
        chunks = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            mag = abs(coeff)
            body = "*".join(([] if mag == 1 and factors else [str(mag)]) + factors)
            chunks.append(("- " if coeff < 0 else "+ ") + body)
        first = chunks[0][2:] if chunks[0][0] == "+" else "-" + chunks[0][2:]
        return " ".join([first] + chunks[1:])

    def __repr__(self) -> str:
        return f"Poly({self.n_vars} vars, degree {self.degree}, {len(self.terms)} terms)"


def parse_poly(text: str, n_vars: int) -> Poly:
    """Parse ``coeff*x1^2*x3 + ...`` into a homogeneous Poly.

    Grammar: terms joined by '+'/'-'; a term is an optional integer or
    fraction coefficient followed by '*' and one or more variable factors
    ``xI`` or ``xI^E``, or a bare coefficient (a degree-0 term).  Numbers
    are ASCII digits ``0``-``9`` (``str.isdigit`` and ``int`` also take other
    scripts' digits and superscripts).  Whitespace is insignificant;
    variables are 1-indexed.  Inhomogeneous input is rejected.
    """
    if n_vars < 1:
        raise ValueError("need at least one variable")
    pos = 0
    length = len(text)

    def skip():
        nonlocal pos
        while pos < length and text[pos].isspace():
            pos += 1

    def read_int(what: str) -> int:
        nonlocal pos
        start = pos
        while pos < length and "0" <= text[pos] <= "9":
            pos += 1
        if pos == start:
            raise ParseError(f"expected {what}", start)
        return int(text[start:pos])

    def read_term() -> tuple[Fraction, ExponentVector]:
        nonlocal pos
        skip()
        sign = 1
        if pos < length and text[pos] in "+-":
            if text[pos] == "-":
                sign = -1
            pos += 1
            skip()
        coeff = Fraction(sign)
        if pos < length and "0" <= text[pos] <= "9":
            num = read_int("a coefficient")
            if pos < length and text[pos] == "/":
                pos += 1
                den_at = pos
                den = read_int("a denominator")
                if den == 0:
                    raise ParseError("zero denominator", den_at)
                coeff = Fraction(sign * num, den)
            else:
                coeff = Fraction(sign * num)
            skip()
            if pos == length or text[pos] in "+-":
                return coeff, (0,) * n_vars
            if text[pos] != "*":
                raise ParseError("expected '*' between coefficient and variables", pos)
            pos += 1
        exps = [0] * n_vars
        while True:
            skip()
            if pos >= length or text[pos] != "x":
                raise ParseError("expected a variable factor like 'x1'", pos)
            pos += 1
            idx_at = pos
            idx = read_int("a variable index")
            if not 1 <= idx <= n_vars:
                raise ParseError(f"variable x{idx} out of range [1, {n_vars}]", idx_at)
            exp = 1
            skip()
            if pos < length and text[pos] == "^":
                pos += 1
                skip()
                exp = read_int("an exponent")
            exps[idx - 1] += exp
            skip()
            if pos < length and text[pos] == "*":
                pos += 1
                continue
            break
        return coeff, tuple(exps)

    skip()
    if pos == length:
        raise ParseError("empty polynomial", pos)
    raw: list[tuple[Fraction, ExponentVector]] = [read_term()]
    while True:
        skip()
        if pos == length:
            break
        if text[pos] not in "+-":
            raise ParseError("expected '+' or '-' between terms", pos)
        raw.append(read_term())

    degree = sum(raw[0][1])
    acc: dict[ExponentVector, Fraction] = {}
    for coeff, exps in raw:
        if sum(exps) != degree:
            raise InhomogeneityError(
                f"term of degree {sum(exps)} mixed with degree {degree}"
            )
        acc[exps] = acc.get(exps, Fraction(0)) + coeff
    return Poly(n_vars, degree, acc)


def gen_product(d: int) -> Poly:
    """x1*x2*...*xd in d variables."""
    if d < 1:
        raise ValueError("d must be at least 1")
    return Poly.monomial((1,) * d)


def gen_sum_of_products(r: int, d: int) -> Poly:
    """Sum of r disjoint degree-d products in r*d variables."""
    if r < 1 or d < 1:
        raise ValueError("r and d must be at least 1")
    terms = {}
    for i in range(r):
        exps = [0] * (r * d)
        exps[i * d:(i + 1) * d] = [1] * d
        terms[tuple(exps)] = 1
    return Poly(r * d, d, terms)


def gen_power_sum_power(r: int, delta1: int, delta2: int) -> Poly:
    """(x1^delta2 + ... + xr^delta2)^delta1, expanded multinomially."""
    if r < 1 or delta1 < 1 or delta2 < 1:
        raise ValueError("r, delta1, delta2 must be at least 1")
    terms = {}
    for split in monomial_basis(r, delta1):
        exps = tuple(t * delta2 for t in split)
        terms[exps] = multinomial(split)
    return Poly(r, delta1 * delta2, terms)


def gen_permanent(n: int) -> Poly:
    """Permanent of the generic n x n matrix, in n^2 variables x_{ij}.

    Variable x_{ij} sits at index (i-1)*n + j.  Supported for n up to 5
    (the term count is n!).
    """
    if not 1 <= n <= 5:
        raise ValueError("permanent generator supports 1 <= n <= 5")
    terms = {}
    for sigma in itertools.permutations(range(n)):
        exps = [0] * (n * n)
        for i, j in enumerate(sigma):
            exps[i * n + j] = 1
        terms[tuple(exps)] = 1
    return Poly(n * n, n, terms)


def gen_kyfl11_witness(n: int, d: int) -> Poly:
    """x1^d + ... + xn^d + x1^(d-1)*(x2 + ... + xn), the 2n-1 term witness."""
    if n < 2 or d < 3:
        raise ValueError("need n >= 2 and d >= 3")
    terms: dict[ExponentVector, int] = {}
    for i in range(n):
        exps = [0] * n
        exps[i] = d
        terms[tuple(exps)] = 1
    for j in range(1, n):
        exps = [0] * n
        exps[0] = d - 1
        exps[j] = 1
        terms[tuple(exps)] = 1
    return Poly(n, d, terms)


def gen_random(n_vars: int, d: int, seed: int, coeff_bound: int) -> Poly:
    """Dense degree-d form with coefficients uniform in [1, coeff_bound]."""
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be at least 1")
    rng = random.Random(seed)
    return Poly(
        n_vars, d,
        {exps: rng.randint(1, coeff_bound) for exps in monomial_basis(n_vars, d)},
    )


_falling = perm  # the falling factorial e (e-1) ... (e-a+1), 0 when a > e


def partial_derivative(P: Poly, alpha: ExponentVector) -> Poly:
    """Iterated partial derivative, with falling-factorial coefficients."""
    alpha = tuple(alpha)
    if len(alpha) != P.n_vars or any(a < 0 for a in alpha):
        raise ValueError(f"bad derivative order {alpha}")
    order = sum(alpha)
    if order > P.degree:
        raise ValueError("derivative order exceeds the degree")
    terms: dict[ExponentVector, Fraction] = {}
    for exps, coeff in P.terms.items():
        if any(e < a for e, a in zip(exps, alpha)):
            continue
        scale = 1
        for e, a in zip(exps, alpha):
            scale *= _falling(e, a)
        key = tuple(e - a for e, a in zip(exps, alpha))
        terms[key] = terms.get(key, Fraction(0)) + coeff * scale
    return Poly(P.n_vars, P.degree - order, terms)


def _glex_rank(exps: np.ndarray) -> np.ndarray:
    """Index of each row of ``exps`` in ``monomial_basis(n, degree)``, degree
    the row's sum.

    The index counts the degree-``degree`` vectors that are lexicographically
    larger.  Those that first differ at position j number C(t + n-j-2, n-j-1),
    t the sum of the row beyond j (hockey-stick identity), so the index is a
    sum of n-1 lookups in a binomial table, added column by column from a
    running tail sum t that indexes the table directly.  A table over every
    t up to the largest would outgrow ``exps`` when the degree is large, so
    it is then made over the sums that occur, found by a sort.
    """
    n = exps.shape[1]
    rank = np.zeros(len(exps), dtype=np.int64)
    if not exps.size:
        return rank
    top = int(exps[:, 1:].sum(axis=1).max())
    if (n - 1) * (top + 1) > exps.size:
        tails = np.cumsum(exps[:, :0:-1], axis=1)[:, ::-1]
        # With return_inverse np.unique sorts; its hashing path imports numpy.ma.
        sums, at = np.unique(tails, return_inverse=True)
        table = np.array([[comb(t + n - j - 2, n - j - 1) for t in sums.tolist()]
                          for j in range(n - 1)], dtype=np.int64).reshape(n - 1, sums.size)
        return table[np.arange(n - 1), at.reshape(tails.shape)].sum(axis=1)
    table = np.array([[comb(t + n - j - 2, n - j - 1) for t in range(top + 1)]
                      for j in range(n - 1)], dtype=np.int64)
    tail = np.zeros(len(exps), dtype=np.int64)
    for j in range(n - 2, -1, -1):
        tail += exps[:, j + 1]
        rank += table[j, tail]
    return rank


def _derivative_pattern(P: Poly, k: int):
    """Every term of every k-th partial derivative of P, as arrays
    (term, alpha, m, factor): the alpha-th derivative of the term-th term
    c*x^beta of P is c*factor*x^m, with m = beta - alpha.

    The alphas below each beta are chosen one variable at a time, keeping
    only choices that the remaining variables can complete, so no array
    outgrows the result.
    """
    if P.degree >= 2**63:
        raise ValueError(f"a form of degree {P.degree} is too large to index in 64 bits")
    n = P.n_vars
    beta = np.array(list(P.terms), dtype=np.int64).reshape(len(P.terms), n)
    tails = np.cumsum(beta[:, ::-1], axis=1)[:, ::-1] - beta
    term = np.arange(len(beta))
    rest = np.full(len(beta), k)
    columns: list[np.ndarray] = []
    for j in range(n):
        low = np.maximum(rest - tails[term, j], 0)
        counts = np.maximum(np.minimum(beta[term, j], rest) - low + 1, 0)
        pick = np.repeat(np.arange(term.size), counts)
        # a runs over low, low + 1, ..., low + count - 1 for each partial alpha.
        a = low[pick] + np.arange(pick.size) - np.repeat(np.cumsum(counts) - counts, counts)
        term, rest = term[pick], rest[pick] - a
        columns = [column[pick] for column in columns] + [a]
    alpha = np.stack(columns, axis=1)
    del columns  # copied into alpha, and freed before m is made
    # Each factor is a product of falling factorials, at most d!/(d-k)!,
    # looked up by (exponent, order) in a table over every exponent up to
    # the largest.  When that table would outgrow the pattern, it is made
    # over the exponents and orders that occur instead, found by a sort.
    dtype = np.int64 if _falling(P.degree, k).bit_length() < 63 else object
    top = int(beta.max()) if beta.size else 0
    orders = min(k, top) + 1
    if (top + 1) * orders > term.size:
        bs, at_b = np.unique(beta, return_inverse=True)
        alphas, at_a = np.unique(alpha, return_inverse=True)
        falling = np.array([[_falling(b, a) for a in alphas.tolist()] for b in bs.tolist()],
                           dtype=dtype).reshape(bs.size, alphas.size)
        factor = falling[at_b.reshape(beta.shape)[term], at_a.reshape(alpha.shape)].prod(axis=1)
    else:
        falling = np.array([[_falling(b, a) for a in range(orders)] for b in range(top + 1)],
                           dtype=dtype)
        factor = np.ones(term.size, dtype=dtype)
        for j in range(n):
            factor *= falling[beta[term, j], alpha[:, j]]
    m = beta[term]
    m -= alpha
    return term, alpha, m, factor


def _basis_size(n_vars: int, degree: int) -> int:
    """len(monomial_basis(n_vars, degree)), without listing it: 0 below degree 0."""
    return binomial(degree + n_vars - 1, degree)


def _flattening_shape(P: Poly, k: int, ell: int = 0) -> tuple[int, int]:
    """(rows, columns) of ``catalecticant(P, k)`` at ell = 0, else of
    ``shifted_partials(P, k, ell)``, from binomials, or the ValueError that
    builder raises for P and k.  ``shifted_partials`` itself refuses ell < 1,
    which gives 1 column here at ell = 0 and none below."""
    d, n = P.degree, P.n_vars
    if ell and (P.is_zero() or d < 2):
        raise ValueError("need a nonzero form of degree at least 2")
    if d < 2:
        raise ValueError("need a form of degree at least 2")
    if not 1 <= k < d:
        raise ValueError(f"derivative order k={k} outside [1, {d - 1}]")
    return _basis_size(n, d - k + ell), _basis_size(n, k) * _basis_size(n, ell)


def _term_values(coeffs: Sequence, term: np.ndarray, factor: np.ndarray
                 ) -> tuple[np.ndarray, int]:
    """(values, den): coeffs[term] * factor as integer numerators over den,
    the coefficients' common denominator, which a matrix built from them
    keeps as its one denominator.  Each value is nonzero when the
    coefficients and factors are."""
    numerators, den = _cleared(coeffs)
    return _products(_stored(np.array(numerators, dtype=object))[term], factor), den


def _from_pattern(row, col, values, den: int, shape, labels) -> SparseMatrix:
    """The ``shape`` matrix over ``den`` with the numerator values[e] at
    (row[e], col[e]), one entry per pattern position, labeled by ``labels()``
    on first read; ``_coordinates`` orders the positions, in the builder's
    scratch arrays row and col, and refuses one outside ``shape`` or listed
    twice.  A builder frees its other pattern arrays before this sort."""
    return SparseMatrix._wrap(*shape, *_coordinates(*shape, row, col, values), labels, den)


def catalecticant(P: Poly, k: int) -> SparseMatrix:
    """Matrix of the k-th flattening: column alpha is the coefficient vector
    of the alpha-th partial derivative in the degree-(d-k) monomial basis.

    Columns carry the raw derivatives (no multinomial renormalization),
    which rescales columns only and leaves the rank unchanged.
    """
    d, n = P.degree, P.n_vars
    shape = _int64_shape(*_flattening_shape(P, k))
    term, alpha, m, factor = _derivative_pattern(P, k)
    values, den = _term_values(list(P.terms.values()), term, factor)
    row, col = _glex_rank(m), _glex_rank(alpha)
    del term, alpha, m, factor
    return _from_pattern(row, col, values, den, shape,
                         lambda: (monomial_basis(n, d - k), monomial_basis(n, k)))


def shifted_partials(P: Poly, k: int, ell: int) -> SparseMatrix:
    """Matrix of the shifted-partials map: column (alpha, m) holds the
    coefficients of m * (alpha-th derivative) in the degree-(d-k+ell) basis.
    """
    d, n = P.degree, P.n_vars
    n_rows, n_cols = _flattening_shape(P, k, ell)
    if ell < 1:
        raise ValueError("shift degree must be at least 1")
    shape = _int64_shape(n_rows, n_cols)
    shifts = monomial_basis(n, ell)
    width = len(shifts)
    term, alpha, m, factor = _derivative_pattern(P, k)
    value, den = _term_values(list(P.terms.values()), term, factor)
    # (entry, shift) grids, raveled entry by entry: each term's value is
    # made once and repeated over its shifts.
    col = _glex_rank(alpha)[:, None] * width + np.arange(width)
    del term, alpha, factor
    row = _glex_rank((m[:, None] + np.array(shifts, dtype=np.int64)).reshape(-1, n))
    del m
    return _from_pattern(row, col.ravel(), np.repeat(value, width), den, shape,
                         lambda: (monomial_basis(n, d - k + ell),
                                  itertools.product(monomial_basis(n, k), shifts)))


def apply_linear_map(P: Poly, g) -> Poly:
    """Substitute x_i -> sum_j g[i][j] * x_j."""
    n = P.n_vars
    g = [list(row) for row in g]
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError(f"substitution matrix must be {n}x{n}")
    basis = []
    for i in range(n):
        terms = {}
        for j, c in enumerate(g[i]):
            if c:
                exps = [0] * n
                exps[j] = 1
                terms[tuple(exps)] = c
        basis.append(Poly(n, 1, terms))
    out = Poly.zero(n, P.degree)
    one = Poly(n, 0, {(0,) * n: 1})
    for exps, coeff in P.terms.items():
        term = one
        for i, e in enumerate(exps):
            for _ in range(e):
                term = term * basis[i]
        out = out + term.scale(coeff)
    return out


def set_variables_to_zero(P: Poly, indices) -> Poly:
    """Kill every term touching the given 1-based variables."""
    dead = set(indices)
    if any(not 1 <= i <= P.n_vars for i in dead):
        raise ValueError("variable index out of range")
    terms = {
        exps: c
        for exps, c in P.terms.items()
        if all(exps[i - 1] == 0 for i in dead)
    }
    return Poly(P.n_vars, P.degree, terms)
