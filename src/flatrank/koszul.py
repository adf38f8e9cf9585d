"""Wedge-basis combinatorics, the algebraic exterior derivative and the
Koszul flattening builder.

Wedge basis elements are strictly increasing tuples of 1-based variable
indices.  Inserting a variable into a sorted wedge carries the sign
(-1)^(number of smaller indices already present); inserting a repeated
variable gives zero.

Both builders compile an integer pattern.  The exterior derivative sends
x^m (x) w to the sum over the variables x_i of m with i not in w of
sign * m_i * x^(m - e_i) (x) (w with i inserted), so every entry of a Koszul
flattening is the single term c_beta * falling factors * m_i * sign with
beta = m' + e_i + alpha; row and column indices come from graded-lex ranks
and a table of wedge insertions.  Each derivative term's value is made once
and broadcast, with its row and column offsets, over that table.

The Koszul flattening of a one-term form can instead be given by one torus
weight block per orbit of the variable permutations that fix it (see
``monomial_blocks``), which is all the rank engines need.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cache
from math import comb, perm

import numpy as np

from .exactla import SparseMatrix, _int64_shape, _products, _stored
from .symtensor import (
    Poly,
    _basis_size,
    _derivative_pattern,
    _flattening_shape,
    _from_pattern,
    _glex_rank,
    _term_values,
    monomial_basis,
    multinomial,
)

WedgeIndex = tuple[int, ...]


def wedge_basis(n_vars: int, p: int) -> list[WedgeIndex]:
    """All strictly increasing p-tuples from [1, n_vars]."""
    if n_vars < 1 or p < 0:
        raise ValueError("need n_vars >= 1 and p >= 0")
    return list(itertools.combinations(range(1, n_vars + 1), p))


def wedge_insert(v: int, w: WedgeIndex):
    """(sign, sorted wedge) for v wedged onto w, or None when v repeats."""
    pos = bisect_left(w, v)
    if pos < len(w) and w[pos] == v:
        return None
    sign = -1 if pos % 2 else 1
    return sign, w[:pos] + (v,) + w[pos:]


def _insertions(n_vars: int, p: int) -> np.ndarray:
    """Array of shape (3, n_vars, C(n_vars - 1, p)): for each variable
    x_{i+1}, the index of every p-wedge w without it, the index of the
    inserted (p+1)-wedge and the sign of the insertion."""
    bigger = {w: r for r, w in enumerate(wedge_basis(n_vars, p + 1))}
    table: list[list] = [[] for _ in range(n_vars)]
    for r, w in enumerate(wedge_basis(n_vars, p)):
        for i in range(n_vars):
            ins = wedge_insert(i + 1, w)
            if ins is not None:
                table[i].append((r, bigger[ins[1]], ins[0]))
    out = np.array(table, dtype=np.int64).reshape(n_vars, comb(n_vars - 1, p), 3)
    return out.transpose(2, 0, 1)


def _exterior_pattern(group, m, value, n_vars: int, p: int):
    """Pattern (row, col, values) of the exterior derivative applied to the
    tensors value[s] * x^m[s] (x) w, over all p-wedges w, with column
    group[s] * C(n, p) + index(w) and row index(m - e_i) * C(n, p+1) +
    index(w with i inserted), and value sign * m_i * value[s]."""
    source, i = np.nonzero(m)
    scaled = _products(value[source], m[source, i])
    lower = m[source]
    lower[np.arange(source.size), i] -= 1
    offset = _glex_rank(lower) * comb(n_vars, p + 1)
    del lower
    small, big, sign = _insertions(n_vars, p)
    # (pair, wedge) grids, raveled pair by pair: each pair's offsets and
    # value are made once and broadcast over its wedges.
    row, col = big[i], small[i]
    row += offset[:, None]
    col += (group[source] * comb(n_vars, p))[:, None]
    return row.ravel(), col.ravel(), _products(sign[i], scaled[:, None]).ravel()


def _wedge_labels(n: int, a: int, b: int, p: int):
    """Labels, listed when called, of degree-a monomials (x) (p+1)-wedges
    (rows) and degree-b monomials (x) p-wedges (columns)."""
    return lambda: (itertools.product(monomial_basis(n, a), wedge_basis(n, p + 1)),
                    itertools.product(monomial_basis(n, b), wedge_basis(n, p)))


def exterior_derivative(a: int, p: int, n_vars: int) -> SparseMatrix:
    """Matrix of the exterior derivative on degree-a monomials tensored with
    p-wedges: each linear factor of the monomial is peeled off and wedged in.
    """
    if a < 1:
        raise ValueError("source degree must be at least 1")
    if not 0 <= p < n_vars:
        raise ValueError(f"wedge degree p={p} outside [0, {n_vars - 1}]")
    shape = _int64_shape(_basis_size(n_vars, a - 1) * comb(n_vars, p + 1),
                         _basis_size(n_vars, a) * comb(n_vars, p))
    sources = np.array(monomial_basis(n_vars, a), dtype=np.int64)
    ones = np.ones(len(sources), dtype=np.int64)
    return _from_pattern(*_exterior_pattern(np.arange(len(sources)), sources, ones, n_vars, p),
                         1, shape, _wedge_labels(n_vars, a - 1, a, p))


def _koszul_shape(P: Poly, k: int, p: int) -> tuple[int, int]:
    """(rows, columns) of ``koszul_flattening(P, k, p)``, or its ValueError."""
    _, n_cols = _flattening_shape(P, k)
    n = P.n_vars
    if not 1 <= p < n:
        raise ValueError(f"wedge degree p={p} outside [1, {n - 1}]")
    return _basis_size(n, P.degree - k - 1) * comb(n, p + 1), n_cols * comb(n, p)


def _full_koszul(P: Poly, k: int, p: int) -> SparseMatrix:
    """The Koszul flattening of P at (k, p), built in full from the compiled
    derivative and exterior patterns."""
    shape = _int64_shape(*_koszul_shape(P, k, p))
    term, alpha, m, factor = _derivative_pattern(P, k)
    value, den = _term_values(list(P.terms.values()), term, factor)
    group = _glex_rank(alpha)
    del term, alpha, factor
    pattern = _exterior_pattern(group, m, value, P.n_vars, p)
    del group, m, value
    return _from_pattern(*pattern, den, shape, _wedge_labels(P.n_vars, P.degree - k - 1, k, p))


def koszul_flattening(P: Poly, k: int, p: int) -> SparseMatrix:
    """Matrix of the Koszul flattening: the k-th flattening tensored with
    p-wedges, composed with the exterior derivative.

    Columns are labeled (derivative order, wedge); rows are labeled
    (degree-(d-k-1) monomial, (p+1)-wedge).  A one-term form gives a
    deferred matrix (``SparseMatrix._deferred``), split into one weight
    block per orbit (``monomial_blocks``): the rank engines read only those
    blocks, and the matrix is built in full only when its entries are read.
    Other forms, and a degree past int64 (which the full build refuses),
    are built in full.
    """
    shape = _int64_shape(*_koszul_shape(P, k, p))
    if len(P.terms) == 1 and P.degree < 2**63:
        ((_, c),) = P.terms.items()
        return SparseMatrix._deferred(*shape, monomial_blocks(P, k, p), c.denominator,
                                      lambda: _full_koszul(P, k, p),
                                      _wedge_labels(P.n_vars, P.degree - k - 1, k, p))
    return _full_koszul(P, k, p)


# ---------------------------------------------------------------------------
# monomials, one weight block per orbit
#
# The Koszul flattening of c*x^a preserves torus weight: column (alpha, w)
# carries x^(a - alpha) (x) w, of weight mu = a - alpha + 1_w, and the
# exterior derivative keeps it.  So the matrix is a direct sum of weight
# blocks.  A permutation of the variables that fixes a fixes the form, and
# by GL(V)-equivariance maps the block of mu onto the block of the permuted
# weight by a signed permutation of rows and columns: one block per orbit,
# counted orbit-size times, has the matrix's rank over Q and modulo every
# prime, and its nnz.
#
# In the block of mu, let F be the variables where mu_l = a_l + 1, which lie
# in every wedge, and S those where 1 <= mu_l <= a_l.  Its columns are the
# p-wedges F + u, u a subset of S, those with alpha = a + 1_w - mu in [0, a];
# its nonzero rows are the (p+1)-wedges F + u'.  Column F + u meets row
# F + u + {i} in c * falling factors * mu_i * sign.  The falling factors of
# alpha are K * prod(mu_l, l in u), K the product of a_l! / mu_l! over l not
# in F, so the entry is c * K * prod(mu_l, l in u') times the sign of
# inserting i.  The block is connected, and nonzero when u is shorter than S.


@cache
def _class_profiles(size: int, e: int, k: int) -> tuple[tuple, ...]:
    """For a class of ``size`` variables of exponent e at order k, each
    non-increasing tuple of the values a weight takes on it, in
    [max(e - k, 0), e + 1], with the (sum, f, support) it adds to a weight."""
    values = range(e + 1, max(e - k, 0) - 1, -1)
    return tuple((sum(mu), mu.count(e + 1), size - mu.count(0), mu)
                 for mu in itertools.combinations_with_replacement(values, size))


def _weight_orbits(a: tuple[int, ...], k: int, p: int):
    """(mu, orbit size) for one weight mu per orbit of the weights whose
    Koszul block at (k, p) of x^a is nonzero, under the permutations inside
    each class of equal exponents, zeros included.  Along a class, mu is
    non-increasing; the orbit size is the product over classes of the
    multinomials of its runs of equal values.

    A weight takes the values a_l - alpha_l + [l in w] in [a_l - k, a_l + 1]
    and sums to d - k + p; its block is nonzero when its f values a_l + 1
    and its support satisfy f <= p < support."""
    classes: dict[int, list[int]] = {}
    for i, e in enumerate(a):
        classes.setdefault(e, []).append(i)
    target = sum(a) - k + p
    # low[c] and high[c] bound the sum the classes from c on add; every sum
    # between them occurs, so a partial weight within them can be completed.
    low = [0] * (len(classes) + 1)
    high = [0] * (len(classes) + 1)
    for c, (e, index) in reversed(list(enumerate(classes.items()))):
        low[c] = low[c + 1] + len(index) * max(e - k, 0)
        high[c] = high[c + 1] + len(index) * (e + 1)
    states = [(0, 0, 0, ())]
    for c, (e, index) in enumerate(classes.items()):
        states = [(total + t, f + g, support + h, chosen + (mu,))
                  for total, f, support, chosen in states
                  for t, g, h, mu in _class_profiles(len(index), e, k)
                  if f + g <= p and low[c + 1] <= target - total - t <= high[c + 1]]
    for _, f, support, chosen in states:
        if p >= support:
            continue
        mu = [0] * len(a)
        size = 1
        for index, values in zip(classes.values(), chosen):
            for l, value in zip(index, values):
                mu[l] = value
            size *= multinomial(tuple(len(list(run)) for _, run in itertools.groupby(values)))
        yield tuple(mu), size


def weight_block(P: Poly, mu: tuple[int, ...], p: int) -> SparseMatrix | None:
    """The block of weight ``mu`` of the Koszul flattening of the one-term
    form P at wedge degree p (the order k is deg P - |mu| + p) on its
    nonzero rows, over P's denominator, or None when it is zero.  Rows
    F + u' and columns F + u come in the order of u' and u among the subsets
    of S, and are labeled by their wedges."""
    ((a, c),) = P.terms.items()
    forced = [l for l, (m, e) in enumerate(zip(mu, a)) if m == e + 1]
    free = [l for l, (m, e) in enumerate(zip(mu, a)) if 1 <= m <= e]
    j = p - len(forced)
    if not 0 <= j < len(free):
        return None
    scale = c.numerator
    for m, e in zip(mu, a):
        if m <= e:
            scale *= perm(e, e - m)
    column = {u: r for r, u in enumerate(itertools.combinations(free, j))}
    rows, cols, values = [], [], []
    for r, wider in enumerate(itertools.combinations(free, j + 1)):
        value = scale
        for l in wider:
            value *= mu[l]
        # Dropping later variables first keeps the columns of a row sorted;
        # inserting wider[t] passes the smaller variables of F and of wider.
        for t in range(j, -1, -1):
            rows.append(r)
            cols.append(column[wider[:t] + wider[t + 1:]])
            values.append(-value if (t + bisect_left(forced, wider[t])) % 2 else value)

    def labels():
        def wedge(u):
            return tuple(l + 1 for l in sorted(forced + list(u)))
        return ([wedge(u) for u in itertools.combinations(free, j + 1)],
                [wedge(u) for u in column])

    return SparseMatrix._wrap(comb(len(free), j + 1), len(column),
                              np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                              _stored(np.array(values, dtype=object)), labels, c.denominator)


def monomial_blocks(P: Poly, k: int, p: int) -> list[tuple[SparseMatrix, int]]:
    """The Koszul flattening of the one-term form P at (k, p) as one weight
    block per orbit, each with its orbit size: its connected components,
    each with a count, up to signed permutations of rows and columns."""
    ((a, _),) = P.terms.items()
    return [(weight_block(P, mu, p), size) for mu, size in _weight_orbits(a, k, p)]
