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
and a table of wedge insertions.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import comb

import numpy as np

from .exactla import SparseMatrix, _int64_shape
from .symtensor import (
    Poly,
    _basis_size,
    _derivative_pattern,
    _from_pattern,
    _glex_rank,
    _times,
    monomial_basis,
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


def _exterior_pattern(group, m, factor, n_vars: int, p: int):
    """Pattern (row, col, source, factor) of the exterior derivative applied
    to the tensors x^m[s] (x) w, over all p-wedges w, with column
    group[s] * C(n, p) + index(w) and row index(m - e_i) * C(n, p+1) +
    index(w with i inserted); factor[s] scales source s."""
    source, i = np.nonzero(m)
    scaled = _times(factor[source], m[source, i])
    lower = m[source]
    lower[np.arange(source.size), i] -= 1
    lower_rank = _glex_rank(lower)
    small, big, sign = _insertions(n_vars, p)
    width = small.shape[1]
    pick = np.repeat(np.arange(source.size), width)
    slot = np.tile(np.arange(width), source.size)
    var = i[pick]
    row = lower_rank[pick] * comb(n_vars, p + 1) + big[var, slot]
    col = group[source][pick] * comb(n_vars, p) + small[var, slot]
    return row, col, source[pick], _times(scaled[pick], sign[var, slot])


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
    row, col, source, factor = _exterior_pattern(
        np.arange(len(sources)), sources, ones, n_vars, p)
    return _from_pattern(
        [1], row, col, np.zeros_like(source), factor, shape,
        lambda: (itertools.product(monomial_basis(n_vars, a - 1), wedge_basis(n_vars, p + 1)),
                 itertools.product(monomial_basis(n_vars, a), wedge_basis(n_vars, p))),
    )


def koszul_flattening(P: Poly, k: int, p: int) -> SparseMatrix:
    """Matrix of the Koszul flattening: the k-th flattening tensored with
    p-wedges, composed with the exterior derivative.

    Columns are labeled (derivative order, wedge); rows are labeled
    (degree-(d-k-1) monomial, (p+1)-wedge).
    """
    d, n = P.degree, P.n_vars
    if d < 2:
        raise ValueError("need a form of degree at least 2")
    if not 1 <= k < d:
        raise ValueError(f"derivative order k={k} outside [1, {d - 1}]")
    if not 1 <= p < n:
        raise ValueError(f"wedge degree p={p} outside [1, {n - 1}]")
    shape = _int64_shape(_basis_size(n, d - k - 1) * comb(n, p + 1),
                         _basis_size(n, k) * comb(n, p))
    term, alpha, m, factor = _derivative_pattern(P, k)
    row, col, pair, factor = _exterior_pattern(_glex_rank(alpha), m, factor, n, p)
    return _from_pattern(
        list(P.terms.values()), row, col, term[pair], factor, shape,
        lambda: (itertools.product(monomial_basis(n, d - k - 1), wedge_basis(n, p + 1)),
                 itertools.product(monomial_basis(n, k), wedge_basis(n, p))),
    )
