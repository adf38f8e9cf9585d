"""Wedge-basis combinatorics, the algebraic exterior derivative and the
Koszul flattening builder.

Wedge basis elements are strictly increasing tuples of 1-based variable
indices.  Inserting a variable into a sorted wedge carries the sign
(-1)^(number of smaller indices already present); inserting a repeated
variable gives zero.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left

from .exactla import SparseMatrix
from .symtensor import ExponentVector, Poly, _assemble, monomial_basis, partial_derivative

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


def _wedge_image(m: ExponentVector, w: WedgeIndex) -> dict:
    """Image of the monomial tensor m (x) w under the exterior derivative,
    as a map (smaller monomial, bigger wedge) -> integer coefficient."""
    out: dict[tuple[ExponentVector, WedgeIndex], int] = {}
    for i, e in enumerate(m):
        if not e:
            continue
        ins = wedge_insert(i + 1, w)
        if ins is None:
            continue
        sign, w2 = ins
        key = (m[:i] + (e - 1,) + m[i + 1:], w2)
        out[key] = out.get(key, 0) + sign * e
    return out


def _row_space(n_vars: int, degree: int, p: int) -> list:
    wedges = wedge_basis(n_vars, p)
    return [(m, w) for m in monomial_basis(n_vars, degree) for w in wedges]


def exterior_derivative(a: int, p: int, n_vars: int) -> SparseMatrix:
    """Matrix of the exterior derivative on degree-a monomials tensored with
    p-wedges: each linear factor of the monomial is peeled off and wedged in.
    """
    if a < 1:
        raise ValueError("source degree must be at least 1")
    if not 0 <= p < n_vars:
        raise ValueError(f"wedge degree p={p} outside [0, {n_vars - 1}]")
    return _assemble(
        ({m: 1} for m in monomial_basis(n_vars, a)), wedge_basis(n_vars, p), _wedge_image,
        _row_space(n_vars, a - 1, p + 1), _row_space(n_vars, a, p),
    )


def koszul_flattening(P: Poly, k: int, p: int) -> SparseMatrix:
    """Matrix of the Koszul flattening: the k-th flattening tensored with
    p-wedges, composed with the exterior derivative.

    Columns are labeled (derivative order, wedge); rows are labeled
    (degree-(d-k-1) monomial, (p+1)-wedge).
    """
    d, n = P.degree, P.n_vars
    if not 1 <= k < d:
        raise ValueError(f"derivative order k={k} outside [1, {d - 1}]")
    if not 1 <= p < n:
        raise ValueError(f"wedge degree p={p} outside [1, {n - 1}]")
    return _assemble(
        (partial_derivative(P, alpha).terms for alpha in monomial_basis(n, k)),
        wedge_basis(n, p), _wedge_image, _row_space(n, d - k - 1, p + 1), _row_space(n, k, p),
    )
