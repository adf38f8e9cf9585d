"""Wedge-basis combinatorics, the algebraic exterior derivative, the Koszul
flattening builder, and the weight-block shortcut for squarefree products.

Wedge basis elements are strictly increasing tuples of 1-based variable
indices.  Inserting a variable into a sorted wedge carries the sign
(-1)^(number of smaller indices already present); inserting a repeated
variable gives zero.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

from .exactla import SparseMatrix, binomial
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


@dataclass(frozen=True)
class WeightBlock:
    """One weight block of (squarefree degree-(d-k) monomials) (x) (p-wedges):
    `k_set` lists the variables shared by the monomial and the wedge,
    `j_set` the remaining support split between them."""

    s: int
    k_set: tuple[int, ...]
    j_set: tuple[int, ...]
    block_rank: int


def weight_blocks_product(d: int, k: int, p: int) -> list[WeightBlock]:
    """Enumerate the weight blocks of the Koszul flattening of x1*...*xd.

    For overlap size s there are C(d,s)*C(d-s, d-k+p-2s) blocks, each of
    rank C(d-k+p-2s-1, p-s); blocks at s = d-k exist but have rank zero.
    """
    if not 1 <= k < d:
        raise ValueError(f"derivative order k={k} outside [1, {d - 1}]")
    if not 1 <= p < d:
        raise ValueError(f"wedge degree p={p} outside [1, {d - 1}]")
    blocks = []
    everything = range(1, d + 1)
    for s in range(max(0, p - k), min(p, d - k) + 1):
        free = d - k + p - 2 * s
        rank = binomial(d - k + p - 2 * s - 1, p - s)
        for k_set in itertools.combinations(everything, s):
            rest = [v for v in everything if v not in k_set]
            for j_set in itertools.combinations(rest, free):
                blocks.append(WeightBlock(s, k_set, j_set, rank))
    return blocks


def weight_block_matrix(block: WeightBlock, d: int, k: int, p: int) -> SparseMatrix:
    """Restriction of the exterior derivative to one weight block.

    Columns are the block's basis vectors: a squarefree monomial on
    k_set plus part of j_set, tensored with the wedge on k_set plus the
    complementary part of j_set.  Rows cover only the touched image
    vectors, which does not change the rank.
    """
    mono_size = d - k - block.s
    cols = []
    images = []
    for m_part in itertools.combinations(block.j_set, mono_size):
        support = sorted(set(block.k_set) | set(m_part))
        exps = [0] * d
        for v in support:
            exps[v - 1] = 1
        mono = tuple(exps)
        wedge = tuple(sorted(set(block.k_set) | (set(block.j_set) - set(m_part))))
        cols.append((mono, wedge))
        images.append(_wedge_image(mono, wedge))
    touched = sorted({key for img in images for key in img})
    row_index = {key: i for i, key in enumerate(touched)}
    entries = []
    for j, img in enumerate(images):
        for key, coeff in img.items():
            entries.append((row_index[key], j, coeff))
    return SparseMatrix(len(touched), len(cols), entries, row_labels=touched, col_labels=cols)


def fast_rank_product(d: int, k: int, p: int) -> int:
    """Rank of the Koszul flattening of x1*...*xd, by block counting."""
    if not 1 <= k < d:
        raise ValueError(f"derivative order k={k} outside [1, {d - 1}]")
    if not 1 <= p < d:
        raise ValueError(f"wedge degree p={p} outside [1, {d - 1}]")
    total = 0
    for s in range(max(0, p - k), min(p, d - k) + 1):
        free = d - k + p - 2 * s
        total += (
            binomial(d, s)
            * binomial(d - s, free)
            * binomial(free - 1, p - s)
        )
    return total
