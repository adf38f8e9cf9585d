"""Scalar, sparse-matrix, and rank-engine behavior."""

import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from decimal import Decimal
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatrank import exactla
from flatrank.exactla import (
    EXACT_COLUMN_LIMIT,
    PANEL,
    PRIME_CEIL,
    PRIME_FLOOR,
    RankResult,
    SparseMatrix,
    binomial,
    is_prime,
    random_prime,
    rank_auto,
    rank_exact,
    rank_modular,
)
from flatrank.exactla import (
    _components,
    _dense_mod,
    _exact,
    _integer_rows,
    _kernel_mod,
    _markowitz_rank,
    _modular_rank_dense,
    _modular_rank,
    _modular_update,
    _sparse_integer_rank,
    _times_mod,
)
from flatrank.koszul import _full_koszul, koszul_flattening
from flatrank.labcli import _case_seed, main
from flatrank.symtensor import (
    catalecticant,
    gen_kyfl11_witness,
    gen_power_sum_power,
    gen_product,
    gen_random,
    shifted_partials,
)
from memory import traced_peak
from stored import assert_stored

# The prime rank_exact certifies with, drawn as it draws it.
CERTIFICATE_PRIME = random_prime(random.Random(exactla.CERTIFICATE_SEED))


def dense_rank_oracle(rows):
    """Plain fractional Gaussian elimination, independent of the library path."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col] / head
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def fraction_free_rank(m):
    """The fraction-free engine alone, the oracle the certificates answer to."""
    return _sparse_integer_rank(_integer_rows(m))


def to_dense(m):
    return [[m.entry(i, j) for j in range(m.n_cols)] for i in range(m.n_rows)]


def from_dense(rows):
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0,
                        [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row)])


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(4, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(-1, 0) == 0
    assert binomial(60, 30) == 118264581564861424


def test_rank_exact_identity_and_zero():
    assert rank_exact(SparseMatrix(2, 2, [(0, 0, 1), (1, 1, 1)])).rank == 2
    assert rank_exact(SparseMatrix(3, 5)).rank == 0


def test_rank_exact_power_sum_catalecticant():
    # second partials of (x1^2+x2^2)^2 row-reduce to a full 3x3 block
    m = catalecticant(gen_power_sum_power(2, 2, 2), 2)
    assert (m.n_rows, m.n_cols) == (3, 3)
    assert rank_exact(m).rank == 3


def test_rank_exact_memory_follows_nnz_not_declared_rows():
    m = SparseMatrix(2_000_000, 3, [(0, 0, 1), (999_999, 1, Fraction(1, 2)), (1_999_999, 2, 3)])
    result, peak = traced_peak(rank_exact, m)
    assert result.rank == 3
    assert peak < 10 * 2**20


def test_rank_exact_matches_dense_oracle_on_random_matrices():
    rng = random.Random(7)
    for _ in range(25):
        n_rows, n_cols = rng.randint(1, 8), rng.randint(1, 8)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
        m = from_dense(rows)
        assert rank_exact(m).rank == dense_rank_oracle(rows)


def test_rank_exact_invariance_under_permutation_and_scaling():
    rng = random.Random(11)
    base = koszul_flattening(gen_product(4), 2, 1)
    reference = rank_exact(base).rank
    rows = list(range(base.n_rows))
    cols = list(range(base.n_cols))
    for trial in range(5):
        rng.shuffle(rows)
        rng.shuffle(cols)
        scale = {i: Fraction(rng.choice([1, -1, 2, 5]), rng.choice([1, 3])) for i in rows}
        shuffled = SparseMatrix(
            base.n_rows,
            base.n_cols,
            [(rows[i], cols[j], scale[rows[i]] * v) for i, j, v in base.entries()],
        )
        assert rank_exact(shuffled).rank == reference


def test_rank_modular_identity_and_zero():
    for seed in (0, 1, 99):
        result = rank_modular(SparseMatrix(2, 2, [(0, 0, 1), (1, 1, 1)]), 1, seed)
        assert result.rank == 2
        assert result.method == "modular"
        assert result.is_certified_lower_bound
    assert rank_modular(SparseMatrix(3, 3), 1, 0).rank == 0


def test_rank_modular_reproducible_and_prime_range():
    m = catalecticant(gen_product(5), 2)
    a = rank_modular(m, 2, 42)
    b = rank_modular(m, 2, 42)
    assert a == b
    assert len(a.primes_used) == 2
    for q in a.primes_used:
        assert PRIME_FLOOR <= q <= PRIME_CEIL
        assert is_prime(q)


def test_rank_modular_never_exceeds_exact_and_hits_it():
    # certified lower bound, with equality for at least one of 3 primes
    rng = random.Random(5)
    samples = [
        catalecticant(gen_product(4), 2),
        koszul_flattening(gen_product(4), 1, 2),
        catalecticant(gen_power_sum_power(3, 2, 2), 2),
    ]
    for m in samples:
        assert m.n_cols <= 200
        exact = fraction_free_rank(m)
        mods = [rank_modular(m, 1, rng.randrange(10**6)).rank for _ in range(3)]
        assert all(v <= exact for v in mods)
        assert exact in mods


def test_rank_modular_handles_denominators():
    m = from_dense([[Fraction(1, 2), 1], [0, Fraction(-3, 7)]])
    assert rank_modular(m, 1, 0).rank == 2


def union_find_components(m):
    """Component count of the row/column graph by plain union-find."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for i, j, _ in m.entries():
        parent[find(("r", i))] = find(("c", j))
    return sum(1 for x in parent if find(x) == x)


@st.composite
def permuted_block_diagonal(draw):
    """Random Fraction blocks on the diagonal, rows and columns then permuted."""
    value = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 4]))
    blocks = draw(st.lists(
        st.tuples(st.integers(1, 7), st.integers(1, 7), st.floats(0.05, 1.0)),
        min_size=0, max_size=6))
    entries = []
    n_rows = n_cols = 0
    for rows, cols, density in blocks:
        for i in range(rows):
            for j in range(cols):
                if draw(st.floats(0, 1)) < density:
                    entries.append((n_rows + i, n_cols + j, draw(value)))
        n_rows += rows
        n_cols += cols
    row_perm = draw(st.permutations(range(n_rows)))
    col_perm = draw(st.permutations(range(n_cols)))
    return SparseMatrix(n_rows + draw(st.integers(0, 3)), n_cols + draw(st.integers(0, 3)),
                        [(row_perm[i], col_perm[j], v) for i, j, v in entries])


@settings(max_examples=80, deadline=None)
@given(permuted_block_diagonal(), st.sampled_from([5, 7, 11, 101, 2147483659, 3037000493]))
def test_component_rank_mod_q_matches_dense_kernel(m, q):
    # Denominators are at most 4, so none vanishes mod q.
    assert is_prime(q)
    reference = _modular_rank_dense(_dense_mod(m, q), q)
    components = _components(m)
    assert sum(count for _, count in components) == union_find_components(m)
    assert all(c == SparseMatrix(c.n_rows, c.n_cols, c.entries()) for c, _ in components)
    assert sum(count * c.nnz for c, count in components) == m.nnz
    assert _modular_rank(components, q) == reference
    # Every component through the sparse F_q loop, then through the dense kernel.
    for fill in (2.0, 0.0):
        with mock.patch.object(exactla, "DENSE_FILL", fill):
            assert _modular_rank(components, q) == reference


def compacted_components(m):
    """The distinct components of m with their counts, as (n_rows, n_cols,
    entries): grouped by union-find, each compacted by np.unique."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for i, j, _ in m.entries():
        parent[find(("r", i))] = find(("c", j))
    groups = defaultdict(list)
    for i, j, v in m.entries():
        groups[find(("r", i))].append((i, j, v))
    found = Counter()
    for entries in groups.values():
        rows, cols, values = zip(*entries)
        used_rows, local_rows = np.unique(np.array(rows, dtype=object), return_inverse=True)
        used_cols, local_cols = np.unique(np.array(cols, dtype=object), return_inverse=True)
        found[(used_rows.size, used_cols.size,
               tuple(sorted(zip(local_rows.tolist(), local_cols.tolist(), values))))] += 1
    return found


@settings(max_examples=80, deadline=None)
@given(permuted_block_diagonal(), st.sampled_from(["counted", "wide", "object"]))
def test_components_agree_with_union_find_and_unique_compaction(m, columns):
    # "counted": only the columns in use, so they are numbered by counting;
    # "wide": spread a million apart, far wider than nnz; "object": counted,
    # but the rows shifted past 2^63, so the index arrays hold Python ints.
    used = sorted({j for _, j, _ in m.entries()})
    place = ({j: 10**6 * j for j in used} if columns == "wide"
             else dict(zip(used, range(len(used)))))
    n_cols = 10**6 * m.n_cols if columns == "wide" else len(used)
    shift = 2**63 if columns == "object" else 0
    m = SparseMatrix(m.n_rows + shift, n_cols,
                     [(i + shift, place[j], v) for i, j, v in m.entries()])
    assert (m._cols.dtype == object) == (columns == "object")
    components = _components(m)
    assert sum(count for _, count in components) == union_find_components(m)
    found = Counter()
    for c, count in components:
        found[(c.n_rows, c.n_cols, tuple(c.entries()))] += count
    assert found == compacted_components(m)


def label_components(m):
    """_components by the label algorithm alone, as it split every matrix
    before the one-component test: union by labels over every nonzero, local
    positions, and equal components grouped by their bytes."""
    if m._split is not None:
        return m._split
    if not m.nnz:
        return []
    ri = np.zeros(m.nnz, dtype=np.int64)
    np.cumsum(m._rows[1:] != m._rows[:-1], out=ri[1:])
    n_r = int(ri[-1]) + 1
    if m._cols.dtype == object or m.n_cols > 4 * m.nnz:
        cols, cj = np.unique(m._cols, return_inverse=True)
        n_c = cols.size
    else:
        used = np.zeros(m.n_cols, dtype=bool)
        used[m._cols] = True
        index = np.cumsum(used) - 1
        n_c, cj = int(index[-1]) + 1, index[m._cols]
    comp = exactla._component_labels(ri, cj + n_r, n_r + n_c)
    n_comp = int(comp.max()) + 1
    if n_comp == 1 and (n_r, n_c) == (m.n_rows, m.n_cols):
        return [(m, 1)]
    row_comp, col_comp = comp[:n_r], comp[n_r:]
    row_pos = exactla._positions(row_comp, n_comp)
    col_pos = exactla._positions(col_comp, n_comp)
    entry_comp = row_comp[ri]
    nnz = np.bincount(entry_comp, minlength=n_comp)
    by_nnz = np.argsort(nnz, kind="stable")
    slot = np.empty_like(by_nnz)
    slot[by_nnz] = np.arange(n_comp)
    order = np.argsort(slot[entry_comp], kind="stable")
    local_rows, local_cols, values = row_pos[ri][order], col_pos[cj][order], m._values[order]
    ids = np.unique(values, return_inverse=True)[1] if values.dtype == object else values
    sizes = nnz[by_nnz]
    n_rows = np.bincount(row_comp, minlength=n_comp)[by_nnz].tolist()
    n_cols = np.bincount(col_comp, minlength=n_comp)[by_nnz].tolist()
    distinct, start = [], 0
    for a, b in exactla._runs(sizes):
        k = int(sizes[a])
        end = start + (b - a) * k
        same, runs = [0], [(0, 1)]
        if b - a > 1:
            block = np.stack((local_rows[start:end], local_cols[start:end], ids[start:end]), 1)
            keys = block.reshape(b - a, 3 * k).view(np.dtype((np.void, 24 * k))).ravel()
            same = np.argsort(keys, kind="stable")
            runs = exactla._runs(keys[same])
        for first, last in runs:
            i = int(same[first])
            c, e = a + i, start + i * k
            distinct.append((SparseMatrix._wrap(n_rows[c], n_cols[c], local_rows[e:e + k],
                                                local_cols[e:e + k], values[e:e + k], den=m._den),
                             last - first))
        start = end
    return distinct


@st.composite
def split_cases(draw):
    """Matrices on both sides of the one-component test: dense-ish blocks on
    the diagonal with empty rows and columns between them, one block that
    leaves a row or a column unused, one block using all of them, a path
    longer than the reachability rounds, 1 x 1, and a block whose rows lie
    past 2^63, so that its index arrays hold Python ints."""
    kind = draw(st.sampled_from(["blocks", "unused", "whole", "path", "single", "object"]))
    value = st.integers(-3, 3) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    if kind == "single":
        return SparseMatrix(1, 1, [(0, 0, draw(value.filter(bool)))])
    if kind == "path":
        # Row i meets columns i and i + 1: one component of diameter 2n,
        # still growing when the reachability rounds run out, alone or
        # beside a full 2 x 2 component.
        n = draw(st.integers(2 * exactla._REACH_ROUNDS, 3 * exactla._REACH_ROUNDS))
        entries = [(i, j, draw(st.integers(1, 3))) for i in range(n) for j in (i, i + 1)]
        if draw(st.booleans()):
            return SparseMatrix(n + 2, n + 3, entries + [(i, j, 5) for i in (n, n + 1)
                                                         for j in (n + 1, n + 2)])
        return SparseMatrix(n, n + 1, entries)
    entries, n_rows, n_cols = [], 0, 0
    for _ in range(draw(st.integers(2, 4)) if kind == "blocks" else 1):
        n_rows += draw(st.integers(0, 2)) if kind == "blocks" else 0
        n_cols += draw(st.integers(0, 2)) if kind == "blocks" else 0
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        # A full first row and column connect the block and use all of it.
        for i in range(rows):
            for j in range(cols):
                if i == 0 or j == 0 or draw(st.booleans()):
                    entries.append((n_rows + i, n_cols + j, draw(value.filter(bool))))
        n_rows, n_cols = n_rows + rows, n_cols + cols
    if kind == "unused":
        # One empty row or column, inserted anywhere.
        if draw(st.booleans()):
            at = draw(st.integers(0, n_rows))
            entries = [(i + (i >= at), j, v) for i, j, v in entries]
            n_rows += 1
        else:
            at = draw(st.integers(0, n_cols))
            entries = [(i, j + (j >= at), v) for i, j, v in entries]
            n_cols += 1
    shift = 2**63 if kind == "object" else 0
    return SparseMatrix(n_rows + shift, n_cols, [(i + shift, j, v) for i, j, v in entries])


@settings(max_examples=120, deadline=None)
@given(split_cases())
def test_one_component_test_splits_as_the_label_algorithm(m):
    expected = label_components(m)
    found = _components(m)
    assert len(found) == len(expected)
    for (c, count), (e, e_count) in zip(found, expected):
        assert (c is m) == (e is m)
        assert (c.n_rows, c.n_cols, c._den, count) == (e.n_rows, e.n_cols, e._den, e_count)
        for got, want in ((c._rows, e._rows), (c._cols, e._cols), (c._values, e._values)):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


@st.composite
def planted_rank_blocks(draw):
    """Blocks B*C from small integer factors on the diagonal, rows and columns
    permuted and padded, some rows scaled by a rational.  A factor or a scale
    may be the certificate prime, which rank_exact's mod-q pass then misses."""
    factor = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, CERTIFICATE_PRIME])
    entries = []
    n_rows = n_cols = 0
    for rows, inner, cols in draw(st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 3), st.integers(1, 5)),
            min_size=2, max_size=5)):
        b = [[draw(factor) for _ in range(inner)] for _ in range(rows)]
        c = [[draw(factor) for _ in range(cols)] for _ in range(inner)]
        for i in range(rows):
            for j in range(cols):
                v = sum(b[i][t] * c[t][j] for t in range(inner))
                if v:
                    entries.append((n_rows + i, n_cols + j, v))
        n_rows += rows
        n_cols += cols
    pad_rows, pad_cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    row_perm = draw(st.permutations(range(n_rows + pad_rows)))
    col_perm = draw(st.permutations(range(n_cols + pad_cols)))
    scale = draw(st.lists(
        st.builds(Fraction, st.sampled_from([1, -1, 2, -3, CERTIFICATE_PRIME]),
                  st.sampled_from([1, 2, 3, 4])),
        min_size=n_rows, max_size=n_rows))
    return SparseMatrix(n_rows + pad_rows, n_cols + pad_cols,
                        [(row_perm[i], col_perm[j], scale[i] * v) for i, j, v in entries])


@settings(max_examples=60, deadline=None)
@given(planted_rank_blocks(), st.integers(0, 2**16))
def test_rank_exact_equals_rank_modular_on_planted_ranks(m, seed):
    certified = rank_exact(m).rank
    assert certified == fraction_free_rank(m) == rank_modular(m, 2, seed).rank


@settings(max_examples=40, deadline=None)
@given(planted_rank_blocks(), st.integers(2**63, 2**64 - 2**8), st.integers(2**63, 2**64 - 2**8),
       st.integers(0, 2**16))
def test_ranks_past_int64_match_the_unshifted_copy(m, row_offset, col_offset, seed):
    # m placed at row and column offsets of 2^63 or more in a 2^64-sided
    # shape: its indices are Python ints, its components' local ones int64.
    shifted = SparseMatrix(2**64, 2**64, [(row_offset + i, col_offset + j, v)
                                          for i, j, v in m.entries()])
    assert shifted._rows.dtype == shifted._cols.dtype == object
    assert rank_exact(shifted) == rank_exact(m)
    modular = rank_modular(shifted, 2, seed)
    assert modular == rank_modular(m, 2, seed)
    assert rank_auto(shifted, seed) == modular


def test_rank_exact_falls_back_when_the_prime_divides_an_entry():
    # diag(q, 1) would split into two 1x1 components, which need no prime;
    # the 1 above the diagonal keeps a single component.
    q = CERTIFICATE_PRIME
    m = from_dense([[q, 1], [0, 1]])
    assert _modular_rank([(m, 1)], q) == 1
    assert exactla._lifted_rank(m, q) is None
    with mock.patch.object(exactla, "_sparse_integer_rank",
                           wraps=_sparse_integer_rank) as fallback:
        assert rank_exact(m).rank == 2
    assert fallback.call_count == 1


@pytest.mark.parametrize("n, d", [(3, 3), (4, 4), (5, 3)])
def test_rank_exact_lift_closes_on_random_kyfl11_matrices(n, d):
    m = koszul_flattening(gen_random(n, d, 100 * n + d, 1000), 1, 1)
    with mock.patch.object(exactla, "_sparse_integer_rank", side_effect=AssertionError), \
            mock.patch.object(exactla, "_lifted_rank", wraps=exactla._lifted_rank) as lift:
        assert rank_exact(m).rank == n * n - 1
    assert lift.call_count >= 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rank_exact_lifts_the_kyfl11_cell_from_its_square_block(seed):
    # One 1764 x 49 component of rank 48: its first 49 rows already have the
    # whole kernel, so only that block is factored.
    m = koszul_flattening(gen_random(7, 5, seed, 1000), 1, 1)
    assert [(c.n_rows, c.n_cols) for c, _ in _components(m)] == [(1764, 49)]
    with mock.patch.object(exactla, "_sparse_integer_rank", side_effect=AssertionError), \
            mock.patch.object(exactla, "_kernel_mod", wraps=_kernel_mod) as kernel:
        assert rank_exact(m).rank == 48
    assert [call.args[0].shape for call in kernel.call_args_list] == [(49, 49)]


def test_rank_exact_factors_the_whole_component_when_its_block_kernel_is_larger():
    # The (6, 4) witness has a 60 x 31 component whose first 31 rows leave
    # nullity 21 mod q against the whole's 1: the block's lift fails, and
    # the whole component is factored and lifted.
    m = koszul_flattening(gen_kyfl11_witness(6, 4), 1, 1)
    [comp] = [c for c, _ in _components(m) if (c.n_rows, c.n_cols) == (60, 31)]
    factored = []

    def kernel(a, q):
        shape, basis = a.shape, _kernel_mod(a, q)
        factored.append((shape, len(basis)))
        return basis
    with mock.patch.object(exactla, "_kernel_mod", side_effect=kernel):
        assert exactla._lifted_rank(comp, CERTIFICATE_PRIME) == fraction_free_rank(comp) == 30
    assert factored == [((31, 31), 21), ((60, 31), 1)]


def whole_lifted_rank(m, q):
    """The lifted-kernel certificate on all of m's tall orientation, each
    lift checked entry by entry: the reference that the square block and
    its array check must equal."""
    tall = m.n_rows >= m.n_cols
    a = _dense_mod(m, q)
    kernel = _kernel_mod(a if tall else np.ascontiguousarray(a.T), q)
    side = kernel.shape[1]
    if not len(kernel):
        return side
    index, other = (m._cols, m._rows) if tall else (m._rows, m._cols)
    groups = [[] for _ in range(side)]
    for c, i, v in zip(index.tolist(), other.tolist(), m._values.tolist()):
        groups[c].append((i, v))
    for vector in kernel:
        lifted = {}
        for c in np.flatnonzero(vector).tolist():
            value = exactla._rational_reconstruction(int(vector[c]), q)
            if value is None:
                return None
            lifted[c] = value
        scale = lcm(*(v.denominator for v in lifted.values()))
        residual = {}
        for c, value in lifted.items():
            k = int(value * scale)
            for i, v in groups[c]:
                residual[i] = residual.get(i, 0) + v * k
        if any(residual.values()):
            return None
    return side - len(kernel)


@st.composite
def planted_rank(draw):
    """A tall or wide product of small random integer factors, of a drawn
    rank: its leading rows (tall orientation) of a drawn lower rank or its
    rows shuffled, one row times 2^64 and all of it over 3 when drawn."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    big, small = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    big, small = max(big, small), min(big, small)
    rank = draw(st.integers(0, small))
    lead = draw(st.integers(0, rank))
    b = [[rng.randint(-4, 4) if t < lead or i >= small else 0 for t in range(rank)]
         for i in range(big)]
    if draw(st.booleans()):
        rng.shuffle(b)
    c = [[rng.randint(-4, 4) for _ in range(small)] for _ in range(rank)]
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]
    if draw(st.booleans()):
        i = rng.randrange(big)
        rows[i] = [v * 2**64 for v in rows[i]]
    scale = draw(st.sampled_from([1, Fraction(1, 3)]))
    rows = [[v * scale for v in row] for row in rows]
    return from_dense([list(col) for col in zip(*rows)] if draw(st.booleans()) else rows)


@settings(max_examples=150, deadline=None)
@given(planted_rank(), st.sampled_from([5, 101, CERTIFICATE_PRIME]))
def test_lifted_rank_equals_the_whole_orientation_certificate(m, q):
    assert exactla._lifted_rank(m, q) == whole_lifted_rank(m, q)


def test_lifted_rank_checks_in_python_ints_when_a_row_sum_could_overflow():
    # The block's kernel lifts to (-1, 2), and the last row sends it to
    # 2 + 2 * (2^63 - 1) = 2^64, which int64 would wrap to 0: the check must
    # see it, fall back to the whole matrix and find full rank.
    m = from_dense([[2, 1], [4, 2], [-2, 2**63 - 1]])
    assert m._values.dtype == np.int64
    assert exactla._lifted_rank(m, CERTIFICATE_PRIME) == fraction_free_rank(m) == 2


def bit_length(values):
    return max(map(abs, values), default=0).bit_length()


def edge_integers(draw, size):
    """size integers within 3 of 0, or of +-2^b for one drawn b: at the
    edges of int64 products and sums."""
    base = draw(st.sampled_from([0, 2**31, 2**62, 2**63, 2**64]))
    near = st.builds(lambda sign, d: sign * base + d, st.sampled_from([1, -1]), st.integers(-3, 3))
    return draw(st.lists(near, min_size=size, max_size=size))


def run_case(x, y, lengths):
    """(x, y, starts, expected, longest run) for x * y summed over
    consecutive runs of the given lengths."""
    products = [a * b for a, b in zip(x, y)]
    starts = np.cumsum([0, *lengths])[:-1]
    expected = [sum(products[s:s + n]) for s, n in zip(starts.tolist(), lengths)]
    return (np.array(x, dtype=object), np.array(y, dtype=object), starts, expected,
            max(lengths, default=1))


@st.composite
def product_cases(draw):
    """A case in one of three shapes: entrywise, summed over runs (none, or
    some of one entry), and (P, W) times (P, 1) as the exterior derivative
    scales its wedge signs."""
    kind = draw(st.sampled_from(["entrywise", "runs", "broadcast"]))
    if kind == "broadcast":
        p, w = draw(st.integers(0, 4)), draw(st.integers(1, 4))
        x = np.array(edge_integers(draw, p * w), dtype=object).reshape(p, w)
        y = np.array(edge_integers(draw, p), dtype=object)[:, None]
        return x, y, None, (x * y).tolist(), 1
    lengths = draw(st.lists(st.integers(1, 4), max_size=6))
    x, y = edge_integers(draw, sum(lengths)), edge_integers(draw, sum(lengths))
    if kind == "entrywise":
        products = [a * b for a, b in zip(x, y)]
        return np.array(x, dtype=object), np.array(y, dtype=object), None, products, 1
    return run_case(x, y, lengths)


@settings(max_examples=300, deadline=None)
@given(product_cases())
# 31 + 31 bits fit alone, and in one-entry runs, but not in a run of two;
# 2^62 * 2 wraps in int64.
@example(run_case([2**31 - 1] * 2, [1 - 2**31] * 2, [1, 1]))
@example(run_case([2**31 - 1] * 2, [1 - 2**31] * 2, [2]))
@example(run_case([2**62], [2], [1]))
def test_products_are_exact_and_int64_when_the_bit_lengths_prove_it(case):
    x, y, starts, expected, longest = case
    fits = bit_length(x.ravel()) + bit_length(y.ravel()) + (longest - 1).bit_length() < 63
    # Arrays come in as a matrix or a gather holds them: int64 when every value fits.
    x, y = exactla._stored(x), exactla._stored(y)
    result = exactla._products(x, y, starts)
    assert result.tolist() == expected
    assert (result.dtype == np.int64) == fits


def test_rank_exact_memory_on_the_kyfl11_cell_follows_its_block():
    # Factoring all 1764 x 49 rows and checking entry by entry peaked at 4.16 MB.
    m = koszul_flattening(gen_random(7, 5, 0, 1000), 1, 1)
    result, peak = traced_peak(rank_exact, m)
    assert result.rank == 48
    assert peak < 2.5e6


def test_rank_exact_lift_gives_up_on_large_generic_kernels():
    # A generic rank-3 product of 2^31-sized factors: its kernel entries are
    # ratios of 3x3 minors, far past what reconstruction mod q can return.
    rng = random.Random(2)
    b = [[rng.randint(1, 2**31) for _ in range(3)] for _ in range(6)]
    c = [[rng.randint(1, 2**31) for _ in range(5)] for _ in range(3)]
    rows = [[sum(b[i][t] * c[t][j] for t in range(3)) for j in range(5)] for i in range(6)]
    m = from_dense(rows)
    assert _modular_rank([(m, 1)], CERTIFICATE_PRIME) == 3
    assert exactla._lifted_rank(m, CERTIFICATE_PRIME) is None
    with mock.patch.object(exactla, "_sparse_integer_rank",
                           wraps=_sparse_integer_rank) as fallback:
        assert rank_exact(m).rank == dense_rank_oracle(rows) == 3
    assert fallback.call_count == 1


def test_rank_exact_closes_a_sparse_component_by_its_full_rank_mod_q():
    # A 60 x 60 cyclic bidiagonal matrix is one component of fill 1/30,
    # below DENSE_FILL, so it is ranked sparsely mod q and never lifted; its
    # full rank mod q alone closes it, without fraction-free elimination.
    rng = random.Random(5)
    n = 60
    entries = [(i, j, rng.randint(1, 2**31)) for i in range(n) for j in (i, (i + 1) % n)]
    m = SparseMatrix(n, n, entries)
    assert m.nnz < exactla.DENSE_FILL * n * n
    assert len(_components(m)) == 1
    assert fraction_free_rank(m) == n
    with mock.patch.object(exactla, "_sparse_integer_rank", side_effect=AssertionError), \
            mock.patch.object(exactla, "_lifted_rank", side_effect=AssertionError):
        assert rank_exact(m).rank == n


def test_rank_exact_draws_a_prime_only_for_components_that_need_one():
    # Two 1x1 blocks, a 1x3 row and a 3x1 column: every component has rank 1.
    thin = [(0, 0, 5), (1, 1, Fraction(1, 3)), (2, 2, 1), (2, 3, 2), (2, 4, 3),
            (3, 5, 4), (4, 5, 5), (5, 5, 6)]
    square = [(6, 6, 1), (6, 7, 2), (7, 6, 3), (7, 7, 4), (8, 8, 1), (8, 9, 1), (9, 9, 1)]
    exactla._certificate_prime.cache_clear()
    with mock.patch.object(exactla, "random_prime", wraps=random_prime) as draw:
        assert rank_exact(SparseMatrix(10, 10, thin)).rank == 4
        assert draw.call_count == 0
        # Two 2x2 components share one lazily drawn prime.
        assert rank_exact(SparseMatrix(10, 10, thin + square)).rank == 8
        assert draw.call_count == 1
        # A denominator the certificate prime divides forces one redraw.
        redrawn = from_dense([[Fraction(1, CERTIFICATE_PRIME), 1], [1, 1]])
        assert rank_exact(redrawn).rank == 2
        assert draw.call_count == 3


def test_rank_exact_draws_its_certificate_prime_once_per_process():
    exactla._certificate_prime.cache_clear()
    m = from_dense([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    with mock.patch.object(exactla, "random_prime", wraps=random_prime) as draw, \
            mock.patch.object(exactla, "_component_rank",
                              wraps=exactla._component_rank) as certify:
        for _ in range(5):
            assert rank_exact(m).rank == 3
    assert draw.call_count == 1
    assert {call.args[1] for call in certify.call_args_list} == {CERTIFICATE_PRIME}
    assert CERTIFICATE_PRIME == 2964560849


def test_times_mod_is_exact_at_its_bound():
    q = 3037000493
    assert is_prime(q) and q <= PRIME_CEIL
    # Both limbs are below 2^16, so every float64 partial sum of a product
    # PANEL deep stays an integer below 2^53, at most h for the hi limb.
    h = PANEL * (q - 1) * ((q - 1) >> 16)
    assert (q - 1) >> 16 < 2**16 - 1 and PANEL * (q - 1) * (2**16 - 1) < 2**53
    # floor(h·(1/q)) carries two roundings, relative error under 2^-51, so it
    # is off from floor(h / q) by at most one: |h - floor(h·(1/q))·q| <= 2q.
    assert h / q * 2.0**-51 < 1
    for x in [h, h - 1, h - h % q, h - h % q - 1, q, 2 * q - 1, 0]:
        assert abs(x - np.floor(np.float64(x) * (1 / q)) * q) <= 2 * q
    # The reduced hi product, in [-q, 2q), shifted and added to the lo one
    # stays an integer below 2^53.
    assert 2 * q * 2**16 + PANEL * (q - 1) * (2**16 - 1) <= (PANEL + 2) * PRIME_CEIL * 2**16 < 2**53
    # A trailing entry in [0, q) minus _DRIFT such values, and the x // q·q
    # that then reduces it, stay inside int64.
    assert exactla._DRIFT >= 1
    assert q + exactla._DRIFT * (PANEL + 2) * PRIME_CEIL * 2**16 <= 2**62 < 2**63 - 2 * q
    rng = np.random.default_rng(0)
    for x, y in [(np.full((3, PANEL), q - 1), np.full((PANEL, 70), q - 1)),
                 (rng.integers(0, q, (5, PANEL)), rng.integers(0, q, (PANEL, 9)))]:
        expected = x.astype(object) @ y.astype(object) % q
        product = _times_mod(y, q)(x)
        assert (product % q == expected).all()
        assert np.abs(product).max() < (PANEL + 2) * q * 2**16


@pytest.mark.parametrize("k", [1, 2, 3, 31, 32])
@pytest.mark.parametrize("q", [5, 101, 3037000493])
def test_unit_lower_inverse_inverts_mod_q(k, q):
    rng = np.random.default_rng(k)
    for n in [np.tril(rng.integers(0, q, (k, k)), -1), np.tril(np.full((k, k), q - 1), -1)]:
        inverse = exactla._unit_lower_inverse(n.copy(), q)
        assert inverse.min() >= 0 and inverse.max() < q
        unit = np.eye(k, dtype=np.int64) + n
        assert (unit.astype(object) @ inverse.astype(object) % q == np.eye(k)).all()


@st.composite
def panel_matrices(draw):
    """(a, q): a wider or taller than PANEL with entries in [0, q), a product
    B·C of planted inner size, optionally with zero leading panels, repeated
    columns inside a panel (fewer pivots than columns), leading rows zeroed on
    the first panel (pivot rows below non-pivot rows), or every entry q - 1,
    the largest limbs, sometimes but for a random diagonal."""
    q = draw(st.sampled_from([5, 101, 2147483659, 3037000493]))
    n_rows, n_cols = draw(st.integers(1, 64)), draw(st.integers(PANEL + 1, 4 * PANEL + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()) and q == 3037000493:
        a = np.full((n_rows, n_cols), q - 1)
        if draw(st.booleans()):
            np.fill_diagonal(a, rng.integers(0, q, n_rows))
    else:
        inner = draw(st.integers(1, n_rows + 2))
        # Small B keeps the int64 product exact: 8 * 66 * q < 2^63.
        a = rng.integers(0, min(q, 8), (n_rows, inner)) @ rng.integers(0, q, (inner, n_cols)) % q
        a[:, :draw(st.sampled_from([0, 0, 0, PANEL // 2, PANEL, PANEL + 5]))] = 0
        copies = draw(st.lists(st.tuples(st.integers(0, PANEL - 1), st.integers(0, PANEL - 1)),
                               max_size=12))
        for src, dst in copies:
            a[:, dst] = a[:, src]
        a[:draw(st.integers(0, n_rows)), :PANEL] = 0
    return (a.T.copy() if draw(st.booleans()) else a), q


def _first_panel_rank_then_zero_panels():
    rng = np.random.default_rng(5)
    a = np.zeros((40, 5 * PANEL), dtype=np.int64)
    a[:, :PANEL] = rng.integers(0, 8, (40, 10)) @ rng.integers(0, 101, (10, PANEL)) % 101
    return a


def _zero_panel_then_full_rank(lead=PANEL):
    a = np.zeros((40, 3 * PANEL), dtype=np.int64)
    a[:, lead:] = np.random.default_rng(4).integers(0, 101, (40, 3 * PANEL - lead))
    return a


def _one_pivot_per_panel_near_q(q=3037000493, n_rows=12):
    # -(B·U) mod q, B lower triangular of ones and U in echelon form with row
    # i's pivot on panel i: every nonzero entry lies near q - 1, and each of
    # the first n_rows panels adds exactly one pivot, so the unreduced rows
    # below take one update after another.
    rng = np.random.default_rng(6)
    u = rng.integers(1, 4, (n_rows, (n_rows + 2) * PANEL + 7))
    for i in range(n_rows):
        u[i, :i * PANEL] = 0
    return (-(np.tril(np.ones((n_rows, n_rows), dtype=np.int64)) @ u)) % q


@settings(max_examples=100, deadline=None)
@given(panel_matrices(), st.sampled_from([5, exactla.CHUNK]), st.sampled_from([1, exactla._DRIFT]),
       st.sampled_from([7, exactla.BLOCK]))
@example((_zero_panel_then_full_rank(), 101), 5, exactla._DRIFT, 7)
@example((_zero_panel_then_full_rank(PANEL + 7), 101), 5, exactla._DRIFT, 7)
@example((_first_panel_rank_then_zero_panels(), 101), 5, exactla._DRIFT, 7)
@example((np.full((PANEL + 3, 2 * PANEL + 5), 3037000492), 3037000493), exactla.CHUNK,
         exactla._DRIFT, exactla.BLOCK)
@example((_one_pivot_per_panel_near_q(), 3037000493), 5, exactla._DRIFT, 7)
@example((_one_pivot_per_panel_near_q().T.copy(), 3037000493), exactla.CHUNK, 1, 7)
def test_blocked_dense_kernel_matches_the_sparse_oracle(case, chunk, drift, block):
    # A small chunk splits the trailing update of these small matrices too,
    # a drift of 1 reduces the whole trailing block before every update but
    # the first, and a block of 7 columns splits the update, the drift
    # reduction and the all-zero check into blocks, the last one narrower
    # (after a zero panel and a zero first block, the second block decides).
    a, q = case
    rows = [{j: v for j, v in enumerate(row) if v} for row in a.tolist()]
    with mock.patch.object(exactla, "CHUNK", chunk), mock.patch.object(exactla, "_DRIFT", drift), \
            mock.patch.object(exactla, "BLOCK", block):
        assert _modular_rank_dense(a.copy(), q) == _markowitz_rank(rows, _modular_update(q))


@settings(max_examples=60, deadline=None)
@given(panel_matrices(), st.sampled_from([7, exactla.BLOCK]))
@example((_one_pivot_per_panel_near_q(), 3037000493), 7)
@example((_one_pivot_per_panel_near_q(n_rows=40), 3037000493), 7)
def test_blocked_dense_kernel_reduces_every_block_between_updates(case, block):
    # Each product the update subtracts is shifted by the largest multiple of
    # q below 2^62, which leaves it congruent but takes an entry in [0, q)
    # near -2^62: a second update to any block not reduced in between wraps
    # int64.  With a drift of 1 every block is reduced before every update
    # but the first, so the rank stays the oracle's.
    a, q = case
    rows = [{j: v for j, v in enumerate(row) if v} for row in a.tolist()]
    shift, times_mod = 2**62 // q * q, exactla._times_mod

    def shifted(y, q):
        times = times_mod(y, q)
        return lambda x: times(x) + shift

    with mock.patch.object(exactla, "_DRIFT", 1), mock.patch.object(exactla, "BLOCK", block), \
            mock.patch.object(exactla, "_times_mod", shifted):
        assert _modular_rank_dense(a.copy(), q) == _markowitz_rank(rows, _modular_update(q))


@pytest.mark.parametrize("shape, blocked", [
    ((20, PANEL), False), ((PANEL, 20), False), ((PANEL, PANEL), False), ((1, 1), False),
    ((PANEL + 1, 2 * PANEL - 1), False), ((2 * PANEL - 1, PANEL + 1), False),
    ((PANEL + 1, 2 * PANEL), True), ((2 * PANEL, PANEL + 1), True),
])
def test_dense_kernel_multiplies_only_from_two_panels_wide(shape, blocked):
    # A matrix no wider than PANEL, in either orientation, never reaches the
    # product helper; nor does one whose trailing block is under one panel.
    a = np.random.default_rng(1).integers(0, 101, shape)
    with mock.patch.object(exactla, "_times_mod", wraps=_times_mod) as times:
        assert _modular_rank_dense(a, 101) == min(shape)
    assert times.called == blocked


def test_dense_kernel_stops_at_the_first_all_zero_trailing_block():
    # dense-generic's (6, 4, 3) cell: 90 x 2520 of rank 84, whose pivots all
    # lie in the first three panels; the 74 panels after them are not read.
    seed = _case_seed(0, 6, 4, 3)
    matrix = koszul_flattening(gen_random(6, 6, seed, 2**31 - 1), 4, 3)
    q = rank_modular(matrix, 1, _case_seed(0, 6, 4, 3, 7)).primes_used[0]
    a = _dense_mod(matrix, q)
    assert a.shape == (90, 2520)
    with mock.patch.object(exactla, "_lu_mod", wraps=exactla._lu_mod) as lu:
        assert _modular_rank_dense(a, q) == 84
    panels = [call for call in lu.call_args_list if call.kwargs.get("width") == PANEL]
    assert len(panels) <= 4


def test_blocked_path_runs_one_pivot_loop_per_panel():
    # 70 x 138 of full rank: panels of 70, 38 and 6 rows find 32, 32 and 6
    # pivots, then the narrow tail has no rows left.  The pivot loop factors
    # each panel once, in place in the trailing block it is handed, and
    # nothing else, no [S | I] block; the multipliers of the two panels
    # with rows below their pivots are inverted, not S.
    a = np.random.default_rng(2).integers(0, 101, (70, 4 * PANEL + 10))
    with mock.patch.object(exactla, "_lu_mod", wraps=exactla._lu_mod) as lu, \
            mock.patch.object(exactla, "_unit_lower_inverse",
                              wraps=exactla._unit_lower_inverse) as inverse:
        assert _modular_rank_dense(a, 101) == 70
    assert [(call.args[0].shape, call.kwargs.get("width")) for call in lu.call_args_list] == [
        ((70, 4 * PANEL + 10), PANEL), ((38, 3 * PANEL + 10), PANEL),
        ((6, 2 * PANEL + 10), PANEL), ((0, PANEL + 10), None)]
    assert [call.args[0].shape for call in inverse.call_args_list] == [(PANEL, PANEL)] * 2


@st.composite
def slice_stacks(draw):
    """(a, q): a (B, m, n) stack of slices of one shape under two panels,
    tall, wide, 1 x k or k x 1, entries in [0, q).  Each slice is drawn on
    its own: a product B·C of random inner size (so ranks mix within a
    stack), all zero, full rank on its leading square block with its pivots
    there (full rank reached early), or every entry q - 1."""
    q = draw(st.sampled_from([5, 101, 2147483659, 3037000493]))
    side = st.one_of(st.just(1), st.integers(1, 8), st.integers(9, 2 * PANEL - 1))
    m, n = draw(side), draw(side)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slices = []
    for kind in draw(st.lists(st.sampled_from(["planted", "zero", "early", "max"]),
                              min_size=1, max_size=6)):
        if kind == "planted":
            inner = draw(st.integers(1, min(m, n) + 1))
            # Small B keeps the int64 product exact: 8 * 64 * q < 2^63.
            a = rng.integers(0, min(q, 8), (m, inner)) @ rng.integers(0, q, (inner, n)) % q
        elif kind == "zero":
            a = np.zeros((m, n), dtype=np.int64)
        elif kind == "early":
            a = rng.integers(0, q, (m, n))
            k = min(m, n)
            a[:k, :k] = np.triu(a[:k, :k], 1) + np.diag(rng.integers(1, q, k))
            a[k:, :k] = 0
        else:
            a = np.full((m, n), q - 1)
        slices.append(a)
    return np.stack(slices).astype(np.int64), q


@settings(max_examples=150, deadline=None)
@given(slice_stacks())
@example((np.full((3, 1, 5), 3037000492), 3037000493))
@example((np.full((2, 2 * PANEL - 1, 7), 3037000492), 3037000493))
@example((np.random.default_rng(3).integers(0, 5, (3, 2 * PANEL + 3, 6)), 5))
# A row whose pivot is taken holds the only nonzero of a later column.
@example((np.array([[[1, 1], [0, 0], [0, 0]]], dtype=np.int64), 5))
# A later pivot sits above an earlier one.
@example((np.array([[[0, 1], [1, 0], [0, 0]]], dtype=np.int64), 5))
def test_dense_kernel_matches_the_sparse_oracle_slice_by_slice(case):
    # A slice under two panels wide in its wider orientation is ranked whole
    # by the pivot loop; a slice two panels tall but narrow, by the panels.
    a, q = case
    for s in a:
        rows = [{j: v for j, v in enumerate(row) if v} for row in s.tolist()]
        assert _modular_rank_dense(s.copy(), q) == _markowitz_rank(rows, _modular_update(q))


def test_rank_modular_reduces_and_ranks_each_distinct_component_once_per_prime():
    # The (3, 3) cell of x1...x7: 393 components of 4 shapes, 16 of them
    # distinct, all dense; each distinct one is reduced and ranked once per prime.
    m = _full_koszul(gen_product(7), 3, 3)
    assert m.n_cols > EXACT_COLUMN_LIMIT
    components = _components(m)
    assert sum(count for _, count in components) == 393
    assert len({(c.n_rows, c.n_cols) for c, _ in components}) == 4
    assert len(components) == 16
    with mock.patch.object(exactla, "_dense_mod", wraps=_dense_mod) as reduce, \
            mock.patch.object(exactla, "_modular_rank_dense", wraps=_modular_rank_dense) as rank:
        assert rank_modular(m, 2, 0).rank == 832
    assert reduce.call_count == rank.call_count == 2 * 16


def block_diagonal(blocks, gaps=None):
    """The block-diagonal matrix of ``blocks``, each a (rows, cols, {(i, j):
    value}) triple, block t after gaps[t] empty rows and columns."""
    entries, i0, j0 = [], 0, 0
    for (rows, cols, cells), gap in zip(blocks, gaps or [0] * len(blocks)):
        i0, j0 = i0 + gap, j0 + gap
        entries += [(i0 + i, j0 + j, v) for (i, j), v in cells.items()]
        i0, j0 = i0 + rows, j0 + cols
    return SparseMatrix(i0, j0, entries)


@st.composite
def repeated_blocks(draw):
    """A block-diagonal matrix of a few random integer blocks, each placed
    several times at its own offset: exact copies, and near-copies that
    differ from their block in one value, by 1 or by 2^64, or in the
    position of one entry.  Some draws add 2^64 to every positive value."""
    lift = draw(st.sampled_from([0, 0, 2**64]))
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        values = draw(st.lists(st.integers(-3, 3), min_size=rows * cols, max_size=rows * cols))
        cells = {(i, j): v + lift * (v > 0) for (i, j), v in
                 zip(np.ndindex(rows, cols), values) if v}
        bases.append((rows, cols, cells))
    blocks = []
    for _ in range(draw(st.integers(1, 8))):
        rows, cols, cells = draw(st.sampled_from(bases))
        cells = dict(cells)
        kind = draw(st.sampled_from(["copy", "copy", "value", "position"]))
        if cells and kind == "value":
            at = draw(st.sampled_from(sorted(cells)))
            cells[at] = cells[at] + draw(st.sampled_from([1, 2**64])) or 2
        empty = sorted(set(np.ndindex(rows, cols)) - set(cells))
        if cells and empty and kind == "position":
            cells[draw(st.sampled_from(empty))] = cells.pop(draw(st.sampled_from(sorted(cells))))
        blocks.append((rows, cols, cells))
    gaps = draw(st.lists(st.integers(0, 2), min_size=len(blocks), max_size=len(blocks)))
    return block_diagonal(blocks, gaps)


@settings(max_examples=80, deadline=None)
@given(repeated_blocks(), st.sampled_from([5, 101, 2147483659, 3037000493]))
def test_grouped_ranks_match_the_ungrouped_oracles(m, q):
    components = _components(m)
    assert sum(count for _, count in components) == union_find_components(m)
    reference = _modular_rank_dense(_dense_mod(m, q), q)
    # Through the default split, then every component sparse, then every one dense.
    assert _modular_rank(components, q) == reference
    for fill in (2.0, 0.0):
        with mock.patch.object(exactla, "DENSE_FILL", fill):
            assert _modular_rank(components, q) == reference
    assert rank_exact(m).rank == fraction_free_rank(m)


@pytest.mark.parametrize("lift, step", [(0, 1), (2**70, 1), (2**70, 2**64)])
def test_near_copies_stay_separate_components(lift, step):
    # Three copies of one connected 2 x 3 block at different offsets, then
    # the block with one value changed, in its low or its high bits, and
    # with one entry moved: each near-copy is its own component, counted once.
    block = {(0, 0): 1 + lift, (0, 1): 2, (1, 1): 3 + lift, (1, 2): 4}
    changed = {**block, (1, 1): 3 + lift + step}
    moved = {(0, 0): 1 + lift, (0, 2): 2, (1, 1): 3 + lift, (1, 2): 4}
    m = block_diagonal([(2, 3, cells) for cells in (block, changed, block, moved, block)],
                       [0, 1, 2, 0, 3])
    assert (m._values.dtype == object) == bool(lift)
    found = sorted((c.n_rows, c.n_cols, sorted(c.entries()), count)
                   for c, count in _components(m))
    assert found == sorted((2, 3, sorted((i, j, v) for (i, j), v in cells.items()), count)
                           for cells, count in ((block, 3), (changed, 1), (moved, 1)))


def test_rank_exact_certifies_each_distinct_component_once():
    # Five copies of a rank-2 block and one full-rank block: two lifts, and
    # no fraction-free elimination.
    deficient = {(i, j): 3 * i + j + 1 for i in range(3) for j in range(3)}
    full = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 3, (1, 2): 1, (2, 1): 1, (2, 2): 4}
    m = block_diagonal([(3, 3, deficient)] * 5 + [(3, 3, full)], [0, 2, 0, 1, 0, 3])
    with mock.patch.object(exactla, "_sparse_integer_rank", side_effect=AssertionError), \
            mock.patch.object(exactla, "_lifted_rank", wraps=exactla._lifted_rank) as lift:
        assert rank_exact(m).rank == 5 * 2 + 3
    assert lift.call_count == 2
    assert fraction_free_rank(m) == 13


@settings(max_examples=60, deadline=None)
@given(permuted_block_diagonal(), st.sampled_from([5, 101, 3037000493]))
@example(from_dense([[0, 0, 3, 1, 0], [2, 4, 5, 6, 1], [4, 8, 7, 9, 2]]), 101)
def test_kernel_mod_spans_the_kernel_mod_q(m, q):
    # The example swaps rows for its first pivot; its free column 1 lies
    # between the pivot columns 0 and 2, and free column 4 after them.
    a = _dense_mod(m, q)
    kernel = _kernel_mod(a.copy(), q)
    assert len(kernel) == m.n_cols - _modular_rank_dense(a.copy(), q)
    assert not (a.astype(object) @ kernel.T.astype(object) % q).any()
    assert _modular_rank_dense(kernel.copy(), q) == len(kernel)


@pytest.mark.parametrize("k, p, seed, rank, primes", [
    (3, 3, 0, 832, (2582278367, 2959022239)),
    (4, 3, 5, 595, (2269037629, 2342985901)),
])
def test_rank_modular_golden_product_cells(k, p, seed, rank, primes):
    # Values recorded from the dense-only engine this one replaced.
    result = rank_modular(koszul_flattening(gen_product(7), k, p), 2, seed)
    assert (result.rank, result.primes_used) == (rank, primes)


def test_rank_modular_redraws_primes_that_hit_a_denominator():
    rng = random.Random(3)
    drawn = [random_prime(rng) for _ in range(4)]
    assert drawn == [2731845331, 2771168831, 2728349933, 2737645621]
    # Denominators divisible by the first and third draws force two redraws.
    m = from_dense([
        [Fraction(1, drawn[0] * drawn[2]), 1, 0],
        [0, Fraction(2, 3), 1],
        [1, 0, Fraction(-5, drawn[2])],
    ])
    result = rank_modular(m, 2, 3)
    assert result.primes_used == (2771168831, 2737645621)
    assert result.rank == 3


def test_rank_auto_policy():
    small = catalecticant(gen_product(3), 1)
    assert rank_auto(small).method == "exact_rational"
    wide = catalecticant(gen_product(8), 4)  # 330 columns, still exact
    assert rank_auto(wide).method == "exact_rational"
    very_wide = catalecticant(gen_product(8), 7)  # 3432 columns
    result = rank_auto(very_wide, seed=1)
    assert result.method == "modular"
    assert result.rank == 8


def test_rank_modular_product_cell_matches_exact():
    # x1*x2*x3 at (1,1): seven weight blocks, ranked together mod q
    m = koszul_flattening(gen_product(3), 1, 1)
    modular = rank_modular(m, 2, 3)
    assert modular.rank == fraction_free_rank(m) == 8
    assert modular.method == "modular"
    assert modular.is_certified_lower_bound


def test_rank_result_invariants():
    q = 2**31 + 11
    assert RankResult(1, "modular", (q,)).is_certified_lower_bound
    assert not RankResult(1, "exact_rational").is_certified_lower_bound
    with pytest.raises(TypeError):
        RankResult(1, "modular", (q,), True)  # certification is not stored
    with pytest.raises(ValueError):
        RankResult(1, "modular")  # no primes recorded
    with pytest.raises(ValueError):
        RankResult(1, "exact_rational", primes_used=(2**31 + 11,))
    with pytest.raises(ValueError):
        RankResult(1, "something_else")


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1), (0, 0, 2)])  # duplicate
    for first, second in ((0, 1), (1, 0), (0, 0)):  # a duplicate, whichever copy is zero
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [(0, 0, first), (0, 0, second)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(2, 0, 1)])  # out of bounds
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, row_labels=["a"])  # wrong length
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, row_labels=["a", "a"])  # not distinct
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, [(0, 0, 0.5)])  # float entry
    m = SparseMatrix(2, 2, [(0, 0, 0), (1, 1, 2)])
    assert m.nnz == 1  # zeros are dropped


def test_constructor_takes_integer_indices_and_shape_only():
    for entries in ([(0.5, 0, 3), (0, 0, 4)], [(0, 1.0, 3)], [(Fraction(1), 0, 3)]):
        with pytest.raises(TypeError):
            SparseMatrix(2, 2, entries)
    for shape in ((2.5, 2), (2, 2.0)):
        with pytest.raises(TypeError):
            SparseMatrix(*shape, [(0, 0, 1)])
    m = SparseMatrix(np.int64(2), 2, [(np.int64(1), True, 3)])
    assert (type(m.n_rows), m.entries()) == (int, [(1, 1, 3)])
    with pytest.raises(ValueError):
        SparseMatrix(2, 2, [(0, 0, 1), (1, 1)])  # not a triple


@pytest.mark.parametrize("entries, error, message", [
    # Values are checked first, then positions, then repeats.
    ([(5, 5, 1), (0, 0, 0.5)], TypeError, "floats"),
    ([(0, 0, 1), (0, 0, 2), (0, 7, 1), (-1, 0, 1)], ValueError, r"entry \(0, 7\) outside a 2x2"),
    ([(1, 1, 1), (0, 0, 3), (0, 0, 4), (1, 1, 2)], ValueError, r"duplicate entry at \(0, 0\)"),
    ([(1, 1, 1), (0, 0, 3), (1, 1, 0), (0, 0, 4)], ValueError, r"duplicate entry at \(1, 1\)"),
])
def test_constructor_names_the_first_fault_of_the_first_kind(entries, error, message):
    with pytest.raises(error, match=message):
        SparseMatrix(2, 2, entries)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5), st.integers(-2, 2)),
                min_size=1, max_size=30))
def test_constructor_names_the_first_offending_entry_in_the_order_given(entries):
    outside = [(i, j) for i, j, _ in entries if not (0 <= i < 5 and 0 <= j < 5)]
    seen, repeated = set(), []
    for i, j, _ in entries:
        if (i, j) in seen:
            repeated.append((i, j))
        seen.add((i, j))
    if outside:
        expected = "entry (%d, %d) outside a 5x5 matrix" % outside[0]
    elif repeated:
        expected = "duplicate entry at (%d, %d)" % repeated[0]
    else:
        assert_stored(SparseMatrix(5, 5, entries))
        return
    with pytest.raises(ValueError) as raised:
        SparseMatrix(5, 5, entries)
    assert str(raised.value) == expected


@pytest.mark.parametrize("seed", range(5))
def test_constructor_names_the_first_repeat_in_a_long_shuffled_list(seed):
    # Past a handful of entries numpy's default sort is not stable.
    rng = random.Random(seed)
    cells = rng.sample([(i, j) for i in range(60) for j in range(60)], 3000)
    entries = [(i, j, 1) for i, j in cells]
    entries.append(entries[5])  # the copy of an early entry comes last
    entries.insert(2001, entries[2000])  # the first repeat
    with pytest.raises(ValueError, match=r"duplicate entry at \(%d, %d\)" % cells[2000]):
        SparseMatrix(60, 60, entries)


# 7 * KEY_COLS = 2^63 - 1: the key row * n_cols + col of every cell of a
# 7 x KEY_COLS matrix fits in int64, and one more column takes the last
# row's keys past it.
KEY_COLS = (2**63 - 1) // 7


@pytest.mark.parametrize("seed", range(3))
def test_key_and_lexsort_paths_store_the_same_arrays(seed):
    rng = random.Random(seed)
    cells = rng.sample([(i, j) for i in range(7)
                        for j in [0, 1, 2, KEY_COLS - 2, KEY_COLS - 1]], 20)
    entries = [(i, j, rng.choice([-2, 1, 3, 2**70])) for i, j in cells]
    stored = []
    for n_cols, sorts in ((KEY_COLS, 0), (KEY_COLS + 1, 1)):
        with mock.patch.object(exactla.np, "lexsort", wraps=np.lexsort) as lexsort:
            m = SparseMatrix(7, n_cols, entries)
        assert lexsort.call_count == sorts
        assert_stored(m)
        stored.append([(a.dtype, a.tolist()) for a in (m._rows, m._cols, m._values)])
    assert stored[0] == stored[1]
    assert [(i, j) for i, j, _ in SparseMatrix(7, KEY_COLS, entries).entries()] == sorted(cells)


def test_rank_of_a_huge_declared_shape_allocates_by_its_entries(tmp_path):
    # 2^40 x 2^40 with 3 entries, ranked in a child process whose address
    # space is limited to 1 GiB: one flag, label or dense cell per row or
    # column of the declared shape would ask for terabytes and fail.
    side = 2**40
    path = tmp_path / "huge.txt"
    path.write_text(f"%%flatrank coordinate rational\n{side} {side} 3\n"
                    f"1 1 2\n5 7 -1/3\n{side} {side} 4\n")
    limit = 2**30
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
            "from flatrank.labcli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(exactla.__file__).parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for engine in ((), ("--exact",), ("--modular",)):
        child = subprocess.run([sys.executable, "-c", code, "rank", str(path), *engine],
                               env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert "rank: 3" in child.stdout


def looped_arrays(n_rows, n_cols, entries):
    """The arrays the constructor stored when it checked its valid entries
    one by one: a seen-set, a sorted list of nonzero tuples, and int64
    values unless the conversion overflowed."""
    seen, kept = set(), []
    for i, j, value in entries:
        assert 0 <= i < n_rows and 0 <= j < n_cols and (i, j) not in seen
        seen.add((i, j))
        value = _exact(value)
        if value:
            kept.append((i, j, value))
    index = np.int64 if max(n_rows, n_cols) < 2**63 else object
    rows, cols, values = zip(*sorted(kept)) if kept else ((), (), ())
    den = lcm(*(v.denominator for v in values))
    numerators = [v.numerator * (den // v.denominator) for v in values]
    try:
        stored = np.array(numerators, dtype=np.int64)
    except OverflowError:
        stored = np.array(numerators, dtype=object)
    return np.array(rows, dtype=index), np.array(cols, dtype=index), stored, den


@st.composite
def valid_entry_lists(draw):
    """(n_rows, n_cols, entries): distinct positions in any order, a side
    past 2^63 on demand, zeros, fractions and values past int64."""
    n_rows, n_cols = (draw(st.integers(1, 5) | st.sampled_from([2**63, 2**64 + 3]))
                      for _ in range(2))
    index = st.integers(0, 4) | st.integers(2**63 - 2, 2**64 + 2)
    cells = draw(st.lists(st.tuples(index.filter(lambda i: i < n_rows),
                                    index.filter(lambda j: j < n_cols)),
                          unique=True, max_size=8))
    numerator = st.integers(-3, 3) | st.integers(-(2**70), 2**70) | st.sampled_from(
        [2**63 - 1, -(2**63), 2**63])
    value = numerator | st.builds(Fraction, numerator, st.integers(1, 12))
    return n_rows, n_cols, [(i, j, draw(value)) for i, j in cells]


@settings(max_examples=300, deadline=None)
@given(valid_entry_lists())
def test_constructor_stores_what_the_checking_loop_stored(case):
    n_rows, n_cols, entries = case
    m = SparseMatrix(n_rows, n_cols, entries)
    rows, cols, values, den = looped_arrays(n_rows, n_cols, entries)
    for got, want in ((m._rows, rows), (m._cols, cols), (m._values, values)):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert m._den == den
    assert_stored(m)
    again = SparseMatrix.from_coordinate_text(m.to_coordinate_text())
    assert again == m
    assert_stored(again)


def test_rank_file_reads_and_ranks_sides_past_int64(capsys, tmp_path):
    # Rows 5, 2^63 and 2^64 - 1 of [[1, 2, 0], [2, 4, 0], [0, 0, 7]], listed
    # out of order: rank 2.
    big = 2**64
    lines = [f"{big} 3 7", f"{2**63 + 1} 1 2", "6 2 2", f"{2**63 + 1} 2 4", "6 1 1"]
    path = tmp_path / "tall.txt"
    path.write_text(f"%%flatrank coordinate rational\n{big} 3 5\n" + "\n".join(lines) + "\n")
    m = SparseMatrix.from_coordinate_text(path.read_text())
    assert m._rows.tolist() == [5, 5, 2**63, 2**63, big - 1]
    assert_stored(m)
    for engine in ((), ("--exact",), ("--modular",)):
        assert main(["rank", str(path), *engine]) == 0
        assert "rank: 2" in capsys.readouterr().out


@pytest.mark.parametrize("body, message", [
    # Lines are read first, then their count, then shape, positions and repeats.
    ("2 2 1\n1 1 3\n1 1 x\n", "malformed entry line"),
    ("2 2 2\n1 1 3\n", "expected 2 entries, found 1"),
    ("-1 2 0\n", "matrix dimensions must be non-negative"),
    ("2 2 3\n1 1 3\n1 1 4\n3 1 1\n", r"entry \(2, 0\) outside a 2x2 matrix"),
    ("2 2 3\n2 2 3\n1 1 0\n1 1 4\n", r"duplicate entry at \(0, 0\)"),
])
def test_coordinate_reader_names_the_first_fault(body, message):
    with pytest.raises(ValueError, match=message):
        SparseMatrix.from_coordinate_text("%%flatrank coordinate rational\n" + body)


def test_multiply_stores_int64_exactly_when_the_product_fits():
    small = SparseMatrix(2, 2, [(0, 0, 1), (1, 1, 2)])
    assert small.multiply(small)._values.dtype == np.int64
    # int64 factors whose sum passes 2^63 are summed as Python ints.
    product = from_dense([[2**62, 2**62], [1, -1]]).multiply(from_dense([[2], [2]]))
    assert product.entries() == [(0, 0, 2**64)] and product._values.dtype == object
    # Four products of 2^61: each fits, their sum does not.
    product = from_dense([[2**61] * 4]).multiply(from_dense([[1]] * 4))
    assert product.entries() == [(0, 0, 2**63)] and product._values.dtype == object
    # A sum back under 2^63 is stored int64.
    product = from_dense([[2**62, -(2**62)]]).multiply(from_dense([[3], [2]]))
    assert product.entries() == [(0, 0, 2**62)] and product._values.dtype == np.int64


@pytest.mark.parametrize("m", [
    catalecticant(gen_random(3, 4, 7, 2**31 - 1), 2),
    _full_koszul(gen_product(4), 2, 1),
    koszul_flattening(gen_power_sum_power(3, 2, 2), 1, 1),
    catalecticant(gen_random(2, 4, 3, 9).scale(Fraction(1, 3)), 2),
])
def test_components_of_built_matrices_keep_the_stored_order(m):
    # _wrap checks nothing: a component listed out of row-major order, with
    # a zero or a repeated position would differ from its checked rebuild.
    components = _components(m)
    assert sum(count * c.nnz for c, count in components) == m.nnz
    for c, _ in components:
        assert c == SparseMatrix(c.n_rows, c.n_cols, c.entries())
        assert c._values.dtype == m._values.dtype


@st.composite
def product_pairs(draw):
    """Two matrices with a common inner size and mixed int/Fraction entries."""
    sizes = [draw(st.integers(1, 5)) for _ in range(3)]
    value = st.integers(-3, 3) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))

    def matrix(n_rows, n_cols):
        cells = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                              unique=True, max_size=n_rows * n_cols))
        return SparseMatrix(n_rows, n_cols, [(i, j, draw(value)) for i, j in cells])

    return matrix(*sizes[:2]), matrix(*sizes[1:])


@settings(max_examples=80, deadline=None)
@given(product_pairs())
def test_multiply_matches_dense_product(pair):
    a, b = pair
    product = a.multiply(b)
    dense_a, dense_b = to_dense(a), to_dense(b)
    assert to_dense(product) == [
        [sum((row[k] * dense_b[k][j] for k in range(a.n_cols)), Fraction(0))
         for j in range(b.n_cols)] for row in dense_a]
    assert product == SparseMatrix(product.n_rows, product.n_cols, product.entries())
    assert_stored(product)


@pytest.mark.parametrize("m", [
    koszul_flattening(gen_product(3), 1, 1),
    catalecticant(gen_random(2, 4, 3, 9).scale(Fraction(1, 3)), 2),
    from_dense([[0, Fraction(1, 2), -(2**70)], [3, 0, Fraction(5)]]),
])
def test_entry_agrees_with_entries_and_returns_plain_numbers(m):
    stored = {(i, j): v for i, j, v in m.entries()}
    for i in range(m.n_rows):
        for j in range(m.n_cols):
            value = m.entry(i, j)
            assert type(value) in (int, Fraction)
            assert value == stored.get((i, j), 0)
    assert all(type(v) in (int, Fraction) for v in stored.values())


def test_entry_on_a_matrix_too_large_for_int64_indices():
    big = 2**64
    m = SparseMatrix(big, 3, [(big - 1, 2, 7), (2**63, 0, Fraction(1, 2)), (0, 1, -1)])
    assert m.entries() == [(0, 1, -1), (2**63, 0, Fraction(1, 2)), (big - 1, 2, 7)]
    stored = {(i, j): v for i, j, v in m.entries()}
    for i in (0, 1, 2**63 - 1, 2**63, big - 1):
        for j in range(3):
            value = m.entry(i, j)
            assert type(value) in (int, Fraction)
            assert value == stored.get((i, j), 0)
    assert rank_exact(m).rank == 3


def test_multiply_reduces_the_product_denominator():
    # [[1/q]]·[[q]] is [[1]]: no factor q may stay behind in _den, or
    # rank_modular would redraw the prime q that [[1]] is ranked with.
    q = 2582278367
    product = SparseMatrix(1, 1, [(0, 0, Fraction(1, q))]).multiply(from_dense([[q]]))
    assert product._den == 1 and product.entries() == [(0, 0, 1)]
    assert rank_modular(product, 1, 0).primes_used == (q,)
    assert rank_modular(from_dense([[1]]), 1, 0).primes_used == (q,)


def test_sparse_matrix_operations():
    a = from_dense([[1, 2], [3, 4]])
    b = SparseMatrix(2, 2, [(0, 1, 1), (1, 0, 1)], col_labels=["u", "v"])
    product = a.multiply(b)
    assert to_dense(product) == [[2, 1], [4, 3]]
    assert (product.row_labels, product.col_labels) == (None, ("u", "v"))
    assert from_dense([[1, 2]]).multiply(from_dense([[2], [-1]])).nnz == 0  # cancels


def test_deferred_labels_are_listed_and_checked_on_first_read():
    calls = []

    def labels():
        calls.append(None)
        return ["a", "b"], iter(["c"])

    m = SparseMatrix._wrap(2, 1, np.array([1]), np.array([0]), np.array([3]), labels)
    assert rank_exact(m).rank == 1 and rank_modular(m).rank == 1 and not calls
    assert (m.row_labels, m.col_labels) == (("a", "b"), ("c",))
    assert len(calls) == 1
    empty = np.array([], dtype=np.int64)
    repeated = SparseMatrix._wrap(2, 1, empty, empty, empty, lambda: (["a", "a"], ["c"]))
    with pytest.raises(ValueError):
        repeated.col_labels


def residue(v, q):
    """Per-entry reference: v mod q, ValueError when its denominator vanishes."""
    v = Fraction(v)
    return v.numerator % q * pow(v.denominator, -1, q) % q


@st.composite
def mixed_entry_matrices(draw, q):
    """Int and Fraction entries, negative and with numerators beyond q."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                          unique=True, max_size=n_rows * n_cols))
    numerator = st.integers(-4 * q, 4 * q) | st.integers(-(2**80), 2**80)
    value = numerator | st.builds(Fraction, numerator, st.integers(1, 50))
    return SparseMatrix(n_rows, n_cols, [(i, j, draw(value)) for i, j in cells])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([5, 7, 101, 2147483659, 3037000493]), st.data())
def test_dense_mod_matches_per_entry_residue(q, data):
    m = data.draw(mixed_entry_matrices(q))
    if any(Fraction(v).denominator % q == 0 for _, _, v in m.entries()):
        with pytest.raises(ValueError):
            _dense_mod(m, q)
        return
    reduced = _dense_mod(m, q)
    assert reduced.dtype == np.int64
    assert reduced.tolist() == [[residue(m.entry(i, j), q) for j in range(m.n_cols)]
                                for i in range(m.n_rows)]


def test_dense_mod_rejects_a_vanishing_denominator():
    m = SparseMatrix(2, 2, [(0, 0, 3), (1, 1, Fraction(-2, 7 * 11))])
    assert _dense_mod(m, 13).tolist() == [[3, 0], [0, residue(Fraction(-2, 77), 13)]]
    with pytest.raises(ValueError):
        _dense_mod(m, 7)


def test_sparse_matrix_stores_ints_as_they_come():
    entries = [(0, 0, 3), (0, 2, -(2**70)), (1, 1, Fraction(5, 3)), (1, 2, True)]
    m = SparseMatrix(2, 3, entries)
    assert [type(v) for _, _, v in m.entries()] == [int, int, Fraction, int]
    as_fractions = SparseMatrix(2, 3, [(i, j, Fraction(v)) for i, j, v in entries])
    assert m == as_fractions
    assert m.to_coordinate_text() == as_fractions.to_coordinate_text()
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, [(0, 0, 2.0)])
    with pytest.raises(ValueError):
        SparseMatrix(1, 2, [(0, 1, 4), (0, 1, 4)])
    with pytest.raises(ValueError):
        SparseMatrix(1, 2, [(0, 2, 4)])


@pytest.mark.parametrize("value", [0.5, "3/2", Decimal("0.1")])
def test_sparse_matrix_refuses_inexact_values(value):
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, [(0, 0, value)])


@pytest.mark.parametrize("build", [
    lambda P: catalecticant(P, 2),
    lambda P: shifted_partials(P, 2, 1),
    lambda P: koszul_flattening(P, 2, 1),
])
def test_builder_over_a_common_denominator_keeps_int64_numerators(build):
    unscaled = build(gen_random(4, 5, 3, 9))
    m = build(gen_random(4, 5, 3, 9).scale(Fraction(1, 3)))
    assert m._values.dtype == np.int64 and m._den == 3
    assert m == SparseMatrix(m.n_rows, m.n_cols, m.entries())
    for q in (5, 7, 101, CERTIFICATE_PRIME):
        assert _dense_mod(m, q).tolist() == [[residue(m.entry(i, j), q) for j in range(m.n_cols)]
                                             for i in range(m.n_rows)]
    with pytest.raises(ValueError):
        _dense_mod(m, 3)
    assert rank_exact(m) == rank_exact(unscaled)
    assert rank_modular(m, 2, 4) == rank_modular(unscaled, 2, 4)


def test_coordinate_text_round_trip():
    m = catalecticant(gen_power_sum_power(2, 2, 2), 2)
    text = m.to_coordinate_text()
    again = SparseMatrix.from_coordinate_text(text)
    assert again == SparseMatrix(m.n_rows, m.n_cols, m.entries())
    signed = SparseMatrix(3, 4, [(0, 0, -7), (0, 3, Fraction(-2, 3)), (1, 1, 2**70),
                                 (2, 2, -(2**64) - 1), (2, 3, Fraction(5, 2**65))])
    assert SparseMatrix.from_coordinate_text(signed.to_coordinate_text()) == signed
    with pytest.raises(ValueError):
        SparseMatrix.from_coordinate_text("not a matrix\n")


@pytest.mark.parametrize("size, entry", [
    ("1_0 2 1", "1 1 3"),  # an underscore, which int() reads as 10
    ("2 2 1", "1_0 1 3"),
    ("2 2 1", "\u0661 \u0662 3"),  # Arabic-Indic digits, which int() reads as (1, 2)
    ("2 2 1", "1 1 1_000/3"),  # which Fraction() reads as 1000/3
    ("2 2 1", "1 1 1.5"),
])
def test_coordinate_reader_takes_ascii_decimals_only(size, entry):
    with pytest.raises(ValueError, match="malformed"):
        SparseMatrix.from_coordinate_text(f"%%flatrank coordinate rational\n{size}\n{entry}\n")


def test_random_prime_is_in_range():
    rng = random.Random(0)
    for _ in range(5):
        q = random_prime(rng)
        assert PRIME_FLOOR <= q <= PRIME_CEIL
        assert is_prime(q)
