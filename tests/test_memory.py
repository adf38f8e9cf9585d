"""Peak memory of each step from a form to its rank, against the matrix it
serves: the build and the split against the stored matrix, the dense F_q
kernel against its dense input, a product against its left factor."""

import numpy as np

from flatrank import exactla
from flatrank.exactla import SparseMatrix, _components, _dense_mod, _modular_rank_dense
from flatrank.koszul import koszul_flattening
from flatrank.labcli import _case_seed
from flatrank.symtensor import gen_random
from memory import stored_bytes, traced_peak


def _nontrivial_cell(k, p):
    """The Koszul flattening ``verify nontrivial`` ranks at d = 6, (k, p), seed 0."""
    return koszul_flattening(gen_random(6, 6, _case_seed(0, 6, k, p), 2**31 - 1), k, p)


def test_koszul_build_peaks_under_twice_the_stored_matrix():
    # 420 x 840 with 70,560 nonzeros, 1.69 MB stored.  Holding the pattern
    # arrays across a sort that gathered rows, columns and values by its
    # permutation peaked at 3.68 times that.
    P = gen_random(6, 6, _case_seed(0, 6, 3, 2), 2**31 - 1)
    m, peak = traced_peak(koszul_flattening, P, 3, 2)
    assert (m.n_rows, m.n_cols, m.nnz) == (420, 840, 70560)
    assert peak <= 2 * stored_bytes(m)


def test_one_component_split_peaks_under_half_the_stored_matrix():
    # Label and position arrays over every nonzero peaked at 2.72 times it.
    m = _nontrivial_cell(3, 2)
    split, peak = traced_peak(_components, m)
    assert split == [(m, 1)] and split[0][0] is m
    assert peak <= 0.5 * stored_bytes(m)


def test_dense_kernel_temporaries_stay_under_its_input():
    # 90 x 2520 of rank 84, a 1.81 MB dense input.  An update spanning the
    # whole trailing width made 3.81 MB of temporaries.
    m = _nontrivial_cell(4, 3)
    q = exactla._certificate_prime()
    a = _dense_mod(m, q)
    assert a.shape == (90, 2520)
    rank, peak = traced_peak(_modular_rank_dense, a, q)
    assert rank == 84
    assert peak <= a.nbytes


def test_product_with_a_sparse_vector_pairs_only_the_entries_it_meets():
    # The trace product of a kyfl11 cell: a 1764 x 49 Koszul flattening times
    # a vector with 7 nonzeros, which meets a seventh of its entries.
    # Searching every entry's column among the vector's rows made index
    # arrays over all of them, 1.43 times the matrix; pairing the entries it
    # meets takes 0.6 times.
    m = koszul_flattening(gen_random(7, 5, 0, 1000), 1, 1)
    vector = SparseMatrix(m.n_cols, 1, [(i * 8, 0, 1) for i in range(7)])
    product, peak = traced_peak(m.multiply, vector)
    dense = np.zeros((m.n_rows, m.n_cols), dtype=object)
    dense[m._rows, m._cols] = m._values
    expected = dense[:, ::8].sum(axis=1)
    assert product.entries() == [(i, 0, v) for i, v in enumerate(expected.tolist()) if v]
    assert peak <= 0.75 * stored_bytes(m)
