"""The storage invariant every ``SparseMatrix`` source keeps, as a test helper.

``_components`` output is exempt: a component slices its parent's arrays and
keeps their dtype.
"""

import numpy as np


def assert_stored(m):
    """m's coordinate arrays hold its nonzeros inside the shape, positions
    strictly increasing row-major, integer numerators none zero over a
    denominator ``_den`` >= 1, int64 exactly when every numerator fits."""
    rows, cols, values = m._rows.tolist(), m._cols.tolist(), m._values.tolist()
    assert len(rows) == len(cols) == len(values) == m.nnz
    assert all(0 <= i < m.n_rows and 0 <= j < m.n_cols for i, j in zip(rows, cols))
    positions = list(zip(rows, cols))
    assert all(a < b for a, b in zip(positions, positions[1:]))
    assert all(type(v) is int and v for v in values)
    assert type(m._den) is int and m._den >= 1
    fits = all(-2**63 <= v < 2**63 for v in values)
    assert m._values.dtype == (np.int64 if fits else object)
