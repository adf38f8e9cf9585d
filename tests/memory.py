"""Traced peak memory of one call, as a test helper, and the stored size
that peaks are measured against."""

import tracemalloc


def traced_peak(f, *args):
    """(f(*args), the tracemalloc peak during the call above the memory
    traced at its start, in bytes)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def stored_bytes(m):
    """The bytes of m's three coordinate arrays."""
    return m._rows.nbytes + m._cols.nbytes + m._values.nbytes
