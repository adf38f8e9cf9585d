"""Exact sparse linear algebra: labeled sparse matrices over the rationals and
deterministic rank computation.

A matrix keeps its nonzeros as row-major coordinate arrays of integer
numerators over one denominator ``_den``; one routine, ``_coordinates``,
checks, orders and stores entries given in any order, whether a caller,
a coordinate file or a builder gives them.  Its rank over the rationals, or
mod any prime q not dividing ``_den``, is the rank of the numerators, so no
engine splits a fraction.  Both engines split every matrix once, by array
operations, into the connected components of its bipartite row/column graph,
each compacted to int64 indices of the rows and columns it touches, whatever
shape the matrix declares, and group equal components: two components with
equal local row, column and value arrays are the same matrix, of the same
rank over Q and mod every q.  Each distinct component is ranked once, and
its rank counted as often as it occurs.  A matrix made with its split known
(``SparseMatrix._deferred``) is not split again, and not built to be ranked.
One routine, ``_products``, forms every entrywise product and run sum of
integer arrays that a builder, ``multiply`` or a kernel check needs, and
alone decides whether to work in int64, when the bit lengths prove it
exact, or in Python ints.

``rank_exact`` returns the true rank over the rationals, by certificate where
it can.  A component with one row or one column has rank 1.  Any other is
ranked modulo one word-sized prime drawn from a fixed seed, a lower bound on
its rank.  The rank is exact when that bound reaches the component's smaller
side, or when a kernel basis read off the F_q echelon form of a square block
of its rows, or of all of them when that fails, lifted to the rationals by
rational reconstruction, annihilates the numerators exactly: an upper bound
that meets it.  A component neither certifies goes to
fraction-free elimination of its numerators (cross-multiplied updates with
per-row content reduction), also the oracle the tests hold the certificates to.

``rank_modular`` ranks the matrix modulo random word-sized primes; a modular
rank can only undershoot, so the result is a certified lower bound that
equals the true rank with overwhelming probability.

Modulo a prime, a component with fill at least ``DENSE_FILL`` is scattered,
its values reduced mod q, into a dense array; a sparser one is eliminated by
the same Markowitz loop as the fraction-free engine, on its numerators mod q
(the unit 1/_den does not change a rank), and is not lifted.  One per-pivot
loop does the dense work: an in-place LU of one matrix.  A component at
least two panels wide is ranked by a blocked right-looking LU of exact
float64 products, reduced lazily, which stops at the first all-zero
trailing block; the loop factors each of its panels and its narrow tail,
every narrower component whole, and a component whose kernel basis is to
be lifted.  A dense array thus holds at most 8 * nnz / DENSE_FILL bytes,
never n_rows * n_cols words of the declared shape, and the fraction-free
engine groups the nonzeros by row, so memory follows nnz throughout.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import comb, gcd, isqrt, lcm
from operator import attrgetter, index, itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

# Primes are drawn from [PRIME_FLOOR, PRIME_CEIL].  The floor keeps the
# per-prime collision probability negligible; the ceiling keeps (q-1)^2
# inside a signed 64-bit word so the numpy elimination kernel is exact.
PRIME_FLOOR = 2**31
PRIME_CEIL = 3037000499

# rank_exact draws the one prime of its certificates from this fixed seed,
# so an exact rank takes the same path on every run.
CERTIFICATE_SEED = 1

# Default policy boundary: exact elimination up to this many columns,
# modular with two primes beyond it.
EXACT_COLUMN_LIMIT = 500

# The modular engine eliminates a connected component densely when at least
# this share of its cells is nonzero and sparsely otherwise, so a dense
# array never takes more than 8 * nnz / DENSE_FILL bytes.
DENSE_FILL = 0.05

# The dense F_q kernel eliminates PANEL columns at a time and updates CHUNK
# rows at a time.  _times_mod is exact while (PANEL + 2)·PRIME_CEIL·2^16 < 2^53,
# and _DRIFT of its values subtracted from an entry in [0, q) keep the entry,
# and the x // q·q that reduces it, below 2^62 in magnitude.
PANEL = 32
CHUNK = 16
_DRIFT = 2**62 // ((PANEL + 2) * PRIME_CEIL << 16)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def binomial(n: int, k: int) -> int:
    """C(n, k) with the out-of-range convention C(n, k) = 0 for k < 0 or k > n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random) -> int:
    """Uniform random prime in [PRIME_FLOOR, PRIME_CEIL]."""
    while True:
        candidate = rng.randrange(PRIME_FLOOR | 1, PRIME_CEIL + 1, 2)
        if is_prime(candidate):
            return candidate


def _exact(value) -> int | Fraction:
    """``value`` as an int or a Fraction; TypeError unless it is rational."""
    if type(value) in (int, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("exact matrices and forms do not accept floats")
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"not a rational number: {value!r}")
    return int(value) if isinstance(value, numbers.Integral) else Fraction(value)


def _int64_shape(n_rows: int, n_cols: int) -> tuple[int, int]:
    """(n_rows, n_cols), or ValueError when an index would not fit in int64."""
    if max(n_rows, n_cols) >= 2**63:
        raise ValueError(f"a {n_rows}x{n_cols} matrix is too large to index in 64 bits")
    return n_rows, n_cols


def _rational(token: str) -> int | Fraction:
    """The number a coordinate token from an ``_ascii_line`` spells, an
    integer or a/b; ValueError or ZeroDivisionError for any other token
    (``Fraction(token)`` would also read decimal points and exponents)."""
    try:
        return int(token)
    except ValueError:
        num, slash, den = token.partition("/")
        if not (slash and den.isdigit()):
            raise
        return Fraction(int(num), int(den))


def _ascii_line(line: str) -> str:
    """line, or ValueError unless it is ASCII without underscores: int()
    also reads those and other scripts' digits as decimals."""
    if not line.isascii() or "_" in line:
        raise ValueError(f"not ASCII decimals: {line!r}")
    return line


def _bits(values: np.ndarray) -> int:
    """Bit length of the largest magnitude in the integer array values, 0 when empty."""
    return max(int(values.max(initial=0)), -int(values.min(initial=0))).bit_length()


def _products(x: np.ndarray, y: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """x * y of two integer arrays, y broadcast to x's shape, and when
    ``starts`` is given the sums of the products over the runs of x that
    begin there: in int64 when the bit lengths prove that every product and
    sum fits, in exact Python ints otherwise.  x is the caller's scratch
    array, multiplied in place when it is int64."""
    longest = 1 if starts is None else int(np.diff(starts, append=len(x)).max(initial=1))
    if _bits(x) + _bits(y) + (longest - 1).bit_length() < 63:
        x = x.astype(np.int64, copy=False)
        x *= y.astype(np.int64, copy=False)
    else:
        x = x.astype(object, copy=False) * y.astype(object, copy=False)
    return x if starts is None else np.add.reduceat(x, starts)


def _stored(values: np.ndarray) -> np.ndarray:
    """Integer numerators as a matrix stores them: int64 exactly when every
    one fits, Python ints in an object array otherwise."""
    if values.dtype == object and -2**63 <= values.min(initial=0) <= values.max(initial=0) < 2**63:
        return values.astype(np.int64)
    return values


def _cleared(values: list) -> tuple[list[int], int]:
    """The exact ``values`` as integer numerators over their least common
    denominator, and that denominator."""
    den = lcm(*set(map(attrgetter("denominator"), values)))
    if den == 1:
        return list(map(attrgetter("numerator"), values)), den
    return [v.numerator * (den // v.denominator) for v in values], den


def _coordinates(n_rows: int, n_cols: int, rows, cols, values
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored arrays of the entries values[e] at (rows[e], cols[e]),
    integer arrays or lists in any order, the values integer numerators:
    row-major, int64 indices unless a side is 2^63 or more, zeros dropped,
    values ``_stored``.  ValueError for a negative side, then a position
    outside the shape, then one listed twice whatever its values, naming
    the first offending entry in the order given."""
    if n_rows < 0 or n_cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    rows, cols, values = (np.array(a, dtype=object) if isinstance(a, list) else a
                          for a in (rows, cols, values))
    if rows.size and not (0 <= rows.min() and rows.max() < n_rows
                          and 0 <= cols.min() and cols.max() < n_cols):
        e = np.flatnonzero((rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols))[0]
        raise ValueError(f"entry ({rows[e]}, {cols[e]}) outside a {n_rows}x{n_cols} matrix")
    dtype = np.int64 if max(n_rows, n_cols) < 2**63 else object
    rows, cols = rows.astype(dtype, copy=False), cols.astype(dtype, copy=False)
    if n_rows * n_cols < 2**63:
        order = np.argsort(rows * n_cols + cols)
    else:
        order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], values[order]
    if _repeats(r, c).any():
        # lexsort is stable: it lists the copies of a position in the order
        # given, so the first offending entry is the earliest copy after a first.
        order = np.lexsort((cols, rows))
        e = order[1:][_repeats(rows[order], cols[order])].min()
        raise ValueError(f"duplicate entry at ({rows[e]}, {cols[e]})")
    kept = v != 0
    if not kept.all():
        r, c, v = r[kept], c[kept], v[kept]
    return r, c, _stored(v)


def _repeats(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Whether each position after the first equals the one before it."""
    return (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])


class SparseMatrix:
    """Immutable sparse matrix with exact entries and optional basis labels.

    The nonzeros are stored as three coordinate arrays in row-major order:
    rows and columns (int64, or Python ints in an object array when a side
    is 2^63 or more) and integer numerators (``_stored``) over one
    denominator ``_den``.  The constructor takes an integer shape and
    indices (``operator.index``: a float raises TypeError) and exact values,
    refuses floats, and clears denominators once, ``_den`` their lcm.  It
    checks the values, then ``_coordinates`` the positions and repeats, as
    for a coordinate file or a builder's pattern.  Products and weight
    blocks come sorted and components slice sorted arrays: ``_wrap`` takes
    them unchecked.
    Labels, when present, are opaque hashable objects, one per row/column,
    pairwise distinct.  A builder defers them: its labels are listed and
    checked the first time ``row_labels`` or ``col_labels`` is read.
    A matrix made by ``_deferred`` knows its split into components, which
    is all the rank engines read, and builds its arrays only when read.
    """

    __slots__ = ("n_rows", "n_cols", "_rows", "_cols", "_values", "_den", "_labels",
                 "_split", "_build")

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        entries: Iterable[tuple[int, int, object]] = (),
        row_labels: Sequence | None = None,
        col_labels: Sequence | None = None,
    ):
        n_rows, n_cols = index(n_rows), index(n_cols)
        entries = list(entries)
        if not set(map(len, entries)) <= {3}:
            raise ValueError("entries must be (row, column, value) triples")
        rows, cols, values = (list(map(itemgetter(k), entries)) for k in range(3))
        numerators, self._den = _cleared(list(map(_exact, values)))
        self._rows, self._cols, self._values = _coordinates(
            n_rows, n_cols, list(map(index, rows)), list(map(index, cols)), numerators)
        self.n_rows, self.n_cols, self._split = n_rows, n_cols, None
        self._labels = self._checked(row_labels, col_labels)

    def _checked(self, row_labels, col_labels) -> tuple:
        return (self._check_labels(row_labels, self.n_rows, "row"),
                self._check_labels(col_labels, self.n_cols, "column"))

    @staticmethod
    def _check_labels(labels, count, kind):
        if labels is None:
            return None
        labels = tuple(labels)
        if len(labels) != count:
            raise ValueError(f"{kind} labels have length {len(labels)}, expected {count}")
        if len(set(labels)) != count:
            raise ValueError(f"{kind} labels are not pairwise distinct")
        return labels

    @classmethod
    def _wrap(cls, n_rows: int, n_cols: int, rows: np.ndarray, cols: np.ndarray,
              values: np.ndarray, labels: Callable[[], tuple] | None = None,
              den: int = 1) -> "SparseMatrix":
        """Wrap finished coordinate arrays without copying or checking them:
        positions inside the shape, row-major sorted and none twice; values
        nonzero integer numerators, int64 or Python ints in an object array,
        over the positive denominator ``den``.
        The (row, column) labels are ``labels()``, called on first read."""
        m = cls.__new__(cls)
        m.n_rows, m.n_cols, m._rows, m._cols, m._values = n_rows, n_cols, rows, cols, values
        m._den, m._split = den, None
        m._labels = (None, None) if labels is None else labels
        return m

    @classmethod
    def _deferred(cls, n_rows: int, n_cols: int, split: list[tuple["SparseMatrix", int]],
                  den: int, build: Callable[[], "SparseMatrix"],
                  labels: Callable[[], tuple] | None = None) -> "SparseMatrix":
        """The matrix over the positive denominator ``den`` whose connected
        components, each with a count, are ``split``: nonzero, compacted, and
        of the same rank over Q and mod every q as the components they stand
        for.  ``_components`` returns ``split`` and ``nnz`` sums it, so the
        rank engines never build the matrix.  Its coordinate arrays are those
        of ``build()``, the same matrix built in full, on their first read;
        the (row, column) labels are ``labels()``, called on first read."""
        m = cls.__new__(cls)
        m.n_rows, m.n_cols, m._den, m._split, m._build = n_rows, n_cols, den, split, build
        m._labels = (None, None) if labels is None else labels
        return m

    def __getattr__(self, name: str):
        # Reached only for an unset slot: the arrays of a deferred matrix.
        if name not in ("_rows", "_cols", "_values"):
            raise AttributeError(name)
        built = self._build()
        self._rows, self._cols, self._values = built._rows, built._cols, built._values
        return getattr(self, name)

    def _label_pair(self) -> tuple:
        if callable(self._labels):
            self._labels = self._checked(*self._labels())
        return self._labels

    @property
    def row_labels(self) -> tuple | None:
        return self._label_pair()[0]

    @property
    def col_labels(self) -> tuple | None:
        return self._label_pair()[1]

    @property
    def nnz(self) -> int:
        if self._split is not None:
            return sum(count * comp.nnz for comp, count in self._split)
        return self._values.size

    def entry(self, i: int, j: int):
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexError((i, j))
        start, end = np.searchsorted(self._rows, [i, i + 1])
        at = start + np.flatnonzero(self._cols[start:end] == j)
        return self._divided(self._values[at].tolist() or [0])[0]

    def entries(self) -> list[tuple[int, int, object]]:
        values = self._divided(self._values.tolist())
        return list(zip(self._rows.tolist(), self._cols.tolist(), values))

    def _divided(self, numerators: list[int]) -> list:
        """Each numerator over ``_den``: an int when integral, else a Fraction."""
        den = self._den
        return numerators if den == 1 else [
            Fraction(v, den) if v % den else v // den for v in numerators]

    def is_zero(self) -> bool:
        return not self.nnz

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return ((self.n_rows, self.n_cols) == (other.n_rows, other.n_cols)
                and self.entries() == other.entries())

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols} over Q, nnz={self.nnz})"

    def multiply(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("incompatible matrices for multiply")
        # Pair each entry (i, k) of self with each (k, j) of other; sum by (i, j).
        start = np.searchsorted(other._rows, self._cols)
        count = np.searchsorted(other._rows, self._cols, side="right") - start
        left = np.repeat(np.arange(self.nnz), count)
        right = np.arange(left.size) + np.repeat(start - np.cumsum(count) + count, count)
        order = np.lexsort((other._cols[right], self._rows[left]))
        left, right = left[order], right[order]
        rows, cols = self._rows[left], other._cols[right]
        runs = np.flatnonzero(np.diff(rows, prepend=-1) | np.diff(cols, prepend=-1))
        sums = _products(self._values[left], other._values[right], runs)
        kept = np.flatnonzero(sums)
        at = runs[kept]
        values, den = sums[kept], self._den * other._den
        if den > 1:
            g = gcd(den, *values.tolist())
            values, den = values // g, den // g
        return SparseMatrix._wrap(self.n_rows, other.n_cols, rows[at], cols[at], _stored(values),
                                  lambda: (self.row_labels, other.col_labels), den)

    def to_coordinate_text(self) -> str:
        """Coordinate text dump (1-based indices, one 'row col value' line per entry)."""
        lines = ["%%flatrank coordinate rational", f"{self.n_rows} {self.n_cols} {self.nnz}"]
        for i, j, v in self.entries():
            lines.append(f"{i + 1} {j + 1} {v}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_coordinate_text(cls, text: str) -> "SparseMatrix":
        lines = (ln for ln in map(str.strip, text.splitlines()) if ln)
        if not next(lines, "").startswith("%%flatrank coordinate"):
            raise ValueError("missing coordinate header")
        try:
            n_rows, n_cols, nnz = (int(tok) for tok in _ascii_line(next(lines)).split())
        except Exception as exc:
            raise ValueError("malformed size line") from exc
        rows, cols, values = [], [], []
        for ln in lines:
            try:
                i, j, value = _ascii_line(ln).split()
                rows.append(int(i) - 1)
                cols.append(int(j) - 1)
                values.append(_rational(value))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"malformed entry line: {ln!r}") from exc
        if len(values) != nnz:
            raise ValueError(f"expected {nnz} entries, found {len(values)}")
        numerators, den = _cleared(values)
        return cls._wrap(n_rows, n_cols, *_coordinates(n_rows, n_cols, rows, cols, numerators),
                         den=den)


@dataclass(frozen=True)
class RankResult:
    """A computed rank plus how it was obtained.

    ``method`` is ``exact_rational`` or ``modular``.  A modular rank never
    exceeds the true rank, hence ``is_certified_lower_bound``.
    """

    rank: int
    method: str
    primes_used: tuple[int, ...] = ()

    def __post_init__(self):
        if self.method not in ("exact_rational", "modular"):
            raise ValueError(f"unknown rank method {self.method!r}")
        if self.method == "modular" and not self.primes_used:
            raise ValueError("modular result must record its primes")
        if self.method != "modular" and self.primes_used:
            raise ValueError("exact result must not record primes")

    @property
    def is_certified_lower_bound(self) -> bool:
        return self.method == "modular"


def _integer_rows(m: SparseMatrix) -> list[dict[int, int]]:
    """m's nonzero rows in row order as column->numerator dicts: one common
    denominator divides out of every row, so they have m's rank.  Memory
    follows nnz, not the declared row count."""
    entries = zip(m._rows.tolist(), m._cols.tolist(), m._values.tolist())
    return [{j: v for _, j, v in row} for _, row in groupby(entries, itemgetter(0))]


RowUpdate = Callable[[dict[int, int], dict[int, int], int], dict[int, int]]


def _markowitz_rank(rows: list[dict[int, int]], update: RowUpdate) -> int:
    """Rank of ``rows`` (column->nonzero dicts) by sparse elimination.

    ``update(row, prow, c)`` returns ``row`` with column ``c`` eliminated
    against the pivot row ``prow``, nonzero entries only; it fixes the field.
    """
    live = {i: row for i, row in enumerate(rows) if row}
    cols: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    rank = 0
    while cols:
        # Markowitz-flavored pivoting: cheapest column, then sparsest row,
        # preferring unit pivots.  Ties break on index for determinism.
        c = min(cols, key=lambda j: (len(cols[j]), j))
        r_id = min(cols[c], key=lambda i: (len(live[i]), abs(live[i][c]) != 1, i))
        prow = live.pop(r_id)
        for j in prow:
            hits = cols[j]
            hits.discard(r_id)
            if not hits:
                del cols[j]
        for i in list(cols.get(c, ())):
            row = live[i]
            new = update(row, prow, c)
            for j in row:
                if j not in new:
                    hits = cols.get(j)
                    if hits is not None:
                        hits.discard(i)
                        if not hits:
                            del cols[j]
            for j in new:
                if j not in row:
                    cols.setdefault(j, set()).add(i)
            if new:
                live[i] = new
            else:
                del live[i]
        rank += 1
    return rank


def _exact_update(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """Fraction-free update ``prow[c]*row - row[c]*prow``, divided by its content."""
    pval = prow[c]
    f = row[c]
    new = {j: pval * v for j, v in row.items() if j not in prow}
    for j, pv in prow.items():
        nv = pval * row.get(j, 0) - f * pv
        if nv:
            new[j] = nv
    g = 0
    for v in new.values():
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        new = {j: v // g for j, v in new.items()}
    return new


def _modular_update(q: int) -> RowUpdate:
    """Row update over F_q: ``row - (row[c] / prow[c]) * prow mod q``."""
    def update(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
        f = row[c] * pow(prow[c], -1, q) % q
        new = {j: v for j, v in row.items() if j not in prow}
        for j, pv in prow.items():
            nv = (row.get(j, 0) - f * pv) % q
            if nv:
                new[j] = nv
        return new
    return update


def _sparse_integer_rank(rows: list[dict[int, int]]) -> int:
    return _markowitz_rank(rows, _exact_update)


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q as a new array, x - (x // q)·q built in one temporary: numpy
    divides int64 by a scalar without the hardware division of np.remainder."""
    r = x // q
    r *= -q
    r += x
    return r


def _dense_mod(m: SparseMatrix, q: int) -> np.ndarray:
    """m mod q as a dense int64 array: each numerator mod q, times the
    inverse of ``_den`` mod q; ValueError when q divides ``_den``."""
    a = np.zeros((m.n_rows, m.n_cols), dtype=np.int64)
    residues = _mod(m._values, q)
    if m._den != 1:
        residues = _mod(residues * pow(m._den, -1, q), q)
    a[m._rows, m._cols] = residues
    return a


def _lu_mod(a: np.ndarray, q: int, width: int | None = None) -> list[int]:
    """LU-factor the first ``width`` columns of a (all by default), entries
    in [0, q) there, over F_q in place, swapping whole rows of a; return
    the pivot columns.  Row i < len(pivots) holds the echelon form U from
    column pivots[i] on, pivot unscaled; below each pivot sits the
    multiplier that cleared it, so a[:, pivots] holds the unit lower L."""
    width = a.shape[1] if width is None else width
    pivots: list[int] = []
    for c in range(width):
        r = len(pivots)
        if r == len(a):
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        # Every row below at once: a dense panel has a nonzero in nearly all.
        below = a[r + 1:, c] = _mod(a[r + 1:, c] * pow(int(a[r, c]), -1, q), q)
        block = a[r + 1:, c + 1:width]
        block -= below[:, None] * a[r, c + 1:width]
        block[...] = _mod(block, q)
        pivots.append(c)
    return pivots


def _back_substitute(a: np.ndarray, pivots: list[int], q: int) -> None:
    """Clear above each pivot of a's echelon form, its pivots scaled to 1,
    mod q, in place: the reduced row echelon form."""
    for i, c in reversed(list(enumerate(pivots))):
        above = a[:i, c].nonzero()[0]
        if above.size:
            a[above, c:] = _mod(a[above, c:] - a[above, c, None] * a[i, c:], q)


def _times_mod(y: np.ndarray, q: int) -> Callable[[np.ndarray], np.ndarray]:
    """The map from int64 x to an int64 array congruent to x·y mod q, of
    magnitude below (PANEL + 2)·q·2^16 < 2^53, for x and y with entries in
    [0, q), x at most PANEL columns wide.  It is exact: y is split once into
    limbs y = lo + 2^16·hi, lo < 2^16 and hi < 2^15.5, so each float64 (BLAS)
    product x·lo and x·hi sums at most PANEL = 32 integers below 2^47.5,
    exactly in any order, FMA or not.  x·hi is reduced in float64 by the
    quotient estimate floor(h·(1/q)), off by at most one, to [-q, 2q), then
    shifted and added to x·lo: every value stays an integer below 2^53."""
    lo = (y & 0xFFFF).astype(np.float64)
    hi = (y >> 16).astype(np.float64)

    def times(x: np.ndarray) -> np.ndarray:
        xf = x.astype(np.float64)
        h = xf @ hi
        t = np.multiply(h, 1 / q)
        np.floor(t, out=t)
        t *= q
        h -= t
        h *= 2**16
        h += np.matmul(xf, lo, out=t)
        t.view(np.int64)[...] = h  # h's exact cast, in t's buffer: one array fewer
        return t.view(np.int64)
    return times


def _unit_lower_inverse(n: np.ndarray, q: int) -> np.ndarray:
    """(I + n)^-1 over F_q for n strictly lower triangular with entries in
    [0, q), k x k with k <= PANEL.  As n^k = 0, it is (I - n)(I + n^2)···
    (I + n^2^j) with 2^(j+1) >= k: at most 8 products for k = 32."""
    inverse, power = _mod(np.eye(len(n), dtype=np.int64) - n, q), n
    for _ in range((len(n) - 1).bit_length() - 1):
        power = _mod(_times_mod(power, q)(power), q)
        inverse = _mod(inverse + _times_mod(power, q)(inverse), q)
    return inverse


def _modular_rank_dense(a: np.ndarray, q: int) -> int:
    """Rank over F_q of the matrix a, entries in [0, q); overwrites a.

    Blocked right-looking LU of a's wider orientation: while the trailing
    block is at least two panels wide, its first PANEL columns are reduced
    and ``_lu_mod`` factors them in place, its row swaps carrying the rest
    of the block along.  With S = L11·U11 the k pivot rows on the pivot
    columns and A21 = L21·U11 the rows below, A21·S^-1 = L21·L11^-1, so the
    Schur complement A22 - L21·L11^-1·A12 needs no inverse of S.  A row is
    reduced when it joins a panel or becomes a pivot row, and the whole
    block every _DRIFT updates; after a panel without pivots, when the block
    reduced is all zero, the rank found so far is final.  ``_lu_mod`` ranks
    the last block, all of a when a is narrower than two panels."""
    if a.shape[0] > a.shape[1]:
        a = np.ascontiguousarray(a.T)
    rank = c = updates = 0
    while a.shape[1] - c >= 2 * PANEL and rank < len(a):
        t = a[rank:, c:]
        c += PANEL
        t[:, :PANEL] = _mod(t[:, :PANEL], q)
        pivots = _lu_mod(t, q, width=PANEL)
        k = len(pivots)
        rank += k
        rest = t[:, PANEL:]
        # count_nonzero reads the block without a boolean copy of it.
        if not k and not np.count_nonzero(_mod(rest, q)):
            return rank
        if 0 < k < len(t):
            lower = t[:, pivots]
            w = _mod(_times_mod(_unit_lower_inverse(np.tril(lower[:k], -1), q), q)(lower[k:]), q)
            updates += 1
            # Lazy: reducing after every update cost dense-generic 3 % wall_s, 1 MB peak RSS.
            if updates > _DRIFT:
                updates, rest[k:] = 1, _mod(rest[k:], q)
            times = _times_mod(_mod(rest[:k], q), q)
            for i in range(0, len(w), CHUNK):
                rest[k + i:k + i + CHUNK] -= times(w[i:i + CHUNK])
    return rank + len(_lu_mod(_mod(a[rank:, c:], q), q))


def _kernel_mod(a: np.ndarray, q: int) -> np.ndarray:
    """A basis of the right kernel of a over F_q, one row per non-pivot
    column of its echelon form, equal to 1 there and 0 at the other
    non-pivot columns.  Overwrites a."""
    pivots = _lu_mod(a, q)
    is_pivot = set(pivots)
    free = [c for c in range(a.shape[1]) if c not in is_pivot]
    kernel = np.zeros((len(free), a.shape[1]), dtype=np.int64)
    if free:
        # With the pivot rows scaled to 1 and cleared above their pivots, the
        # kernel vector of a free column is minus that column on the pivots.
        inverses = [pow(int(a[i, c]), -1, q) for i, c in enumerate(pivots)]
        u = _mod(a[:len(pivots)] * np.array(inverses, dtype=np.int64)[:, None], q)
        _back_substitute(u, pivots, q)
        kernel[range(len(free)), free] = 1
        kernel[:, pivots] = _mod(-u[:, free].T, q)
    return kernel


def _component_labels(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """A label per node of the graph on nodes 0..n-1 with edges (u[e], v[e]),
    equal exactly for nodes in the same connected component: the components
    are numbered 0, 1, ... in the order of their smallest nodes."""
    label = np.arange(n)
    while True:
        lu, lv = label[u], label[v]
        cross = lu != lv
        if not cross.any():
            # Each label is its component's smallest node, its own label.
            return (np.cumsum(label == np.arange(n)) - 1)[label]
        # Every label is a root here: hook each larger root below a smaller
        # neighbour, then jump pointers until every label is a root again.
        np.minimum.at(label, np.maximum(lu, lv)[cross], np.minimum(lu, lv)[cross])
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def _positions(groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Index of each item among the items of its group, in item order."""
    counts = np.bincount(groups, minlength=n_groups)
    order = np.argsort(groups, kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(groups.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return pos


def _runs(ordered: np.ndarray) -> Iterable[tuple[int, int]]:
    """(start, end) of each run of equal items in ``ordered``."""
    cuts = (np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    return zip([0, *cuts], [*cuts, ordered.size])


def _components(m: SparseMatrix) -> list[tuple[SparseMatrix, int]]:
    """The distinct connected components of the bipartite row/column graph
    of m's nonzeros, each compacted to the rows and columns it touches, with
    the number of times it occurs.

    The rank of m, over Q or mod any q, is the sum of the component ranks:
    an entry that vanishes mod q can only split a component further.  Two
    components are the same matrix, of the same rank over Q and mod every
    q, exactly when their local row, column and value arrays are equal; as
    a component touches every row and column it is compacted to, those
    arrays fix its shape too.  So only components of equal nnz are compared,
    as one row of their stacked arrays each.  A deferred matrix returns the
    split it was made with, in which equal components may be listed apart.
    """
    if m._split is not None:
        return m._split
    if not m.nnz:
        return []
    # The rows are sorted: an entry's index among the rows in use counts the
    # changes of row before it.
    ri = np.zeros(m.nnz, dtype=np.int64)
    np.cumsum(m._rows[1:] != m._rows[:-1], out=ri[1:])
    n_r = int(ri[-1]) + 1
    # The columns in use are numbered by counting them over a flag per
    # column, unless the columns outnumber the entries fourfold or the
    # indices are Python ints: the indices are sorted then.
    if m._cols.dtype == object or m.n_cols > 4 * m.nnz:
        cols, cj = np.unique(m._cols, return_inverse=True)
        n_c = cols.size
    else:
        used = np.zeros(m.n_cols, dtype=bool)
        used[m._cols] = True
        index = np.cumsum(used) - 1
        n_c, cj = int(index[-1]) + 1, index[m._cols]
    comp = _component_labels(ri, cj + n_r, n_r + n_c)
    n_comp = int(comp.max()) + 1
    if n_comp == 1 and (n_r, n_c) == (m.n_rows, m.n_cols):
        return [(m, 1)]
    row_comp, col_comp = comp[:n_r], comp[n_r:]
    row_pos, col_pos = _positions(row_comp, n_comp), _positions(col_comp, n_comp)
    entry_comp = row_comp[ri]
    nnz = np.bincount(entry_comp, minlength=n_comp)
    # Components in order of nnz, and a stable sort of the entries by that
    # order, which keeps each component's entries row-major: the components
    # of one nnz k take one run of entries, k per component.
    by_nnz = np.argsort(nnz, kind="stable")
    slot = np.empty_like(by_nnz)
    slot[by_nnz] = np.arange(n_comp)
    order = np.argsort(slot[entry_comp], kind="stable")
    local_rows, local_cols, values = row_pos[ri][order], col_pos[cj][order], m._values[order]
    # Python ints beyond int64 compare through their ids among m's values.
    ids = np.unique(values, return_inverse=True)[1] if values.dtype == object else values
    sizes = nnz[by_nnz]
    n_rows = np.bincount(row_comp, minlength=n_comp)[by_nnz].tolist()
    n_cols = np.bincount(col_comp, minlength=n_comp)[by_nnz].tolist()
    distinct, start = [], 0
    for a, b in _runs(sizes):
        k = int(sizes[a])
        end = start + (b - a) * k
        same, runs = [0], [(0, 1)]
        if b - a > 1:
            # One row of bytes per component: equal rows are equal components.
            block = np.stack((local_rows[start:end], local_cols[start:end], ids[start:end]), 1)
            keys = block.reshape(b - a, 3 * k).view(np.dtype((np.void, 24 * k))).ravel()
            same = np.argsort(keys, kind="stable")
            runs = _runs(keys[same])
        for first, last in runs:
            i = int(same[first])
            c, e = a + i, start + i * k
            distinct.append((SparseMatrix._wrap(n_rows[c], n_cols[c], local_rows[e:e + k],
                                                local_cols[e:e + k], values[e:e + k], den=m._den),
                             last - first))
        start = end
    return distinct


def _is_dense(m: SparseMatrix) -> bool:
    """Whether m's fill reaches DENSE_FILL, so the dense F_q kernel ranks it."""
    return m.nnz >= DENSE_FILL * m.n_rows * m.n_cols


def _modular_rank(components: Sequence[tuple[SparseMatrix, int]], q: int) -> int:
    """Rank mod q, for q dividing no ``_den``, of the matrix split into
    ``components`` as ``_components`` returns them: the sum of count x rank,
    each distinct component ranked once, densely or sparsely (``_is_dense``).
    """
    total = 0
    update = _modular_update(q)
    for comp, count in components:
        if _is_dense(comp):
            total += count * _modular_rank_dense(_dense_mod(comp, q), q)
            continue
        rows: dict[int, dict[int, int]] = {}
        residues = _mod(comp._values, q).tolist()
        for i, j, r in zip(comp._rows.tolist(), comp._cols.tolist(), residues):
            if r:
                rows.setdefault(i, {})[j] = r
        total += count * _markowitz_rank(list(rows.values()), update)
    return total


def _draw_prime(rng: random.Random, den: int) -> int:
    """The next prime from ``rng`` that does not divide ``den``."""
    while True:
        q = random_prime(rng)
        if den % q:
            return q


@cache
def _certificate_prime() -> int:
    """The first prime drawn from CERTIFICATE_SEED, drawn once per process."""
    return random_prime(random.Random(CERTIFICATE_SEED))


def rank_modular(m: SparseMatrix, prime_count: int = 2, seed: int = 0) -> RankResult:
    """Max of the mod-q ranks over ``prime_count`` random primes.

    Reproducible from ``seed``; primes that divide a denominator of m are
    redrawn.  The result is a certified lower bound on the true rank.
    """
    if prime_count < 1:
        raise ValueError("prime_count must be at least 1")
    rng = random.Random(seed)
    primes = [_draw_prime(rng, m._den) for _ in range(prime_count)]
    components = _components(m)
    best = max(_modular_rank(components, q) for q in primes)
    return RankResult(best, "modular", tuple(primes))


def _rational_reconstruction(x: int, q: int) -> Fraction | None:
    """The fraction a/b = x mod q with |a|, b <= sqrt(q/2), or None when
    there is none (Wang's half extended Euclid)."""
    bound = isqrt(q // 2)
    r0, r1, t0, t1 = q, x, 0, 1
    while r1 > bound:
        quotient = r0 // r1
        r0, r1 = r1, r0 - quotient * r1
        t0, t1 = t1, t0 - quotient * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _annihilates(m: SparseMatrix, tall: bool, kernel: np.ndarray, q: int) -> bool:
    """Whether each vector of the F_q ``kernel`` of m's tall orientation (m
    when tall, its transpose otherwise) lifts: every entry rationally
    reconstructed, the vector cleared of denominators, and its product with
    the numerators of that orientation zero exactly."""
    rows, cols = (m._rows, m._cols) if tall else (m._cols, m._rows)
    values = m._values
    # Group the entries by row of the orientation once; a tall m is row-major already.
    if np.any(rows[1:] < rows[:-1]):
        order = np.argsort(rows, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    for vector in kernel:
        at = np.flatnonzero(vector).tolist()
        lifted = [_rational_reconstruction(int(vector[c]), q) for c in at]
        if None in lifted:
            return False
        coefficients = np.zeros(len(vector), dtype=object)
        cleared, _ = _cleared(lifted)
        coefficients[at] = cleared
        if _products(_stored(coefficients)[cols], values, starts).any():
            return False
    return True


def _lifted_rank(m: SparseMatrix, q: int) -> int | None:
    """Rank of m proven from a dense F_q echelon form of its tall orientation
    (m or its transpose, whichever is taller), or None when the proof does
    not close; q must not divide ``_den``.

    With ``side`` the orientation's column count, the first ``side`` of its
    rows are factored first, and all of it when their kernel does not lift.
    A rank r mod q is a lower bound, and the shape closes it when r is
    ``side``.  Otherwise the kernel basis mod q has side - r vectors, each 1
    at its own free coordinate and 0 at the others, so their lifts are
    independent over Q.  If every lift annihilates m exactly, the nullity is
    at least side - r, so the rank is r.  A lift that annihilates m lies in
    m's kernel mod q, so the block passes only when its kernel is m's: it
    gives the rank, kernel and lift that factoring all of m gives.
    """
    tall = m.n_rows >= m.n_cols
    side = min(m.n_rows, m.n_cols)
    parts = [m]
    if m.n_rows != m.n_cols:
        keep = (m._rows if tall else m._cols) < side
        parts.insert(0, SparseMatrix._wrap(side, side, m._rows[keep], m._cols[keep],
                                           m._values[keep], den=m._den))
    for part in parts:
        a = _dense_mod(part, q)
        kernel = _kernel_mod(a if tall else np.ascontiguousarray(a.T), q)
        if not len(kernel):
            return side
        if _annihilates(m, tall, kernel, q):
            return side - len(kernel)
    return None


def _component_rank(comp: SparseMatrix, q: int) -> int:
    """Exact rank of a connected component, certified from F_q when it can
    be: a full mod-q rank, or a mod-q rank met by a lifted kernel."""
    # The lift reads the dense F_q echelon form, which also gives the rank,
    # so a component the dense kernel ranks is lifted in that one pass.  A
    # sparser one is ranked sparsely and not lifted: memory follows nnz.
    # Its full-rank check closes a 400x400 one of fill 0.02 in under 1 s, not 3+ minutes.
    if _is_dense(comp):
        lifted = _lifted_rank(comp, q)
        if lifted is not None:
            return lifted
    elif _modular_rank([(comp, 1)], q) == min(comp.n_rows, comp.n_cols):
        return min(comp.n_rows, comp.n_cols)
    return _sparse_integer_rank(_integer_rows(comp))


def rank_exact(m: SparseMatrix) -> RankResult:
    """True rank over the rationals, summed over the connected components.

    A component with one row or one column has rank 1.  Any other is
    certified once however often it occurs (see ``_components``), and ranked
    mod one prime, the first drawn from CERTIFICATE_SEED that does not divide
    m's denominator (the first draw is made once per process): that rank is
    a lower bound, and it is exact when it reaches the shape's bound or when
    a kernel lifted from F_q (see ``_lifted_rank``) annihilates the component
    exactly.  Fraction-free elimination ranks the components neither
    certifies.  Memory follows nnz, not the declared shape.
    """
    rank = 0
    q = None
    for comp, count in _components(m):
        if min(comp.n_rows, comp.n_cols) == 1:
            rank += count
            continue
        if q is None:
            q = _certificate_prime()
            if m._den % q == 0:
                q = _draw_prime(random.Random(CERTIFICATE_SEED), m._den)
        rank += count * _component_rank(comp, q)
    return RankResult(rank, "exact_rational")


def rank_auto(m: SparseMatrix, seed: int = 0, prime_count: int = 2) -> RankResult:
    """Default policy: exact up to EXACT_COLUMN_LIMIT columns, else modular."""
    if m.n_cols <= EXACT_COLUMN_LIMIT:
        return rank_exact(m)
    return rank_modular(m, prime_count, seed)

