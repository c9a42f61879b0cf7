"""Exact linear algebra over the prime field F_p.

One elimination kernel serves both routes that eliminate: rref brings a
dense float64 block to reduced echelon form, recursively, down to a
Gauss-Jordan base case of at most _BASE_ROWS rows.  RrefBasis feeds it the
presentation's Macaulay rows, chunk by chunk; the oracle feeds it each
dx-degree block whole.  There is one float64 path, with one bound: every
entry stays an integer of magnitude below 2^53, where float64 is exact, as
long as terms*(p-1)^2 + p < 2^53 for the number of products an entry
gathers.  check_exact states that bound, and rref and RrefBasis refuse
shapes past it with ValueError.  RowReducer, exact integer elimination one
row at a time, is kept as the reference the tests compare rref with.

Everything here is deterministic: pivot columns are always chosen leftmost,
so the pivot-column set of a row collection depends only on its row space,
never on the order rows are fed in.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def check_exact(terms: int, p: int) -> None:
    """Raise ValueError unless float64 elimination mod p is exact when an
    entry gathers at most terms products of two residues, that is unless
    terms*(p-1)^2 + p < 2^53.  rref derives the bound."""
    if terms * (p - 1) ** 2 + p >= 2**53:
        raise ValueError(
            "%d*(p-1)^2 + p is not below 2^53 for p = %d: float64 elimination "
            "would not be exact" % (terms, p)
        )


def inverse_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod %d" % p)
    return pow(a, -1, p)


class RowReducer:
    """Incremental Gaussian elimination mod p with leftmost pivoting.

    Rows arrive as sparse (column, coefficient) pairs or as dense vectors and
    are reduced against the pivot rows accumulated so far (kept as dense numpy
    vectors, which is what makes repeated elimination cheap even after
    fill-in).
    """

    def __init__(self, ncols: int, p: int):
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        self.ncols = ncols
        self.p = p
        self._pivot_rows: list[np.ndarray] = []
        self._pivot_of_col: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(sorted(self._pivot_of_col))

    def add_row(self, items: Iterable[tuple[int, int]] | np.ndarray) -> bool:
        """Reduce one row, given as (column, coefficient) pairs or as a dense
        integer vector of length ncols; return True iff it enlarged the row
        space."""
        p = self.p
        if isinstance(items, np.ndarray):
            if items.shape != (self.ncols,):
                raise ValueError("dense row must have shape (%d,)" % self.ncols)
            row = np.asarray(items, dtype=np.int64) % p
        else:
            row = np.zeros(self.ncols, dtype=np.int64)
            for col, coeff in items:
                row[col] = (row[col] + coeff) % p
        while True:
            nz = np.flatnonzero(row)
            if nz.size == 0:
                return False
            lead = int(nz[0])
            slot = self._pivot_of_col.get(lead)
            if slot is None:
                inv = inverse_mod(int(row[lead]), p)
                self._pivot_of_col[lead] = len(self._pivot_rows)
                self._pivot_rows.append((row * inv) % p)
                return True
            row = (row - int(row[lead]) * self._pivot_rows[slot]) % p


# Below this many entries one np.remainder call beats _remainder's nine: on
# 8x64 float64 blocks it took 11.6 us against 18.2 us, on 8x128 blocks
# 20.6 us against 17.1 us (one core, p = 7).
_SMALL_REMAINDER = 512


def _remainder(x: np.ndarray, p: int) -> None:
    """x %= p in place, exactly, for float64 integers of magnitude below 2^53.

    np.remainder is several times slower on large arrays.  For |x| < 2^53,
    x times the rounded 1/p is within 2/p of x/p, so its floor q is off by
    at most one from the floor quotient, and p*q exceeds x by at most 1
    when it exceeds it at all: below 2^53, exact.  Near -2^53, p*q can fall
    below -2^53, where float64 integers are no longer exact, so q is raised
    to at least -((2^53 - 1) // p), which is still within one of the floor
    quotient.  Then x - p*q lies in [-p, 2p), and one masked add and one
    masked subtract bring it into [0, p).

    Those are nine numpy calls.  Below _SMALL_REMAINDER entries the one
    call to np.remainder costs less, and it is exact too: it is fmod,
    which is exact, plus p when that is negative.
    """
    if x.size < _SMALL_REMAINDER:
        np.remainder(x, p, out=x)
        return
    q = x * (1.0 / p)
    np.floor(q, out=q)
    low = -float((2**53 - 1) // p)
    np.copyto(q, low, where=q < low)
    q *= p
    x -= q
    np.add(x, p, out=x, where=x < 0)
    np.subtract(x, p, out=x, where=x >= p)


# Rows the rref recursion hands to its Gauss-Jordan base case at most.
# Measured in CPU seconds, median of 8 to 10 interleaved rounds, over the
# oracle blocks of the 40 localize_p3n3 jobs (seed 0) and the quotients of
# phi-verify (7,2,5), (5,2,6) and (3,3,4): 8 rows took 0.49 and 0.50 s,
# 4 rows 0.48 and 0.51 s, 16 rows 0.54 and 0.57 s, 32 rows 0.56 and 0.65 s.
_BASE_ROWS = 8
# bounds the temporaries of in-place products and back-reduction
_SLAB_ROWS = 64


def rref(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced echelon rows of the span of rows, and their pivot columns.

    rows is a 2-d float64 array of integers in [0, p).  It is overwritten,
    and the result is its first len(pivots) rows: the i-th has its leading
    1 at pivots[i] and vanishes at every other pivot.  Rows come in the
    order their pivots were found, not sorted by column.  The top half is
    eliminated first; the bottom half is reduced against it with one
    product, its nonzero rows are moved up beside it and eliminated in
    turn, and the top half is then reduced against the bottom half's new
    pivots.

    The bound: a row is only ever reduced against pivots found so far, and
    there are at most k = min(rows, width) of them.  So every entry formed
    is a residue minus a sum of at most k products of two residues, an
    integer in [-k*(p-1)^2, p), and every partial sum of the products, in
    whatever order BLAS adds them, is an integer in [0, k*(p-1)^2].  The
    bound k*(p-1)^2 + p < 2^53 keeps all of them, with a margin of p, where
    float64 holds every integer and _remainder is exact; check_exact raises
    ValueError past it.
    """
    check_exact(min(rows.shape), p)
    if len(rows) <= _BASE_ROWS:
        return _gauss_jordan(rows, p)
    half = len(rows) // 2
    top, top_pivots = rref(rows[:half], p)
    rest = rows[half:]
    if top_pivots:
        _reduce(rest, top_pivots, top, p)
    keep = rest.any(axis=1)
    start = len(top_pivots)
    if start < half or not keep.all():
        rest = rest[keep]
        rows[start : start + len(rest)] = rest
    low, low_pivots = rref(rows[start : start + len(rest)], p)
    if top_pivots and low_pivots:
        _reduce(top, low_pivots, low, p)
    return rows[: start + len(low_pivots)], top_pivots + low_pivots


def _gauss_jordan(block: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """rref of a few rows, pivoting on one row at a time.

    Row i, with leading entry a at column c, becomes row i / a, and every
    other row j loses block[j, c] / a times row i: both are
    block -= f (outer) row i, with f_j = block[j, c] / a and f_i = 1 - 1/a,
    followed by one reduction mod p.  The columns left of c are zero in
    row i and are skipped."""
    found: list[int] = []
    pivots: list[int] = []
    for i in range(len(block)):
        lead = int((block[i] != 0).argmax())
        if block[i, lead] == 0:
            continue
        inv = inverse_mod(int(block[i, lead]), p)
        factor = block[:, lead] * inv
        _remainder(factor, p)
        factor[i] = (1 - inv) % p
        part = block[:, lead:]
        part -= factor[:, None] * part[i]
        _remainder(part, p)
        found.append(i)
        pivots.append(lead)
    if found != list(range(len(found))):
        block[: len(found)] = block[found]
    return block[: len(found)], pivots


def _reduce(rows: np.ndarray, pivots, basis: np.ndarray, p: int) -> None:
    """rows -= rows[:, pivots] @ basis (mod p), in place."""
    for s in range(0, len(rows), _SLAB_ROWS):
        part = rows[s : s + _SLAB_ROWS]
        part -= part[:, pivots] @ basis
        _remainder(part, p)


class RrefBasis:
    """Reduced row echelon basis of a growing row space over F_p, fed chunks
    of sparse rows.

    Entries are float64 integers in [0, p).  A chunk arrives as its nonzero
    entries and is scattered into a dense block; each entry that sits at a
    pivot column then subtracts its value times that column's basis row, so
    the reduction against the basis costs nnz*width multiply-adds rather
    than rows*rank*width.  A row meets at most ncols pivots, so every entry
    gathers at most ncols products of two residues, and the constructor
    checks the module's one float64 bound, check_exact, for ncols terms: it
    also covers rref on any chunk.  The rows that survive are
    brought to reduced echelon form by rref, the module's one elimination
    kernel, and only the basis rows with a nonzero at one of the new pivots
    are back-reduced.

    The reduced echelon form of a row space is unique, so rank, pivot
    columns and basis rows depend only on the rows fed, not on their order
    or on how they are split into chunks: they are those of rref applied to
    all the rows at once.
    """

    def __init__(self, ncols: int, p: int):
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        check_exact(ncols, p)
        self.ncols = ncols
        self.p = p
        # Room for the largest possible rank; np.zeros leaves the pages of
        # rows not yet added untouched, so they cost no resident memory.
        self._rows = np.zeros((ncols, ncols))
        # basis row whose pivot is each column, -1 off the pivots
        self._slot = np.full(ncols, -1, dtype=np.intp)
        self._rank = 0

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def pivot_columns(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._slot >= 0).tolist())

    def add_rows(self, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> int:
        """Reduce a chunk of rows into the basis, given as its entries: local
        row ids from 0, columns, and values that are integers in [0, p),
        strictly increasing in (row, column) order.  Returns the rank
        gained."""
        rows, cols, vals = (np.asarray(a) for a in (rows, cols, vals))
        if not rows.ndim == cols.ndim == vals.ndim == 1 or not len(rows) == len(cols) == len(vals):
            raise ValueError("rows, cols and vals must be 1-d arrays of one length")
        if len(rows) and (
            rows[0] < 0
            or cols.min() < 0
            or cols.max() >= self.ncols
            or (np.diff(rows.astype(np.int64) * self.ncols + cols) <= 0).any()
            or vals.min() < 0
            or vals.max() >= self.p
        ):
            raise ValueError(
                "entries need rows >= 0, columns in [0, %d), strictly increasing "
                "(row, column) pairs and values in [0, %d)" % (self.ncols, self.p)
            )
        r = self._rank
        if r == self.ncols or len(rows) == 0:
            return 0
        block = np.zeros((int(rows[-1]) + 1, self.ncols))
        block[rows, cols] = vals
        if r:
            self._reduce_entries(block, rows, cols, vals)
        keep = block.any(axis=1)
        new_rows, new_pivots = rref(block if keep.all() else block[keep], self.p)
        k = len(new_pivots)
        if k == 0:
            return 0
        touched = np.flatnonzero(self._rows[:r, new_pivots].any(axis=1))
        for s in range(0, len(touched), _SLAB_ROWS):
            at = touched[s : s + _SLAB_ROWS]
            part = self._rows[at]
            _reduce(part, new_pivots, new_rows, self.p)
            self._rows[at] = part
        self._rows[r : r + k] = new_rows
        self._slot[new_pivots] = np.arange(r, r + k)
        self._rank = r + k
        return k

    def _reduce_entries(
        self, block: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> None:
        """block -= block[:, pivots] @ basis (mod p), taking block[:, pivots]
        from the chunk's entries: the k-th pivot entry of every row is
        subtracted in one gathered step."""
        slot = self._slot[cols]
        hit = slot >= 0
        rows, slot, vals = rows[hit], slot[hit], vals[hit]
        if len(rows) == 0:
            return
        first = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        nth = np.arange(len(rows)) - np.repeat(first, np.diff(np.append(first, len(rows))))
        for k in range(int(nth.max()) + 1):
            at = nth == k
            block[rows[at]] -= vals[at, None] * self._rows[slot[at]]
        _remainder(block, self.p)
