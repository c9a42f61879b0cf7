"""Exact linear algebra over the prime field F_p.

One elimination kernel serves both routes that eliminate: rref brings a
dense float64 block to reduced echelon form, recursively, down to a
Gauss-Jordan base case of at most _BASE_ROWS rows.  The oracle feeds it each
dx-degree block whole.  The presentation's Macaulay blocks are sparse and
mostly triangular, so sparse_pivots splits each one pivot first: the rows
that lead at distinct columns are back-substituted, and only the Schur rows
over the remaining free columns reach rref, a slab at a time.  There is one
float64 path, with one bound: every entry stays an integer of magnitude
below 2^53, where float64 is exact, as long as terms*(p-1)^2 + p < 2^53 for
the number of products an entry gathers.  check_exact states that bound,
and rref and sparse_pivots refuse shapes past it with ValueError.
RowReducer, exact integer elimination one row at a time, is kept as the
reference the tests compare both with.

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


def inverses_mod(a: np.ndarray, p: int) -> np.ndarray:
    """The inverses mod p of an integer array, elementwise, as a^(p-2) by
    square and multiply (Fermat).  Each step takes a product of two
    residues in int64, exact for every p that check_exact(1, p) admits
    (ValueError otherwise); ZeroDivisionError on an entry divisible by p."""
    check_exact(1, p)
    base = np.asarray(a, dtype=np.int64) % p
    if not base.all():
        raise ZeroDivisionError("0 has no inverse mod %d" % p)
    out = np.ones_like(base)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


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


def sparse_pivots(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, width: int, p: int) -> list[int]:
    """Pivot columns, ascending, of the span of a sparse block, found pivot
    first (the Faugere-Lachartre split of a Macaulay matrix).

    The entries come as row ids, columns in [0, width) and values in [1, p),
    strictly increasing in (row, column) order.  Per distinct leading
    column, the row leading there with the fewest entries, then the lowest
    id, is a pivot row.  The pivot rows are back-substituted one dependency
    depth at a time into rows F over the free columns, those that lead no
    row.  Each other row less its pivot-column entries times F is a Schur
    row; _SLAB_ROWS at a time, they are reduced against the basis so far
    and eliminated by rref, until the rank is the number of free columns.
    An entry formed is a residue less at most width products of residues:
    ValueError is raised past check_exact for width terms, as on malformed
    entries."""
    if width < 0:
        raise ValueError("width must be nonnegative")
    check_exact(width, p)
    rows, cols, vals = (np.asarray(a) for a in (rows, cols, vals))
    if not rows.ndim == cols.ndim == vals.ndim == 1 or not len(rows) == len(cols) == len(vals):
        raise ValueError("rows, cols and vals must be 1-d arrays of one length")
    if len(rows) == 0:
        return []
    if (rows[0] < 0 or cols.min() < 0 or cols.max() >= width or vals.min() < 1 or vals.max() >= p
            or (np.diff(rows.astype(np.int64) * width + cols) <= 0).any()):
        raise ValueError(
            "entries need rows >= 0, columns in [0, %d), strictly increasing "
            "(row, column) pairs and values in [1, %d)" % (width, p)
        )
    cols, vals = cols.astype(np.intp), vals.astype(np.int64)
    first = np.concatenate(([True], rows[1:] != rows[:-1]))
    starts = np.flatnonzero(first)
    row_of = np.cumsum(first) - 1
    nth = np.arange(len(rows)) - starts[row_of]
    lead = cols[starts]
    # lexsort is stable, so among equally short rows the lowest id comes first
    order = np.lexsort((np.diff(starts, append=len(rows)), lead))
    chosen = order[np.concatenate(([True], lead[order[1:]] != lead[order[:-1]]))]
    pivots = lead[chosen]
    at_pivot = np.zeros(width, dtype=bool)
    at_pivot[pivots] = True
    free = np.flatnonzero(~at_pivot)
    if len(free) == 0:
        return pivots.tolist()
    # a pivot column's row of F, a free column's place among the free columns
    index = np.empty(width, dtype=np.intp)
    index[pivots] = np.arange(len(pivots))
    index[free] = np.arange(len(free))
    pivot_of_row = np.full(len(starts), -1, dtype=np.intp)
    pivot_of_row[chosen] = np.arange(len(chosen))
    # per entry from here: its row's place among the pivot rows (-1 for a
    # Schur row), whether its column is a pivot column, and that column's index
    src, at_pivot, cols = pivot_of_row[row_of], at_pivot[cols], index[cols]

    # F: the pivot rows scaled to a leading 1, then back-substituted
    scale = np.ones(len(starts), dtype=np.int64)
    scale[chosen] = [pow(v, -1, p) for v in vals[starts[chosen]].tolist()]
    vals = vals * scale[row_of] % p
    f_rows = np.zeros((len(chosen), len(free)))
    put = (src >= 0) & ~at_pivot
    f_rows[src[put], cols[put]] = vals[put]
    dep = (src >= 0) & at_pivot & (nth > 0)
    d_src, d_dst, d_val, d_nth = src[dep], cols[dep], vals[dep], nth[dep]
    done = np.bincount(d_src, minlength=len(chosen)) == 0
    while not done.all():
        ready = ~done & (np.bincount(d_src[~done[d_dst]], minlength=len(chosen)) == 0)
        level = ready[d_src]
        for k in range(1, int(d_nth.max()) + 1):
            at = level & (d_nth == k)
            f_rows[d_src[at]] -= d_val[at, None] * f_rows[d_dst[at]]
        part = f_rows[ready]
        _remainder(part, p)
        f_rows[ready] = part
        done |= ready

    # the Schur rows, a slab at a time
    schur = pivot_of_row < 0
    in_schur = schur[row_of]
    s_row = (np.cumsum(schur) - 1)[row_of[in_schur]]
    s_col, s_val, s_nth, s_at = (a[in_schur] for a in (cols, vals, nth, at_pivot))
    bounds = np.searchsorted(s_row, np.arange(0, schur.sum() + _SLAB_ROWS, _SLAB_ROWS))
    basis = np.zeros((len(free), len(free)))
    found: list[int] = []
    for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        r, c, v, k_of, at_p = (a[lo:hi] for a in (s_row, s_col, s_val, s_nth, s_at))
        r = r - s * _SLAB_ROWS
        slab = np.zeros((int(r[-1]) + 1, len(free)))
        slab[r[~at_p], c[~at_p]] = v[~at_p]
        for k in range(int(k_of.max()) + 1):
            at = at_p & (k_of == k)
            slab[r[at]] -= v[at, None] * f_rows[c[at]]
        _remainder(slab, p)
        if found:
            _reduce(slab, found, basis[: len(found)], p)
        new_rows, new_pivots = rref(slab[slab.any(axis=1)], p)
        if new_pivots:
            _reduce(basis[: len(found)], new_pivots, new_rows, p)
            basis[len(found) : len(found) + len(new_pivots)] = new_rows
            found += new_pivots
            if len(found) == len(free):
                break
    return sorted(pivots.tolist() + free[found].tolist())
