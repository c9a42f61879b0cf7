import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phiring.modp import (
    _BASE_ROWS,
    _SLAB_ROWS,
    _SMALL_REMAINDER,
    RowReducer,
    _remainder,
    check_exact,
    inverses_mod,
    rref,
    sparse_pivots,
)


def random_rows(rng, p, ncols, nrows):
    """nrows random {column: coefficient} rows mod p.  Zero rows, duplicated
    and scaled rows, rows with up to ncols nonzeros and fully dense rows are
    mixed in."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.3 and rows:
            k = rng.randrange(1, p)
            rows.append({c: k * v % p for c, v in rng.choice(rows).items()})
        elif kind < 0.4:
            row = {c: rng.randrange(p) for c in range(ncols)}
            row[rng.randrange(ncols)] = rng.randrange(1, p)
            rows.append({c: v for c, v in row.items() if v})
        else:
            nnz = rng.randint(1, ncols)
            rows.append({c: rng.randrange(1, p) for c in rng.sample(range(ncols), nnz)})
    return rows


@st.composite
def sparse_blocks(draw):
    """A random sparse block mod p as a list of {column: coefficient} rows
    (see random_rows; its empty rows leave gaps in the row ids), shuffled,
    with one of: nothing more; one-entry rows; an upper unitriangular set of
    rows, so that no column is free; rows that share one leading column.
    The largest prime is the largest sparse_pivots accepts at width 24."""
    p = draw(st.sampled_from([3, 5, 7, 11, largest_exact_prime(24)]))
    ncols = draw(st.integers(1, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rows = random_rows(rng, p, ncols, draw(st.integers(0, 3 * ncols)))
    extra = draw(st.sampled_from(["none", "one_entry", "full_rank", "shared_lead"]))
    if extra == "one_entry":
        rows += [{rng.randrange(ncols): rng.randrange(1, p)} for _ in range(ncols)]
    elif extra == "full_rank":
        rows += [{c: 1 if c == i else rng.randrange(1, p)
                  for c in range(i, ncols) if c == i or rng.random() < 0.3}
                 for i in range(ncols)]
    elif extra == "shared_lead":
        lead = rng.randrange(ncols)
        for _ in range(rng.randint(2, 6)):
            tail = rng.sample(range(lead + 1, ncols), rng.randint(0, min(3, ncols - lead - 1)))
            rows.append({c: rng.randrange(1, p) for c in [lead, *tail]})
    rng.shuffle(rows)
    return p, ncols, rows


def entries(rows):
    """The (row, column, value) entries of {column: value} rows."""
    triples = [(i, c, v) for i, row in enumerate(rows) for c, v in sorted(row.items())]
    r, c, v = zip(*triples) if triples else ((), (), ())
    return np.array(r, dtype=np.intp), np.array(c, dtype=np.intp), np.array(v, dtype=np.int64)


def reference_rref(rows, ncols, p):
    """Reduced echelon rows of the span, ordered by pivot column: textbook
    Gauss-Jordan on Python integers, all rows at once."""
    m = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    r = 0
    for c in range(ncols):
        pick = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pick is None:
            continue
        m[r], m[pick] = m[pick], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return m[:r]


def reference_pivots(rows, ncols, p):
    ref = RowReducer(ncols, p)
    for row in rows:
        ref.add_row(row.items())
    return ref.pivot_columns


class TestSparsePivotsAgainstRowReducer:
    @given(sparse_blocks())
    def test_rank_and_pivots_match(self, case):
        p, ncols, rows = case
        assert tuple(sparse_pivots(*entries(rows), ncols, p)) == reference_pivots(rows, ncols, p)

    def test_schur_pivot_between_pivot_columns(self):
        # rows 0 and 1 both lead at column 0; row 0, the shorter, is the
        # pivot row, and depends on row 2's pivot column 2.  Row 1 less its
        # pivot-column entries times F is row 1 less row 0, {1: 1}: a Schur
        # pivot at free column 1, between the pivot columns.
        rows = [{0: 1, 2: 1}, {0: 1, 1: 1, 2: 1}, {2: 1, 3: 1}]
        assert sparse_pivots(*entries(rows), 4, 5) == [0, 1, 2]
        assert reference_pivots(rows, 4, 5) == (0, 1, 2)

    def test_dependency_chain_at_the_float64_bound(self):
        # pivot row i meets pivot column i + 1, so F is built over 22
        # depths, with entries near p - 1 at the largest prime allowed; the
        # other rows are combinations of the pivot rows, so every Schur row
        # is zero and the free columns 22 and 23 stay free
        p, ncols = largest_exact_prime(24), 24
        rng = random.Random(2)
        chain = [{i: p - 1 - rng.randrange(3), i + 1: p - 1 - rng.randrange(3),
                  22: p - 1 - rng.randrange(3), 23: p - 1 - rng.randrange(3)} for i in range(22)]
        combos = []
        for _ in range(3):
            combo = {}
            for row in chain:
                k = rng.randrange(1, p)
                for c, v in row.items():
                    combo[c] = (combo.get(c, 0) + k * v) % p
            combos.append({c: v for c, v in combo.items() if v})
        rows = chain + combos
        assert reference_pivots(rows, ncols, p) == tuple(range(22))
        assert sparse_pivots(*entries(rows), ncols, p) == list(range(22))

    def test_schur_rows_past_one_slab(self):
        # the Schur rows give pivot 1 in the first slab and pivot 2, the
        # last free column, only in the last row
        rows = [{0: 1}] + [{0: 1, 1: 1}] * (2 * _SLAB_ROWS) + [{0: 1, 2: 1}]
        assert sparse_pivots(*entries(rows), 3, 5) == [0, 1, 2]

    def test_full_rank_block_has_no_free_column(self):
        rows = [{0: 1, 1: 2}, {1: 1, 2: 1}, {2: 2}, {0: 1}, {1: 2, 2: 2}]
        assert sparse_pivots(*entries(rows), 3, 3) == [0, 1, 2]


@st.composite
def dense_blocks(draw):
    """A random block mod p of 1 to 5 base cases' worth of rows (see
    random_rows), as {column: coefficient} rows; narrow blocks have more
    rows than columns."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    ncols = draw(st.integers(1, 40))
    nrows = draw(st.integers(1, 5 * _BASE_ROWS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return p, ncols, random_rows(rng, p, ncols, nrows)


def dense(rows, ncols):
    return np.array([[row.get(c, 0) for c in range(ncols)] for row in rows], dtype=np.float64)


def sorted_rref(rows, pivots):
    """rref's rows in pivot-column order, as Python integers."""
    order = np.argsort(pivots, kind="stable")
    return rows[order].astype(np.int64).tolist()


class TestRrefAgainstReferences:
    @given(dense_blocks())
    def test_rank_pivots_and_rows_match(self, case):
        p, ncols, rows = case
        ref = RowReducer(ncols, p)
        for row in rows:
            ref.add_row(row.items())
        out, pivots = rref(dense(rows, ncols), p)
        assert len(pivots) == len(out) == ref.rank
        assert tuple(sorted(pivots)) == ref.pivot_columns
        assert sorted_rref(out, pivots) == reference_rref(rows, ncols, p)

    @pytest.mark.parametrize("nrows", [1, _BASE_ROWS, _BASE_ROWS + 1, 4 * _BASE_ROWS + 3])
    def test_zero_duplicate_and_scaled_rows(self, nrows):
        p, ncols = 7, 5
        rng = random.Random(nrows)
        first = {c: rng.randrange(1, p) for c in range(ncols)}
        rows = [{}, first] + [{c: 3 * v % p for c, v in first.items()}, dict(first)] * nrows
        rows = rows[:nrows]
        out, pivots = rref(dense(rows, ncols), p)
        assert sorted_rref(out, pivots) == reference_rref(rows, ncols, p)
        assert len(pivots) == (0 if nrows == 1 else 1)

    def test_empty_and_all_zero_blocks(self):
        out, pivots = rref(np.zeros((0, 4)), 5)
        assert out.shape == (0, 4) and pivots == []
        out, pivots = rref(np.zeros((3 * _BASE_ROWS, 4)), 5)
        assert out.shape == (0, 4) and pivots == []


def is_prime(m):
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))


def largest_exact_prime(terms):
    """The largest prime p with terms*(p-1)^2 + p < 2^53."""
    p = isqrt(2**53 // terms) + 1
    while terms * (p - 1) ** 2 + p >= 2**53 or not is_prime(p):
        p -= 1
    return p


def reduced_reference(block, p):
    """Pivot columns and reduced echelon rows, in pivot-column order, of an
    int64 block: RowReducer's echelon rows, back-reduced in int64."""
    ref = RowReducer(block.shape[1], p)
    for row in block:
        ref.add_row(row)
    pivots = ref.pivot_columns
    basis = [ref._pivot_rows[ref._pivot_of_col[c]] for c in pivots]
    for i in reversed(range(len(basis))):
        for j in range(i):
            basis[j] = (basis[j] - int(basis[j][pivots[i]]) * basis[i]) % p
    return pivots, [row.tolist() for row in basis]


@st.composite
def blocks_at_the_bound(draw):
    """A dense int64 block of up to 40 rows and 4000 columns at the largest
    prime rref accepts for its shape.  Wide, short blocks, whose
    width*(p-1)^2 passes 2^53, are common.  Entries lie near p - 1, about
    one in ten is zero, and with three rows or more the last row is a
    combination of the first two."""
    nrows = draw(st.integers(1, 40))
    ncols = draw(st.one_of(st.integers(1, 60), st.integers(1000, 4000)))
    p = largest_exact_prime(min(nrows, ncols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = p - 1 - rng.integers(0, 3, size=(nrows, ncols))
    block[rng.random((nrows, ncols)) < 0.1] = 0
    if nrows >= 3:
        a, b = (int(x) for x in rng.integers(p - 3, p, size=2))
        block[-1] = (a * block[0] % p + b * block[1] % p) % p
    return p, block


class TestRrefAtTheFloat64Bound:
    @settings(max_examples=40)
    @given(blocks_at_the_bound())
    def test_matches_row_reducer(self, case):
        p, block = case
        pivots, basis = reduced_reference(block, p)
        out, found = rref(block.astype(np.float64), p)
        assert len(found) == len(out) == len(pivots)
        assert tuple(sorted(found)) == pivots
        assert sorted_rref(out, found) == basis

    def test_bound_is_sharp(self):
        rows = 6
        p = largest_exact_prime(rows)
        above = next(q for q in range(p + 1, 2 * p) if is_prime(q))
        check_exact(rows, p)
        with pytest.raises(ValueError, match="2\\^53"):
            check_exact(rows, above)

    def test_refuses_rather_than_returning_a_wrong_rank(self):
        # At p = 2^31 - 1 float64 is not exact; this 6x6 block has rank 5.
        p = 2**31 - 1
        rng = np.random.default_rng(0)
        left = rng.integers(0, p, size=(6, 5), dtype=np.int64)
        right = rng.integers(0, p, size=(5, 6), dtype=np.int64)
        block = np.array(
            [[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in right.T]
             for row in left],
            dtype=np.int64,
        )
        assert len(reduced_reference(block, p)[0]) == 5
        with pytest.raises(ValueError, match="2\\^53"):
            rref(block.astype(np.float64), p)


class TestSparsePivotsChecks:
    def test_float64_exactness_limit(self):
        one = (np.array([0]), np.array([0]), np.array([1]))
        p = 3
        limit = 2**53 // (p - 1) ** 2  # width * (p-1)^2 == 2^53
        with pytest.raises(ValueError, match="2\\^53"):
            sparse_pivots(*one, limit, p)
        big_p = 2**26 + 15  # prime; (p-1)^2 > 2^52
        with pytest.raises(ValueError, match="2\\^53"):
            sparse_pivots(*one, 2, big_p)
        assert sparse_pivots(*one, 1, big_p) == [0]

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            sparse_pivots(np.array([0, 1]), np.array([0, 4]), np.array([1, 1]), 4, 3)

    @pytest.mark.parametrize(
        "rows, cols, vals",
        [
            ([0, 1], [0, -1], [1, 1]),  # negative column
            ([1, 0], [0, 1], [1, 1]),  # rows out of order
            ([0, 0], [2, 1], [1, 1]),  # columns of a row out of order
            ([0, 0], [1, 1], [1, 1]),  # an entry repeated
            ([-1, 0], [0, 1], [1, 1]),  # negative row
            ([0, 1], [0, 1], [1, 3]),  # value not below p
            ([0, 1], [0, 1], [1]),  # lengths differ
            ([0, 1], [0, 1], [0, 1]),  # a zero value: a zero lead has no inverse
        ],
    )
    def test_rejects_malformed_entries(self, rows, cols, vals):
        with pytest.raises(ValueError):
            sparse_pivots(np.array(rows), np.array(cols), np.array(vals), 4, 3)


@given(st.sampled_from([3, 5, 7, 11, 2**26 + 15]), st.lists(st.integers(-(2**53) + 1, 2**53 - 1), max_size=50))
def test_remainder_is_exact_below_2_53(p, values):
    x = np.array(values + [0, p, -p, p - 1, 1 - p], dtype=np.float64)
    _remainder(x, p)
    assert x.tolist() == [v % p for v in values + [0, p, -p, p - 1, 1 - p]]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 2**26 + 15])
def test_remainder_is_exact_on_2d_chunks_near_2_53(p):
    # k*p - 1, k*p and k*p + 1 of both signs, for the multiples of p nearest
    # +-2^53: the floor quotient lands on either side of a multiple there
    top = (2**53 - 1) // p
    values = []
    for sign in (1, -1):
        for k in range(top - 20, top + 1):
            values.extend(sign * (k * p + d) for d in (-1, 0, 1))
    values = [v for v in values if abs(v) < 2**53]
    values += [0, 1, -1, 2**53 - 1, -(2**53) + 1]
    values += [0] * (-len(values) % 8)
    x = np.array(values, dtype=np.float64).reshape(8, -1)
    _remainder(x, p)
    assert x.ravel().tolist() == [v % p for v in values]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 2**26 + 15])
def test_remainder_is_exact_on_both_paths(p):
    # np.remainder below _SMALL_REMAINDER entries, the floor quotient above
    top = (2**53 - 1) // p
    values = [sign * (k * p + d) for sign in (1, -1) for k in (0, 1, top - 1, top)
              for d in (-1, 0, 1)]
    values = [v for v in values if abs(v) < 2**53] + [2**53 - 1, -(2**53) + 1]
    for size in (_SMALL_REMAINDER - 1, _SMALL_REMAINDER, 4 * _SMALL_REMAINDER):
        tiled = (values * size)[:size]
        x = np.array(tiled, dtype=np.float64)
        _remainder(x, p)
        assert x.tolist() == [v % p for v in tiled]


@given(st.sampled_from([3, 5, 7, 1048573, 67108859, 94906249]),
       st.lists(st.integers(-(2**40), 2**40), max_size=20))
def test_inverses_mod_match_pow(p, values):
    values = [v for v in values if v % p] + [1, p - 1, -1]
    got = inverses_mod(np.array(values).reshape(-1, 1), p)
    assert got.shape == (len(values), 1)
    assert got.ravel().tolist() == [pow(v, -1, p) for v in values]


def test_inverses_mod_refuses_zero_and_large_primes():
    with pytest.raises(ZeroDivisionError):
        inverses_mod(np.array([1, 6, 2]), 3)
    assert inverses_mod(np.array([], dtype=np.int64), 3).shape == (0,)
    with pytest.raises(ValueError, match="2\\^53"):
        inverses_mod(np.array([1]), 2**31 - 1)
