import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phiring.modp import RowReducer, RrefBasis, _remainder


@st.composite
def sparse_matrices(draw):
    """A random sparse matrix mod p as a list of {column: coefficient} rows,
    with zero rows, duplicated rows and scaled copies mixed in."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    ncols = draw(st.integers(1, 24))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nrows = draw(st.integers(0, 3 * ncols))  # often more rows than columns
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.3 and rows:
            k = rng.randrange(1, p)
            rows.append({c: k * v % p for c, v in rng.choice(rows).items()})
        else:
            nnz = rng.randint(1, min(ncols, 6))
            rows.append({c: rng.randrange(1, p) for c in rng.sample(range(ncols), nnz)})
    chunks = []
    left = len(rows)
    while left:
        size = rng.randint(1, left)
        chunks.append(size)
        left -= size
    return p, ncols, rows, chunks


def dense(rows, ncols):
    out = np.zeros((len(rows), ncols))
    for i, row in enumerate(rows):
        for c, v in row.items():
            out[i, c] = v
    return out


class TestRrefBasisAgainstRowReducer:
    @given(sparse_matrices())
    def test_rank_and_pivots_match(self, case):
        p, ncols, rows, chunks = case
        ref = RowReducer(ncols, p)
        for row in rows:
            ref.add_row(row.items())
        kernel = RrefBasis(ncols, p)
        gained = 0
        start = 0
        for size in chunks:
            gained += kernel.add_rows(dense(rows[start : start + size], ncols))
            start += size
        assert kernel.rank == gained == ref.rank
        assert kernel.pivot_columns == ref.pivot_columns

    def test_basis_is_reduced_echelon(self):
        rng = random.Random(3)
        p, ncols = 7, 30
        kernel = RrefBasis(ncols, p)
        for _ in range(5):
            block = np.array([[rng.randrange(p) if rng.random() < 0.2 else 0 for _ in range(ncols)]
                              for _ in range(9)], dtype=np.float64)
            kernel.add_rows(block)
        rows = kernel._rows[: kernel.rank]
        pivots = list(kernel._pivots[: kernel.rank])
        assert np.array_equal(rows[:, pivots], np.eye(kernel.rank))
        assert ((rows >= 0) & (rows < p)).all()
        for row, piv in zip(rows, pivots):
            assert np.flatnonzero(row)[0] == piv


class TestRrefBasisChecks:
    def test_float64_exactness_limit(self):
        p = 3
        limit = 2**53 // (p - 1) ** 2  # ncols * (p-1)^2 == 2^53
        with pytest.raises(ValueError):
            RrefBasis(limit, p)
        big_p = 2**26 + 15  # prime; (p-1)^2 > 2^52
        with pytest.raises(ValueError):
            RrefBasis(2, big_p)
        RrefBasis(1, big_p)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            RrefBasis(4, 3).add_rows(np.zeros((2, 5)))


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
