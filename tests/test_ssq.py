import itertools
import json
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from phiring import cli
from phiring.charspace import GroupContext, enumerate_characters, enumerate_Fn, rank_of
from phiring.phi import closed_form_series
from phiring.ssq import collapse_check, e1_dim, e2_dim, e2_total
from phiring.superalg import free_monomial_count

CTX32 = GroupContext(3, 2)


class TestSymExtDim:
    def test_no_generators(self):
        assert free_monomial_count(0, 0) == 1
        assert free_monomial_count(0, 3) == 0

    def test_single_generator_pair(self):
        for e in range(10):
            assert free_monomial_count(1, e) == 1

    def test_two_generator_pairs_weight_two(self):
        assert free_monomial_count(2, 2) == 3

    def test_matches_direct_enumeration(self):
        # independent oracle: enumerate exponent vectors and odd subsets
        for r in range(4):
            for e in range(8):
                count = 0
                for odd in itertools.product((0, 1), repeat=r):
                    rem = e - sum(odd)
                    if rem < 0 or rem % 2:
                        continue
                    count += sum(
                        1
                        for ts in itertools.product(range(rem // 2 + 1), repeat=r)
                        if 2 * sum(ts) == rem
                    )
                assert free_monomial_count(r, e) == count

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            free_monomial_count(-1, 0)

    @given(st.integers(1, 6), st.integers(0, 24))
    def test_closed_form_identity(self, r, e):
        # the x^e coefficient of (1+x)^r * (1-x^2)^(-r), the generating
        # function of free monomials, expanded by multiplying integer series
        def times(a, b):
            out = [0] * (e + 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b[: e + 1 - i]):
                    out[i + j] += x * y
            return out

        series = [1] + [0] * e
        for _ in range(r):
            series = times(series, [1, 1])
            series = times(series, [1 - k % 2 for k in range(e + 1)])  # 1/(1-x^2)
        assert free_monomial_count(r, e) == series[e]


class TestE1:
    def test_filtration_zero(self):
        assert e1_dim(CTX32, 0, 0) == 1
        assert e1_dim(CTX32, 0, 3) == 0

    def test_p3_n2_singletons(self):
        assert e1_dim(CTX32, 1, 1) == 8

    def test_p3_n2_pairs(self):
        assert e1_dim(CTX32, 2, 2) == 28

    def test_matches_bruteforce_subset_enumeration(self):
        # independent oracle: enumerate subsets, sum by actual rank
        chars = list(enumerate_characters(CTX32))
        for s in range(1, 5):
            for d in range(s, 9):
                brute = sum(
                    free_monomial_count(rank_of(sub, CTX32), d - s)
                    for sub in itertools.combinations(chars, s)
                )
                assert e1_dim(CTX32, s, d) == brute


class TestE2:
    def test_rank_one_totals(self):
        ctx = GroupContext(3, 1)
        assert [e2_total(ctx, d) for d in range(8)] == [1] * 8

    def test_p3_n2_totals(self):
        assert [e2_total(CTX32, d) for d in range(8)] == [3 * d + 1 for d in range(8)]

    def test_vanishes_above_rank(self):
        assert e2_dim(CTX32, 3, 5) == 0
        assert e2_dim(GroupContext(3, 3), 4, 6) == 0

    def test_dominated_by_e1(self):
        for ctx in (CTX32, GroupContext(3, 3)):
            for s in range(5):
                for d in range(7):
                    assert e2_dim(ctx, s, d) <= e1_dim(ctx, s, d)


class TestSizePolynomial:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_echelon_size_generating_polynomial(self, p, n):
        # coefficientwise identity: sum over the family of w^size equals
        # prod_i (1 + p^(i-1) w)
        ctx = GroupContext(p, n)
        counts = {}
        for sub in enumerate_Fn(ctx):
            counts[sub.size] = counts.get(sub.size, 0) + 1
        poly = [1]
        for i in range(1, n + 1):
            c = p ** (i - 1)
            poly = [a + c * b for a, b in zip(poly + [0], [0] + poly)]
        assert counts == {s: v for s, v in enumerate(poly) if v}
        assert sum(counts.values()) == prod(1 + p ** (i - 1) for i in range(1, n + 1))


class TestCollapse:
    @pytest.mark.parametrize(
        "p,n,cutoff", [(3, 2, 10), (3, 3, 8), (5, 2, 8)]
    )
    def test_second_page_reproduces_closed_form(self, p, n, cutoff):
        report = collapse_check(GroupContext(p, n), cutoff)
        assert report.ok
        assert report.e2_totals == closed_form_series(GroupContext(p, n), cutoff)

    def test_report_fields(self):
        report = collapse_check(CTX32, 4)
        assert report.equal == (True,) * 5
        assert report.dominated


def page_table(command: str, cutoff: int) -> list[list[int]]:
    """The entries, rows s and columns d, that the CLI prints at (3,2)."""
    argv = [command, "--p", "3", "--n", "2", "--cutoff", str(cutoff), "--format", "json"]
    status, text = cli.run(cli.config_from_args(argv))
    assert status == 0
    return json.loads(text)["entries"]


class TestTables:
    def test_e1_table_entries(self):
        entries = page_table("e1-table", 3)
        assert entries[0][0] == 1
        assert entries[1][1] == 8

    def test_e2_table_matches_pointwise(self):
        entries = page_table("e2-table", 4)
        assert len(entries) == 5
        for s, row in enumerate(entries):
            assert row == [e2_dim(CTX32, s, d) for d in range(5)]
