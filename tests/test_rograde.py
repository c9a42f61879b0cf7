import math
import random

import pytest

from phiring.charspace import Character, GroupContext, enumerate_lines, line_of, rank_of
from phiring.oracle import span_rank
from phiring.phi import verify_phi
from phiring.rograde import (
    MultiDegree,
    enumerate_irrep_labels,
    irrep_label,
    localized_hilbert,
    multidegree,
    ro_dimension,
    ro_table,
)
from monomial_reference import encode
from ro_reference import ro_words

CTX32 = GroupContext(3, 2)


def C(*coords):
    return Character(tuple(coords))


class TestIrrepLabels:
    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
    def test_count(self, p, n):
        ctx = GroupContext(p, n)
        labels = enumerate_irrep_labels(ctx)
        assert len(labels) == (p**n - 1) // 2

    def test_conjugates_share_a_label(self):
        ctx = GroupContext(5, 2)
        for chi in (C(1, 2), C(3, 0), C(4, 4)):
            neg = chi.scaled(-1 % 5, 5)
            assert irrep_label(chi, ctx) == irrep_label(neg, ctx)

    def test_scalar_range_per_line(self):
        ctx = GroupContext(7, 1)
        labels = enumerate_irrep_labels(ctx)
        assert [lab.rep.coords for lab in labels] == [(1,), (2,), (3,)]


class TestRoDimension:
    def test_single_even_word(self):
        md = multidegree(CTX32, {C(1, 0): 1}, 2)
        assert ro_dimension(CTX32, md) == 1

    def test_independent_pair_mixed_weight(self):
        md = multidegree(CTX32, {C(1, 0): 1, C(0, 1): 1}, 3)
        assert ro_dimension(CTX32, md) == 2

    def test_odd_collision_on_one_line(self):
        ctx = GroupContext(5, 1)
        md = multidegree(ctx, {C(1): 1, C(2): 1}, 2)
        assert ro_dimension(ctx, md) == 0

    def test_shift_out_of_range_returns_zero(self):
        md = multidegree(CTX32, {C(1, 0): 2}, 7)
        assert ro_dimension(CTX32, md) == 0
        md = multidegree(CTX32, {C(1, 0): 2}, 1)
        assert ro_dimension(CTX32, md) == 0

    def test_double_multiplicity_row(self):
        expected = {2: 0, 3: 1, 4: 1}  # odd square dies, then mixed, then even
        for k, dim in expected.items():
            md = multidegree(CTX32, {C(1, 0): 2}, k)
            assert ro_dimension(CTX32, md) == dim

    def test_empty_multidegree(self):
        assert ro_dimension(CTX32, multidegree(CTX32, {}, 0)) == 1
        assert ro_dimension(CTX32, multidegree(CTX32, {}, 2)) == 0

    def test_top_shift_on_independent_lines(self):
        md = multidegree(CTX32, {C(1, 0): 2, C(0, 1): 3}, 10)
        assert ro_dimension(CTX32, md) == 1

    def test_word_count_bound(self):
        md_support = {C(1, 0): 2, C(1, 1): 1}
        bound = (2 + 1) * (1 + 1)
        total = sum(
            ro_dimension(CTX32, multidegree(CTX32, md_support, k)) for k in range(0, 8)
        )
        assert total <= bound

    def test_gl_action_invariance(self):
        # applying an invertible matrix to every character preserves ranks
        rng = random.Random(17)
        p = 3
        chars = [C(1, 0), C(0, 1), C(1, 1)]
        mults = [1, 2, 1]
        for _ in range(10):
            while True:
                mat = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
                if (mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]) % p:
                    break
            moved = [
                Character(
                    tuple(
                        sum(mat[i][j] * chi.coords[j] for j in range(2)) % p
                        for i in range(2)
                    )
                )
                for chi in chars
            ]
            for k in range(3, 9):
                before = ro_dimension(CTX32, multidegree(CTX32, dict(zip(chars, mults)), k))
                after = ro_dimension(CTX32, multidegree(CTX32, dict(zip(moved, mults)), k))
                assert before == after

    def test_multidegree_validation(self):
        with pytest.raises(ValueError):
            MultiDegree(((irrep_label(C(1, 0), CTX32), 0),), 2)
        with pytest.raises(ValueError):
            multidegree(CTX32, {C(1, 0): -1}, 2)
        label = irrep_label(C(0, 1), CTX32)
        with pytest.raises(ValueError, match="repeated"):
            MultiDegree(((label, 1), (label, 2)), 5)
        later = irrep_label(C(1, 0), CTX32)
        with pytest.raises(ValueError, match="sorted"):
            MultiDegree(((later, 1), (label, 1)), 2)


class TestRoTable:
    def test_zero_multidegree_rows(self):
        table = ro_table(CTX32, 0, (0, 3))
        entries = list(table.items())
        assert [dim for _, dim in entries] == [1, 0, 0, 0]

    def test_contains_spot_values(self):
        table = ro_table(CTX32, 2, (2, 4))
        label = irrep_label(C(1, 0), CTX32)
        md = MultiDegree(((label, 2),), 4)
        assert table[md] == 1

    def test_deterministic(self):
        t1 = ro_table(CTX32, 1, (0, 2))
        t2 = ro_table(CTX32, 1, (0, 2))
        assert list(t1.items()) == list(t2.items())

    @pytest.mark.parametrize(
        "p,n,max_mult", [(3, 2, 4), (5, 2, 3), (7, 2, 2), (3, 3, 3), (5, 3, 2), (3, 4, 2)]
    )
    def test_every_entry_matches_the_oracle_on_its_words(self, p, n, max_mult):
        # supports of rank up to 4, and at p >= 5 lines carrying two labels
        ctx = GroupContext(p, n)
        table = ro_table(ctx, max_mult, (0, 2 * max_mult))
        assert len(table) == (2 * max_mult + 1) * math.comb(
            len(enumerate_irrep_labels(ctx)) + max_mult, max_mult
        )
        for md, dim in table.items():
            words = ro_words(ctx, md)
            assert dim == span_rank(*encode(words), md.k, ctx), md


class TestLocalizedHilbert:
    def test_single_line(self):
        res = localized_hilbert(CTX32, [enumerate_lines(CTX32)[0]], 6)
        assert res.oracle == res.presentation == (1,) * 7
        assert res.ok

    def test_two_independent_lines(self):
        S = [line_of(C(1, 0), CTX32), line_of(C(0, 1), CTX32)]
        res = localized_hilbert(CTX32, S, 6)
        assert res.oracle == res.presentation == tuple(range(1, 8))

    def test_full_arrangement_reproduces_verification(self):
        res = localized_hilbert(CTX32, enumerate_lines(CTX32), 5)
        rep = verify_phi(CTX32, 5)
        assert res.oracle == rep.oracle
        assert res.presentation == rep.presentation
        assert res.ok

    def test_monotone_in_the_line_set(self):
        lines = enumerate_lines(CTX32)
        cutoff = 4
        prev = None
        for size in range(1, len(lines) + 1):
            res = localized_hilbert(CTX32, lines[:size], cutoff)
            if prev is not None:
                assert all(a <= b for a, b in zip(prev, res.oracle))
            prev = res.oracle

    def test_rank3_arrangements_without_triples_are_free(self):
        ctx = GroupContext(3, 3)
        S = [line_of(C(1, 0, 0), ctx), line_of(C(0, 1, 0), ctx), line_of(C(0, 0, 1), ctx)]
        assert rank_of([line.rep for line in S], ctx) == 3
        res = localized_hilbert(ctx, S, 4)
        assert res.ok

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            localized_hilbert(CTX32, [], 3)

    def test_presentation_below_oracle_raises(self, monkeypatch):
        import phiring.phi as phi_module

        monkeypatch.setattr(phi_module, "quotient_dimension", lambda pres, w: 1)
        with pytest.raises(RuntimeError, match="exceeds presentation dimension 1 at weight 1"):
            localized_hilbert(CTX32, enumerate_lines(CTX32)[:3], 3)
