import copy
import itertools
import operator
import pickle
from dataclasses import dataclass
from math import comb, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phiring.charspace import (
    Character,
    EchelonSubset,
    GroupContext,
    Line,
    canonicalize,
    enumerate_characters,
    enumerate_Fn,
    enumerate_lines,
    line_of,
    rank_of,
    subset_rank_count,
    zero_sum_triples,
)
from phiring.phi import character_zero_sum_triples
from phiring.rograde import irrep_label
from subset_rank_reference import is_echelon_set, subset_rank_count_bruteforce
import triple_reference


def C(*coords):
    return Character(tuple(coords))


class TestContext:
    def test_rejects_non_primes(self):
        for p in (2, 4, 9, 1, 15):
            with pytest.raises(ValueError):
                GroupContext(p, 2)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            GroupContext(3, 0)

    def test_counts(self):
        ctx = GroupContext(3, 2)
        assert ctx.num_characters == 8
        assert ctx.num_lines == 4


class TestCanonicalize:
    def test_already_canonical(self):
        ctx = GroupContext(3, 3)
        line, scale = canonicalize(C(2, 0, 1), ctx)
        assert line.rep == C(2, 0, 1) and scale == 1

    def test_scaling(self):
        ctx = GroupContext(3, 3)
        line, scale = canonicalize(C(1, 0, 2), ctx)
        assert line.rep == C(2, 0, 1) and scale == 2

    def test_forced_by_normal_form(self):
        ctx = GroupContext(5, 2)
        line, scale = canonicalize(C(0, 3), ctx)
        assert line.rep == C(0, 1) and scale == 3

    def test_zero_character_rejected(self):
        with pytest.raises(ValueError):
            Character((0, 0))

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_round_trip_exhaustive(self, p, n):
        ctx = GroupContext(p, n)
        for chi in enumerate_characters(ctx):
            line, scale = canonicalize(chi, ctx)
            assert line.rep.scaled(scale, p) == chi

    @given(st.data())
    def test_round_trip_random(self, data):
        p = data.draw(st.sampled_from([3, 5, 7, 11]))
        n = data.draw(st.integers(1, 4))
        coords = data.draw(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n).filter(any)
        )
        ctx = GroupContext(p, n)
        chi = Character(tuple(coords))
        line, scale = canonicalize(chi, ctx)
        assert line.rep.scaled(scale, p) == chi
        assert line.rep.coords[line.rep.pivot()] == 1


# The key types as plain frozen dataclasses, whose generated hash and
# comparisons the cached ones must reproduce.
@dataclass(frozen=True, order=True)
class _DataclassCharacter:
    coords: tuple[int, ...]


@dataclass(frozen=True, order=True)
class _DataclassRep:  # Line and IrrepLabel: one Character field
    rep: _DataclassCharacter


_COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def _check_against_dataclass(keys, coords, reference):
    for key, ref in zip(keys, reference):
        assert hash(key) == hash(ref)
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    assert order == sorted(range(len(keys)), key=lambda i: reference[i])
    assert [coords[i] for i in order] == sorted(coords)
    for i, j in itertools.product(range(len(keys)), repeat=2):
        for op in _COMPARISONS:
            assert op(keys[i], keys[j]) == op(reference[i], reference[j])
        assert (keys[i] == keys[j]) == (coords[i] == coords[j])


class TestKeyContract:
    @given(st.data())
    def test_keys_hash_compare_and_order_like_dataclasses(self, data):
        p, n = data.draw(st.sampled_from([(3, 3), (5, 2), (7, 2), (11, 2)]))
        ctx = GroupContext(p, n)
        vectors = st.tuples(*[st.integers(0, p - 1)] * n).filter(any)
        chars = [Character(v) for v in data.draw(st.lists(vectors, min_size=1, max_size=10))]
        lines = [line_of(chi, ctx) for chi in chars]
        labels = [irrep_label(chi, ctx) for chi in chars]
        coords = [chi.coords for chi in chars]
        _check_against_dataclass(chars, coords, [_DataclassCharacter(c) for c in coords])
        for keys in (lines, labels):
            coords = [key.rep.coords for key in keys]
            reference = [_DataclassRep(_DataclassCharacter(c)) for c in coords]
            _check_against_dataclass(keys, coords, reference)
        # A line, its rep and the label k=1 on it share coordinates but are
        # pairwise unequal and unordered.
        for line in lines:
            for a, b in itertools.permutations((line.rep, line, irrep_label(line.rep, ctx)), 2):
                assert a != b and not a == b
                with pytest.raises(TypeError):
                    a < b

    def test_pickle_and_copy_keep_hash_and_equality(self):
        ctx = GroupContext(5, 2)
        chi = C(2, 4)
        for key in (chi, line_of(chi, ctx), irrep_label(chi, ctx)):
            for other in (pickle.loads(pickle.dumps(key)), copy.deepcopy(key)):
                assert other == key and hash(other) == hash(key) and not other < key


class TestEnumerateLines:
    def test_rank_one(self):
        assert enumerate_lines(GroupContext(3, 1)) == (Line(C(1)),)

    def test_p3_n2_against_scalar_class_grouping(self):
        # independent oracle: group the 8 nonzero characters by scalar class
        ctx = GroupContext(3, 2)
        classes = {}
        for chi in enumerate_characters(ctx):
            cls = frozenset(chi.scaled(k, 3) for k in range(1, 3))
            classes.setdefault(cls, set()).add(chi)
        assert len(classes) == 4
        got = enumerate_lines(ctx)
        assert [line.rep for line in got] == [C(0, 1), C(1, 0), C(1, 1), C(2, 1)]
        for line in got:
            assert frozenset({line.rep, line.rep.scaled(2, 3)}) in classes

    @pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_count_order_and_normal_form(self, p, n):
        ctx = GroupContext(p, n)
        lines = enumerate_lines(ctx)
        assert len(lines) == (p**n - 1) // (p - 1)
        assert len(set(lines)) == len(lines)
        assert list(lines) == sorted(lines)
        for line in lines:
            assert line.rep.coords[line.rep.pivot()] == 1

    def test_13_lines_for_p3_n3(self):
        assert len(enumerate_lines(GroupContext(3, 3))) == 13

    @pytest.mark.parametrize(
        "p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)]
    )
    def test_equals_canonicalizing_every_character(self, p, n):
        ctx = GroupContext(p, n)
        reference = sorted({canonicalize(chi, ctx)[0] for chi in enumerate_characters(ctx)})
        assert enumerate_lines(ctx) == tuple(reference)


class TestEchelon:
    def test_identity_like(self):
        assert EchelonSubset((C(1, 0), C(0, 1))).size == 2

    def test_clashing_pivots(self):
        with pytest.raises(ValueError):
            EchelonSubset((C(1, 1), C(2, 1)))

    def test_entries_above_pivot_arbitrary(self):
        assert EchelonSubset((C(2, 1, 0), C(1, 0, 1))).size == 2

    def test_non_canonical_rep_rejected(self):
        with pytest.raises(ValueError):
            EchelonSubset((C(0, 2),))

    def test_echelon_sets_are_independent(self):
        ctx = GroupContext(5, 3)
        for sub in enumerate_Fn(ctx):
            if sub.size:
                assert rank_of(sub.elems, ctx) == sub.size

    def test_unsorted_pivots_rejected_by_type(self):
        with pytest.raises(ValueError):
            EchelonSubset((C(0, 1), C(1, 0)))


class TestEnumerateFn:
    def test_rank_one_members(self):
        got = enumerate_Fn(GroupContext(3, 1))
        assert sorted(sub.elems for sub in got) == [(), (C(1),)]

    def test_p3_n2_unrolled(self):
        got = {sub.elems for sub in enumerate_Fn(GroupContext(3, 2))}
        expected = {
            (),
            (C(1, 0),),
            (C(0, 1),),
            (C(1, 1),),
            (C(2, 1),),
            (C(1, 0), C(0, 1)),
            (C(1, 0), C(1, 1)),
            (C(1, 0), C(2, 1)),
        }
        assert got == expected

    def test_p3_n2_equals_bruteforce_echelon_filter(self):
        # independent oracle: filter all small subsets of the arrangement
        ctx = GroupContext(3, 2)
        chars = list(enumerate_characters(ctx))
        brute = set()
        for size in range(ctx.n + 1):
            for sub in itertools.combinations(chars, size):
                if is_echelon_set(sub) and rank_of(sub, ctx) == size:
                    brute.add(tuple(sorted(sub, key=lambda chi: chi.pivot())))
        assert {sub.elems for sub in enumerate_Fn(ctx)} == brute
        assert len(brute) == 8

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_size_product_formula(self, p, n):
        got = enumerate_Fn(GroupContext(p, n))
        assert len(got) == prod(1 + p ** (i - 1) for i in range(1, n + 1))

    def test_members_pass_is_echelon(self):
        # the conditions EchelonSubset checks, restated: increasing pivots,
        # each with coordinate 1
        for ctx in (GroupContext(3, 3), GroupContext(5, 2)):
            for sub in enumerate_Fn(ctx):
                pivots = [chi.pivot() for chi in sub.elems]
                assert pivots == sorted(set(pivots))
                assert all(chi.coords[piv] == 1 for chi, piv in zip(sub.elems, pivots))


def decoded_triples(lines, ctx):
    """The rows (i, j, k, a, b) of zero_sum_triples decoded to the reference's
    tuples (L1, L2, L3, a, b, c), indices into sorted(lines) and c = 1."""
    ordered = sorted(lines)
    return [(ordered[i], ordered[j], ordered[k], a, b, 1)
            for i, j, k, a, b in zero_sum_triples(lines, ctx).tolist()]


class TestZeroSumTriples:
    def test_rows_are_int64_index_and_scalar_columns(self):
        ctx = GroupContext(5, 3)
        lines = enumerate_lines(ctx)
        triples = zero_sum_triples(lines, ctx)
        assert triples.dtype == np.int64 and triples.shape == (620, 5)
        i, j, k, a, b = triples.T
        assert ((0 <= i) & (i < j) & (j < k) & (k < len(lines))).all()
        assert ((1 <= a) & (a < 5) & (1 <= b) & (b < 5)).all()
        assert zero_sum_triples(lines[:2], ctx).shape == (0, 5)

    def test_all_four_triples_qualify_in_the_plane(self):
        ctx = GroupContext(3, 2)
        triples = zero_sum_triples(enumerate_lines(ctx), ctx)
        assert len(triples) == 4

    def test_two_lines_no_triple(self):
        ctx = GroupContext(3, 2)
        lines = [line_of(C(1, 0), ctx), line_of(C(0, 1), ctx)]
        assert decoded_triples(lines, ctx) == []

    def test_independent_lines_no_triple(self):
        ctx = GroupContext(3, 3)
        lines = [line_of(C(1, 0, 0), ctx), line_of(C(0, 1, 0), ctx), line_of(C(0, 0, 1), ctx)]
        assert decoded_triples(lines, ctx) == []

    def test_scalars_solve_and_are_normalized(self):
        ctx = GroupContext(5, 2)
        for l1, l2, l3, a, b, c in decoded_triples(enumerate_lines(ctx), ctx):
            assert c == 1 and a % 5 and b % 5
            combo = [
                (a * x + b * y + c * z) % 5
                for x, y, z in zip(l1.rep.coords, l2.rep.coords, l3.rep.coords)
            ]
            assert not any(combo)

    def test_qualifies_iff_rank_two(self):
        # independent oracle: rank computation over every 3-subset of lines
        ctx = GroupContext(3, 3)
        lines = enumerate_lines(ctx)
        qualifying = {
            (l1, l2, l3) for l1, l2, l3, *_ in decoded_triples(lines, ctx)
        }
        for combo in itertools.combinations(lines, 3):
            has_rank_2 = rank_of([l.rep for l in combo], ctx) == 2
            assert (combo in qualifying) == has_rank_2

    def test_duplicate_input_rejected(self):
        ctx = GroupContext(3, 2)
        line = line_of(C(1, 0), ctx)
        with pytest.raises(ValueError):
            zero_sum_triples([line, line], ctx)

    @given(st.sampled_from([(3, 2), (5, 2), (7, 2), (3, 3), (5, 3)]), st.data())
    def test_solve_matches_the_scan_over_all_scalars(self, shape, data):
        p, n = shape
        ctx = GroupContext(p, n)
        l1, l2, l3 = sorted(data.draw(st.permutations(enumerate_lines(ctx)))[:3])
        columns = list(zip(l1.rep.coords, l2.rep.coords, l3.rep.coords))
        scan = [
            (l1, l2, l3, a, b, 1)
            for a in range(1, p)
            for b in range(1, p)
            if all((a * x + b * y + z) % p == 0 for x, y, z in columns)
        ]
        assert decoded_triples([l3, l1, l2], ctx) == scan

    @given(st.sampled_from([(3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (3, 4)]), st.data())
    def test_matches_the_reference_on_line_subsets(self, shape, data):
        ctx = GroupContext(*shape)
        lines = enumerate_lines(ctx)
        size = data.draw(st.integers(0, min(15, len(lines))))
        subset = data.draw(st.permutations(lines))[:size]
        assert decoded_triples(subset, ctx) == triple_reference.zero_sum_triples(subset, ctx)

    @given(st.lists(st.tuples(*[st.integers(0, 1048572)] * 4), min_size=0, max_size=12))
    def test_matches_the_reference_at_a_large_prime(self, rows):
        # values near p exercise the int64 products; planes through few lines
        # are rare, so close each pair of rows with its sum as well
        ctx = GroupContext(1048573, 4)
        chars = [Character(tuple(c % ctx.p for c in row)) for row in rows if any(row)]
        chars += [Character(s) for a, b in zip(chars, chars[1:])
                  if any(s := tuple((x + y) % ctx.p for x, y in zip(a.coords, b.coords)))]
        lines = sorted({line_of(chi, ctx) for chi in chars})
        assert decoded_triples(lines, ctx) == triple_reference.zero_sum_triples(lines, ctx)

    @pytest.mark.parametrize("shape", [(3, 3), (5, 3), (3, 4), (7, 3), (3, 5)])
    def test_full_arrangement_count(self, shape):
        # independent count: (p^n-1)(p^(n-1)-1)/((p^2-1)(p-1)) planes, each
        # with p+1 lines and so C(p+1, 3) triples
        p, n = shape
        ctx = GroupContext(p, n)
        planes = (p**n - 1) * (p ** (n - 1) - 1) // ((p**2 - 1) * (p - 1))
        expected = {(3, 3): 52, (5, 3): 620, (3, 4): 520, (7, 3): 3192, (3, 5): 4840}
        assert planes * comb(p + 1, 3) == expected[shape]
        assert len(zero_sum_triples(enumerate_lines(ctx), ctx)) == expected[shape]


@pytest.mark.parametrize("shape", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3)])
def test_character_triples_match_the_reference(shape):
    ctx = GroupContext(*shape)
    chars = list(enumerate_characters(ctx))
    got = [tuple(chars[i] for i in row) for row in character_zero_sum_triples(ctx).tolist()]
    assert got == triple_reference.character_zero_sum_triples(ctx)


class TestSubsetRankCount:
    def test_base_case(self):
        assert subset_rank_count(GroupContext(3, 2), 0, 0) == 1

    def test_p3_n2_spot_values(self):
        ctx = GroupContext(3, 2)
        assert subset_rank_count(ctx, 2, 1) == 4
        assert subset_rank_count(ctx, 2, 2) == 24

    def test_partition_identity(self):
        ctx = GroupContext(3, 2)
        assert sum(subset_rank_count(ctx, 3, r) for r in range(4)) == comb(8, 3)
        ctx = GroupContext(5, 3)
        for s in (2, 5, 9):
            total = sum(subset_rank_count(ctx, s, r) for r in range(ctx.n + 1))
            assert total == comb(ctx.num_characters, s)

    @pytest.mark.parametrize(
        "p,n,smax", [(3, 2, 8), (3, 3, 3), (5, 2, 3)]
    )
    def test_recurrence_matches_bruteforce(self, p, n, smax):
        ctx = GroupContext(p, n)
        for s in range(smax + 1):
            for r in range(min(s, n) + 1):
                assert subset_rank_count(ctx, s, r) == subset_rank_count_bruteforce(ctx, s, r)
