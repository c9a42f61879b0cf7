import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phiring.charspace import GroupContext, enumerate_characters, enumerate_lines
from phiring.modp import RowReducer
from phiring.phi import build_phi_presentation, line_presentation, verbatim_presentation
from phiring.superalg import (
    Presentation,
    SuperElement,
    SuperMonomial,
    free_monomial_count,
    merge_odd,
    monomial_basis,
    monomial_codes,
    quotient_dimension,
    _macaulay_entries,
    _quotient_data,
)
from monomial_reference import encode, free_monomials, reference_free_monomials

CTX32 = GroupContext(3, 2)
LINES32 = enumerate_lines(CTX32)


def u(line):
    return SuperMonomial.u(line)


def t(line, e=1):
    return SuperMonomial.t(line, e)


class TestMonomialProduct:
    def test_single_transposition_sign(self):
        l1, l2 = LINES32[0], LINES32[1]
        sign, m = u(l2).mul(u(l1))
        assert sign == -1
        assert m == SuperMonomial((), (l1, l2))

    def test_odd_square_is_zero(self):
        line = LINES32[0]
        assert u(line).mul(u(line)) == (0, None)

    def test_mixed_product_sign(self):
        l1, l2 = LINES32[0], LINES32[1]
        sign, m = (t(l1).mul(u(l1))[1]).mul(t(l2).mul(u(l2))[1])
        assert sign == 1
        assert m.t_exp == ((l1, 1), (l2, 1))
        assert m.u_set == (l1, l2)

    def test_merge_sign_matches_bubble_count(self):
        # independent oracle: count inversions directly
        rng = random.Random(11)
        for _ in range(300):
            pool = list(range(10))
            a = tuple(sorted(rng.sample(pool, rng.randint(0, 4))))
            b = tuple(sorted(rng.sample(pool, rng.randint(0, 4))))
            sign, merged = merge_odd(a, b)
            if set(a) & set(b):
                assert sign == 0
                continue
            inversions = sum(1 for x in a for y in b if y < x)
            assert sign == (-1) ** inversions
            assert merged == tuple(sorted(a + b))


def random_homogeneous(rng, p, lines, weight, odd):
    terms = {}
    for m in free_monomials(lines, weight):
        if m.odd_degree != odd:
            continue
        if rng.random() < 0.5:
            terms[m] = rng.randrange(1, p)
    return SuperElement(p, terms)


class TestElementAlgebra:
    def test_associativity_randomized(self):
        rng = random.Random(2024)
        for p in (3, 5):
            ctx = GroupContext(p, 2)
            lines = enumerate_lines(ctx)[:4]
            for _ in range(500):
                parts = []
                for _ in range(3):
                    w = rng.randint(0, 3)
                    odd = rng.choice([d for d in range(min(w, len(lines)) + 1) if (w - d) % 2 == 0])
                    parts.append(random_homogeneous(rng, p, lines, w, odd))
                a, b, c = parts
                assert (a * b) * c == a * (b * c)

    def test_sign_coherence_randomized(self):
        rng = random.Random(99)
        for p in (3, 5):
            ctx = GroupContext(p, 2)
            lines = enumerate_lines(ctx)[:4]
            for _ in range(500):
                wa, wb = rng.randint(0, 4), rng.randint(0, 4)
                da = rng.choice([d for d in range(min(wa, len(lines)) + 1) if (wa - d) % 2 == 0])
                db = rng.choice([d for d in range(min(wb, len(lines)) + 1) if (wb - d) % 2 == 0])
                a = random_homogeneous(rng, p, lines, wa, da)
                b = random_homogeneous(rng, p, lines, wb, db)
                lhs = a * b
                rhs = (b * a).scale((-1) ** (da * db))
                assert lhs == rhs

    def test_weight_of_mixed_element_raises(self):
        p = 3
        el = SuperElement(p, {t(LINES32[0]): 1, u(LINES32[0]): 1})
        with pytest.raises(ValueError):
            el.weight()

    def test_zero_handling(self):
        p = 3
        a = SuperElement.from_monomial(p, t(LINES32[0]))
        assert (a - a).is_zero()
        assert (a - a).weight() is None


class TestFreeMonomials:
    def test_four_lines_weight_one(self):
        ms = free_monomials(LINES32, 1)
        assert len(ms) == 4
        assert all(m.u_set and not m.t_exp for m in ms)

    def test_four_lines_weight_two(self):
        ms = free_monomials(LINES32, 2)
        assert len(ms) == 10
        assert sum(1 for m in ms if not m.u_set) == 4  # the t's
        assert sum(1 for m in ms if len(m.u_set) == 2) == 6  # the u-pairs

    def test_no_lines_weight_zero(self):
        assert free_monomials((), 0) == [SuperMonomial.one()]
        assert free_monomials((), 3) == []

    @pytest.mark.parametrize("nlines", [1, 2, 4])
    def test_count_formula(self, nlines):
        lines = LINES32[:nlines]
        for w in range(13):
            assert len(free_monomials(lines, w)) == free_monomial_count(nlines, w)

    @given(st.integers(0, 4), st.integers(0, 9))
    def test_count_formula_random(self, nlines, w):
        assert len(free_monomials(LINES32[:nlines], w)) == free_monomial_count(nlines, w)

    def test_deterministic_order(self):
        ms = free_monomials(LINES32, 3)
        assert ms == free_monomials(LINES32, 3)
        assert [m.odd_degree for m in ms] == sorted(m.odd_degree for m in ms)

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
    def test_sorted_keys_match_the_reference(self, p, n):
        ctx = GroupContext(p, n)
        rng = random.Random(10 * p + n)
        for keys in (enumerate_lines(ctx), tuple(enumerate_characters(ctx))):
            for g in range(min(7, len(keys)) + 1):
                gens = tuple(sorted(rng.sample(keys, g)))
                for w in range(9):
                    assert free_monomials(gens, w) == reference_free_monomials(gens, w), (g, w)

    @pytest.mark.parametrize("p, n", [(3, 2), (5, 2), (7, 2), (3, 3), (3, 4)])
    def test_shuffled_keys_follow_their_positions(self, p, n):
        # the monomials are those of the sorted keys, in the same order
        ctx = GroupContext(p, n)
        rng = random.Random(100 * p + n)
        for keys in (enumerate_lines(ctx), tuple(enumerate_characters(ctx))):
            for g in range(2, min(7, len(keys)) + 1):
                gens = rng.sample(keys, g)
                for w in range(9):
                    expected = reference_free_monomials(sorted(gens), w)
                    assert free_monomials(gens, w) == expected, (gens, w)

    @pytest.mark.parametrize("g", [0, 1, 2, 4, 6])
    def test_codes_encode_the_reference(self, g):
        keys = tuple(sorted(enumerate_characters(GroupContext(7, 2))))[:g]
        for w in range(9):
            codes = monomial_codes(g, w)
            assert np.array_equal(codes, encode(reference_free_monomials(keys, w), keys)[1]), w
            assert codes.shape[1] == max(g, 1) and codes.dtype == np.uint8

    @pytest.mark.parametrize("g, w", [(0, 0), (0, 2), (3, 4), (6, 5)])
    def test_codes_are_cached_and_read_only(self, g, w):
        codes = monomial_codes(g, w)
        assert codes is monomial_codes(g, w)
        assert not codes.flags.writeable
        with pytest.raises(ValueError):
            codes[...] = 0
        fresh = monomial_codes.__wrapped__(g, w)
        assert fresh is not codes and np.array_equal(fresh, codes) and fresh.dtype == codes.dtype

    def test_count_rejects_negative(self):
        for args in ((-1, 0), (0, -1), (3, -2)):
            with pytest.raises(ValueError):
                free_monomial_count(*args)


def phi_pres():
    return build_phi_presentation(CTX32)


class TestQuotient:
    def test_no_relations_equals_free_count(self):
        pres = Presentation(CTX32, LINES32[:2])
        for w in range(13):
            assert quotient_dimension(pres, w) == free_monomial_count(2, w)

    def test_two_lines_weight_two(self):
        pres = Presentation(CTX32, LINES32[:2])
        assert quotient_dimension(pres, 2) == 3

    def test_phi_p3_n1_is_one_dimensional_everywhere(self):
        ctx = GroupContext(3, 1)
        pres = build_phi_presentation(ctx)
        for w in range(10):
            assert quotient_dimension(pres, w) == 1

    def test_phi_p3_n2_weight_two(self):
        assert quotient_dimension(phi_pres(), 2) == 7

    def test_monotone_in_relations(self):
        pres = phi_pres()
        dims = []
        for k in range(0, len(pres.relations) + 1, 4):
            partial = Presentation.from_elements(CTX32, pres.gens, pres.relations[:k])
            dims.append(tuple(quotient_dimension(partial, w) for w in range(5)))
        for a, b in zip(dims, dims[1:]):
            assert all(x >= y for x, y in zip(a, b))

    def test_basis_no_relations(self):
        pres = Presentation(CTX32, LINES32)
        assert monomial_basis(pres, 3) == tuple(free_monomials(LINES32, 3))

    def test_phi_basis_weight_one(self):
        basis = monomial_basis(phi_pres(), 1)
        assert len(basis) == 4
        assert all(m.odd_degree == 1 for m in basis)

    def test_phi_basis_weight_two(self):
        # the four odd-triple relations span rank 3 in weight 2
        pres = phi_pres()
        basis = monomial_basis(pres, 2)
        assert len(basis) == 7
        weight2_rels = [r for r in pres.relations if r.weight() == 2]
        assert len(weight2_rels) == 4
        red = RowReducer(free_monomial_count(4, 2), 3)
        cols = {m: i for i, m in enumerate(free_monomials(LINES32, 2))}
        for rel in weight2_rels:
            red.add_row((cols[m], c) for m, c in rel.terms.items())
        assert red.rank == 3

    def test_basis_embeds_independently_in_the_oracle(self):
        # the kept monomials must stay independent as localized fractions
        from phiring.oracle import span_rank

        for ctx in (CTX32, GroupContext(5, 2)):
            pres = build_phi_presentation(ctx)
            for w in range(5):
                basis = monomial_basis(pres, w)
                assert span_rank(*encode(basis, pres.gens), w, ctx) == len(basis)
                assert len(basis) == quotient_dimension(pres, w)

    def test_rank_independent_of_relation_order(self):
        pres = phi_pres()
        rng = random.Random(5)
        for _ in range(2):
            rels = list(pres.relations)
            rng.shuffle(rels)
            shuffled = Presentation.from_elements(CTX32, pres.gens, tuple(rels))
            for w in range(5):
                assert quotient_dimension(shuffled, w) == quotient_dimension(pres, w)
                assert monomial_basis(shuffled, w) == monomial_basis(pres, w)


def reference_quotient(pres, weight):
    """The Macaulay elimination written directly: one SuperElement product
    per (relation, shift), fed row by row to RowReducer."""
    p = pres.ctx.p
    basis = free_monomials(pres.gens, weight)
    col_of = {m: i for i, m in enumerate(basis)}
    red = RowReducer(len(basis), p)
    for rel in pres.relations:
        w_rel = rel.weight()
        if w_rel > weight:
            continue
        for m in free_monomials(pres.gens, weight - w_rel):
            shifted = rel * SuperElement.from_monomial(p, m)
            if not shifted.is_zero():
                red.add_row((col_of[mono], c) for mono, c in shifted.terms.items())
    pivots = set(red.pivot_columns)
    return len(basis) - red.rank, tuple(m for i, m in enumerate(basis) if i not in pivots)


def assert_matches_reference(pres, cutoff):
    for w in range(cutoff + 1):
        dim, basis = reference_quotient(pres, w)
        assert quotient_dimension(pres, w) == dim, w
        assert monomial_basis(pres, w) == basis, w


class TestQuotientAgainstReference:
    @pytest.mark.parametrize(
        "p, n, cutoff, max_size",
        [(3, 3, 6, 7), (5, 2, 6, 5), (7, 2, 5, 6)],
    )
    def test_random_line_sets(self, p, n, cutoff, max_size):
        ctx = GroupContext(p, n)
        lines = enumerate_lines(ctx)
        rng = random.Random(p * 10 + n)
        for _ in range(25):
            subset = rng.sample(lines, rng.randint(1, max_size))
            assert_matches_reference(line_presentation(ctx, subset), cutoff)

    def test_verbatim_character_keys(self):
        assert_matches_reference(verbatim_presentation(CTX32), 4)

    def test_unsorted_generators(self):
        # the Koszul sign follows key order, not the order of pres.gens
        for ctx, cutoff in ((CTX32, 5), (GroupContext(5, 2), 4)):
            pres = build_phi_presentation(ctx)
            gens = list(pres.gens)
            random.Random(1).shuffle(gens)
            assert gens != sorted(gens)
            assert_matches_reference(
                Presentation.from_elements(ctx, tuple(gens), pres.relations), cutoff)

    def test_relations_mixing_odd_degrees(self):
        rng = random.Random(8)
        for p in (3, 5):
            lines = enumerate_lines(GroupContext(p, 2))[:4]
            for _ in range(10):
                rels = []
                for _ in range(rng.randint(1, 4)):
                    w = rng.randint(1, 3)
                    el = SuperElement(p, {m: rng.randrange(1, p)
                                          for m in free_monomials(lines, w) if rng.random() < 0.3})
                    if not el.is_zero():
                        rels.append(el)
                pres = Presentation.from_elements(GroupContext(p, 2), lines, tuple(rels))
                assert_matches_reference(pres, 5)


def row_reducer_pivots(pres, weight):
    """Pivot columns of the weight-w Macaulay entries fed row by row to
    RowReducer, over all columns at once."""
    codes = monomial_codes(len(pres.gens), weight)
    by_row = {}
    for r, c, v in zip(*(a.tolist() for a in _macaulay_entries(pres, weight, codes))):
        by_row.setdefault(r, []).append((c, v))
    red = RowReducer(len(codes), pres.ctx.p)
    for items in by_row.values():
        red.add_row(items)
    return red.pivot_columns


class TestQuotientDataAgainstRowReducer:
    """_quotient_data eliminates the Macaulay entries by odd-degree block
    with modp.sparse_pivots; RowReducer takes the same entries whole."""

    @settings(max_examples=20)
    @given(st.sets(st.sampled_from(enumerate_lines(GroupContext(3, 3))), min_size=1, max_size=8))
    def test_random_line_sets(self, lines):
        pres = line_presentation(GroupContext(3, 3), lines)
        for w in range(6):
            assert tuple(_quotient_data(pres, w)[1]) == row_reducer_pivots(pres, w), w

    def test_verbatim_presentation(self):
        pres = verbatim_presentation(CTX32)
        for w in range(6):
            assert tuple(_quotient_data(pres, w)[1]) == row_reducer_pivots(pres, w), w


class TestPresentationValidation:
    def test_rejects_inhomogeneous_relation(self):
        el = SuperElement(3, {t(LINES32[0]): 1, u(LINES32[0]): 1})
        with pytest.raises(ValueError):
            Presentation.from_elements(CTX32, LINES32, (el,))

    def test_rejects_zero_relation(self):
        with pytest.raises(ValueError):
            Presentation.from_elements(CTX32, LINES32, (SuperElement.zero(3),))

    def test_table_is_normalised(self):
        # p = 3: relation 0 merges to 3*t0 = 0 and relation 1 is 3*t1 = 0, so
        # both are dropped; relation 2 becomes relation 0
        pres = Presentation(CTX32, LINES32[:2], codes=[[2, 0], [2, 0], [0, 2], [1, 1]],
                            coefs=[1, 2, 3, -1], rel=[0, 0, 1, 2])
        u01 = u(LINES32[0]).mul(u(LINES32[1]))[1]
        assert pres.relations == (SuperElement(3, {u01: 2}),)
        assert pres.rel.tolist() == [0] and pres.coefs.tolist() == [2]

    def test_rejects_table_of_wrong_width(self):
        with pytest.raises(ValueError):
            Presentation(CTX32, LINES32[:2], codes=[[2, 0, 0]], coefs=[1], rel=[0])

    def test_rejects_foreign_generator(self):
        el = SuperElement.from_monomial(3, t(LINES32[3]))
        with pytest.raises(ValueError):
            Presentation.from_elements(CTX32, LINES32[:2], (el,))
