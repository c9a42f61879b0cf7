import itertools
import random
from collections import Counter
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from phiring import oracle, rograde
from phiring.charspace import Character, GroupContext, Line, enumerate_lines, line_of
from phiring.modp import RowReducer
from phiring.oracle import (
    PolyExtElement,
    d_euler_class,
    embed,
    span_rank,
    subring_hilbert,
    vanishing,
)
from phiring.phi import build_phi_presentation, line_presentation
from phiring.superalg import (
    Presentation,
    SuperElement,
    SuperMonomial,
    exponent_rows,
    merge_odd,
    monomial_codes,
)
from monomial_reference import encode, free_monomials
from relation_reference import euler_class, relation_families, relation_image
from ro_reference import ro_words


def is_prime(m):
    return m > 1 and all(m % d for d in range(2, isqrt(m) + 1))

CTX32 = GroupContext(3, 2)
LINES32 = enumerate_lines(CTX32)


def C(*coords):
    return Character(tuple(coords))


class TestEulerClasses:
    def test_first_basis_line(self):
        line = line_of(C(1, 0), CTX32)
        assert euler_class(line, CTX32) == PolyExtElement(3, 2, {((1, 0), ()): 1})
        assert d_euler_class(line, CTX32) == PolyExtElement(3, 2, {((0, 0), (0,)): 1})

    def test_diagonal_line(self):
        line = line_of(C(1, 1), CTX32)
        assert euler_class(line, CTX32) == PolyExtElement(
            3, 2, {((1, 0), ()): 1, ((0, 1), ()): 1}
        )

    def test_linearity_in_the_character(self):
        z11 = euler_class(C(1, 1), CTX32)
        z22 = euler_class(C(2, 2), CTX32)
        assert z22 == z11.scale(2)


class TestEmbed:
    def test_even_generator(self):
        line = line_of(C(1, 0), CTX32)
        num, denom_exp = embed(SuperMonomial.t(line), CTX32)
        assert num == PolyExtElement.one(3, 2)
        assert denom_exp == {line: 1}

    def test_odd_pair(self):
        l10 = line_of(C(1, 0), CTX32)
        l01 = line_of(C(0, 1), CTX32)
        m = SuperMonomial((), tuple(sorted((l10, l01))))
        num, denom_exp = embed(m, CTX32)
        # sorted order is (0,1) then (1,0): numerator dx2 ^ dx1 = -dx1 ^ dx2
        assert denom_exp == {l10: 1, l01: 1}
        assert num == PolyExtElement(3, 2, {((0, 0), (0, 1)): -1})

    def test_odd_square_dies(self):
        line = LINES32[0]
        num, _ = embed(SuperMonomial.u(line), CTX32)
        assert (num * num).is_zero()

    def test_character_keys_rewrite_scalars(self):
        # t over 2*chi embeds as inverse-scalar times the line fraction
        ctx = GroupContext(5, 2)
        chi = C(2, 0)
        num, denom_exp = embed(SuperMonomial.t(chi), ctx)
        line = line_of(chi, ctx)
        assert denom_exp == {line: 1}
        assert num == PolyExtElement.one(5, 2).scale(pow(2, -1, 5))
        # u over k*chi equals u over the line rep exactly
        assert embed(SuperMonomial.u(chi), ctx) == embed(SuperMonomial.u(line), ctx)

    def test_multiplicative_randomized(self):
        rng = random.Random(7)
        cases = 0
        for p in (3, 5):
            ctx = GroupContext(p, 2)
            lines = enumerate_lines(ctx)
            pool = []
            for w in range(5):
                pool.extend(free_monomials(lines[:4], w))
            for _ in range(500):
                m1, m2 = rng.choice(pool), rng.choice(pool)
                sign, m12 = m1.mul(m2)
                (num1, denom1), (num2, denom2) = embed(m1, ctx), embed(m2, ctx)
                if sign == 0:
                    assert (num1 * num2).is_zero()
                else:
                    num12, denom12 = embed(m12, ctx)
                    assert num1 * num2 == num12.scale(sign)
                    assert denom12 == dict(Counter(denom1) + Counter(denom2))
                cases += 1
        assert cases == 1000


class TestRelationImages:
    def test_even_triple_vanishes(self):
        triple = (C(1, 0), C(0, 1), C(2, 2))
        rels = relation_families(triple, CTX32)
        assert relation_image(rels[0], CTX32).is_zero()

    def test_mixed_and_odd_triples_vanish(self):
        triple = (C(1, 0), C(0, 1), C(2, 2))
        for rel in relation_families(triple, CTX32):
            assert relation_image(rel, CTX32).is_zero()

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (7, 2)])
    def test_all_presentation_relations_vanish(self, p, n):
        ctx = GroupContext(p, n)
        pres = build_phi_presentation(ctx)
        for rel in pres.relations:
            assert relation_image(rel, ctx).is_zero()
        assert vanishing(pres).tolist() == [True] * len(pres.relations)

    def test_scaled_term_breaks_every_relation(self):
        # relation-check counts vanished relations; a wrong coefficient on
        # any one term of any relation must leave a nonzero image.  The
        # verbatim keys are characters with scales != 1, and their relations
        # carry u's on two characters of one line.
        for p, n, verbatim in [(3, 3, False), (3, 2, True), (5, 2, True)]:
            ctx = GroupContext(p, n)
            pres = build_phi_presentation(ctx, verbatim)
            scaled = []
            for rel in pres.relations:
                for m, c in rel.terms.items():
                    terms = dict(rel.terms)
                    terms[m] = 2 * c
                    scaled.append(SuperElement(ctx.p, terms))
                    assert not relation_image(scaled[-1], ctx).is_zero(), (rel, m)
            assert len(scaled) == len(pres.coefs)
            assert not vanishing(Presentation.from_elements(ctx, pres.gens, scaled)).any()

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_collinear_triples_rewrite_to_zero(self, p):
        # all on one line: the rewritten scalar coefficients cancel mod p
        ctx = GroupContext(p, 2)
        rho = C(1, 0)
        for a in range(1, p):
            for b in range(1, p):
                c = (-a - b) % p
                if c == 0:
                    continue
                triple = (rho.scaled(a, p), rho.scaled(b, p), rho.scaled(c, p))
                for rel in relation_families(triple, ctx):
                    assert rel.is_zero()

    def test_nonzero_element_has_nonzero_image(self):
        el = SuperElement.from_monomial(3, SuperMonomial.t(LINES32[0]))
        assert not relation_image(el, CTX32).is_zero()


# the largest prime p with 2*(p-1)^2 + p < 2^53: at n = 2 the oracle's
# products of linear forms are exact, at n = 3 check_exact refuses it
P_AT_BOUND = 67108859


class TestVanishing:
    def test_prime_is_at_the_bound(self):
        p = P_AT_BOUND
        assert is_prime(p) and 2 * (p - 1) ** 2 + p < 2**53 <= 3 * (p - 1) ** 2 + p
        assert not any(is_prime(q) for q in range(p + 1, isqrt((2**53 - p) // 2) + 2))

    @given(st.integers(1, P_AT_BOUND - 1), st.integers(1, P_AT_BOUND - 1),
           st.integers(1, P_AT_BOUND - 2), st.integers(0, 2**32 - 1))
    def test_character_keys_at_a_prime_near_the_bound(self, k, m, r, seed):
        # Character keys with large scales: the families of a zero-sum triple
        # on three lines, and of a collinear one, whose odd terms have u's on
        # two characters of one line.  Both checks find them vanish, and
        # neither finds a relation with one term scaled by 2 vanish.
        p = P_AT_BOUND
        ctx = GroupContext(p, 2)
        chi = C(k, 0)
        triples = [(chi, C(0, m), C(p - k, p - m)),
                   (chi, chi.scaled(r, p), chi.scaled(p - 1 - r, p))]
        rels = [[rel for rel in relation_families(triple, ctx, rewrite_to_lines=False)
                 if not rel.is_zero()] for triple in triples]
        keys = sorted({key for rel in rels[0] + rels[1] for mono in rel.terms for key in mono.keys()})
        for rel in rels[0] + rels[1]:
            assert relation_image(rel, ctx).is_zero()
        assert vanishing(Presentation.from_elements(ctx, keys, rels[0] + rels[1])).all()
        # alone, the first triple's keys are one character per line, and
        # for k < p/2 in the order of their lines
        assert vanishing(Presentation.from_elements(ctx, triples[0], rels[0])).all()
        rng = random.Random(seed)
        scaled = []
        for rel in rels[0]:
            terms = dict(rel.terms)
            mono = rng.choice(sorted(terms))
            terms[mono] = 2 * terms[mono]
            scaled.append(SuperElement(p, terms))
            assert not relation_image(scaled[-1], ctx).is_zero()
        assert not vanishing(Presentation.from_elements(ctx, keys, scaled)).any()

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    @pytest.mark.parametrize("t_scale", [0, 1, 3])
    def test_dead_terms_beside_live_ones(self, perm, t_scale):
        # u's on three distinct coplanar lines wedge to 0, so the first,
        # dead, term of each relation drops out whatever its coefficient,
        # and the two live terms, u's over d and over 2d, which share a
        # line, cancel.  Each dead term comes before the live terms of its
        # dx-degree block; each term may carry a t over 3a (scale 3 when
        # t_scale is 3, over a itself when 1).
        p = 5
        ctx = GroupContext(p, 3)

        def key(*coords):
            return C(*(coords[i] for i in perm))

        a, b, c, d = key(1, 0, 0), key(0, 1, 0), key(1, 1, 0), key(0, 0, 1)
        d2 = d.scaled(2, p)

        def mono(*us):
            t_exp = ((a.scaled(t_scale, p), 1),) if t_scale else ()
            return SuperMonomial(t_exp, tuple(sorted(us)))

        dead, live, twin = mono(a, b, c), mono(a, b, d), mono(a, b, d2)
        keys = sorted({k for m in (dead, live, twin) for k in m.keys()})
        rels, scaled = [], []
        for coef in range(1, p):
            rel = SuperElement(p, {dead: 3, live: 2, twin: coef})
            if relation_image(rel, ctx).is_zero():
                rels.append(rel)
                scaled.append(SuperElement(p, {dead: 3, live: 4, twin: coef}))
        assert len(rels) == 1 and not relation_image(scaled[0], ctx).is_zero()
        assert vanishing(Presentation.from_elements(ctx, keys, rels + scaled)).tolist() == [True, False]

    def test_max_weight_checks_the_lighter_relations_only(self):
        ctx = GroupContext(3, 2)
        pres = build_phi_presentation(ctx)
        heavy = int(np.flatnonzero(pres.relation_weights == 4)[0])
        coefs = pres.coefs.copy()
        coefs[np.flatnonzero(pres.rel == heavy)[0]] *= 2
        broken = Presentation(ctx, pres.gens, pres.codes, coefs, pres.rel)
        assert vanishing(broken).tolist() == [r != heavy for r in range(len(pres.relations))]
        light = vanishing(broken, 3)
        assert len(light) == (pres.relation_weights <= 3).sum() and light.all()

    def test_float64_bound_refused(self):
        ctx = GroupContext(67108879, 2)
        with pytest.raises(ValueError, match="2\\^53"):
            vanishing(line_presentation(ctx, []))


class TestSpanRank:
    def test_independent_even_generators(self):
        l10, l01 = line_of(C(1, 0), CTX32), line_of(C(0, 1), CTX32)
        ms = [SuperMonomial.t(l10), SuperMonomial.t(l01)]
        assert span_rank(*encode(ms), 2, CTX32) == 2

    def test_mixed_pair(self):
        l10, l01 = line_of(C(1, 0), CTX32), line_of(C(0, 1), CTX32)
        m1 = SuperMonomial(((l01, 1),), (l10,))
        m2 = SuperMonomial(((l10, 1),), (l01,))
        assert span_rank(*encode([m1, m2]), 3, CTX32) == 2

    def test_duplicate_monomial_adds_nothing(self):
        m = SuperMonomial.t(LINES32[0])
        assert span_rank(*encode([m, m]), 2, CTX32) == 1

    def test_scalar_multiple_row_adds_nothing(self):
        # unit rescaling of an embedded row cannot change the span: over
        # raw characters, t over 2*chi is t over chi times 1/2, and u over
        # 2*chi is u over chi
        ctx = GroupContext(5, 2)
        chi = C(1, 2)
        twice = chi.scaled(2, ctx.p)
        assert span_rank(*encode([SuperMonomial.t(chi), SuperMonomial.t(twice)]), 2, ctx) == 1
        assert span_rank(*encode([SuperMonomial.u(chi), SuperMonomial.u(twice)]), 1, ctx) == 1

    def test_inhomogeneous_rejected(self):
        ms = [SuperMonomial.t(LINES32[0]), SuperMonomial.u(LINES32[0])]
        with pytest.raises(ValueError, match="weight 2"):
            span_rank(*encode(ms), 2, CTX32)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        codes = monomial_codes(len(LINES32), 3)
        base = span_rank(LINES32, codes, 3, CTX32)
        for _ in range(3):
            assert span_rank(LINES32, rng.permutation(codes), 3, CTX32) == base


def reference_span_rank(ms, ctx):
    """Reference rank by the fraction arithmetic: embed every monomial, clear
    all images to one global componentwise-max denominator with
    PolyExtElement products, and eliminate the sparse numerators with
    RowReducer."""
    images = [embed(m, ctx) for m in ms]
    lines = sorted({L for _, denom in images for L in denom})
    dmax = {L: max(denom.get(L, 0) for _, denom in images) for L in lines}
    cleared = []
    for num, denom in images:
        for L in lines:
            for _ in range(dmax[L] - denom.get(L, 0)):
                num = num * euler_class(L, ctx)
        cleared.append(num)
    cols = sorted({key for num in cleared for key in num.terms})
    col_of = {key: i for i, key in enumerate(cols)}
    red = RowReducer(len(cols), ctx.p)
    for num in cleared:
        red.add_row((col_of[key], c) for key, c in num.terms.items())
    return red.rank


SHAPES = [(3, 1), (3, 2), (5, 2), (7, 2), (3, 3)]


@st.composite
def monomial_sets(draw):
    """Monomials of one weight on random keys: lines, or raw characters with
    two scalar multiples of one line among them (u on both is a zero row);
    a random subset of free_monomials with duplicates, shuffled."""
    p, n = draw(st.sampled_from(SHAPES))
    ctx = GroupContext(p, n)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = enumerate_lines(ctx)
    chosen = rng.sample(lines, rng.randint(1, min(4, len(lines))))
    if draw(st.booleans()):
        keys = [L.rep.scaled(rng.randrange(1, p), p) for L in chosen]
        keys = sorted(keys + [keys[0].scaled(p - 1, p)])
    else:
        keys = chosen
    weight = draw(st.integers(0, 4 if n == 3 else 5))
    pool = free_monomials(keys, weight)
    ms = rng.sample(pool, rng.randint(0, len(pool)))
    ms += [rng.choice(pool) for _ in range(rng.randint(0, 3))]
    rng.shuffle(ms)
    return ctx, weight, ms


@st.composite
def character_sets_with_dead_block(draw):
    """Monomials of one weight on raw characters, two of them, a and b,
    multiples of one line: every row of one dx-degree k >= 2 has u on both
    a and b, so the whole block embeds to 0; the other rows are a random
    subset of free_monomials."""
    p, n = draw(st.sampled_from(SHAPES))
    ctx = GroupContext(p, n)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = enumerate_lines(ctx)
    chosen = rng.sample(lines, rng.randint(1, min(4, len(lines))))
    a = chosen[0].rep.scaled(rng.randrange(1, p), p)
    b = a.scaled(rng.randrange(2, p), p)
    keys = sorted({a, b} | {L.rep.scaled(rng.randrange(1, p), p) for L in chosen[1:]})
    weight = draw(st.integers(2, 4 if n == 3 else 5))
    if weight % 2 and len(keys) < 3:
        weight -= 1  # u on a and b needs a third odd generator
    codes = monomial_codes(len(keys), weight)
    odd = codes & 1
    dx_degree = odd.sum(axis=1)
    both = (odd[:, keys.index(a)] & odd[:, keys.index(b)]).astype(bool)
    dead = rng.choice(sorted(set(dx_degree[both].tolist())))
    pick = np.array([rng.random() < 0.5 for _ in range(len(codes))], dtype=bool)
    pick[np.flatnonzero(both & (dx_degree == dead))[0]] = True
    pick &= (dx_degree != dead) | both
    rows = np.flatnonzero(pick)
    rng.shuffle(rows)
    pool = free_monomials(keys, weight)
    ms = [pool[r] for r in rows]
    return ctx, weight, keys, codes[rows], ms


class TestSpanRankAgainstReference:
    @given(monomial_sets())
    def test_random_monomial_sets(self, case):
        ctx, weight, ms = case
        assert span_rank(*encode(ms), weight, ctx) == reference_span_rank(ms, ctx)

    @given(monomial_sets(), st.integers(0, 2**32 - 1))
    def test_relation_image_vanishes_only_on_dependent_monomials(self, case, seed):
        # relation_image clears a combination to one denominator with
        # PolyExtElement products; span_rank builds dense rows.  A zero
        # image of a combination with every coefficient nonzero makes the
        # distinct monomials dependent, so their rank falls short.
        ctx, weight, ms = case
        ms = sorted(set(ms))
        assume(ms)
        rng = random.Random(seed)
        combination = SuperElement(ctx.p, {m: rng.randrange(1, ctx.p) for m in ms})
        zero = relation_image(combination, ctx).is_zero()
        keys = encode(ms)[0]
        assert vanishing(Presentation.from_elements(ctx, keys, [combination])).tolist() == [zero]
        if zero:
            assert span_rank(*encode(ms), weight, ctx) < len(ms)

    @given(character_sets_with_dead_block())
    def test_character_keys_with_a_dead_block(self, case):
        ctx, weight, keys, codes, ms = case
        assert span_rank(keys, codes, weight, ctx) == reference_span_rank(ms, ctx)

    @pytest.mark.parametrize("p,n,w", [(3, 2, 6), (5, 2, 5), (3, 3, 4)])
    def test_full_free_monomial_sets(self, p, n, w):
        ctx = GroupContext(p, n)
        lines = enumerate_lines(ctx)
        codes = monomial_codes(len(lines), w)
        assert span_rank(lines, codes, w, ctx) == reference_span_rank(free_monomials(lines, w), ctx)

    @given(st.sampled_from([(3, 3), (5, 2), (7, 2)]), st.integers(0, 2**32 - 1))
    def test_ro_dimension_monomial_sets(self, shape, seed):
        ctx = GroupContext(*shape)
        rng = random.Random(seed)
        labels = rograde.enumerate_irrep_labels(ctx)
        mults: dict[Character, int] = {}
        for label in rng.sample(labels, rng.randint(1, min(4, len(labels)))):
            mults[label.rep] = rng.randint(1, 2)
        total = sum(mults.values())
        md = rograde.multidegree(ctx, mults, rng.randint(total, 2 * total))
        words = ro_words(ctx, md)
        expected = reference_span_rank(words, ctx) if words else 0
        assert rograde.ro_dimension(ctx, md) == expected

    def test_float64_bound_refuses_the_largest_int64_prime(self):
        # (p-1)^2 + p >= 2^53 for p = 2^31 - 1: span_rank must refuse rather
        # than return a wrong rank
        p = 2**31 - 1
        ctx = GroupContext(p, 2)
        keys = sorted(Line(Character(c)) for c in [(1, 0), (0, 1), (1, 1), (p - 2, 1)])
        with pytest.raises(ValueError, match="2\\^53"):
            span_rank(keys, monomial_codes(len(keys), 2), 2, ctx)

    def test_wide_block_above_the_old_width_bound_goes_through_rref(self, monkeypatch):
        # The squares t^2 on three lines of the plane form one block of 3
        # rows and width 5 (quartics in x1, x2).  At the largest
        # prime with 3*(p-1)^2 + p < 2^53, width*(p-1)^2 >= 2^53, and rref
        # still eliminates the block exactly.
        calls = []
        real_rref = oracle.rref

        def spy_rref(rows, p):
            calls.append(rows.shape)
            return real_rref(rows, p)

        monkeypatch.setattr(oracle, "rref", spy_rref)
        p = next(p for p in range(isqrt(2**53 // 3), 2, -1)
                 if 3 * (p - 1) ** 2 + p < 2**53 and is_prime(p))
        assert 5 * (p - 1) ** 2 >= 2**53
        ctx = GroupContext(p, 2)
        keys = sorted(Line(Character(c)) for c in [(1, 0), (0, 1), (1, 1)])
        ms = [SuperMonomial(((key, 2),), ()) for key in keys]
        assert span_rank(*encode(ms), 4, ctx) == reference_span_rank(ms, ctx) == 3
        assert calls == [(3, 5)]

    def test_two_lines_on_a_wide_short_block(self):
        # The odd block is 20 rows by 9240 columns, 9240*(p-1)^2 >= 2^53;
        # two independent lines give w + 1 at weight w.
        ctx = GroupContext(1048573, 4)
        keys = sorted(line_of(C(*c), ctx) for c in [(1, 1, 0, 0), (1, 0, 1, 1)])
        assert span_rank(keys, monomial_codes(len(keys), 40), 40, ctx) == 41

    def test_prime_too_large_for_int64_rejected(self):
        ctx = GroupContext(2147483659, 2)  # 2*(p-1)^2 >= 2^63
        with pytest.raises(ValueError, match="2\\^53"):
            span_rank(*encode([SuperMonomial.t(Line(Character((1, 0))))]), 2, ctx)

    def test_prime_between_one_and_n_products_refused(self):
        # (p-1)^2 + p < 2^53 <= 2*(p-1)^2 + p: one product of two residues
        # is exact, but an entry of a product of linear forms in two
        # variables gathers two
        p = 67108879
        assert is_prime(p) and (p - 1) ** 2 + p < 2**53 <= 2 * (p - 1) ** 2 + p
        ctx = GroupContext(p, 2)
        with pytest.raises(ValueError, match="2\\^53"):
            span_rank(*encode([SuperMonomial.t(Line(Character((1, 0))))]), 2, ctx)

    def test_times_accumulate_over_calls(self):
        ctx = GroupContext(3, 2)
        keys = sorted(enumerate_lines(ctx))
        times = {}
        for w in range(5):
            codes = monomial_codes(len(keys), w)
            assert span_rank(keys, codes, w, ctx, times) == span_rank(keys, codes, w, ctx)
        first = dict(times)
        assert set(first) == {"rows_s", "elim_s"} and min(first.values()) > 0
        span_rank(keys, monomial_codes(len(keys), 4), 4, ctx, times)
        assert all(times[key] > first[key] for key in first)


class TestBlockShapes:
    @pytest.mark.parametrize(
        "p, n, w, size",
        [(3, 3, 5, None), (7, 2, 5, None), (5, 2, 6, None), (5, 3, 2, None),
         (3, 3, 5, 4), (3, 3, 4, 6), (3, 3, 3, 6)],
    )
    def test_closed_form_against_the_built_blocks(self, p, n, w, size, monkeypatch):
        # columns equal the built ones, rows bound them; a block past dx-degree
        # n has no columns and no closed form
        built = {}
        real_numerators = oracle._numerators

        def spy_numerators(comps, odd, coords, p):
            rows, live = real_numerators(comps, odd, coords, p)
            built[int(odd[0].sum())] = rows.shape
            return rows, live

        monkeypatch.setattr(oracle, "_numerators", spy_numerators)
        ctx = GroupContext(p, n)
        lines = enumerate_lines(ctx)
        if size is not None:
            lines = sorted(random.Random(w).sample(lines, size))
        span_rank(lines, monomial_codes(len(lines), w), w, ctx)
        shapes = oracle.block_shapes(len(lines), w, n)
        assert set(shapes) == {k for k, (_, cols) in built.items() if cols}
        for k, (rows, cols) in shapes.items():
            assert built[k][1] == cols and built[k][0] <= rows

    def test_example_shape(self):
        assert oracle.block_shapes(13, 5, 3) == {1: (1183, 2109), 3: (3718, 276)}


class TestSubringHilbert:
    def test_rank_one_all_ones(self):
        ctx = GroupContext(3, 1)
        assert subring_hilbert(enumerate_lines(ctx), 6, ctx) == (1,) * 7

    def test_full_plane_matches_series(self):
        assert subring_hilbert(LINES32, 4, CTX32) == (1, 4, 7, 10, 13)

    def test_two_independent_lines(self):
        S = [line_of(C(1, 0), CTX32), line_of(C(0, 1), CTX32)]
        assert subring_hilbert(S, 5, CTX32) == (1, 2, 3, 4, 5, 6)

    def test_monotone_in_line_set(self):
        cutoff = 4
        subsets = [LINES32[:1], LINES32[:2], LINES32[:3], LINES32]
        tables = [subring_hilbert(S, cutoff, CTX32) for S in subsets]
        for small, big in zip(tables, tables[1:]):
            assert all(a <= b for a, b in zip(small, big))


def reference_times_x(n, s):
    """The table _times_x built from dicts: each degree-s monomial, as a
    sorted tuple of variable indices, mapped to its index; for each
    degree-(s+1) monomial and each variable in it, the index of the quotient
    and the sign 1, and 0 and 0 for the other variables."""
    lower = {
        mono: j for j, mono in enumerate(itertools.combinations_with_replacement(range(n), s))
    }
    source, sign = [], []
    for i in range(n):
        source.append([])
        sign.append([])
        for mono in itertools.combinations_with_replacement(range(n), s + 1):
            quotient = list(mono)
            if i in quotient:
                quotient.remove(i)
            source[-1].append(lower.get(tuple(quotient), 0))
            sign[-1].append(int(i in mono))
    return np.array(source).reshape(n, -1), np.array(sign).reshape(n, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_times_x_matches_the_dict_built_table(n):
    for s in range(7):
        source, sign = oracle._times_x(n, s)
        ref_source, ref_sign = reference_times_x(n, s)
        assert np.array_equal(source, ref_source) and np.array_equal(sign, ref_sign), (n, s)


def reference_wedge_x(n, s):
    """The table _wedge_x built from dicts and merge_odd: for each
    (s+1)-subset J and each i in it, the index of J - i and the sign of
    dx_(J - i) ^ dx_i, and 0 and 0 for the i outside J."""
    lower = {sub: j for j, sub in enumerate(itertools.combinations(range(n), s))}
    source, sign = [], []
    for i in range(n):
        source.append([])
        sign.append([])
        for sub in itertools.combinations(range(n), s + 1):
            rest = tuple(a for a in sub if a != i)
            c, merged = merge_odd(rest, (i,))
            in_sub = merged == sub
            source[-1].append(lower[rest] if in_sub else 0)
            sign[-1].append(c if in_sub else 0)
    return np.array(source).reshape(n, -1), np.array(sign).reshape(n, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wedge_x_matches_the_dict_built_table(n):
    for s in range(n + 2):
        source, sign = oracle._wedge_x(n, s)
        ref_source, ref_sign = reference_wedge_x(n, s)
        assert np.array_equal(source, ref_source) and np.array_equal(sign, ref_sign), (n, s)


def random_forms(rng, rows, degree, n, p):
    """rows x degree nonzero coefficient vectors in [0, p)^n."""
    forms = np.zeros((rows, degree, n))
    for r in range(rows):
        for f in range(degree):
            while not forms[r, f].any():
                forms[r, f] = [rng.randrange(p) for _ in range(n)]
    return forms


@given(st.integers(1, 4), st.sampled_from([3, 5, 7, 1048573]), st.integers(0, 2**32 - 1))
def test_products_of_linear_forms_match_euler_classes(n, p, seed):
    rng = random.Random(seed)
    ctx = GroupContext(p, n)
    degree = rng.randint(0, 6)
    forms = random_forms(rng, rng.randint(1, 3), degree, n, p)
    rows = oracle._products(forms, p, oracle._times_x)
    monomials = [tuple(e) for e in exponent_rows(n, degree).tolist()]
    assert rows.shape == (len(forms), len(monomials))
    for row, factors in zip(rows, forms):
        expected = PolyExtElement.one(p, n)
        for form in factors:
            expected = expected * euler_class(C(*map(int, form)), ctx)
        got = PolyExtElement(p, n, {(x, ()): int(c) for x, c in zip(monomials, row)})
        assert ((0 <= row) & (row < p)).all() and got == expected


@given(st.integers(1, 4), st.sampled_from([3, 5, 7, 1048573]), st.integers(0, 2**32 - 1))
def test_wedges_of_one_forms_match_d_euler_classes(n, p, seed):
    rng = random.Random(seed)
    ctx = GroupContext(p, n)
    degree = rng.randint(0, n + 1)
    forms = random_forms(rng, rng.randint(1, 3), degree, n, p)
    rows = oracle._products(forms, p, oracle._wedge_x)
    subsets = list(itertools.combinations(range(n), degree))
    assert rows.shape == (len(forms), len(subsets))
    zero = (0,) * n
    for row, factors in zip(rows, forms):
        expected = PolyExtElement.one(p, n)
        for form in factors:  # in order: the wedge is graded-commutative
            expected = expected * d_euler_class(C(*map(int, form)), ctx)
        got = PolyExtElement(p, n, {(zero, sub): int(c) for sub, c in zip(subsets, row)})
        assert ((0 <= row) & (row < p)).all() and got == expected
