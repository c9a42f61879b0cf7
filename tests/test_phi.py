import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phiring.charspace import Character, GroupContext, enumerate_characters, enumerate_lines
from phiring.phi import (
    Comparison,
    build_phi_presentation,
    character_zero_sum_triples,
    closed_form_series,
    line_presentation,
    verbatim_presentation,
    verify_phi,
)
from phiring.superalg import Presentation, SuperElement, free_monomial_count, quotient_dimension
from relation_reference import (
    line_relations,
    relation_families,
    relation_image,
    verbatim_relations,
)

CTX32 = GroupContext(3, 2)


def C(*coords):
    return Character(tuple(coords))


class TestPresentationShape:
    def test_rank_one_free_on_one_pair(self):
        pres = build_phi_presentation(GroupContext(3, 1))
        assert len(pres.gens) == 1
        assert pres.relations == ()

    def test_p3_n2_relation_counts(self):
        pres = build_phi_presentation(CTX32)
        by_weight = {}
        for rel in pres.relations:
            by_weight[rel.weight()] = by_weight.get(rel.weight(), 0) + 1
        assert by_weight == {4: 4, 3: 12, 2: 4}  # even triples, mixed, odd triples

    def test_p3_n3_triple_count_matches_rank2_enumeration(self):
        from phiring.charspace import zero_sum_triples

        ctx = GroupContext(3, 3)
        triples = zero_sum_triples(enumerate_lines(ctx), ctx)
        pres = build_phi_presentation(ctx)
        assert len(pres.relations) == 5 * len(triples)

    def test_cyclic_mixed_variants_sum_to_zero(self):
        triple = (C(1, 0), C(0, 1), C(2, 2))
        rels = relation_families(triple, CTX32)
        mixed = rels[1:4]
        total = SuperElement.zero(3)
        for rel in mixed:
            total = total + rel
        assert total.is_zero()

    def test_relations_demand_zero_sum(self):
        with pytest.raises(ValueError):
            relation_families((C(1, 0), C(0, 1), C(1, 1)), CTX32)


PHI_CONTEXTS = [GroupContext(p, n) for p, n in ((3, 2), (5, 2), (7, 2), (3, 3), (5, 3))]


class TestTermTableAgainstReference:
    """The term tables decode to the relations the SuperElement reference
    builds, in order, coefficients and signs included."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_line_subsets(self, data):
        ctx = data.draw(st.sampled_from(PHI_CONTEXTS), label="ctx")
        lines = data.draw(st.sets(st.sampled_from(enumerate_lines(ctx)), max_size=9), label="lines")
        pres = line_presentation(ctx, lines)
        assert pres.relations == line_relations(ctx, lines)
        assert pres.gens == tuple(sorted(lines))

    @pytest.mark.parametrize("ctx", PHI_CONTEXTS, ids=str)
    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_too_few_lines_give_an_empty_table(self, ctx, size):
        pres = line_presentation(ctx, enumerate_lines(ctx)[:size])
        assert pres.relations == () and pres.codes.shape == (0, max(size, 1))
        assert quotient_dimension(pres, 3) == free_monomial_count(size, 3)

    @pytest.mark.parametrize("ctx", PHI_CONTEXTS[:2], ids=str)
    def test_verbatim(self, ctx):
        assert verbatim_presentation(ctx).relations == verbatim_relations(ctx)

    def test_collinear_character_triples_cancel(self):
        # at p = 3, chi + chi + chi = 0: its even relation 3*t_chi^2 and its
        # odd relation are 0 and dropped, its mixed ones survive
        ctx = GroupContext(3, 1)
        assert len(verbatim_relations(ctx)) == len(verbatim_presentation(ctx).relations) > 0


class TestVerbatimPresentation:
    def test_one_generator_pair_per_character(self):
        pres = verbatim_presentation(CTX32)
        assert len(pres.gens) == 8

    def test_scalar_family_is_present_and_vanishes_in_oracle(self):
        pres = verbatim_presentation(CTX32)
        weight2_scalar = [
            rel
            for rel in pres.relations
            if rel.weight() == 2 and all(not m.u_set for m in rel.terms)
            and all(sum(e for _, e in m.t_exp) == 1 for m in rel.terms)
        ]
        assert weight2_scalar  # the t_chi - k t_(k chi) family
        for rel in weight2_scalar:
            assert relation_image(rel, CTX32).is_zero()

    def test_all_verbatim_relations_vanish(self):
        for ctx in (CTX32, GroupContext(5, 2)):
            pres = verbatim_presentation(ctx)
            for rel in pres.relations:
                assert relation_image(rel, ctx).is_zero()

    def test_character_triples_include_collinear(self):
        ctx = GroupContext(5, 1)
        chars = list(enumerate_characters(ctx))
        triples = character_zero_sum_triples(ctx)
        # rank-1 case: every zero-sum triple is collinear by definition
        assert len(triples)
        for triple in triples:
            coords = [sum(cs) % 5 for cs in zip(*(chars[i].coords for i in triple))]
            assert not any(coords)


class TestClosedForm:
    def test_rank_one_all_ones(self):
        assert closed_form_series(GroupContext(3, 1), 6) == (1,) * 7

    def test_p3_n2_arithmetic_progression(self):
        got = closed_form_series(CTX32, 8)
        assert got == tuple(3 * w + 1 for w in range(9))

    def test_p3_n3_expansion(self):
        got = closed_form_series(GroupContext(3, 3), 3)
        assert got == (1, 13, 52, 118)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_weight_one_counts_lines(self, p, n):
        ctx = GroupContext(p, n)
        assert closed_form_series(ctx, 1)[1] == len(enumerate_lines(ctx))

    def test_unital_check(self):
        # a unital ring has dimension 1 in weight 0
        for p, n in [(3, 1), (3, 3), (5, 2), (7, 4)]:
            assert closed_form_series(GroupContext(p, n), 0) == (1,)


class TestVerify:
    def test_rank_one_three_way_equality(self):
        rep = verify_phi(GroupContext(3, 1), 8)
        assert rep.ok
        assert rep.closed_form == rep.presentation == rep.oracle == (1,) * 9

    def test_p3_n2_three_way_equality(self):
        rep = verify_phi(CTX32, 6)
        assert rep.ok
        assert rep.closed_form == (1, 4, 7, 10, 13, 16, 19)
        assert rep.mismatched_weights == ()

    def test_closed_form_is_a_third_route_when_given(self):
        rep = Comparison((), oracle=(1, 2, 3), presentation=(1, 2, 3), closed_form=(1, 2, 4))
        assert rep.equal == (True, True, False)
        assert rep.mismatched_weights == (2,)
        assert not rep.ok
        assert Comparison((), oracle=(1, 2, 3), presentation=(1, 2, 3)).ok

    def test_verbatim_mismatch_is_reported(self):
        rep = verify_phi(CTX32, 2, verbatim_mode=True)
        assert not rep.ok
        assert rep.presentation[1] == 8
        assert rep.closed_form[1] == rep.oracle[1] == 4
        assert 1 in rep.mismatched_weights

    def test_verbatim_weight_one_has_no_relations_below_weight_two(self):
        pres = verbatim_presentation(CTX32)
        assert min(rel.weight() for rel in pres.relations) == 2
        assert quotient_dimension(pres, 1) == 8


class TestDominationCheck:
    def test_presentation_below_oracle_raises(self, monkeypatch):
        import phiring.phi as phi_module

        monkeypatch.setattr(phi_module, "quotient_dimension", lambda pres, w: 0)
        with pytest.raises(RuntimeError, match="exceeds presentation dimension 0 at weight 0"):
            verify_phi(CTX32, 2)

    def test_check_survives_optimized_mode(self):
        # python -O strips assert statements; the check must still raise
        code = (
            "import phiring.phi as m\n"
            "from phiring.charspace import GroupContext\n"
            "m.quotient_dimension = lambda pres, w: 0\n"
            "m.verify_phi(GroupContext(3, 1), 1)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode != 0
        assert "RuntimeError: oracle dimension" in proc.stderr


def scaled_term(pres, term=0):
    """pres with the coefficient of one stored term doubled."""
    coefs = pres.coefs.copy()
    coefs[term] *= 2
    return Presentation(pres.ctx, pres.gens, pres.codes, coefs, pres.rel)


class TestVanishingGate:
    """compare_routes checks that the relations vanish in the oracle before
    it compares dimensions: a presentation with one scaled term raises on
    both of its paths."""

    def test_verify_phi_raises(self, monkeypatch):
        import phiring.phi as phi_module

        build = phi_module.build_phi_presentation
        monkeypatch.setattr(phi_module, "build_phi_presentation",
                            lambda ctx, verbatim_mode=False: scaled_term(build(ctx, verbatim_mode)))
        with pytest.raises(RuntimeError, match="relation 4, of weight 2, does not vanish"):
            verify_phi(CTX32, 4)

    def test_localized_hilbert_raises(self, monkeypatch):
        from phiring import rograde

        ctx = GroupContext(3, 3)
        lines = enumerate_lines(ctx)[:4]
        pres = line_presentation(ctx, lines)
        assert len(pres.relation_weights) and rograde.localized_hilbert(ctx, lines, 4).ok
        monkeypatch.setattr(rograde, "line_presentation",
                            lambda ctx, lines: scaled_term(line_presentation(ctx, lines)))
        with pytest.raises(RuntimeError, match="does not vanish in the oracle"):
            rograde.localized_hilbert(ctx, lines, 4)

    def test_relations_above_the_cutoff_are_not_checked(self, monkeypatch):
        import phiring.phi as phi_module

        pres = build_phi_presentation(CTX32)
        heavy = int(np.argmax(pres.relation_weights[pres.rel] == 4))  # a term of weight 4
        build = phi_module.build_phi_presentation
        monkeypatch.setattr(phi_module, "build_phi_presentation",
                            lambda ctx, verbatim_mode=False: scaled_term(build(ctx), heavy))
        assert verify_phi(CTX32, 3).ok
        with pytest.raises(RuntimeError, match="of weight 4, does not vanish"):
            verify_phi(CTX32, 4)

    def test_check_survives_optimized_mode(self):
        # python -O strips assert statements; the check must still raise
        code = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "import phiring.phi as m\n"
            "from phiring import cli\n"
            "from test_phi import scaled_term\n"
            "build = m.build_phi_presentation\n"
            "m.build_phi_presentation = lambda ctx, verbatim_mode=False: "
            "scaled_term(build(ctx, verbatim_mode))\n"
            "cli.main(['phi-verify', '--p', '3', '--n', '2', '--cutoff', '4'])\n"
        ) % str(Path(__file__).parent)
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode != 0 and proc.stdout == ""
        assert "RuntimeError: relation 4, of weight 2, does not vanish" in proc.stderr
