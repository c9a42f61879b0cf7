"""Presentation of the geometric-fixed-point coefficient ring, its closed-form
Poincare series, and the three-way check presentation / oracle / closed form.

The presentation is generated by one even/odd pair per line; a zero-sum
character triple a+b+c = 0 on three distinct lines contributes one relation
of each flavor (even triple, three cyclic mixed variants, odd triple), with
scalar coefficients obtained by rewriting characters through the canonical
line reps: t over k*chi is 1/k times the line generator, u over k*chi is the
line generator on the nose.

Verbatim mode skips the line rewrite and keeps one generator pair per raw
character, with the scalar identifications t_chi = k*t_(k*chi) as explicit
relations and nothing identifying the u's; it exists to document how that
ideal diverges from both the oracle and the closed form (weight 1 already
has one dimension per character instead of one per line).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .charspace import (
    Character,
    GroupContext,
    Line,
    canonicalize,
    enumerate_characters,
    enumerate_lines,
    zero_sum_triples,
)
from .modp import inverse_mod
from .oracle import subring_hilbert
from .superalg import Presentation, SuperElement, SuperMonomial, quotient_dimension


def _t(p: int, key, scale_inv: int = 1) -> SuperElement:
    return SuperElement.from_monomial(p, SuperMonomial.t(key), scale_inv)


def _u(p: int, key) -> SuperElement:
    return SuperElement.from_monomial(p, SuperMonomial.u(key))


def relation_families(
    triple: tuple[Character, Character, Character],
    ctx: GroupContext,
    rewrite_to_lines: bool = True,
) -> list[SuperElement]:
    """The five relations attached to one zero-sum character triple: the even
    triple, the three cyclic mixed variants, and the odd triple.

    With rewrite_to_lines the generators are the canonical lines and scalars
    move into coefficients; otherwise the raw characters are the keys.
    Identically-zero instantiations (every collinear triple rewrites to 0)
    are filtered out by the caller.
    """
    p = ctx.p
    if any(sum(cs) % p for cs in zip(*(chi.coords for chi in triple))):
        raise ValueError("characters must sum to zero")
    if rewrite_to_lines:
        keys = []
        t_coeffs = []
        for chi in triple:
            line, scale = canonicalize(chi, ctx)
            keys.append(line)
            t_coeffs.append(inverse_mod(scale, p))
    else:
        keys = list(triple)
        t_coeffs = [1, 1, 1]

    def t(i):
        return _t(p, keys[i], t_coeffs[i])

    def u(i):
        return _u(p, keys[i])

    rels = [t(0) * t(1) + t(1) * t(2) + t(2) * t(0)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        rels.append(u(i) * t(j) + u(i) * t(k) - u(j) * t(k) - u(k) * t(j))
    rels.append(u(0) * u(1) + u(1) * u(2) + u(2) * u(0))
    return rels


def line_presentation(ctx: GroupContext, lines) -> Presentation:
    """Presentation on the given lines whose relations are exactly the
    triple families instantiated on zero-sum triples inside the set."""
    lines = tuple(sorted(set(lines)))
    relations = []
    for l1, l2, l3, a, b, c in zero_sum_triples(lines, ctx):
        triple = (
            l1.rep.scaled(a, ctx.p),
            l2.rep.scaled(b, ctx.p),
            l3.rep.scaled(c, ctx.p),
        )
        for rel in relation_families(triple, ctx, rewrite_to_lines=True):
            if not rel.is_zero():
                relations.append(rel)
    return Presentation(ctx, lines, tuple(relations))


def character_zero_sum_triples(ctx: GroupContext) -> list[tuple[Character, Character, Character]]:
    """All unordered triples of nonzero characters summing to zero,
    collinear ones included."""
    chars = list(enumerate_characters(ctx))
    seen = set()
    out = []
    for alpha in chars:
        for beta in chars:
            gamma_coords = tuple((-a - b) % ctx.p for a, b in zip(alpha.coords, beta.coords))
            if not any(gamma_coords):
                continue
            gamma = Character(gamma_coords)
            key = tuple(sorted((alpha, beta, gamma)))
            if key in seen:
                continue
            seen.add(key)
            out.append(key)
    return out


def verbatim_presentation(ctx: GroupContext) -> Presentation:
    """One generator pair per raw character; relations are the literal four
    families: scalar identifications of the t's and the three triple flavors
    over every zero-sum character triple."""
    p = ctx.p
    chars = tuple(enumerate_characters(ctx))
    relations = []
    for chi in chars:
        for k in range(2, p):
            rel = _t(p, chi) - _t(p, chi.scaled(k, p), k)
            if not rel.is_zero():
                relations.append(rel)
    for triple in character_zero_sum_triples(ctx):
        for rel in relation_families(triple, ctx, rewrite_to_lines=False):
            if not rel.is_zero():
                relations.append(rel)
    return Presentation(ctx, chars, tuple(relations))


def build_phi_presentation(ctx: GroupContext, verbatim_mode: bool = False) -> Presentation:
    if verbatim_mode:
        return verbatim_presentation(ctx)
    return line_presentation(ctx, enumerate_lines(ctx))


def closed_form_series(ctx: GroupContext, cutoff: int) -> tuple[int, ...]:
    """Coefficients, weights 0..cutoff, of the exact expansion of
    prod_{i=1..n} (1 + (p^(i-1)-1) x) / (1-x)^n."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    numerator = [1]
    for i in range(1, ctx.n + 1):
        c = ctx.p ** (i - 1) - 1
        numerator = [a + c * b for a, b in zip(numerator + [0], [0] + numerator)]
    coeffs = []
    for w in range(cutoff + 1):
        total = sum(
            numerator[j] * comb(w - j + ctx.n - 1, ctx.n - 1)
            for j in range(min(w, len(numerator) - 1) + 1)
        )
        coeffs.append(total)
    return tuple(coeffs)


@dataclass(frozen=True)
class Comparison:
    """Oracle and presentation dimensions of the subring on `lines`, weight
    by weight, and the closed form where there is one (None otherwise)."""

    lines: tuple[Line, ...]
    oracle: tuple[int, ...]
    presentation: tuple[int, ...]
    closed_form: tuple[int, ...] | None = None

    @property
    def equal(self) -> tuple[bool, ...]:
        routes = [self.oracle, self.presentation]
        if self.closed_form is not None:
            routes.append(self.closed_form)
        return tuple(len(set(dims)) == 1 for dims in zip(*routes))

    @property
    def ok(self) -> bool:
        return all(self.equal)

    @property
    def mismatched_weights(self) -> tuple[int, ...]:
        return tuple(w for w, good in enumerate(self.equal) if not good)


def compare_routes(
    ctx: GroupContext,
    lines,
    pres: Presentation,
    cutoff: int,
    closed_form: tuple[int, ...] | None = None,
) -> Comparison:
    """Oracle Hilbert function of the subring on `lines` against the
    quotient dimensions of `pres`, weights 0..cutoff.

    Every relation vanishes in the oracle, so oracle <= presentation holds
    weightwise; it is checked unconditionally, and a weight where it fails
    means one of the two routes computed a wrong number (RuntimeError).
    Equality is reported, never repaired.
    """
    oracle_dims = subring_hilbert(lines, cutoff, ctx)
    pres_dims = tuple(quotient_dimension(pres, w) for w in range(cutoff + 1))
    for w, (o, q) in enumerate(zip(oracle_dims, pres_dims)):
        if o > q:
            raise RuntimeError(
                "oracle dimension %d exceeds presentation dimension %d at weight %d" % (o, q, w)
            )
    return Comparison(tuple(lines), oracle_dims, pres_dims, closed_form)


def verify_phi(ctx: GroupContext, cutoff: int, verbatim_mode: bool = False) -> Comparison:
    """Three-way comparison closed form / presentation / oracle up to the
    cutoff; weightwise equality of all three tables certifies the
    presentation through the cutoff.
    """
    closed = closed_form_series(ctx, cutoff)
    pres = build_phi_presentation(ctx, verbatim_mode)
    return compare_routes(ctx, enumerate_lines(ctx), pres, cutoff, closed)
