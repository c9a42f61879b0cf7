"""Presentation of the geometric-fixed-point coefficient ring, its closed-form
Poincare series, and the three-way check presentation / oracle / closed form.

The presentation is generated by one even/odd pair per line; a zero-sum
character triple a+b+c = 0 on three distinct lines contributes one relation
of each flavor (even triple, three cyclic mixed variants, odd triple), with
scalar coefficients obtained by rewriting characters through the canonical
line reps: t over k*chi is 1/k times the line generator, u over k*chi is the
line generator on the nose.  The families of all triples are written at once
as a superalg term table, 18 terms per triple, with no SuperElement
arithmetic.

Verbatim mode skips the line rewrite and keeps one generator pair per raw
character, with the scalar identifications t_chi = k*t_(k*chi) as explicit
relations and nothing identifying the u's; it exists to document how that
ideal diverges from both the oracle and the closed form (weight 1 already
has one dimension per character instead of one per line).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .charspace import (
    GroupContext,
    Line,
    enumerate_characters,
    enumerate_lines,
    zero_sum_triples,
)
from .modp import inverses_mod
from .oracle import subring_hilbert, vanishing
from .superalg import Presentation, quotient_dimension

# The five relation families of a zero-sum triple, in order: the even
# triple, the three cyclic mixed variants and the odd triple, 18 terms in
# all.  A term is (family, slot a, kind a, slot b, kind b, sign): sign
# times the product of generator kind a of the triple's slot a with
# generator kind b of slot b, a kind being 2 for t and 1 for u, so that
# the two kinds add up to the term's code.
_T, _U = 2, 1
_TRIPLE_TERMS = (
    [(0, a, _T, b, _T, 1) for a, b in ((0, 1), (1, 2), (2, 0))]
    + [
        term
        for family, (i, j, k) in enumerate(((0, 1, 2), (1, 2, 0), (2, 0, 1)), start=1)
        for term in ((family, i, _U, j, _T, 1), (family, i, _U, k, _T, 1),
                     (family, j, _U, k, _T, -1), (family, k, _U, j, _T, -1))
    ]
    + [(4, a, _U, b, _U, 1) for a, b in ((0, 1), (1, 2), (2, 0))]
)
_FAMILIES = 5


def _triple_table(positions: np.ndarray, t_coefs: np.ndarray, width: int):
    """The term table (codes, coefficients, relation ids) of the five
    families on each triple: positions[r] holds the code columns of triple
    r's three generators and t_coefs[r] the scalars its t's carry; triple r
    owns relations 5r to 5r + 4.

    A product u_a u_b takes the Koszul sign of putting its factors in key
    order: -1 when b comes first, and 0 when a and b are one generator (u
    squares to 0); such a zero term's code reads as a t, and normalising
    drops it."""
    family, slot_a, kind_a, slot_b, kind_b, sign = np.array(_TRIPLE_TERMS).T
    pos_a, pos_b = positions[:, slot_a], positions[:, slot_b]
    coefs = (sign * np.where(kind_a == _T, t_coefs[:, slot_a], 1)
             * np.where(kind_b == _T, t_coefs[:, slot_b], 1))
    coefs = np.where((kind_a == _U) & (kind_b == _U), coefs * np.sign(pos_b - pos_a), coefs)
    terms = np.arange(pos_a.size)
    codes = np.zeros((pos_a.size, width), dtype=np.uint8)
    codes[terms, pos_a.ravel()] = np.tile(kind_a, len(positions))
    codes[terms, pos_b.ravel()] += np.tile(kind_b, len(positions)).astype(np.uint8)
    rel = (_FAMILIES * np.arange(len(positions))[:, None] + family).ravel()
    return codes, coefs.ravel(), rel


def line_presentation(ctx: GroupContext, lines) -> Presentation:
    """Presentation on the given lines whose relations are exactly the
    triple families instantiated on zero-sum triples inside the set.

    A triple a*L1 + b*L2 + L3 = 0 has characters a*L1.rep, b*L2.rep and
    L3.rep: t over k*chi is 1/k times the line's t, u over it is the line's
    u, so the t's carry 1/a, 1/b and 1.  Its lines come in key order, so the
    only Koszul sign is the -1 on u_L3 u_L1."""
    lines = tuple(sorted(set(lines)))
    triples = zero_sum_triples(lines, ctx)
    t_coefs = np.ones((len(triples), 3), dtype=np.int64)
    t_coefs[:, :2] = inverses_mod(triples[:, 3:], ctx.p)
    return Presentation(ctx, lines, *_triple_table(triples[:, :3], t_coefs, max(len(lines), 1)))


def character_zero_sum_triples(ctx: GroupContext) -> np.ndarray:
    """All unordered triples of nonzero characters summing to zero,
    collinear and repeated ones included, as rows i <= j <= k of indices in
    enumerate_characters order, rows in lex order.  Character c has index
    sum_d c_d*p^(n-1-d) - 1; each pair i <= j keeps the index k of
    gamma = -alpha-beta, found digit by digit, when k >= j (gamma = 0 gives
    k = -1)."""
    p = ctx.p
    i, j = np.triu_indices(ctx.num_characters)
    k = np.full(len(i), -1)
    for place in p ** np.arange(ctx.n):
        k += (-((i + 1) // place) - (j + 1) // place) % p * place
    keep = k >= j
    return np.stack((i[keep], j[keep], k[keep]), axis=1)


def verbatim_presentation(ctx: GroupContext) -> Presentation:
    """One generator pair per raw character; relations are the literal four
    families: scalar identifications of the t's and the three triple flavors
    over every zero-sum character triple.

    The scalar identification t_chi = k*t_(k*chi), for k = 2..p-1, comes
    first for each character; the triple families follow, with every t
    carrying 1.  Normalising cancels what a collinear triple makes 0."""
    p = ctx.p
    chars = tuple(enumerate_characters(ctx))
    index = {chi: i for i, chi in enumerate(chars)}
    scalings = [(index[chi], index[chi.scaled(k, p)], k) for chi in chars for k in range(2, p)]
    scalar_pos = np.array([(i, j) for i, j, _ in scalings], dtype=np.intp).reshape(-1)
    scalar_codes = np.zeros((len(scalar_pos), len(chars)), dtype=np.uint8)
    scalar_codes[np.arange(len(scalar_pos)), scalar_pos] = _T
    scalar_coefs = np.array([c for *_, k in scalings for c in (1, -k)], dtype=np.int64)
    scalar_rel = np.repeat(np.arange(len(scalings)), 2)
    positions = character_zero_sum_triples(ctx)
    codes, coefs, rel = _triple_table(positions, np.ones_like(positions), len(chars))
    return Presentation(
        ctx,
        chars,
        np.concatenate((scalar_codes, codes)),
        np.concatenate((scalar_coefs, coefs)),
        np.concatenate((scalar_rel, len(scalings) + rel)),
    )


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

    oracle <= presentation holds weightwise when every relation vanishes in
    the oracle.  Both are checked unconditionally: oracle.vanishing checks
    the relations of weight <= cutoff, the only ones that bear on these
    weights, and then each weight is compared.  A relation that does not
    vanish, or a weight where the oracle exceeds the presentation, means
    one of the two routes computed a wrong number (RuntimeError).  Equality
    is reported, never repaired.
    """
    vanished = vanishing(pres, cutoff)
    if not vanished.all():
        bad = np.flatnonzero(pres.relation_weights <= cutoff)[np.argmin(vanished)]
        raise RuntimeError("relation %d, of weight %d, does not vanish in the oracle"
                           % (bad, pres.relation_weights[bad]))
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
