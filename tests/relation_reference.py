"""Reference for the relations of the phi presentations and their images
in the oracle.

The five triple families are written with SuperElement arithmetic, one
product at a time, on the triples of triple_reference.  phi builds the same
relations as a term table; its decoded relations must equal these exactly,
coefficients and signs included.  relation_image evaluates a relation in
the oracle by sparse fraction arithmetic (oracle.embed and PolyExtElement
products); oracle.vanishing must find the same relations vanish."""

from phiring.charspace import Character, GroupContext, Line, canonicalize, enumerate_characters
from phiring.modp import inverse_mod
from phiring.oracle import PolyExtElement, embed
from phiring.superalg import SuperElement, SuperMonomial
from triple_reference import character_zero_sum_triples, zero_sum_triples


def euler_class(chi: Character | Line, ctx: GroupContext) -> PolyExtElement:
    """The linear form z = sum_i coords_i * x_i attached to a character."""
    coords = chi.rep.coords if isinstance(chi, Line) else chi.coords
    terms = {}
    for i, c in enumerate(coords):
        if c % ctx.p:
            xexp = tuple(1 if j == i else 0 for j in range(ctx.n))
            terms[(xexp, ())] = c
    return PolyExtElement(ctx.p, ctx.n, terms)


def relation_image(rel: SuperElement, ctx: GroupContext) -> PolyExtElement:
    """Numerator of the image of rel, the linear extension of embed, over
    the componentwise max of its terms' denominators.  Every z is a nonzero
    divisor, so this is 0 exactly when the image is; the instantiated
    relations of a sound presentation land on 0."""
    images = [(c, *embed(m, ctx)) for m, c in rel.terms.items()]
    dmax: dict[Line, int] = {}
    for _, _, denom in images:
        for line, e in denom.items():
            dmax[line] = max(dmax.get(line, 0), e)
    acc = PolyExtElement.zero(ctx.p, ctx.n)
    for c, num, denom in images:
        for line, e in dmax.items():
            for _ in range(e - denom.get(line, 0)):
                num = num * euler_class(line, ctx)
        acc = acc + num.scale(c)
    return acc


def _t(p, key, scale_inv=1):
    return SuperElement.from_monomial(p, SuperMonomial.t(key), scale_inv)


def _u(p, key):
    return SuperElement.from_monomial(p, SuperMonomial.u(key))


def relation_families(triple, ctx, rewrite_to_lines=True):
    """The five relations attached to one zero-sum character triple: the even
    triple, the three cyclic mixed variants, and the odd triple.

    With rewrite_to_lines the generators are the canonical lines and scalars
    move into coefficients; otherwise the raw characters are the keys.
    Identically-zero instantiations are left in."""
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


def line_relations(ctx, lines):
    """The nonzero families on the zero-sum triples inside the line set, in
    triple order."""
    out = []
    for l1, l2, l3, a, b, c in zero_sum_triples(sorted(set(lines)), ctx):
        triple = (l1.rep.scaled(a, ctx.p), l2.rep.scaled(b, ctx.p), l3.rep.scaled(c, ctx.p))
        out.extend(rel for rel in relation_families(triple, ctx) if not rel.is_zero())
    return tuple(out)


def verbatim_relations(ctx):
    """The scalar identifications t_chi - k*t_(k*chi), then the nonzero
    families on every zero-sum character triple."""
    p = ctx.p
    out = []
    for chi in enumerate_characters(ctx):
        for k in range(2, p):
            rel = _t(p, chi) - _t(p, chi.scaled(k, p), k)
            if not rel.is_zero():
                out.append(rel)
    for triple in character_zero_sum_triples(ctx):
        out.extend(rel for rel in relation_families(triple, ctx, rewrite_to_lines=False)
                   if not rel.is_zero())
    return tuple(out)
