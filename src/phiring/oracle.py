"""The localized Borel-coefficient ring: the independent ground truth.

Coefficients of the Borel theory form F_p[x_1..x_n] tensor an exterior
algebra on dx_1..dx_n; inverting the Euler classes z_chi (the nonzero linear
forms in the x_i) yields the ring every presentation is checked against.
The even/odd generator pair attached to a line embeds as

    t = 1/z,    u = dz/z,

and every rank and vanishing question is settled on cleared numerators:
span_rank and relation_image each bring their images to one componentwise
max denominator and work on the numerators.  The z's are nonzero divisors,
so clearing is faithful and no fraction arithmetic is needed; embed gives a
monomial's image as the pair (numerator, denominator exponents).  span_rank
builds its numerators' products of linear forms and wedges of one-forms with
one float64 routine, _products, and eliminates them with modp.rref: both stay
exact under the package's one bound, modp.check_exact.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .charspace import Character, GroupContext, Line, canonicalize
from .modp import _SLAB_ROWS, _remainder, check_exact, inverse_mod, rref
from .superalg import (
    SuperElement,
    SuperMonomial,
    _packed,
    exponent_rows,
    merge_odd,
    monomial_codes,
)

XKey = tuple[int, ...]
DxKey = tuple[int, ...]


class PolyExtElement:
    """Element of F_p[x_1..x_n] tensor Lambda[dx_1..dx_n], sparse terms
    keyed by (x-exponent vector, sorted dx index tuple)."""

    __slots__ = ("p", "n", "terms")

    def __init__(self, p: int, n: int, terms: dict[tuple[XKey, DxKey], int] | None = None):
        self.p = p
        self.n = n
        self.terms: dict[tuple[XKey, DxKey], int] = {}
        if terms:
            for key, c in terms.items():
                c %= p
                if c:
                    self.terms[key] = c

    @staticmethod
    def zero(p: int, n: int) -> "PolyExtElement":
        return PolyExtElement(p, n)

    @staticmethod
    def one(p: int, n: int) -> "PolyExtElement":
        return PolyExtElement(p, n, {((0,) * n, ()): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolyExtElement") -> "PolyExtElement":
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = (out.get(key, 0) + c) % self.p
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return PolyExtElement(self.p, self.n, out)

    def scale(self, k: int) -> "PolyExtElement":
        return PolyExtElement(self.p, self.n, {key: c * k for key, c in self.terms.items()})

    def __mul__(self, other: "PolyExtElement") -> "PolyExtElement":
        out: dict[tuple[XKey, DxKey], int] = {}
        for (xa, da), ca in self.terms.items():
            for (xb, db), cb in other.terms.items():
                sign, dm = merge_odd(da, db)
                if sign == 0:
                    continue
                xm = tuple(a + b for a, b in zip(xa, xb))
                v = (out.get((xm, dm), 0) + sign * ca * cb) % self.p
                if v:
                    out[(xm, dm)] = v
                else:
                    out.pop((xm, dm), None)
        return PolyExtElement(self.p, self.n, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyExtElement)
            and (self.p, self.n) == (other.p, other.n)
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (x, d), c in sorted(self.terms.items()):
            xs = "".join("*x%d^%d" % (i + 1, e) for i, e in enumerate(x) if e)
            ds = "".join("*dx%d" % (i + 1) for i in d)
            bits.append("%d%s%s" % (c, xs, ds))
        return " + ".join(bits)


def euler_class(chi: Character | Line, ctx: GroupContext) -> PolyExtElement:
    """The linear form z = sum_i coords_i * x_i attached to a character."""
    coords = chi.rep.coords if isinstance(chi, Line) else chi.coords
    terms = {}
    for i, c in enumerate(coords):
        if c % ctx.p:
            xexp = tuple(1 if j == i else 0 for j in range(ctx.n))
            terms[(xexp, ())] = c
    return PolyExtElement(ctx.p, ctx.n, terms)


def d_euler_class(chi: Character | Line, ctx: GroupContext) -> PolyExtElement:
    """dz = sum_i coords_i * dx_i."""
    coords = chi.rep.coords if isinstance(chi, Line) else chi.coords
    terms = {}
    zero = (0,) * ctx.n
    for i, c in enumerate(coords):
        if c % ctx.p:
            terms[(zero, (i,))] = c
    return PolyExtElement(ctx.p, ctx.n, terms)


def embed(m: SuperMonomial, ctx: GroupContext) -> tuple[PolyExtElement, dict[Line, int]]:
    """Image of a monomial as the pair (numerator, denom_exp), the fraction
    numerator / prod_L z_L^denom_exp[L]: t -> 1/z, u -> dz/z, with scalars
    rewritten into the numerator when keys are raw characters (z of k*chi is
    k times z of chi, so t over k*chi is 1/k times t over chi, and u is
    unchanged)."""
    p = ctx.p
    coeff = 1
    denom: dict[Line, int] = {}
    for key, e in m.t_exp:
        line, scale = _line_scale(key, ctx)
        if scale != 1:
            coeff = coeff * pow(inverse_mod(scale, p), e, p) % p
        denom[line] = denom.get(line, 0) + e
    num = PolyExtElement.one(p, ctx.n)
    for key in m.u_set:
        line, _ = _line_scale(key, ctx)
        denom[line] = denom.get(line, 0) + 1
        num = num * d_euler_class(line, ctx)
    return num.scale(coeff), denom


def _line_scale(key, ctx: GroupContext) -> tuple[Line, int]:
    if isinstance(key, Line):
        return key, 1
    if isinstance(key, Character):
        return canonicalize(key, ctx)
    raise TypeError("generator key must be a Line or Character, got %r" % (key,))


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


def span_rank(
    keys: Sequence, codes: np.ndarray, weight: int, ctx: GroupContext, times: dict | None = None
) -> int:
    """Rank over F_p of the embedded monomials given as code rows, all of the
    given weight: codes[r, i] is 2*t + u of keys[i] in the r-th monomial, as
    in superalg.monomial_codes.

    The image of a monomial with k odd generators is a scalar times
    dz_L1 ^ ... ^ dz_Lk over a product of z's, so it lies in dx-degree k:
    the monomials split into blocks by k whose images occupy disjoint
    columns, and the rank is the sum of the block ranks.  Each block is
    cleared to its own componentwise-max denominator, a nonzero divisor, so
    ranks are kept; the numerator of a monomial becomes scalar * P (x) omega,
    with P the product of the z's that clear it (one degree D per block) and
    omega the wedge of its dz's, both built by _products, and is expanded as
    a dense row over the degree-D x-monomials times the k-subsets of the
    dx's.  The scalar, which Character keys bring in, and the sign of omega,
    which depends on the order of its factors, are units and are left out:
    scaling a row by a unit does not change the rank.  Each block is
    eliminated whole by modp.rref, the kernel the presentation route uses
    too, on the one float64 path.  The one bound, modp.check_exact, is
    checked here for the n products an entry of _products gathers, and by
    rref for the block's shape; both raise ValueError past it.

    When times is a dict, the seconds spent building the blocks' rows and
    eliminating them are added to times["rows_s"] and times["elim_s"].
    """
    start = time.perf_counter()
    check_exact(ctx.n, ctx.p)
    codes = np.asarray(codes, dtype=np.int64)
    if (codes.sum(axis=1) != weight).any():
        raise ValueError("every code row must have weight %d" % weight)
    key_lines = [_line_scale(key, ctx)[0] for key in keys]
    lines = sorted(set(key_lines))
    line_index = {line: j for j, line in enumerate(lines)}
    incidence = np.zeros((max(len(keys), 1), len(lines)), dtype=np.int64)
    incidence[np.arange(len(keys)), [line_index[line] for line in key_lines]] = 1
    # per line: the denominator exponent (t + u of its keys) and the u count
    denom = ((codes + 1) // 2) @ incidence
    odd = (codes & 1) @ incidence
    # the wedge of two odd generators on one line is 0
    keep = (odd <= 1).all(axis=1)
    denom, odd = denom[keep], odd[keep]
    dx_degree = odd.sum(axis=1)
    coords = np.array([line.rep.coords for line in lines], dtype=np.float64)
    coords = coords.reshape(len(lines), ctx.n)
    rank, elim_s = 0, 0.0
    for k in np.flatnonzero(np.bincount(dx_degree)):
        block = dx_degree == k
        rows = _block_rows(denom[block], odd[block], coords, ctx.p)
        built = time.perf_counter()
        rank += len(rref(rows, ctx.p)[1])
        elim_s += time.perf_counter() - built
    if times is not None:
        times["rows_s"] = times.get("rows_s", 0.0) + time.perf_counter() - start - elim_s
        times["elim_s"] = times.get("elim_s", 0.0) + elim_s
    return rank


def block_shapes(num_lines: int, weight: int, n: int) -> dict[int, tuple[int, int]]:
    """(rows, columns) of each dx-degree-k block that span_rank forms for the
    weight-w monomials on g >= 1 distinct lines, in closed form, k = w mod 2
    up to min(w, g, n).

    A block monomial carries h = (w - k)/2 t's and k u's on distinct lines,
    so there are C(g, k)*C(h + g - 1, g - 1) of them: an upper bound on the
    rows, since _block_rows drops the rows whose u-lines are dependent.
    Every line reaches the max denominator h + [k >= 1], so the cleared
    numerators have x-degree D = g*(h + [k >= 1]) - h - k, and the columns,
    degree-D x-monomials times k-subsets of the dx's, number exactly
    C(D + n - 1, n - 1)*C(n, k)."""
    g, shapes = num_lines, {}
    for k in range(weight % 2, min(weight, g, n) + 1, 2):
        h = (weight - k) // 2
        degree = g * (h + (k >= 1)) - h - k
        shapes[k] = (comb(g, k) * comb(h + g - 1, g - 1), comb(degree + n - 1, n - 1) * comb(n, k))
    return shapes


def _block_rows(denom: np.ndarray, odd: np.ndarray, coords: np.ndarray, p: int) -> np.ndarray:
    """The cleared numerators P (x) omega of one dx-degree block, given each
    monomial's denominator exponents and u counts per line, as float64 rows
    with entries in [0, p), ready for rref; all-zero rows are left out."""
    comps, p_idx = _group(denom.max(axis=0) - denom)
    u_sets, omega_idx = _group(odd)
    polys = _products(_factors(comps, coords), p, _times_x)
    omegas = _products(_factors(u_sets, coords), p, _wedge_x)
    # omega is 0 when the u-lines are dependent, and P never is
    live = omegas.any(axis=1)[omega_idx]
    p_idx, omega_idx = p_idx[live], omega_idx[live]
    # An entry is one product of two residues; the rows are built a slab at
    # a time, which bounds the temporaries.
    rows = np.empty((len(p_idx), polys.shape[1] * omegas.shape[1]))
    for s in range(0, len(rows), _SLAB_ROWS):
        at = slice(s, s + _SLAB_ROWS)
        part = rows[at]
        np.multiply(polys[p_idx[at]][:, :, None], omegas[omega_idx[at]][:, None, :],
                    out=part.reshape(len(part), polys.shape[1], omegas.shape[1]))
        _remainder(part, p)
    return rows


def _group(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, in lex order, and the index among them of each
    row."""
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ordered = rows[order]
    new = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index


def _factors(mults: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """[r, f] = the coordinates of the f-th factor of row r, which takes
    line j mults[r, j] times, lines in order; every row has one degree."""
    degree = int(mults[0].sum())
    lines = np.repeat(np.tile(np.arange(len(coords)), len(mults)), mults.ravel())
    return coords[lines.reshape(len(mults), degree)]


def _products(forms: np.ndarray, p: int, table) -> np.ndarray:
    """Products mod p of the one-forms forms[r, 0], ..., forms[r, D-1], taken
    in that order, as float64 rows with entries in [0, p).  With _times_x
    the forms are linear forms in x_1..x_n and the rows run over the
    degree-D monomials; with _wedge_x they are one-forms in dx_1..dx_n and
    the rows run over the D-subsets.

    Each degree step is one einsum: entry j of the next row is the sum over
    i of sign[i, j] * forms[r, s, i] * row[source[i, j]].  It gathers at
    most n products of two residues, exact when modp.check_exact(n, p)
    passes, and is reduced mod p before the next step."""
    m, degree, n = forms.shape
    out = np.ones((m, 1))
    for s in range(degree):
        source, sign = table(n, s)
        out = np.einsum("rij,ri,ij->rj", out[:, source], forms[:, s], sign)
        _remainder(out, p)
    return out


@lru_cache(maxsize=None)
def _times_x(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiplication table of the polynomials, as (source, sign), each
    of shape (n, number of degree-(s+1) monomials): for the j-th degree-(s+1)
    monomial x^b and the variable x_i, source[i, j] is the index of x^b / x_i
    among the degree-s monomials and sign[i, j] is 1, or both are 0 when x_i
    does not divide x^b.  Monomials are indexed in exponent_rows order, which
    is that of combinations_with_replacement."""
    lower, upper = exponent_rows(n, s), exponent_rows(n, s + 1)
    divides = upper.T > 0
    quotients = upper - np.eye(n, dtype=np.int64)[:, None, :]
    quotients[~divides] = lower[0]
    keys = _packed(lower)
    order = np.argsort(keys)
    source = order[np.searchsorted(keys[order], _packed(quotients.reshape(-1, n)))]
    source = source.reshape(divides.shape)
    sign = divides.astype(np.float64)
    source.flags.writeable = sign.flags.writeable = False
    return source, sign


@lru_cache(maxsize=None)
def _wedge_x(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiplication table of the exterior algebra, in the form of
    _times_x: for the j-th (s+1)-subset J in combinations order and i in J,
    source[i, j] is the index of J - i among the s-subsets and sign[i, j] is
    the sign in dx_(J - i) ^ dx_i = sign * dx_J; both are 0 when i is not in
    J.  The sign comes from the right-hand merge, as in merge_odd: one
    transposition per element of J above i."""
    lower = {sub: j for j, sub in enumerate(itertools.combinations(range(n), s))}
    upper = list(itertools.combinations(range(n), s + 1))
    source = np.array(
        [[lower.get(tuple(a for a in sub if a != i), 0) for sub in upper] for i in range(n)],
        dtype=np.intp,
    ).reshape(n, len(upper))
    sign = np.array(
        [[(-1) ** sum(a > i for a in sub) if i in sub else 0 for sub in upper] for i in range(n)],
        dtype=np.float64,
    ).reshape(n, len(upper))
    source.flags.writeable = sign.flags.writeable = False
    return source, sign


def subring_hilbert(lines: Iterable[Line], cutoff: int, ctx: GroupContext) -> tuple[int, ...]:
    """Hilbert function, weights 0..cutoff, of the subring of the localized
    Borel ring generated by the t, u pairs of the given lines."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    gens = tuple(sorted(set(lines)))
    return tuple(
        span_rank(gens, monomial_codes(len(gens), w), w, ctx) for w in range(cutoff + 1)
    )
