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
monomial's image as the pair (numerator, denominator exponents).
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .charspace import Character, GroupContext, Line, canonicalize
from .modp import _SLAB_ROWS, _remainder, inverse_mod, rref
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


def check_products_exact(n: int, p: int) -> None:
    """Raise ValueError unless n*(p-1)^2 < 2^63, the bound under which the
    int64 products of linear forms in _products are exact."""
    if n * (p - 1) ** 2 >= 2**63:
        raise ValueError(
            "n*(p-1)^2 = %d is not below 2^63: int64 products of linear forms "
            "would not be exact" % (n * (p - 1) ** 2)
        )


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
    omega the wedge of its dz's, and is expanded as a dense row over the
    degree-D x-monomials times the k-subsets of the dx's.  The scalar, which
    Character keys bring in, and the sign of omega, which depends on the
    order of its factors, are units and are left out: scaling a row by a
    unit does not change the rank.  Each block is eliminated whole by
    modp.rref, the kernel the presentation route uses too, on the one
    float64 path: rref checks its own bound and raises ValueError past it.

    When times is a dict, the seconds spent building the blocks' rows and
    eliminating them are added to times["rows_s"] and times["elim_s"].
    """
    start = time.perf_counter()
    check_products_exact(ctx.n, ctx.p)
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
    coords = np.array([line.rep.coords for line in lines], dtype=np.int64)
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


def _block_rows(denom: np.ndarray, odd: np.ndarray, coords: np.ndarray, p: int) -> np.ndarray:
    """The cleared numerators P (x) omega of one dx-degree block, given each
    monomial's denominator exponents and u counts per line, as float64 rows
    with entries in [0, p), ready for rref; all-zero rows are left out."""
    comps, p_idx = _group(denom.max(axis=0) - denom)
    u_sets, omega_idx = _group(odd)
    degree = int(comps[0].sum())
    factors = np.repeat(np.tile(np.arange(len(coords)), len(comps)), comps.ravel())
    polys = _products(coords[factors.reshape(len(comps), degree)], p)
    omegas = np.array(
        [_omega(coords[u_set == 1].tolist(), p, coords.shape[1]) for u_set in u_sets],
        dtype=np.int64,
    ).reshape(len(u_sets), -1)
    # omega is 0 when the u-lines are dependent, and P never is
    live = omegas.any(axis=1)[omega_idx]
    p_idx, omega_idx = p_idx[live], omega_idx[live]
    width = polys.shape[1] * omegas.shape[1]
    # Products of two residues are at most (p-1)^2, exact in float64 for
    # every p that rref accepts; the rows are built a slab at a time, which
    # bounds the temporaries.
    polys, omegas = polys.astype(np.float64), omegas.astype(np.float64)
    rows = np.empty((len(p_idx), width))
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


def _products(forms: np.ndarray, p: int) -> np.ndarray:
    """Products mod p of the linear forms forms[r, 0..D-1] (coefficients on
    x_1..x_n), as rows over the degree-D monomials of _times_x's order.

    Entries before each reduction are sums of at most n products of two
    residues, exact in int64 when check_products_exact(n, p) passes."""
    m, degree, n = forms.shape
    out = np.ones((m, 1), dtype=np.int64)
    for s in range(degree):
        times = _times_x(n, s)
        nxt = np.zeros((m, comb(n + s, s + 1)), dtype=np.int64)
        for i in range(n):
            nxt[:, times[:, i]] += out * forms[:, s, i : i + 1]
        out = nxt % p
    return out


def _omega(forms: Sequence[Sequence[int]], p: int, n: int) -> list[int]:
    """The wedge mod p of the one-forms forms[0], forms[1], ... (coefficients
    on dx_1..dx_n), multiplied in that order, over the k-subsets of the dx's
    in _wedge_x's order.  At most 2^n entries, so plain integers suffice."""
    out = [1]
    for s, form in enumerate(forms):
        nxt = [0] * comb(n, s + 1)
        for v, moves in zip(out, _wedge_x(n, s)):
            for i, j, sign in moves:
                nxt[j] += sign * form[i] * v
        out = [x % p for x in nxt]
    return out


@lru_cache(maxsize=None)
def _times_x(n: int, s: int) -> np.ndarray:
    """[j, i] = index of x^a * x_i among the degree-(s+1) monomials, for the
    j-th degree-s monomial x^a; monomials are indexed in exponent_rows
    order, which is that of combinations_with_replacement."""
    lower, upper = exponent_rows(n, s), exponent_rows(n, s + 1)
    targets = (lower[:, None, :] + np.eye(n, dtype=np.int64)).reshape(len(lower) * n, n)
    keys = _packed(upper)
    order = np.argsort(keys)
    out = order[np.searchsorted(keys[order], _packed(targets))].reshape(len(lower), n)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _wedge_x(n: int, s: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For the j-th s-subset I in combinations order, the triples (i, index of
    I + i among the (s+1)-subsets, sign) over the i not in I, with
    dx_I ^ dx_i = sign * dx_(I + i).  The sign comes from the right-hand
    merge, as in merge_odd: one transposition per element of I above i."""
    upper = {sub: j for j, sub in enumerate(itertools.combinations(range(n), s + 1))}
    return tuple(
        tuple(
            (i, upper[tuple(sorted(sub + (i,)))], -1 if sum(a > i for a in sub) % 2 else 1)
            for i in range(n)
            if i not in sub
        )
        for sub in itertools.combinations(range(n), s)
    )


def subring_hilbert(lines: Iterable[Line], cutoff: int, ctx: GroupContext) -> tuple[int, ...]:
    """Hilbert function, weights 0..cutoff, of the subring of the localized
    Borel ring generated by the t, u pairs of the given lines."""
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    gens = tuple(sorted(set(lines)))
    return tuple(
        span_rank(gens, monomial_codes(len(gens), w), w, ctx) for w in range(cutoff + 1)
    )
