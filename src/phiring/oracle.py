"""The localized Borel-coefficient ring: the independent ground truth.

Coefficients of the Borel theory form F_p[x_1..x_n] tensor an exterior
algebra on dx_1..dx_n; inverting the Euler classes z_chi (the nonzero linear
forms in the x_i) yields the ring every presentation is checked against.
The even/odd generator pair attached to a line embeds as

    t = 1/z,    u = dz/z,

and every rank and vanishing question is settled on cleared numerators.
The z's are nonzero divisors, so clearing is faithful and no fraction
arithmetic is needed.  _line_data reads off code rows what both questions
need, and _numerators builds the cleared numerators of a block of rows:
span_rank clears each dx-degree block of monomials to one
componentwise-max denominator and eliminates the numerators with
modp.rref; vanishing clears each relation to its own, scales each term by
its coefficient and the unit and sign of _unit_sign, and checks that its
numerators sum to 0.  The numerators' products of linear forms and wedges
of one-forms come from one float64 routine, _products, and stay exact
under the package's one bound, modp.check_exact.  PolyExtElement and embed,
which gives a monomial's image as the pair (numerator, denominator
exponents) in sparse dict arithmetic, are the tests' reference.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

import numpy as np

from .charspace import Character, GroupContext, Line, canonicalize
from .modp import _SLAB_ROWS, _remainder, check_exact, inverse_mod, inverses_mod, rref
from .superalg import (
    Presentation,
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
    denom, odd, coords, _ = _line_data(keys, codes, ctx)
    # the wedge of two odd generators on one line is 0
    keep = (odd <= 1).all(axis=1)
    denom, odd = denom[keep], odd[keep]
    dx_degree = odd.sum(axis=1)
    rank, elim_s = 0, 0.0
    for k in np.flatnonzero(np.bincount(dx_degree)):
        block = dx_degree == k
        rows, _ = _numerators(denom[block].max(axis=0) - denom[block], odd[block], coords, ctx.p)
        built = time.perf_counter()
        rank += len(rref(rows, ctx.p)[1])
        elim_s += time.perf_counter() - built
    if times is not None:
        times["rows_s"] = times.get("rows_s", 0.0) + time.perf_counter() - start - elim_s
        times["elim_s"] = times.get("elim_s", 0.0) + elim_s
    return rank


def _line_data(keys: Sequence, codes: np.ndarray, ctx: GroupContext):
    """What the oracle reads off code rows over keys, in the layout of
    superalg.monomial_codes: the image of the monomial of a row is a unit
    times +-omega / prod_L z_L^denom[L], omega the wedge of the dz's of
    its u-lines in line order.  Returns, lines in sorted order:

    * denom and odd, one row per code row: the denominator exponent (t + u
      of the line's keys) and the u count on each line, in the dtype of
      codes;
    * coords, the lines' coordinates as float64 rows;
    * the scatter (rows, cols, position, scales) that _unit_sign reads:
      the row and the key of each nonzero code, and per key the index of
      its line and its scale (a Character key k*L.rep is scale * L.rep, a
      Line key has scale 1).
    """
    split = [_line_scale(key, ctx) for key in keys]
    lines = sorted({line for line, _ in split})
    line_index = {line: j for j, line in enumerate(lines)}
    position = np.array([line_index[line] for line, _ in split], dtype=np.intp)
    scales = np.array([scale for _, scale in split], dtype=np.int64)
    coords = np.array([line.rep.coords for line in lines], dtype=np.float64)
    coords = coords.reshape(len(lines), ctx.n)
    rows, cols = np.nonzero(codes)
    code = codes[rows, cols]
    at = (rows, position[cols])
    denom = np.zeros((len(codes), len(lines)), dtype=codes.dtype)
    odd = np.zeros_like(denom)
    np.add.at(denom, at, (code + 1) // 2)
    np.add.at(odd, at, code & 1)
    return denom, odd, coords, (rows, cols, position, scales)


def _unit_sign(codes: np.ndarray, scatter, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per code row, the unit and the sign of its image in _line_data's
    form: the unit is prod_i scale_i^(-t_i) mod p, since t over k*L.rep =
    scale * L.rep is 1/scale times t over L and u over it is u over L; the
    sign is the parity of the permutation that takes the row's u's from key
    order to line order, +1 when the keys are in line order, as sorted Line
    keys are."""
    rows, cols, position, scales = scatter
    code = codes[rows, cols]
    t, u = code >> 1, code & 1
    unit = np.ones(len(codes), dtype=np.int64)
    if (scales != 1).any():
        # one factor 1/scale per t, multiplied in by its rank in the row
        t_rows = np.repeat(rows, t)
        factors = inverses_mod(scales, p)[np.repeat(cols, t)]
        rank = np.arange(len(t_rows)) - np.searchsorted(t_rows, t_rows)
        for j in range(int(rank.max(initial=-1)) + 1):
            at = rank == j
            unit[t_rows[at]] = unit[t_rows[at]] * factors[at] % p
    # the inversions between the u's of a row, d apart in key order
    u_rows, u_lines = rows[u == 1], position[cols[u == 1]]
    flips = np.zeros(len(codes), dtype=np.int64)
    for d in range(1, len(scales)):
        pair = u_rows[d:] == u_rows[:-d]
        if not pair.any():
            break
        flips += np.bincount(u_rows[d:][pair & (u_lines[:-d] > u_lines[d:])], minlength=len(codes))
    return unit, 1 - 2 * (flips & 1)


def vanishing(pres: Presentation, max_weight: int | None = None) -> np.ndarray:
    """Whether each relation of pres of weight at most max_weight (every
    relation when None) vanishes in the oracle, as a bool array in relation
    id order.

    A relation is brought to its own componentwise-max denominator, a
    nonzero divisor, so it vanishes exactly when its numerator
    sum_m c_m * unit_m * sign_m * P_m (x) omega_m is 0 (_unit_sign gives the
    unit and the sign; a term with two u's on one line is 0 and is left
    out).  The terms of one relation and one dx-degree k share the
    numerator degree D, sum(max denominator) - (weight + k)/2, so the terms
    split by (k, D) into blocks, whose rows _numerators builds as it does
    span_rank's; a relation vanishes when its rows, scaled by
    c * unit * sign, sum to 0 in every block.  Entries stay exact under
    modp.check_exact(n, p), which is checked (ValueError past it).
    """
    ctx, p = pres.ctx, pres.ctx.p
    check_exact(ctx.n, p)
    weights = pres.relation_weights
    checked = weights <= (weights.max(initial=0) if max_weight is None else max_weight)
    # the terms come by relation weight, then relation id
    terms = int(checked[pres.rel].sum())
    codes = pres.codes[:terms]
    denom, odd, coords, scatter = _line_data(pres.keys, codes, ctx)
    unit, sign = _unit_sign(codes, scatter, p)
    live = (odd <= 1).all(axis=1)
    denom, odd, rel = denom[live], odd[live], pres.rel[:terms][live]
    scalar = pres.coefs[:terms][live] * unit[live] % p * sign[live] % p
    scalar = scalar.astype(np.float64)
    vanished = np.ones(len(weights), dtype=bool)
    if len(rel):
        new = np.diff(rel, prepend=-1) != 0
        comps = np.maximum.reduceat(denom, np.flatnonzero(new))[np.cumsum(new) - 1] - denom
        dx_degree = odd.sum(axis=1, dtype=np.int64)
        degree = comps.sum(axis=1, dtype=np.int64)
        block = dx_degree * (degree.max() + 1) + degree
        for b in np.flatnonzero(np.bincount(block)):
            at = np.flatnonzero(block == b)
            rows, kept = _numerators(comps[at], odd[at], coords, p)
            at = at[kept]
            if not len(at):
                continue
            rows *= scalar[at][:, None]
            _remainder(rows, p)
            starts = np.flatnonzero(np.diff(rel[at], prepend=-1))
            sums = np.add.reduceat(rows, starts) % p
            vanished[rel[at][starts]] &= ~sums.any(axis=1)
    return vanished[checked]


def block_shapes(num_lines: int, weight: int, n: int) -> dict[int, tuple[int, int]]:
    """(rows, columns) of each dx-degree-k block that span_rank forms for the
    weight-w monomials on g >= 1 distinct lines, in closed form, k = w mod 2
    up to min(w, g, n).

    A block monomial carries h = (w - k)/2 t's and k u's on distinct lines,
    so there are C(g, k)*C(h + g - 1, g - 1) of them: an upper bound on the
    rows, since _numerators drops the rows whose u-lines are dependent.
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


def _numerators(comps: np.ndarray, odd: np.ndarray, coords: np.ndarray, p: int):
    """The cleared numerators P (x) omega of rows of one dx-degree k and one
    numerator degree D, given each row's clearing exponents comps (P is the
    product of z_L^comps[L]) and its u count on each line (omega is the
    wedge of those dz's in line order), as float64 rows over the degree-D
    x-monomials times the k-subsets of the dx's, with entries in [0, p);
    and the mask of the rows built: omega is 0 when the u-lines are
    dependent, and those rows are left out."""
    comps, p_idx = _group(comps)
    u_sets, omega_idx = _group(odd)
    polys = _products(_factors(comps, coords), p, _times_x)
    omegas = _products(_factors(u_sets, coords), p, _wedge_x)
    # P is never 0
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
    return rows, live


def _group(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, in the byte order of _packed, and the index among
    them of each row."""
    order = np.argsort(_packed(rows)) if rows.shape[1] else np.arange(len(rows))
    ordered = rows[order]
    new = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    index = np.empty(len(rows), dtype=np.intp)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index


def _factors(mults: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """[r, f] = the coordinates of the f-th factor of row r, which takes
    line j mults[r, j] times, lines in order; every row has one degree."""
    degree = int(mults[0].sum())
    rows, lines = np.nonzero(mults)
    lines = np.repeat(lines, mults[rows, lines])
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
