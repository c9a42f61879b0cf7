"""Free graded-commutative F_p-algebra on even/odd generator pairs and
degreewise quotient dimensions.

Each generator key (a line, or a raw character in verbatim presentations)
carries an even generator t of weight 2 and an odd generator u of weight 1.
Monomials are normalized: t-exponents as a sorted mapping, the odd part as a
strictly increasing key tuple, with Koszul signs picked up when odd factors
are merged.

The computing form of a monomial is a code row, one entry per generator in
key order holding 2*t + u: monomial_codes lists the free monomials of a
weight that way, and a Presentation holds its relations as one term table of
code rows with coefficients and relation ids, normalised and grouped by
weight once.  SuperMonomial and SuperElement are the readable form: decoded
relations, phi-basis output and the tests' references.  Quotient dimensions
of homogeneous ideals are computed one weight at a time by row reduction of
the Macaulay matrix, assembled from the term table, never by a Groebner
basis: the ideal is homogeneous, so the weight-w truncation is exact.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .charspace import GroupContext
from .modp import sparse_pivots


def merge_odd(a: tuple, b: tuple) -> tuple[int, tuple | None]:
    """Merge two sorted odd-key tuples, counting transpositions.

    Returns (sign, merged) with sign in {+1, -1}, or (0, None) when a key
    repeats (odd generators square to zero).
    """
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return 0, None
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            if (len(a) - i) % 2:
                sign = -sign
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


@dataclass(frozen=True, order=True)
class SuperMonomial:
    """Normalized monomial: t_exp sorted by key with positive exponents,
    u_set strictly increasing."""

    t_exp: tuple[tuple, ...] = ()
    u_set: tuple = ()

    def __post_init__(self):
        keys = [k for k, _ in self.t_exp]
        if keys != sorted(keys) or any(e <= 0 for _, e in self.t_exp):
            raise ValueError("t exponents must be sorted by key and positive")
        if any(a >= b for a, b in zip(self.u_set, self.u_set[1:])):
            raise ValueError("odd part must be strictly increasing")

    @staticmethod
    def one() -> "SuperMonomial":
        return SuperMonomial()

    @staticmethod
    def t(key, e: int = 1) -> "SuperMonomial":
        if e < 0:
            raise ValueError("negative exponent")
        return SuperMonomial(((key, e),) if e else (), ())

    @staticmethod
    def u(key) -> "SuperMonomial":
        return SuperMonomial((), (key,))

    @property
    def weight(self) -> int:
        return 2 * sum(e for _, e in self.t_exp) + len(self.u_set)

    @property
    def odd_degree(self) -> int:
        return len(self.u_set)

    def keys(self) -> set:
        return {k for k, _ in self.t_exp} | set(self.u_set)

    def mul(self, other: "SuperMonomial") -> tuple[int, "SuperMonomial | None"]:
        sign, u = merge_odd(self.u_set, other.u_set)
        if sign == 0:
            return 0, None
        te = dict(self.t_exp)
        for k, e in other.t_exp:
            te[k] = te.get(k, 0) + e
        return sign, SuperMonomial(tuple(sorted(te.items())), u)

    def __str__(self):
        if not self.t_exp and not self.u_set:
            return "1"
        parts = ["t%s^%d" % (k, e) if e > 1 else "t%s" % (k,) for k, e in self.t_exp]
        parts += ["u%s" % (k,) for k in self.u_set]
        return "*".join(parts)


class SuperElement:
    """F_p-linear combination of monomials; zero coefficients never stored."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[SuperMonomial, int] | None = None):
        self.p = p
        self.terms: dict[SuperMonomial, int] = {}
        if terms:
            for m, c in terms.items():
                c %= p
                if c:
                    self.terms[m] = c

    @staticmethod
    def zero(p: int) -> "SuperElement":
        return SuperElement(p)

    @staticmethod
    def from_monomial(p: int, m: SuperMonomial, c: int = 1) -> "SuperElement":
        return SuperElement(p, {m: c})

    def is_zero(self) -> bool:
        return not self.terms

    def weight(self) -> int | None:
        """Common weight of all terms; None for 0, ValueError if mixed."""
        ws = {m.weight for m in self.terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError("inhomogeneous element, weights %s" % sorted(ws))
        return ws.pop()

    def __add__(self, other: "SuperElement") -> "SuperElement":
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % self.p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return SuperElement(self.p, out)

    def __neg__(self) -> "SuperElement":
        return SuperElement(self.p, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "SuperElement") -> "SuperElement":
        return self + (-other)

    def scale(self, k: int) -> "SuperElement":
        return SuperElement(self.p, {m: c * k for m, c in self.terms.items()})

    def __mul__(self, other: "SuperElement") -> "SuperElement":
        out: dict[SuperMonomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, m = m1.mul(m2)
                if sign == 0:
                    continue
                v = (out.get(m, 0) + sign * c1 * c2) % self.p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return SuperElement(self.p, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, SuperElement) and self.p == other.p and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%d*%s" % (c, m) for m, c in sorted(self.terms.items()))


@dataclass(frozen=True, eq=False)
class Presentation:
    """An arrangement of generator keys plus homogeneous relations, held as
    one term table in the monomial_codes form: codes has one row per
    relation term and one column per generator in key order, sorted(gens),
    holding 2*t + u (one zero column if there are no generators); coefs
    holds each term's coefficient and rel the id of its relation.

    Construction normalises the table: equal monomials within a relation
    merge, coefficients are reduced mod p, zero terms are dropped, and so
    are relations left with no term; the others are renumbered from 0 in
    their order.  It then computes each relation's weight, the weight
    groups, and whether every relation is bihomogeneous (one odd degree),
    and raises ValueError on a table of the wrong shape or an inhomogeneous
    relation.  The terms are stored by relation weight, then relation id;
    weight_groups holds, per relation weight in ascending order, that
    weight, its terms' codes and coefficients, each term's relation as an
    index among the group's relations, and the number of those relations.
    """

    ctx: GroupContext
    gens: tuple
    codes: np.ndarray | None = None
    coefs: np.ndarray | None = None
    rel: np.ndarray | None = None
    relation_weights: np.ndarray = field(init=False, repr=False)
    weight_groups: tuple = field(init=False, repr=False)
    bihomogeneous: bool = field(init=False, repr=False)

    def __post_init__(self):
        gens = tuple(self.gens)
        if len(set(gens)) != len(gens):
            raise ValueError("generators must be distinct")
        width = max(len(gens), 1)
        codes = np.asarray(np.zeros((0, width), dtype=np.uint8) if self.codes is None else self.codes)
        coefs = np.asarray(() if self.coefs is None else self.coefs, dtype=np.int64)
        rel = np.asarray(() if self.rel is None else self.rel, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != width or not len(codes) == len(coefs) == len(rel):
            raise ValueError("the term table needs one code column per generator, and one "
                             "coefficient and relation id per term")
        if codes.min(initial=0) < 0 or rel.min(initial=0) < 0 or (not gens and codes.any()):
            raise ValueError("relation uses a generator outside the arrangement")
        codes = codes.astype(np.min_scalar_type(int(codes.sum(axis=1).max(initial=1))))
        codes, coefs, rel = _normalised(codes, coefs, rel, self.ctx.p)
        weight = codes.sum(axis=1, dtype=np.int64)
        first = np.searchsorted(rel, np.arange(rel[-1] + 1 if len(rel) else 0))
        rel_weight = weight[first]
        if (weight != rel_weight[rel]).any():
            bad = int(rel[np.argmax(weight != rel_weight[rel])])
            raise ValueError("inhomogeneous relation %d, weights %s"
                             % (bad, sorted(set(weight[rel == bad].tolist()))))
        odd = (codes & 1).sum(axis=1, dtype=np.int64)
        bihomogeneous = bool((odd == odd[first][rel]).all())
        order = np.argsort(weight, kind="stable")
        codes = codes[order]
        coefs, rel, weight = coefs[order], rel[order], weight[order]
        for a in (codes, coefs, rel, rel_weight):
            a.flags.writeable = False
        groups = []
        bounds = np.flatnonzero(np.diff(weight, prepend=-1, append=-1))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            # the group's terms come by relation id, so a new id starts the next relation
            local = np.cumsum(np.diff(rel[lo:hi], prepend=-1) != 0) - 1
            groups.append((int(weight[lo]), codes[lo:hi], coefs[lo:hi], local, int(local[-1]) + 1))
        for name, value in (("gens", gens), ("codes", codes), ("coefs", coefs), ("rel", rel),
                            ("relation_weights", rel_weight), ("weight_groups", tuple(groups)),
                            ("bihomogeneous", bihomogeneous)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_elements(cls, ctx: GroupContext, gens, elements) -> "Presentation":
        """The presentation whose relations are the given SuperElements, in
        order; ValueError on a zero relation or one that uses a generator
        outside gens.  This is the one encoder of monomials as code rows."""
        gens = tuple(gens)
        position = {k: i for i, k in enumerate(sorted(gens))}
        terms = []
        for i, element in enumerate(elements):
            if element.is_zero():
                raise ValueError("zero relation carries no information; drop it")
            terms.extend((i, m, c) for m, c in element.terms.items())
        codes = np.zeros((len(terms), max(len(gens), 1)), dtype=np.int64)
        for row, (_, m, _) in zip(codes, terms):
            if not m.keys() <= position.keys():
                raise ValueError("relation uses a generator outside the arrangement")
            for k, e in m.t_exp:
                row[position[k]] = 2 * e
            for k in m.u_set:
                row[position[k]] += 1
        return cls(ctx, gens, codes, [c for _, _, c in terms], [i for i, _, _ in terms])

    @property
    def keys(self) -> tuple:
        """The generators in key order, one per code column."""
        return tuple(sorted(self.gens))

    @cached_property
    def relations(self) -> tuple[SuperElement, ...]:
        """The relations decoded as SuperElements, by relation id."""
        out = [{} for _ in self.relation_weights]
        monomials = _decode(self.codes, self.keys)
        for r, m, c in zip(self.rel.tolist(), monomials, self.coefs.tolist()):
            out[r][m] = c
        return tuple(SuperElement(self.ctx.p, terms) for terms in out)


def _normalised(codes: np.ndarray, coefs: np.ndarray, rel: np.ndarray, p: int):
    """The term table with equal monomials of one relation merged,
    coefficients reduced into [1, p), zero terms dropped, and relations
    renumbered from 0 in order of their old ids, those left with no term
    dropped; terms come by relation id."""
    order = np.argsort(_packed(codes), kind="stable")
    order = order[np.argsort(rel[order], kind="stable")]
    codes, coefs, rel = codes[order], coefs[order], rel[order]
    new = np.ones(len(rel), dtype=bool)
    new[1:] = (rel[1:] != rel[:-1]) | (codes[1:] != codes[:-1]).any(axis=1)
    starts = np.flatnonzero(new)
    coefs = np.add.reduceat(coefs, starts) % p if len(starts) else coefs
    nonzero = coefs != 0
    live = starts[nonzero]
    rel = np.cumsum(np.diff(rel[live], prepend=-1) != 0) - 1
    return codes[live], coefs[nonzero], rel


def exponent_rows(n: int, degree: int) -> np.ndarray:
    """Exponent vectors of the degree-d monomials in n >= 1 variables, one
    row each, in the order of combinations_with_replacement(range(n), d),
    descending lex.  Each is read off n - 1 bars among d + n - 1 slots
    (stars and bars), which combinations yields in ascending lex order."""
    slots = degree + n - 1
    count = comb(slots, n - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), n - 1)),
        dtype=np.int64, count=count * (n - 1),
    ).reshape(count, n - 1)
    return np.diff(bars, axis=1, prepend=-1, append=slots)[::-1] - 1


@lru_cache(maxsize=None)
def monomial_codes(num_gens: int, weight: int) -> np.ndarray:
    """The free monomials of exact weight on num_gens generator pairs: one
    row each, one column per generator in key order holding 2*t + u (one
    zero column if there are none, so that packed rows are not empty), in
    the smallest dtype that holds the weight.  Rows are sorted by odd
    length, then odd part as the increasing tuple of its positions, then
    t-exponent vector, each ascending, so each odd length is a contiguous
    range.  Computed once per arguments; the array is read-only."""
    if num_gens < 0 or weight < 0:
        raise ValueError("arguments must be nonnegative")
    dtype = np.min_scalar_type(max(weight, 1))
    if not num_gens:
        codes = np.zeros((int(weight == 0), 1), dtype=dtype)
    else:
        # each vector of entries summing to the weight codes exactly one monomial
        codes = exponent_rows(num_gens, weight)
        odd = codes & 1
        # lexsort's last key sorts first; an earlier odd part has 1 at the
        # first position where the two differ
        order = np.lexsort((*(codes >> 1).T[::-1], *(1 - odd).T[::-1], odd.sum(axis=1)))
        codes = codes[order].astype(dtype)
    codes.flags.writeable = False
    return codes


def _decode(codes: np.ndarray, keys: Sequence) -> list[SuperMonomial]:
    """The monomials of code rows whose i-th column belongs to keys[i]."""
    out = []
    for row in codes.tolist():
        t_exp = tuple((k, c >> 1) for k, c in zip(keys, row) if c > 1)
        u_set = tuple(k for k, c in zip(keys, row) if c & 1)
        out.append(SuperMonomial(t_exp, u_set))
    return out


def free_monomial_count(num_gens: int, weight: int) -> int:
    """Number of free monomials of the weight on g = num_gens generator
    pairs, the rows of monomial_codes: the series
    (1+x)^g / (1-x^2)^g is 1/(1-x)^g, so it is C(weight + g - 1, g - 1)."""
    if num_gens < 0 or weight < 0:
        raise ValueError("arguments must be nonnegative")
    if num_gens == 0:
        return 1 if weight == 0 else 0
    return comb(weight + num_gens - 1, num_gens - 1)


# Relation terms are multiplied by their shifts in slabs of about
# _SLAB_PRODUCTS products.
_SLAB_PRODUCTS = 1 << 16


def _packed(codes: np.ndarray) -> np.ndarray:
    """Each code row as one opaque key that numpy can sort and search."""
    codes = np.ascontiguousarray(codes)
    return codes.view(np.dtype((np.void, codes.shape[1] * codes.itemsize))).ravel()


def _macaulay_entries(pres: Presentation, weight: int, basis_codes: np.ndarray):
    """Sparse entries (row, column, coefficient mod p) of the weight-w
    Macaulay matrix: one row per relation times free monomial of the
    complementary weight, relation on the left, vanishing rows omitted.
    Rows run over the weight groups in ascending weight, by relation, then
    by shift.

    The code columns are in key order, the order merge_odd uses, so the
    Koszul sign of rel_term * shift is (-1) to the number of pairs (a, b)
    of odd generators, a in the term and b in the shift, with b before a.
    """
    p = pres.ctx.p
    keys = _packed(basis_codes)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    rows, cols, vals = [], [], []
    row_base = 0
    for w_rel, term_codes, term_coef, term_rel, n_rels in pres.weight_groups:
        if w_rel > weight:
            break
        shift_codes = monomial_codes(len(pres.gens), weight - w_rel)
        n_shifts = len(shift_codes)
        shift_odd = (shift_codes & 1).astype(np.float64)
        # number of odd generators of each shift strictly before each position
        shift_before = np.cumsum(shift_odd, axis=1) - shift_odd
        term_codes = term_codes.astype(basis_codes.dtype, copy=False)
        step = max(1, _SLAB_PRODUCTS // max(n_shifts, 1))
        for lo in range(0, len(term_codes), step):
            codes = term_codes[lo : lo + step]
            odd = (codes & 1).astype(np.float64)
            term, shift = np.nonzero(odd @ shift_odd.T == 0)
            inversions = (odd @ shift_before.T)[term, shift].astype(np.int64)
            found = np.searchsorted(sorted_keys, _packed(codes[term] + shift_codes[shift]))
            rows.append(row_base + term_rel[lo + term] * n_shifts + shift)
            cols.append(order[found].astype(np.int32))
            vals.append((term_coef[lo + term] * (1 - 2 * (inversions & 1)) % p).astype(np.int32))
        row_base += n_rels * n_shifts
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _quotient_data(
    pres: Presentation, weight: int, times: dict | None = None
) -> tuple[np.ndarray, list[int]]:
    """Eliminate the weight-w Macaulay matrix one odd-degree column block at
    a time; return its columns' monomial codes and its pivot columns.

    monomial_codes lists one odd length at a time, in ascending order, so
    each odd degree is a contiguous column range.  A relation whose terms
    share one odd degree lands every row in a single block, so the blocks
    are independent; if some relation mixes odd degrees the whole weight is
    one block.  modp.sparse_pivots splits each block pivot first: most of
    its columns lead some row, so its dense rows span only its few free
    columns.

    When times is a dict, the seconds spent building the rows and
    eliminating them are added to times["rows_s"] and times["elim_s"].
    """
    start = time.perf_counter()
    p = pres.ctx.p
    codes = monomial_codes(len(pres.gens), weight)
    if not len(codes):
        return codes, []
    rows, cols, vals = _macaulay_entries(pres, weight, codes)
    odd = (codes & 1).sum(1)
    block_of_col = odd if pres.bihomogeneous else np.zeros_like(odd)
    n_blocks = int(block_of_col.max()) + 1
    col_bounds = np.searchsorted(block_of_col, np.arange(n_blocks + 1))
    blocks = block_of_col[cols]
    perm = np.lexsort((cols, rows, blocks))
    rows, cols, vals, blocks = rows[perm], cols[perm], vals[perm], blocks[perm]
    entry_bounds = np.searchsorted(blocks, np.arange(n_blocks + 1))
    built = time.perf_counter()
    pivots: list[int] = []
    for b in range(n_blocks):
        lo, hi = entry_bounds[b], entry_bounds[b + 1]
        if lo == hi:
            continue
        c0, width = int(col_bounds[b]), int(col_bounds[b + 1] - col_bounds[b])
        block = sparse_pivots(rows[lo:hi], cols[lo:hi] - c0, vals[lo:hi], width, p)
        pivots.extend(c0 + c for c in block)
    if times is not None:
        times["rows_s"] = times.get("rows_s", 0.0) + built - start
        times["elim_s"] = times.get("elim_s", 0.0) + time.perf_counter() - built
    return codes, pivots


def quotient_dimension(pres: Presentation, weight: int, times: dict | None = None) -> int:
    """dim over F_p of (free algebra / ideal) in the given weight; times
    collects seconds as in _quotient_data."""
    codes, pivots = _quotient_data(pres, weight, times)
    return len(codes) - len(pivots)


def monomial_basis(pres: Presentation, weight: int) -> tuple[SuperMonomial, ...]:
    """Monomials spanning the quotient: the pivot-free columns of the
    eliminated Macaulay matrix, in the fixed monomial order."""
    codes, pivots = _quotient_data(pres, weight)
    return tuple(_decode(np.delete(codes, pivots, axis=0), pres.keys))
