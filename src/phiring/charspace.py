"""Characters of G = (Z/p)^n, their scalar classes, and the combinatorics
built on them: echelon subsets, zero-sum triples of lines (the 3-subsets of
the rank-2 flats of a line set's F_p-matroid), and counts of subsets by rank.

A character is a vector in F_p^n; nonzero characters cut out the maximal
subgroups ker(chi).  Two characters cut out the same subgroup iff they are
proportional, and each scalar class has a unique representative whose last
nonzero coordinate is 1.  That representative is the canonical name used
for generator indexing throughout the package, and lines are globally
ordered lexicographically on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .modp import check_exact, inverse_mod, inverses_mod


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, order=True)
class GroupContext:
    p: int
    n: int

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError("p must be an odd prime, got %r" % (self.p,))
        if self.n < 1:
            raise ValueError("n must be >= 1, got %r" % (self.n,))

    @property
    def num_characters(self) -> int:
        """Size of the arrangement: all nonzero characters."""
        return self.p**self.n - 1

    @property
    def num_lines(self) -> int:
        return (self.p**self.n - 1) // (self.p - 1)


class GeneratorKey:
    """Base of the generator key types Character, Line and IrrepLabel, which
    index dicts, sets and sorts on every hot path.

    Each instance records at construction the coordinate tuple it is named
    by and its hash, so hashing and comparing run no generated code:

    * hash is computed once and equals what a frozen dataclass with the one
      field would return, hash((field,)), so set and dict iteration orders
      are those of plain dataclasses;
    * == holds exactly between instances of the same class with equal
      coordinates; instances of different classes are unequal;
    * <, <=, >, >= order instances of the same class lexicographically by
      coordinates and raise TypeError across classes.
    """

    __slots__ = ("_coords", "_hash")

    def _seal(self, coords: tuple[int, ...], field) -> None:
        object.__setattr__(self, "_coords", coords)
        object.__setattr__(self, "_hash", hash((field,)))

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which seals again
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._coords == other._coords
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._coords < other._coords
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._coords <= other._coords
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._coords > other._coords
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._coords >= other._coords
        return NotImplemented


@dataclass(frozen=True, eq=False, slots=True)
class Character(GeneratorKey):
    """A nonzero vector of F_p^n, coordinates stored reduced mod p.  Hashed,
    compared and ordered by coords as GeneratorKey describes."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if not any(self.coords):
            raise ValueError("zero character")
        self._seal(self.coords, self.coords)

    def __str__(self):
        return "(%s)" % ",".join(str(c) for c in self.coords)

    def pivot(self) -> int:
        """Index of the last nonzero coordinate."""
        for i in range(len(self.coords) - 1, -1, -1):
            if self.coords[i]:
                return i
        raise AssertionError("unreachable for a nonzero character")

    def scaled(self, k: int, p: int) -> "Character":
        return Character(tuple((k * c) % p for c in self.coords))


@dataclass(frozen=True, eq=False, slots=True)
class Line(GeneratorKey):
    """A scalar class of characters, named by the rep whose last nonzero
    coordinate is 1.  Hashed as hash((rep,)), compared and ordered by the
    rep's coords as GeneratorKey describes; a Line never equals a
    Character."""

    rep: Character

    def __post_init__(self):
        if self.rep.coords[self.rep.pivot()] != 1:
            raise ValueError("line rep must have last nonzero coordinate 1: %s" % self.rep)
        self._seal(self.rep.coords, self.rep)

    def __str__(self):
        return str(self.rep)


def canonicalize(chi: Character, ctx: GroupContext) -> tuple[Line, int]:
    """Split chi into (line, scale) with chi = scale * line.rep mod p."""
    scale = chi.coords[chi.pivot()] % ctx.p
    rep = chi.scaled(inverse_mod(scale, ctx.p), ctx.p)
    return Line(rep), scale


def line_of(chi: Character, ctx: GroupContext) -> Line:
    return canonicalize(chi, ctx)[0]


def enumerate_characters(ctx: GroupContext):
    """All nonzero characters, in lexicographic order."""
    for coords in itertools.product(range(ctx.p), repeat=ctx.n):
        if any(coords):
            yield Character(coords)


@lru_cache(maxsize=None)
def enumerate_lines(ctx: GroupContext) -> tuple[Line, ...]:
    """All (p^n-1)/(p-1) lines, sorted by the global (lexicographic) order.

    The reps are built directly, without touching the other p^n - 1 - #lines
    characters: for each pivot position i, every head in F_p^i, then a 1,
    then zeros.
    """
    p, n = ctx.p, ctx.n
    reps = sorted(
        Line(Character(head + (1,) + (0,) * (n - 1 - i)))
        for i in range(n)
        for head in itertools.product(range(p), repeat=i)
    )
    if len(reps) != ctx.num_lines:
        raise RuntimeError("built %d lines, expected %d" % (len(reps), ctx.num_lines))
    return tuple(reps)


@dataclass(frozen=True, order=True)
class EchelonSubset:
    """An independent set of canonical reps with strictly increasing pivots."""

    elems: tuple[Character, ...]

    def __post_init__(self):
        pivots = [chi.pivot() for chi in self.elems]
        if any(a >= b for a, b in zip(pivots, pivots[1:])):
            raise ValueError("pivot columns must strictly increase")
        if any(chi.coords[piv] != 1 for chi, piv in zip(self.elems, pivots)):
            raise ValueError("elements must be canonical line reps")

    @property
    def size(self) -> int:
        return len(self.elems)

    def __str__(self):
        return "{%s}" % ";".join(str(chi) for chi in self.elems)


def _pad(chi: Character, n: int) -> Character:
    return Character(chi.coords + (0,) * (n - len(chi.coords)))


@lru_cache(maxsize=None)
def enumerate_Fn(ctx: GroupContext) -> tuple[EchelonSubset, ...]:
    """The recursive family of echelon subsets.

    Rank 1 contributes the empty set and the single line; passing from rank
    m-1 to m keeps everything (characters padded with a trailing 0) and adds
    S u {x} for each old member S and each x in (Z/p)^(m-1) x {1}.
    The output has size prod_{i=1..n} (1 + p^(i-1)).
    """
    p, n = ctx.p, ctx.n
    family: list[tuple[Character, ...]] = [(), (Character((1,)),)]
    for m in range(2, n + 1):
        padded = [tuple(_pad(chi, m) for chi in s) for s in family]
        new = []
        for s in padded:
            for head in itertools.product(range(p), repeat=m - 1):
                x = Character(head + (1,))
                new.append(s + (x,))
        family = padded + new
    out = tuple(EchelonSubset(tuple(_pad(chi, n) for chi in s)) for s in family)
    expected = 1
    for i in range(1, n + 1):
        expected *= 1 + p ** (i - 1)
    if len(out) != expected:
        raise RuntimeError("built %d echelon subsets, expected %d" % (len(out), expected))
    return out


def rank_of(chars, ctx: GroupContext) -> int:
    """Rank over F_p of a collection of characters (row reduction)."""
    rows = [list(chi.coords) for chi in chars]
    p = ctx.p
    rank = 0
    for col in range(ctx.n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = inverse_mod(rows[rank][col], p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] % p
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


_TRIPLE_SLAB = 1 << 14  # candidate triples solved at a time; bounds the arrays


def zero_sum_triples(lines, ctx: GroupContext) -> np.ndarray:
    """All unordered triples of distinct lines admitting a zero-sum of
    nonzero multiples of their reps: the 3-subsets of the rank-2 flats of
    the line set's F_p-matroid.

    Returns an int64 array with one row (i, j, k, a, b) per triple, rows in
    combinations order: indices i < j < k into sorted(lines) and the
    scalars a, b in [1, p) with a*L_i.rep + b*L_j.rep + c*L_k.rep = 0 for
    c = 1.  The candidates are solved as int64 arrays, exact for every p
    that modp.check_exact admits (ValueError otherwise).  Reps r1, r2 of
    distinct lines are independent, so some coordinate pair has a nonzero
    2x2 minor det; Cramer's rule on the first gives numerators na, nb, and a
    triple is kept exactly when na, nb != 0 and na*r1 + nb*r2 + det*r3 = 0:
    the zero-sum identity with a = na/det, b = nb/det, so every triple
    returned is certified, and by uniqueness none is missed.  A plane
    meeting the set in m lines holds m - 2 kept triples through each of its
    line pairs, so the three pairs of a kept triple must lie in equally
    many kept triples (RuntimeError otherwise).
    """
    lines = sorted(lines)
    if len(lines) != len(set(lines)):
        raise ValueError("lines must be pairwise distinct")
    p = ctx.p
    check_exact(1, p)
    reps = np.array([line.rep.coords for line in lines], dtype=np.int64).reshape(-1, ctx.n)
    first, second = np.fromiter(itertools.combinations(range(ctx.n), 2),
                                dtype=np.dtype((np.intp, 2))).T
    candidates = itertools.combinations(range(len(lines)), 3)
    found = [np.empty((0, 6), dtype=np.int64)]
    while len(slab := np.fromiter(itertools.islice(candidates, _TRIPLE_SLAB),
                                  dtype=np.dtype((np.intp, 3)))):
        x, y, z = reps[slab].transpose(1, 0, 2)
        minors = (x[:, first] * y[:, second] - x[:, second] * y[:, first]) % p
        rows = np.arange(len(slab))
        pick = (minors != 0).argmax(axis=1)
        det, i, j = minors[rows, pick], first[pick], second[pick]
        na = (z[rows, j] * y[rows, i] - z[rows, i] * y[rows, j]) % p
        nb = (x[rows, j] * z[rows, i] - x[rows, i] * z[rows, j]) % p
        total = (na[:, None] * x % p + nb[:, None] * y % p + det[:, None] * z % p) % p
        keep = (na != 0) & (nb != 0) & ~total.any(axis=1)
        found.append(np.column_stack((slab, na, nb, det))[keep])
    found = np.concatenate(found)
    pairs = found[:, [0, 0, 1]] * len(lines) + found[:, [1, 2, 2]]
    ordered = np.sort(pairs, axis=None)
    through = np.searchsorted(ordered, pairs, "right") - np.searchsorted(ordered, pairs, "left")
    uneven = (through != through[:, :1]).any(axis=1)
    if uneven.any():
        bad = uneven.argmax()
        raise RuntimeError("zero-sum triples are not closed under the flats: the pairs of "
                           "triple %s, %s, %s lie in %s kept triples"
                           % (*(lines[i] for i in found[bad, :3]), through[bad].tolist()))
    found[:, 3:5] = found[:, 3:5] * inverses_mod(found[:, 5:], p) % p
    return found[:, :5]


@lru_cache(maxsize=None)
def subset_rank_count(ctx: GroupContext, s: int, r: int) -> int:
    """Number of cardinality-s subsets of the nonzero characters whose span
    has dimension r, by the exact recurrence

        s*c(s,r) = c(s-1,r)*(p^r - 1 - (s-1)) + c(s-1,r-1)*(p^n - p^(r-1)).
    """
    if s < 0 or r < 0 or r > s or r > ctx.n:
        return 0
    if s > ctx.num_characters:
        return 0
    if s == 0:
        return 1 if r == 0 else 0
    p, n = ctx.p, ctx.n
    total = subset_rank_count(ctx, s - 1, r) * (p**r - 1 - (s - 1))
    if r >= 1:
        total += subset_rank_count(ctx, s - 1, r - 1) * (p**n - p ** (r - 1))
    if total % s:
        raise RuntimeError(
            "subset_rank_count(%d, %d): %d is not divisible by %d" % (s, r, total, s)
        )
    return total // s
