"""Dimensions of the coefficient ring graded by integer shifts of actual
fixed-point-free representations, and the Euler-class localizations cut out
by a chosen set of lines.

A two-dimensional irreducible is named by k times a canonical line rep with
k between 1 and (p-1)/2: a character and its negative give the same real
representation, so exactly one of the pair is kept.  The grading classes
a_alpha are never materialized: a graded piece is the span, inside the
localized Borel ring, of the words with the prescribed a-profile, each word
choosing per irreducible factor either the even or the odd generator.  All
the words of a piece share one denominator, so the piece is an exterior
power of the span of its lines and its dimension is a binomial coefficient
of their rank (see ro_dimension); no word is built.  The tests check every
entry of complete tables against the oracle's elimination of the words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .charspace import (
    Character,
    GeneratorKey,
    GroupContext,
    canonicalize,
    enumerate_lines,
    rank_of,
)
from .phi import Comparison, compare_routes, line_presentation


@dataclass(frozen=True, eq=False, slots=True)
class IrrepLabel(GeneratorKey):
    """Canonical name k * line-rep, 1 <= k <= (p-1)/2, of a 2-dimensional
    irreducible; build through irrep_label so the range of k is enforced.
    Hashed as hash((rep,)), compared and ordered by the rep's coords as
    GeneratorKey describes; a label never equals a Line or a Character."""

    rep: Character

    def __post_init__(self):
        self._seal(self.rep.coords, self.rep)


def irrep_label(chi: Character, ctx: GroupContext) -> IrrepLabel:
    """Label of the conjugate pair {chi, -chi}."""
    line, scale = canonicalize(chi, ctx)
    k = min(scale, ctx.p - scale)
    return IrrepLabel(line.rep.scaled(k, ctx.p))


@lru_cache(maxsize=None)
def enumerate_irrep_labels(ctx: GroupContext) -> tuple[IrrepLabel, ...]:
    labels = sorted(
        IrrepLabel(line.rep.scaled(k, ctx.p))
        for line in enumerate_lines(ctx)
        for k in range(1, (ctx.p - 1) // 2 + 1)
    )
    expected = (ctx.p**ctx.n - 1) // 2
    if len(labels) != expected:
        raise RuntimeError("built %d irrep labels, expected %d" % (len(labels), expected))
    return tuple(labels)


@dataclass(frozen=True, order=True)
class MultiDegree:
    """A finitely supported multiplicity map on irreducibles plus an integer
    shift; names the piece in degree (shift) - (sum of m copies)."""

    m: tuple[tuple[IrrepLabel, int], ...]
    k: int

    def __post_init__(self):
        if any(mult <= 0 for _, mult in self.m):
            raise ValueError("multiplicities must be positive")
        labels = [label for label, _ in self.m]
        for a, b in zip(labels, labels[1:]):
            if a == b:
                raise ValueError("label %s is repeated" % (a.rep.coords,))
            if b < a:
                raise ValueError("multiplicity entries must be sorted by label")

    @property
    def total_mult(self) -> int:
        return sum(mult for _, mult in self.m)


def multidegree(ctx: GroupContext, mults: dict[Character, int], k: int) -> MultiDegree:
    """Build a MultiDegree from arbitrary nonzero characters; conjugate
    characters accumulate onto one label."""
    acc: dict[IrrepLabel, int] = {}
    for chi, mult in mults.items():
        if mult < 0:
            raise ValueError("multiplicities must be nonnegative")
        if mult:
            label = irrep_label(chi, ctx)
            acc[label] = acc.get(label, 0) + mult
    return MultiDegree(tuple(sorted(acc.items())), k)


def ro_dimension(ctx: GroupContext, md: MultiDegree) -> int:
    """Dimension of one graded piece: C(r, 2*total - k), with r the rank of
    the lines md's labels lie on, and 0 unless total <= k <= 2*total.

    A word picks, for each irreducible counted by md, either the even or the
    odd generator of its line, with 2*total - k odd picks.  The oracle sends
    t_L to 1/z_L and u_L to dz_L/z_L, so every word has the same denominator,
    the product of z_L^(multiplicity on L), over a numerator that is a unit
    times the wedge of the dz's of its odd picks (0 if a line is picked
    twice).  Wedges of 2*total - k distinct lines of the support span the
    exterior power of that degree of the span of the lines.  A label's rep
    is a nonzero multiple of its line's rep, so the reps give the same rank.
    """
    return _piece_dimension(rank_of([label.rep for label, _ in md.m], ctx), md.total_mult, md.k)


def _piece_dimension(rank: int, total: int, k: int) -> int:
    """C(rank, 2*total - k) if total <= k <= 2*total, else 0."""
    return comb(rank, 2 * total - k) if total <= k <= 2 * total else 0


def ro_table(
    ctx: GroupContext, max_total_mult: int, k_range: tuple[int, int]
) -> dict[MultiDegree, int]:
    """ro_dimension over every multidegree with total multiplicity up to the
    bound and shift in the inclusive range, in a fixed iteration order.  The
    rank of a support is computed once for all its shifts."""
    k_lo, k_hi = k_range
    labels = enumerate_irrep_labels(ctx)
    entries: dict[MultiDegree, int] = {}
    for total in range(max_total_mult + 1):
        # each combination is sorted, so equal labels are adjacent
        for combo in itertools.combinations_with_replacement(labels, total):
            mults = tuple((label, len(list(run))) for label, run in itertools.groupby(combo))
            rank = rank_of([label.rep for label, _ in mults], ctx)
            for k in range(k_lo, k_hi + 1):
                entries[MultiDegree(mults, k)] = _piece_dimension(rank, total, k)
    return entries


def localized_hilbert(ctx: GroupContext, lines, cutoff: int) -> Comparison:
    """Oracle Hilbert function of the subring on the given lines, against the
    quotient by the triple relations with all three lines inside the set.

    Whether equality holds is reported, never repaired, since triples
    leaving the set can contribute relations the candidate presentation
    misses.
    """
    lines = tuple(sorted(set(lines)))
    if not lines:
        raise ValueError("need a nonempty set of lines")
    return compare_routes(ctx, lines, line_presentation(ctx, lines), cutoff)
