"""Dimensions of the coefficient ring graded by integer shifts of actual
fixed-point-free representations, and the Euler-class localizations cut out
by a chosen set of lines.

A two-dimensional irreducible is named by k times a canonical line rep with
k between 1 and (p-1)/2: a character and its negative give the same real
representation, so exactly one of the pair is kept.  The grading classes
a_alpha are never materialized: a graded piece is the span, inside the
fixed-point ring, of the words with the prescribed a-profile, each word
choosing per irreducible factor either the even or the odd generator.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

from .charspace import (
    Character,
    GeneratorKey,
    GroupContext,
    Line,
    canonicalize,
    enumerate_lines,
)
from .oracle import GradedDimensionTable, span_rank
from .phi import Comparison, compare_routes, line_presentation
from .superalg import SuperMonomial


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
        if tuple(sorted(self.m)) != self.m:
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


def ro_dimension(
    ctx: GroupContext, md: MultiDegree, lines: Mapping[IrrepLabel, Line] | None = None
) -> int:
    """Dimension of one graded piece.

    Words pick, for each irreducible counted by md, either the even or the
    odd generator of its line; the odd picks must number 2*total - k, a
    repeated odd pick on one line kills the word, and the surviving words
    span the piece inside the oracle.  lines maps each label of md to its
    line; it is resolved here when not given.
    """
    total = md.total_mult
    if not (total <= md.k <= 2 * total):
        return 0
    odd_picks = 2 * total - md.k
    labels = [label for label, _ in md.m]
    if lines is None:
        lines = {label: canonicalize(label.rep, ctx)[0] for label in labels}
    monomials = []
    for chosen in itertools.combinations(labels, odd_picks):
        u_lines = sorted(lines[label] for label in chosen)
        if any(a == b for a, b in zip(u_lines, u_lines[1:])):
            continue  # repeated odd generator on one line
        t_exp: dict[Line, int] = {}
        for label, mult in md.m:
            e = mult - (1 if label in chosen else 0)
            if e:
                line = lines[label]
                t_exp[line] = t_exp.get(line, 0) + e
        monomials.append(SuperMonomial(tuple(sorted(t_exp.items())), tuple(u_lines)))
    if not monomials:
        return 0
    return span_rank(monomials, md.k, ctx)


def ro_table(
    ctx: GroupContext, max_total_mult: int, k_range: tuple[int, int]
) -> GradedDimensionTable:
    """ro_dimension over every multidegree with total multiplicity up to the
    bound and shift in the inclusive range, in a fixed iteration order."""
    k_lo, k_hi = k_range
    labels = enumerate_irrep_labels(ctx)
    lines = {label: canonicalize(label.rep, ctx)[0] for label in labels}
    entries: dict[MultiDegree, int] = {}
    for total in range(max_total_mult + 1):
        for combo in itertools.combinations_with_replacement(labels, total):
            m: dict[IrrepLabel, int] = {}
            for label in combo:
                m[label] = m.get(label, 0) + 1
            mults = tuple(sorted(m.items()))
            for k in range(k_lo, k_hi + 1):
                md = MultiDegree(mults, k)
                entries[md] = ro_dimension(ctx, md, lines)
    return GradedDimensionTable(entries, "oracle")


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
