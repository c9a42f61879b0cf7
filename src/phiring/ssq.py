"""Dimension bookkeeping for the cube filtration's first two pages.

The first page sums, over all cardinality-s subsets of nonzero characters,
the dimensions of a polynomial algebra on rank-many weight-2 generators
tensor an exterior algebra on as many weight-1 generators; the second page
keeps only the echelon subsets.  The generator attached to a subset S
carries total weight |S| (one suspension per cofiber step); with that
convention the second-page totals reproduce the closed-form series, which
is the collapse check.  No differentials are ever modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .charspace import GroupContext, enumerate_Fn, subset_rank_count
from .phi import closed_form_series
from .superalg import free_monomial_count


def e1_dim(ctx: GroupContext, s: int, d: int) -> int:
    """First-page entry at filtration s, total weight d."""
    if s < 0 or d < 0:
        raise ValueError("arguments must be nonnegative")
    if s == 0:
        return 1 if d == 0 else 0
    if d < s:
        return 0
    return sum(
        subset_rank_count(ctx, s, r) * free_monomial_count(r, d - s)
        for r in range(min(s, ctx.n) + 1)
    )


@lru_cache(maxsize=None)
def _fn_size_counts(ctx: GroupContext) -> dict[int, int]:
    counts: dict[int, int] = {}
    for sub in enumerate_Fn(ctx):
        counts[sub.size] = counts.get(sub.size, 0) + 1
    return counts


def e2_dim(ctx: GroupContext, s: int, d: int) -> int:
    """Second-page entry: echelon subsets only; their rank equals their size."""
    if s < 0 or d < 0:
        raise ValueError("arguments must be nonnegative")
    if s == 0:
        return 1 if d == 0 else 0
    if s > ctx.n or d < s:
        return 0
    return _fn_size_counts(ctx).get(s, 0) * free_monomial_count(s, d - s)


def e2_total(ctx: GroupContext, d: int) -> int:
    return sum(e2_dim(ctx, s, d) for s in range(min(ctx.n, d) + 1))


@dataclass
class CollapseReport:
    e2_totals: tuple[int, ...]
    closed_form: tuple[int, ...]
    dominated: bool  # second page <= first page entrywise

    @property
    def equal(self) -> tuple[bool, ...]:
        return tuple(a == b for a, b in zip(self.e2_totals, self.closed_form))

    @property
    def ok(self) -> bool:
        return all(self.equal) and self.dominated


def collapse_check(ctx: GroupContext, cutoff: int) -> CollapseReport:
    """Degreewise consistency of collapse: second-page totals must equal the
    closed-form coefficients, and the second page can never exceed the first."""
    closed = closed_form_series(ctx, cutoff)
    totals = tuple(e2_total(ctx, d) for d in range(cutoff + 1))
    dominated = all(
        e2_dim(ctx, s, d) <= e1_dim(ctx, s, d)
        for s in range(cutoff + 1)
        for d in range(cutoff + 1)
    )
    return CollapseReport(totals, closed, dominated)
