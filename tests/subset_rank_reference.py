"""Reference for the subset-rank counts: plain enumeration of the subsets,
which charspace.subset_rank_count's recurrence must match; and the echelon
test of a set of characters, by which brute force finds the echelon
subsets."""

import itertools
from math import comb

from phiring.charspace import EchelonSubset, GroupContext, enumerate_characters, rank_of


def subset_rank_count_bruteforce(ctx: GroupContext, s: int, r: int) -> int:
    """Number of cardinality-s subsets of the nonzero characters whose span
    has dimension r, by enumeration; only sensible when C(p^n - 1, s) is
    small."""
    if comb(ctx.num_characters, s) > 10**5:
        raise ValueError("universe too large for brute force")
    chars = list(enumerate_characters(ctx))
    return sum(1 for sub in itertools.combinations(chars, s) if rank_of(sub, ctx) == r)


def is_echelon_set(chars) -> bool:
    """Whether the characters, in pivot order, form an EchelonSubset:
    canonical reps with pairwise distinct pivots."""
    try:
        EchelonSubset(tuple(sorted(chars, key=lambda chi: chi.pivot())))
    except ValueError:
        return False
    return True
