"""Reference enumerators of zero-sum triples: one Python iteration per
candidate triple of lines (solved by Cramer's rule and cross-checked by row
reduction) and per ordered pair of characters (deduplicated with a set of
seen keys).  charspace.zero_sum_triples and phi.character_zero_sum_triples
enumerate the same triples with array code and must return the same lists in
the same order."""

import itertools

from phiring.charspace import Character, GroupContext, enumerate_characters, rank_of
from phiring.modp import inverse_mod


def zero_sum_triples(lines, ctx: GroupContext):
    """All unordered triples of distinct lines admitting a zero-sum of
    nonzero multiples of their reps.

    Returns (L1, L2, L3, a, b, c) with L1 < L2 < L3 in the global order,
    a*L1.rep + b*L2.rep + c*L3.rep = 0 and c = 1.  A triple of distinct
    lines qualifies iff its reps span rank 2, in which case the scalar
    solution is unique up to global scaling; the rank is checked by row
    reduction against the solve (RuntimeError on disagreement).
    """
    lines = sorted(lines)
    if len(lines) != len(set(lines)):
        raise ValueError("lines must be pairwise distinct")
    p = ctx.p
    out = []
    for l1, l2, l3 in itertools.combinations(lines, 3):
        sol = _solve_zero_sum(l1.rep, l2.rep, l3.rep, p)
        rank = rank_of([l1.rep, l2.rep, l3.rep], ctx)
        if rank != (3 if sol is None else 2):
            raise RuntimeError(
                "triple %s, %s, %s has rank %d but the zero-sum solve gave %r"
                % (l1, l2, l3, rank, sol)
            )
        if sol is not None:
            out.append((l1, l2, l3) + sol)
    return out


def _solve_zero_sum(r1: Character, r2: Character, r3: Character, p: int):
    """Nonzero (a, b, c) with a*r1 + b*r2 + c*r3 = 0 and c = 1, or None.

    With c pinned to 1 the system is a*r1 + b*r2 = -r3.  Reps of distinct
    lines are independent (RuntimeError otherwise), so some pair of
    coordinates carries an invertible 2x2 minor; Cramer's rule on it gives
    the only candidate, which is then checked on every coordinate.
    """
    x, y, t = r1.coords, r2.coords, [(-v) % p for v in r3.coords]
    for i, j in itertools.combinations(range(len(x)), 2):
        det = (x[i] * y[j] - x[j] * y[i]) % p
        if det:
            break
    else:
        raise RuntimeError("reps %s and %s are dependent: no unique zero-sum" % (r1, r2))
    inv = inverse_mod(det, p)
    a = (t[i] * y[j] - t[j] * y[i]) * inv % p
    b = (x[i] * t[j] - x[j] * t[i]) * inv % p
    if a == 0 or b == 0:
        return None
    if any((a * u + b * v) % p != w for u, v, w in zip(x, y, t)):
        return None
    return a, b, 1


def character_zero_sum_triples(ctx: GroupContext) -> list[tuple[Character, Character, Character]]:
    """All unordered triples of nonzero characters summing to zero,
    collinear ones included."""
    chars = list(enumerate_characters(ctx))
    seen = set()
    out = []
    for alpha in chars:
        for beta in chars:
            gamma_coords = tuple((-a - b) % ctx.p for a, b in zip(alpha.coords, beta.coords))
            if not any(gamma_coords):
                continue
            gamma = Character(gamma_coords)
            key = tuple(sorted((alpha, beta, gamma)))
            if key in seen:
                continue
            seen.add(key)
            out.append(key)
    return out
