"""Reference for the representation-graded pieces: the words of a piece,
whose oracle span the rank formula in rograde.ro_dimension must match."""

import itertools

from phiring.charspace import GroupContext, Line, canonicalize
from phiring.rograde import MultiDegree
from phiring.superalg import SuperMonomial


def ro_words(ctx: GroupContext, md: MultiDegree) -> list[SuperMonomial]:
    """Words of the piece md, as free monomials on the lines of its labels.

    A word picks, for each irreducible counted by md, either the even or the
    odd generator of its line; the odd picks number 2*total - k, and a
    repeated odd pick on one line kills the word.  No words outside
    total <= k <= 2*total.
    """
    total = md.total_mult
    if not (total <= md.k <= 2 * total):
        return []
    labels = [label for label, _ in md.m]
    lines = {label: canonicalize(label.rep, ctx)[0] for label in labels}
    words = []
    for chosen in itertools.combinations(labels, 2 * total - md.k):
        u_lines = sorted(lines[label] for label in chosen)
        if any(a == b for a, b in zip(u_lines, u_lines[1:])):
            continue  # repeated odd generator on one line
        t_exp: dict[Line, int] = {}
        for label, mult in md.m:
            e = mult - (1 if label in chosen else 0)
            if e:
                line = lines[label]
                t_exp[line] = t_exp.get(line, 0) + e
        words.append(SuperMonomial(tuple(sorted(t_exp.items())), tuple(u_lines)))
    return words
