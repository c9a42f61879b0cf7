"""Reference for the free monomials: the sort-based enumeration that
free_monomials, the decode of superalg.monomial_codes, must reproduce
exactly for sorted generator keys, and the encoding of monomials as the
code rows that oracle.span_rank reads."""

import itertools
from typing import Sequence

import numpy as np

from phiring.superalg import SuperMonomial, _decode, monomial_codes


def _monomial_sort_key(gens: Sequence):
    index = {g: i for i, g in enumerate(gens)}

    def key(m: SuperMonomial):
        u_ix = tuple(index[k] for k in m.u_set)
        t_vec = [0] * len(gens)
        for k, e in m.t_exp:
            t_vec[index[k]] = e
        return (len(m.u_set), u_ix, tuple(t_vec))

    return key


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of given length and sum, lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def reference_free_monomials(gens: Sequence, weight: int) -> list[SuperMonomial]:
    """Every (odd part, t-vector) pair in key order, then sorted by odd
    length, odd part and t-vector, with generators compared by their
    position in gens."""
    if weight < 0:
        raise ValueError("weight must be >= 0")
    keyed = tuple(sorted(gens))
    out = []
    for j in range(min(len(keyed), weight), -1, -1):
        if (weight - j) % 2:
            continue
        tdeg = (weight - j) // 2
        for u_keys in itertools.combinations(keyed, j):
            for t_vec in _compositions(tdeg, len(keyed)):
                t_exp = tuple((g, e) for g, e in zip(keyed, t_vec) if e)
                out.append(SuperMonomial(t_exp, u_keys))
    out.sort(key=_monomial_sort_key(tuple(gens)))
    return out


def free_monomials(gens: Sequence, weight: int) -> list[SuperMonomial]:
    """All monomials of exact weight on the given generator keys, in
    monomial_codes order on sorted(gens)."""
    return _decode(monomial_codes(len(gens), weight), sorted(gens))


def encode(ms: Sequence[SuperMonomial], keys: Sequence | None = None):
    """(keys, codes) with codes[r, i] = 2*t + u of keys[i] in ms[r], the
    layout of superalg.monomial_codes; keys default to the sorted keys that
    ms uses, and no keys leave one zero column."""
    if keys is None:
        keys = sorted({k for m in ms for k in m.keys()})
    column = {k: i for i, k in enumerate(keys)}
    codes = np.zeros((len(ms), max(len(keys), 1)), dtype=np.int64)
    for r, m in enumerate(ms):
        for k, e in m.t_exp:
            codes[r, column[k]] += 2 * e
        for k in m.u_set:
            codes[r, column[k]] += 1
    return tuple(keys), codes
