"""Output gate: decides whether one job's result is correct.

A job passes when it ran to completion with the exit status its own report
implies, its stdout matches the reference digest recorded for the same
command line (when one is recorded), and the output satisfies the checks
of its command:

* ``phi-verify``: exit 0, every ``equal`` flag true, and the closed-form
  row equal to prod_i (1 + (p^(i-1) - 1) x) / (1 - x)^n computed here.
* ``localize``: the arrangement printed is the one requested, weight 0 is 1
  and weight 1 is |S| on both routes, oracle <= presentation weightwise,
  the ``equal`` flags match the rows, exit 1 exactly when some flag is
  false (a gap arrangement, by design), and the oracle row equals
  pi(M_S, x/(1-x)), pi the Poincare polynomial of the F_p-matroid of S
  (Terao), computed here by the Whitney sum over subsets of S.
* ``ro-table``: exit 0, one row per (multidegree, k) pair.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
from math import comb


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def job_key(argv) -> str:
    return " ".join(argv)


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _ints(cells) -> list[int]:
    return [int(c) for c in cells]


def closed_form(p: int, n: int, cutoff: int) -> list[int]:
    num = [1]
    for i in range(1, n + 1):
        c = p ** (i - 1) - 1
        num = [a + c * b for a, b in zip(num + [0], [0] + num)]
    return [
        sum(num[j] * comb(w - j + n - 1, n - 1) for j in range(min(w, n) + 1))
        for w in range(cutoff + 1)
    ]


def rank_mod_p(vectors, p: int) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def matroid_series(vectors, p: int, cutoff: int) -> list[int]:
    """Coefficients of pi(M, x/(1-x)), pi(M, t) = sum_A (-1)^|A| (-t)^rank(A)."""
    pi = [0] * (len(vectors) + 1)
    for size in range(len(vectors) + 1):
        for subset in itertools.combinations(vectors, size):
            r = rank_mod_p(subset, p)
            pi[r] += (-1) ** (size + r)
    return [1] + [
        sum(pi[k] * comb(w - 1, k - 1) for k in range(1, min(w, len(pi) - 1) + 1))
        for w in range(1, cutoff + 1)
    ]


def canonical_line(coords, p: int) -> tuple[int, ...]:
    """The rep of the line through coords whose last nonzero entry is 1."""
    last = next(c for c in reversed(coords) if c % p)
    inv = pow(last, -1, p)
    return tuple(c * inv % p for c in coords)


def _check_phi_verify(argv, status, rows) -> str | None:
    p, n, cutoff = (int(_flag(argv, f)) for f in ("--p", "--n", "--cutoff"))
    if status != 0:
        return "exit status %s, expected 0" % status
    table = {row[0]: row[1:] for row in rows}
    if table.get("closed-form") != [str(v) for v in closed_form(p, n, cutoff)]:
        return "closed-form row differs from the closed form"
    if table.get("presentation") != table["closed-form"] or table.get("oracle") != table["closed-form"]:
        return "presentation or oracle row differs from the closed form"
    if table.get("equal") != ["true"] * (cutoff + 1):
        return "an equal flag is not true"
    return None


def _check_localize(argv, status, rows) -> str | None:
    p, n, cutoff = (int(_flag(argv, f)) for f in ("--p", "--n", "--cutoff"))
    lines = sorted({
        canonical_line(_ints(item.split(",")), p) for item in _flag(argv, "--lines").split(";")
    })
    name = ";".join(" ".join(str(c) for c in line) for line in lines)
    if len(rows) != 4 or [r[:2] for r in rows[1:]] != [[name, "oracle"], [name, "presentation"], [name, "equal"]]:
        return "report does not describe the requested arrangement"
    oracle, pres = _ints(rows[1][2:]), _ints(rows[2][2:])
    if len(oracle) != cutoff + 1 or len(pres) != cutoff + 1:
        return "report does not run through the cutoff"
    if oracle[:2] != [1, len(lines)] or pres[:2] != [1, len(lines)]:
        return "weights 0 and 1 are not 1 and |S|"
    if any(o > q for o, q in zip(oracle, pres)):
        return "oracle exceeds presentation"
    equal = [o == q for o, q in zip(oracle, pres)]
    if rows[3][2:] != ["true" if e else "false" for e in equal]:
        return "equal flags do not match the rows"
    if status != (0 if all(equal) else 1):
        return "exit status %s does not match the equal flags" % status
    if oracle != matroid_series(lines, p, cutoff):
        return "oracle row differs from the matroid Poincare series"
    return None


def _check_ro_table(argv, status, rows) -> str | None:
    p, n, max_mult, k_min, k_max = (
        int(_flag(argv, f)) for f in ("--p", "--n", "--max-mult", "--k-min", "--k-max")
    )
    if status != 0:
        return "exit status %s, expected 0" % status
    labels = (p**n - 1) // 2
    multidegrees = sum(comb(labels + t - 1, t) for t in range(max_mult + 1))
    if rows[:1] != [["multidegree", "k", "dimension"]]:
        return "missing header"
    if len(rows) - 1 != multidegrees * (k_max - k_min + 1):
        return "%d rows, expected one per (multidegree, k)" % (len(rows) - 1)
    if any(len(row) != 3 or not row[2].isdigit() for row in rows[1:]):
        return "malformed row"
    return None


CHECKS = {
    "phi-verify": _check_phi_verify,
    "localize": _check_localize,
    "ro-table": _check_ro_table,
}


def check(argv, result: dict, reference: dict) -> str | None:
    """None when the job's result is correct, else the reason it is not."""
    if result["status"] is None:
        return "crashed: " + result["error"].strip().splitlines()[-1]
    if result["status"] == 2:
        return result["error"] or "refused with exit 2"
    expected = reference.get(job_key(argv))
    if expected is not None and digest(result["stdout"]) != expected:
        return "stdout differs from the reference"
    rows = list(csv.reader(io.StringIO(result["stdout"])))
    try:
        return CHECKS[argv[0]](argv, result["status"], rows)
    except (ValueError, IndexError):
        return "malformed output"
