"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All comparisons are exact integer equality (zero tolerance); the stated
wall-clock budgets are asserted as well.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from math import prod

from phiring import cli
from phiring.charspace import (
    Character,
    GroupContext,
    enumerate_characters,
    enumerate_Fn,
    enumerate_lines,
    line_of,
    subset_rank_count,
)
from phiring.oracle import vanishing
from phiring.phi import build_phi_presentation, closed_form_series, verify_phi
from phiring.rograde import localized_hilbert, multidegree, ro_dimension
from phiring.ssq import e1_dim, e2_dim, e2_total
from relation_reference import relation_image
from subset_rank_reference import is_echelon_set, subset_rank_count_bruteforce


def report(num: int, description: str, passed: bool, elapsed: float) -> None:
    line = "ACCEPTANCE %d: %s - %s (%.1fs)" % (
        num,
        "PASS" if passed else "FAIL",
        description,
        elapsed,
    )
    print(line)
    assert passed, line


def test_criterion_1_relation_vanishing():
    t0 = time.time()
    passed = True
    for p, n in [(3, 2), (3, 3), (5, 2), (7, 2)]:
        ctx = GroupContext(p, n)
        for verbatim in (False, True):
            pres = build_phi_presentation(ctx, verbatim_mode=verbatim)
            passed = passed and all(
                relation_image(rel, ctx).is_zero() for rel in pres.relations
            )
            # the check that phi-verify and localize run, on the same relations
            passed = passed and vanishing(pres).tolist() == [True] * len(pres.relations)
    elapsed = time.time() - t0
    report(1, "every instantiated relation vanishes in the oracle", passed, elapsed)
    assert elapsed < 10.0


def test_criterion_2_three_way_hilbert_agreement():
    t0 = time.time()
    expected_starts = {
        (3, 1): [1, 1, 1, 1],
        (3, 2): [1, 4, 7, 10],
        (5, 2): [1, 6, 11, 16],
        (3, 3): [1, 13, 52, 118],
    }
    passed = True
    for (p, n), cutoff in [((3, 1), 10), ((3, 2), 8), ((5, 2), 6), ((3, 3), 4)]:
        rep = verify_phi(GroupContext(p, n), cutoff)
        passed = passed and rep.ok
        passed = passed and list(rep.closed_form[:4]) == expected_starts[(p, n)]
    elapsed = time.time() - t0
    report(2, "closed form = presentation = oracle weightwise", passed, elapsed)
    assert elapsed < 300.0


def test_criterion_3_verbatim_mode_documents_the_discrepancy():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "phiring.cli", "phi-verify", "--p", "3", "--n", "2",
         "--verbatim", "--cutoff", "2", "--format", "json"],
        capture_output=True,
    )
    rep = json.loads(proc.stdout)
    passed = (
        proc.returncode != 0
        and rep["presentation"][1] == 8
        and rep["closed_form"][1] == 4
        and rep["oracle"][1] == 4
        and 1 in rep["mismatched_weights"]
    )
    report(3, "verbatim run flags weight 1 (8 vs 4) and exits nonzero", passed, time.time() - t0)


def test_criterion_4_echelon_family_and_second_page():
    t0 = time.time()
    passed = True
    for p in (3, 5):
        for n in range(1, 5):
            ctx = GroupContext(p, n)
            family = enumerate_Fn(ctx)
            passed = passed and len(family) == prod(
                1 + p ** (i - 1) for i in range(1, n + 1)
            )
            passed = passed and all(is_echelon_set(sub.elems) for sub in family)
    ctx = GroupContext(3, 2)
    brute = set()
    chars = list(enumerate_characters(ctx))
    for size in range(ctx.n + 1):
        for sub in itertools.combinations(chars, size):
            if is_echelon_set(sub):
                brute.add(tuple(sorted(sub, key=lambda chi: chi.pivot())))
    passed = passed and {s.elems for s in enumerate_Fn(ctx)} == brute and len(brute) == 8
    for (p, n), cutoff in [((3, 2), 10), ((3, 3), 8), ((5, 2), 8)]:
        ctx = GroupContext(p, n)
        closed = closed_form_series(ctx, cutoff)
        passed = passed and all(e2_total(ctx, d) == closed[d] for d in range(cutoff + 1))
        passed = passed and all(
            e2_dim(ctx, s, d) <= e1_dim(ctx, s, d)
            for s in range(cutoff + 1)
            for d in range(cutoff + 1)
        )
    elapsed = time.time() - t0
    report(4, "echelon-family identities and second-page totals", passed, elapsed)
    assert elapsed < 10.0


def test_criterion_5_subset_rank_counts():
    t0 = time.time()
    ctx = GroupContext(3, 2)
    passed = all(
        subset_rank_count(ctx, s, r) == subset_rank_count_bruteforce(ctx, s, r)
        for s in range(ctx.num_characters + 1)
        for r in range(min(s, ctx.n) + 1)
    )
    report(5, "rank-count recurrence matches brute force for p=3, n=2", passed, time.time() - t0)


def test_criterion_6_representation_graded_spot_dimensions():
    t0 = time.time()
    ctx = GroupContext(3, 2)
    alpha, beta = Character((1, 0)), Character((0, 1))
    checks = [
        ro_dimension(ctx, multidegree(ctx, {alpha: 1}, 2)) == 1,
        ro_dimension(ctx, multidegree(ctx, {alpha: 1, beta: 1}, 3)) == 2,
        ro_dimension(
            GroupContext(5, 1),
            multidegree(GroupContext(5, 1), {Character((1,)): 1, Character((2,)): 1}, 2),
        )
        == 0,
    ]
    row = {
        k: ro_dimension(ctx, multidegree(ctx, {alpha: 2}, k)) for k in range(2, 5)
    }
    checks.append(row == {2: 0, 3: 1, 4: 1})
    passed = all(checks)
    elapsed = time.time() - t0
    report(6, "representation-graded spot dimensions (1, 2, 0) and the m=2 row", passed, elapsed)
    assert elapsed < 10.0


def test_criterion_7_localization_suite():
    t0 = time.time()
    ctx = GroupContext(3, 3)
    lines = list(enumerate_lines(ctx))
    rng = random.Random(20240917)
    passed = True
    flags = []
    for _ in range(20):
        size = rng.randint(1, 4)
        S = sorted(rng.sample(lines, size))
        res = localized_hilbert(ctx, S, 5)  # asserts oracle <= presentation
        passed = passed and all(
            a <= b for a, b in zip(res.oracle, res.presentation)
        )
        flags.append(res.equal)
    single = localized_hilbert(ctx, [lines[0]], 5)
    passed = passed and single.oracle == single.presentation == (1,) * 6
    indep = [line_of(Character((1, 0, 0)), ctx), line_of(Character((0, 1, 0)), ctx)]
    res = localized_hilbert(ctx, indep, 5)
    passed = passed and res.oracle == res.presentation == tuple(range(1, 7))
    elapsed = time.time() - t0
    report(
        7,
        "20 random arrangements dominated, hand-checkable ones equal (%d/20 fully equal)"
        % sum(all(f) for f in flags),
        passed,
        elapsed,
    )
    assert elapsed < 600.0


def test_criterion_8_byte_determinism():
    t0 = time.time()
    commands = [
        ["lines", "--p", "3", "--n", "2"],
        ["fn-enum", "--p", "3", "--n", "2"],
        ["series", "--p", "3", "--n", "2", "--cutoff", "5"],
        ["phi-verify", "--p", "3", "--n", "2", "--cutoff", "3"],
        ["phi-basis", "--p", "3", "--n", "2", "--weight", "2"],
        ["e1-table", "--p", "3", "--n", "2", "--cutoff", "3"],
        ["e2-table", "--p", "3", "--n", "2", "--cutoff", "3"],
        ["collapse-check", "--p", "3", "--n", "2", "--cutoff", "4"],
        ["ro-dim", "--p", "3", "--n", "2", "--mult", "1,0:1;0,1:1", "--k", "3"],
        ["ro-table", "--p", "3", "--n", "1", "--max-mult", "2", "--k-min", "0", "--k-max", "4"],
        ["localize", "--p", "3", "--n", "2", "--cutoff", "3", "--lines", "1,0;0,1;1,1",
         "--seed", "5"],
        ["relation-check", "--p", "3", "--n", "2"],
    ]
    passed = True
    for argv in commands:
        outputs = set()
        codes = set()
        for seed in ("0", "1"):
            for _ in range(2):
                env = dict(os.environ)
                env["PYTHONHASHSEED"] = seed
                proc = subprocess.run(
                    [sys.executable, "-m", "phiring.cli", *argv],
                    capture_output=True,
                    env=env,
                )
                outputs.add(proc.stdout)
                codes.add(proc.returncode)
        passed = passed and len(outputs) == 1 and len(codes) == 1
    report(8, "all commands byte-identical across runs and hash seeds", passed, time.time() - t0)
