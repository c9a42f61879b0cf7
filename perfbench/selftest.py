"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about a minute:

1. two traced runs of verify_p7n2 give exactly the same counts;
2. their ranks are the ones the mathematics fixes: 1176 for the Macaulay
   matrices (columns minus the closed-form dimensions, weights 0..5) and
   111 = 1+8+15+22+29+36 for the oracle;
3. rows fed match the seed-commit figures (16240 and 1287); a change to row
   generation moves these on purpose, so a mismatch is printed, not failed;
4. every default-seed job has a reference digest, and a deliberately wrong
   digest is reported as a failed job;
5. localize_p3n3 passes the gate on the held-out seed.

Exits 0 when checks 1, 2, 4 and 5 hold.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys

import gate
import run

SEED_COMMIT_ROWS = {"modp.superalg.rows_fed": 16240, "modp.oracle.rows_fed": 1287}
RANKS = {"modp.superalg.rank": 1176, "modp.oracle.rank": 111}


def bench(workload: str, seed: int, trace: int, reference: dict | None = None) -> dict:
    """Run one minimal benchmark run in process; return its result line."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.measure(args, reference)
    return json.loads(buf.getvalue().splitlines()[-1])


def main() -> int:
    ok = True

    def report(good: bool, what: str) -> None:
        nonlocal ok
        ok = ok and good
        print("%s  %s" % ("ok  " if good else "FAIL", what))

    first, second = (bench("verify_p7n2", run.DEFAULT_SEED, 1) for _ in range(2))
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] != "s"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] != "s"}
    report(first["correct"] and second["correct"], "traced verify_p7n2 runs are correct")
    report(counts == again, "counts repeat exactly across two runs (%d counts)" % len(counts))
    for name, want in RANKS.items():
        report(counts.get(name) == want, "%s = %s (expected %d)" % (name, counts.get(name), want))
    for name, want in SEED_COMMIT_ROWS.items():
        tag = "same as" if counts.get(name) == want else "NOTE: differs from"
        print("info  %s = %s, %s the seed-commit figure %d" % (name, counts.get(name), tag, want))

    reference = json.loads((run.HERE / "reference.json").read_text())["stdout_sha256"]
    for name, make_jobs in run.WORKLOADS.items():
        jobs = make_jobs(random.Random(run.DEFAULT_SEED))
        covered = sum(gate.job_key(job) in reference for job in jobs)
        report(covered == len(jobs), "%s: %d of %d default-seed jobs have a reference digest"
               % (name, covered, len(jobs)))
    wrong = dict(reference)
    key = gate.job_key(run.WORKLOADS["verify_p7n2"](None)[0])
    wrong[key] = "0" * 64
    bad = bench("verify_p7n2", run.DEFAULT_SEED, 0, wrong)
    report(not bad["correct"] and bad["failed"] == bad["attempted"],
           "a wrong reference digest is reported as a failure")

    held_out = bench("localize_p3n3", run.HELD_OUT_SEED, 0)
    report(held_out["correct"] and held_out["failed"] == 0,
           "localize_p3n3 passes the gate on held-out seed %d" % run.HELD_OUT_SEED)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
