"""Record the reference stdout digests of every workload's default-seed jobs.

    python3 perfbench/record_reference.py

Writes reference.json.  The reference pins the output of the commit it was
recorded at: rerun this only to re-anchor the benchmark deliberately, never
to make a failing gate pass.
"""

import json
import random
import sys

import gate
import run


def main() -> int:
    digests = {}
    for name, make_jobs in run.WORKLOADS.items():
        jobs = make_jobs(random.Random(run.DEFAULT_SEED))
        out = run.run_pass(jobs, False, run.PASS_TIMEOUT_S)
        if "error" in out:
            print("error: %s: %s" % (name, out["error"]), file=sys.stderr)
            return 1
        for argv, result in zip(jobs, out["jobs"]):
            digests[gate.job_key(argv)] = gate.digest(result["stdout"])
    doc = {"seed": run.DEFAULT_SEED, "stdout_sha256": digests}
    (run.HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
