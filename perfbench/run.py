"""phiring benchmark: seeded CLI workloads, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a phiring checkout; the package is imported from its
``src/``.  Each pass runs the workload's job list in a fresh interpreter
(``worker.py``) with a pinned environment, so it pays what a command-line
call pays, lru caches included.  Passes repeat, one at a time (a closed
loop with one client), until ``--seconds`` have elapsed.  Every job's
output goes through ``gate.py``.

With ``--trace 0`` the end-to-end metrics are reported, their times at the
nominal speed of the worker's probe kernel; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics of
``spans.py`` are reported, together with the tracing overhead.  Readable
lines come first on stdout; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
HELD_OUT_SEED = 7
SETUP_PROBES = 7
PASS_TIMEOUT_S = 150.0
# End-to-end times are reported at this nominal speed of the worker's probe
# kernel (see worker.py and README.md); about its median on the 2-core VM
# the benchmark was written on.
NOMINAL_PROBE_S = 5e-4

LOCALIZE_JOBS = 40
LOCALIZE_SIZES = [1 + i % 6 for i in range(LOCALIZE_JOBS)]
# Each localize slot holds a fixed template line set, drawn once with this
# seed.  A run's seed moves every template by its own monomial map (a
# permutation of the coordinates and a nonzero scale on each) and shuffles
# its lines.  The map keeps the arrangement's matroid, so its relations and
# Hilbert series, and the number of nonzero coordinates of its reps, which
# sets the size of the oracle's numerators.  So the seed changes which
# arrangements run but not what they cost: with a free draw of line sets
# per slot, even among sets of the same size, zero-sum triples and nonzero
# coordinates, the pass time of seeds 11 to 16 ranged over 11%.
TEMPLATE_SEED = 0


def _lines_p3n3() -> list[tuple[int, ...]]:
    coords = itertools.product(range(3), repeat=3)
    return sorted({gate.canonical_line(c, 3) for c in coords if any(c)})


def _localize_jobs(rng: random.Random) -> list[list[str]]:
    pool = _lines_p3n3()
    template = random.Random(TEMPLATE_SEED)
    jobs = []
    for size in LOCALIZE_SIZES:
        lines = template.sample(pool, size)
        perm, scale = rng.sample(range(3), 3), [rng.choice((1, 2)) for _ in range(3)]
        moved = [gate.canonical_line([scale[i] * line[perm[i]] % 3 for i in range(3)], 3)
                 for line in lines]
        rng.shuffle(moved)
        spec = ";".join(",".join(str(c) for c in line) for line in moved)
        jobs.append(["localize", "--p", "3", "--n", "3", "--cutoff", "6", "--lines", spec])
    return jobs


WORKLOADS = {
    "verify_p7n2": lambda rng: [["phi-verify", "--p", "7", "--n", "2", "--cutoff", "5"]],
    "localize_p3n3": _localize_jobs,
    "rotable_p3n3": lambda rng: [
        ["ro-table", "--p", "3", "--n", "3", "--max-mult", "4", "--k-min", "0", "--k-max", "8"]
    ],
}


def pinned_env() -> dict:
    """The caller's environment without any PYTHON* or PHIRING_* setting,
    plus the pinned ones: one worker, the default column budget, the
    checkout's sources, a fixed hash seed and single-threaded math."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "PHIRING_"))}
    env.update(
        PHIRING_WORKERS="1",
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class BenchmarkError(Exception):
    """The benchmark cannot measure this checkout."""


def run_pass(jobs, trace: bool, timeout: float) -> dict:
    """One pass in a fresh interpreter: the worker's report, or {"error": ...}
    when the interpreter dies, times out or prints no report."""
    request = json.dumps({"jobs": jobs, "trace": trace})
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=request, capture_output=True, text=True, env=pinned_env(),
            cwd=str(ROOT), timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": "pass timed out after %.0f s" % timeout}
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": "pass exited %d: %s" % (proc.returncode, tail[0])}
    if not Path(out["phiring_file"]).resolve().is_relative_to(SRC):
        raise BenchmarkError("imported phiring from %s, not from %s" % (out["phiring_file"], SRC))
    return out


def upper_percentile(samples) -> tuple[float, float]:
    """(q, value): the highest percentile q <= 0.9 with at least 10 samples
    beyond it, or the median when there are fewer than 20 samples."""
    xs = sorted(samples)
    q = max(0.5, min(0.9, 1 - 10 / len(xs)))
    return q, xs[max(0, math.ceil(q * len(xs)) - 1)]


def at_nominal(seconds: float, probe_s: float) -> float:
    """seconds of work that ran while the probe kernel took probe_s,
    rescaled to the nominal speed at which it takes NOMINAL_PROBE_S."""
    return seconds * NOMINAL_PROBE_S / probe_s


def layer_metrics(summary: dict) -> dict:
    """Per-layer values of one traced pass; times in s, the rest counts."""
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    sup_rows = counts["modp.superalg.rows_fed"]
    return {
        "modp.superalg.add_row_s": self_s["modp.superalg.add_row"],
        "modp.superalg.rows_fed": sup_rows,
        "modp.superalg.rank": counts["modp.superalg.rank"],
        "modp.superalg.useful_ratio": counts["modp.superalg.rank"] / sup_rows if sup_rows else 0.0,
        "modp.superalg.cols_max": counts["modp.superalg.cols_max"],
        "modp.oracle.add_row_s": self_s["modp.oracle.add_row"],
        "modp.oracle.rows_fed": counts["modp.oracle.rows_fed"],
        "modp.oracle.rank": counts["modp.oracle.rank"],
        "modp.oracle.cols_max": counts["modp.oracle.cols_max"],
        "modp.pivot_bytes": counts["modp.pivot_bytes"],
        "superalg.quotient_self_s": self_s["superalg.quotient"],
        "superalg.quotient_calls": calls["superalg.quotient"],
        "oracle.hilbert_self_s": self_s["oracle.hilbert"],
        "oracle.span_rank_self_s": self_s["oracle.span_rank"],
        "oracle.span_rank_calls": calls["oracle.span_rank"],
        "oracle.polyext_mul_calls": counts["oracle.polyext_mul_calls"],
        "oracle.embed_s": self_s["oracle.embed"],
        "oracle.embed_calls": calls["oracle.embed"],
        "phi.verify_self_s": self_s["phi.verify"],
        "phi.build_s": self_s["phi.build"],
        "phi.relations": counts.get("phi.relations", 0),
        "charspace.zero_sum_triples_s": self_s["charspace.zero_sum_triples"],
        "charspace.triples": counts.get("charspace.triples", 0),
        "rograde.localize_self_s": self_s["rograde.localize"],
        "rograde.ro_table_self_s": self_s["rograde.ro_table"],
        "rograde.ro_dimension_self_s": self_s["rograde.ro_dimension"],
        "rograde.ro_dimension_calls": calls["rograde.ro_dimension"],
        "cli.self_s": self_s["cli"],
    }


UNITS = {
    "modp.superalg.useful_ratio": "ratio",
    "modp.pivot_bytes": "B_computed",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the pass interpreter in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return measure(args)
    except BenchmarkError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _setup() -> tuple[float, float]:
    """(at nominal speed, as measured) import time of a fresh interpreter
    that runs no job."""
    out = run_pass([], False, PASS_TIMEOUT_S)
    if "error" in out:
        raise BenchmarkError("cannot import phiring: %s" % out["error"])
    return at_nominal(out["import_s"], out["import_probe_s"]), out["import_s"]


def end_to_end(plain: list, setup: list) -> dict:
    """{name: (value, unit, how it was taken)} over the untraced passes,
    every time at nominal speed; and the same times as measured."""
    setup = setup + [(at_nominal(out["import_s"], out["import_probe_s"]), out["import_s"])
                     for out in plain]
    jobs = [[(at_nominal(job["seconds"], job["probe_s"]), job["seconds"]) for job in out["jobs"]]
            for out in plain]
    values, measured = {}, {}
    for i, into in enumerate((values, measured)):
        latencies = [job[i] for pass_jobs in jobs for job in pass_jobs]
        q, p_job = upper_percentile(latencies)
        beyond = sum(1 for x in latencies if x > p_job)
        into["wall_s"] = (statistics.median(sum(job[i] for job in pass_jobs) for pass_jobs in jobs),
                          "s", "median of %d passes" % len(plain))
        into["job_p90_s"] = (p_job, "s", "p%g of %d jobs, %d beyond"
                             % (round(100 * q, 1), len(latencies), beyond))
        into["setup_s"] = (statistics.median(x[i] for x in setup), "s",
                           "median of %d imports" % len(setup))
    values["peak_rss_mb"] = (statistics.median(out["maxrss_kb"] for out in plain) / 1024, "MB",
                             "median of %d passes" % len(plain))
    measured["probe_ms"] = (1e3 * statistics.median(out["probe_s"] for out in plain), "ms",
                            "probe duration in a pass, median of %d; nominal %g"
                            % (len(plain), 1e3 * NOMINAL_PROBE_S))
    return values, measured


def per_layer(plain: list, traced: list, problems: list) -> dict:
    """{name: (value, unit, how it was taken)} over the traced passes; a
    count that differs between traced passes is added to problems."""
    per_pass = [layer_metrics(out["trace"]) for out in traced]
    n = len(traced)
    values = {}
    for name in per_pass[0]:
        samples = [m[name] for m in per_pass]
        unit = unit_of(name)
        if unit == "s":
            values[name] = (statistics.median(samples), unit, "median of %d traced passes" % n)
        elif any(v != samples[0] for v in samples):
            problems.append("%s differs between traced passes: %s" % (name, samples))
            values[name] = (samples[0], unit, "DIFFERS between traced passes")
        else:
            values[name] = (samples[0], unit, "same in all %d traced passes" % n)
    traced_wall = statistics.median(out["wall_s"] for out in traced)
    plain_wall = statistics.median(out["wall_s"] for out in plain)
    values["trace.wall_s"] = (traced_wall, "s", "median of %d traced passes" % n)
    values["trace.overhead_s"] = (traced_wall - plain_wall, "s",
                                  "minus the median of %d untraced passes" % len(plain))
    values["trace.remainder_s"] = (
        statistics.median(out["wall_s"] - out["trace"]["outer_s"] for out in traced), "s",
        "traced wall outside every span, median of %d" % n)
    return values


def measure(args, reference: dict | None = None) -> int:
    """One benchmark run; prints the readable lines and the result line."""
    if not (SRC / "phiring" / "cli.py").is_file():
        raise BenchmarkError("no phiring sources under %s" % SRC)
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())["stdout_sha256"]
    jobs = WORKLOADS[args.workload](random.Random(args.seed))
    began = time.perf_counter()
    _setup()  # the first interpreter may compile the package; later ones reuse it
    setup = [] if args.trace else [_setup() for _ in range(SETUP_PROBES)]

    # Start another pass only if it should end by the deadline, judged by
    # the last pass, so that a run takes about --seconds and no more.
    passes = []
    deadline = time.perf_counter() + args.seconds
    min_passes = 2 if args.trace else 1
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        start = time.perf_counter()
        passes.append((traced, run_pass(jobs, traced, PASS_TIMEOUT_S - (start - began))))
        now = time.perf_counter()
        if len(passes) >= min_passes and now + (now - start) > deadline:
            break

    attempted = failed = 0
    problems = []
    for _, out in passes:
        attempted += len(jobs)
        if "error" in out:
            failed += len(jobs)
            problems.append(out["error"])
            continue
        for job, result in zip(jobs, out["jobs"]):
            reason = gate.check(job, result, reference)
            if reason is not None:
                failed += 1
                problems.append("%s: %s" % (gate.job_key(job), reason))
    plain = [out for traced, out in passes if not traced and "error" not in out]
    traced_out = [out for traced, out in passes if traced and "error" not in out]
    values, measured = {}, {}
    if args.trace and plain and traced_out:
        values = per_layer(plain, traced_out, problems)
    elif not args.trace and plain:
        values, measured = end_to_end(plain, setup)

    env = (plain or traced_out or [{}])[0]
    print("phiring benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: nproc=%s python=%s numpy=%s PHIRING_WORKERS=1 "
          "PHIRING_COLUMN_BUDGET=default PYTHONHASHSEED=0"
          % (os.cpu_count(), env.get("python"), env.get("numpy")))
    print("jobs: %d per pass, %d passes (%d traced); attempted=%d failed=%d fail_frac=%g"
          % (len(jobs), len(passes), sum(t for t, _ in passes), attempted, failed,
             failed / attempted))
    print("pass wall_s: %s" % " ".join(
        "%.3f%s" % (out["wall_s"], "t" if traced else "") for traced, out in passes if "error" not in out))
    for problem in problems[:10]:
        print("FAILED %s" % problem)
    for name, (value, unit, how) in values.items():
        print("%-32s %16.6f %-10s %s" % (name, value, unit, how))
    for name, (value, unit, how) in measured.items():
        print("as measured: %-19s %16.6f %-10s %s" % (name, value, unit, how))
    result = {
        "correct": not problems and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
