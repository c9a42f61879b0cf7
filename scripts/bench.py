#!/usr/bin/env python3
"""Time phiring jobs end to end and the two routes weight by weight, and
write the figures to BENCH_<label>.json.

Examples:
    python scripts/bench.py --label before
    python scripts/bench.py --label after --jobs 7,2,5 3,3,4 --repeat 5
    python scripts/bench.py --label lz --jobs "localize --p 3 --n 3 --cutoff 6 --sample 20"

A job is either p,n,cutoff, which stands for `phi-verify --p p --n n
--cutoff cutoff`, or a whole phiring command line.  Every job runs in fresh
interpreters that import phiring from this checkout's src/, with
single-threaded BLAS:

* end to end, --repeat times: `python -m phiring.cli <job>` with the wall
  time, exit status, peak resident memory and stdout digest of each run
  (equal digests mean byte-identical reports);
* for a p,n,cutoff job, also once by layer: the closed form,
  closed_form_series up to the cutoff, and the building of the presentation
  are timed; then for each weight w the presentation route,
  quotient_dimension(pres, w), and the weight-w step of the oracle's
  subring_hilbert, span_rank on the monomial_codes of the lines, are timed,
  with the columns (free monomials) and the dimension each route finds.
  Each route's time is split into building its rows (the Macaulay entries;
  the oracle's dx-degree blocks) and eliminating them.

Needs only the standard library and numpy.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_JOBS = [
    "5,2,6",
    "7,2,5",
    "7,2,7",
    "3,3,4",
    "3,3,5",
    "7,3,1",
    "3,4,1",
    "localize --p 3 --n 3 --cutoff 6 --sample 20 --sample-max-size 6",
    "ro-table --p 3 --n 3 --max-mult 4 --k-max 8",
    "relation-check --p 5 --n 3",
]
ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src"),
    PYTHONHASHSEED="0",
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


def parse_job(text):
    """(argv, (p, n, cutoff)) of a p,n,cutoff job; (argv, None) of a
    command line."""
    if " " in text.strip():
        return text.split(), None
    p, n, cutoff = (int(v) for v in text.split(","))
    return ["phi-verify", "--p", str(p), "--n", str(n), "--cutoff", str(cutoff)], (p, n, cutoff)


def run(argv):
    """Run argv; return its seconds, exit status, stdout and peak RSS in MB."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=ENV) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, proc.returncode, out, usage.ru_maxrss / 1024


def layers(p, n, cutoff):
    """Per-weight timings of both routes, as a JSON-ready dict."""
    from phiring.charspace import GroupContext, enumerate_lines
    from phiring.oracle import span_rank
    from phiring.phi import build_phi_presentation, closed_form_series
    from phiring.superalg import monomial_codes, quotient_dimension

    ctx = GroupContext(p, n)
    start = time.perf_counter()
    closed_form_series(ctx, cutoff)
    closed_form_s = time.perf_counter() - start
    start = time.perf_counter()
    pres = build_phi_presentation(ctx)
    build_s = time.perf_counter() - start
    gens = tuple(sorted(set(enumerate_lines(ctx))))
    weights = []
    for w in range(cutoff + 1):
        codes = monomial_codes(len(gens), w)
        pres_times = {"rows_s": 0.0, "elim_s": 0.0}
        start = time.perf_counter()
        pres_dim = quotient_dimension(pres, w, pres_times)
        pres_s = time.perf_counter() - start
        times = {"rows_s": 0.0, "elim_s": 0.0}
        start = time.perf_counter()
        oracle_dim = span_rank(gens, codes, w, ctx, times)
        oracle_s = time.perf_counter() - start
        weights.append({
            "weight": w,
            "columns": len(codes),
            "presentation_s": round(pres_s, 4),
            "presentation_rows_s": round(pres_times["rows_s"], 4),
            "presentation_elim_s": round(pres_times["elim_s"], 4),
            "presentation_dim": pres_dim,
            "oracle_s": round(oracle_s, 4),
            "oracle_rows_s": round(times["rows_s"], 4),
            "oracle_elim_s": round(times["elim_s"], 4),
            "oracle_dim": oracle_dim,
        })
    return {"closed_form_s": round(closed_form_s, 4), "build_s": round(build_s, 4),
            "weights": weights}


def bench_job(text, repeat):
    argv, triple = parse_job(text)
    runs = [run([sys.executable, "-m", "phiring.cli", *argv]) for _ in range(repeat)]
    walls = [seconds for seconds, _, _, _ in runs]
    by_layer = {}
    if triple is not None:
        _, layer_status, out, _ = run([sys.executable, __file__, "--layers", text])
        if layer_status != 0:
            raise SystemExit("layer timing of %s failed with exit %d" % (text, layer_status))
        by_layer = json.loads(out)
    return {
        "job": " ".join(argv),
        "wall_s": [round(s, 3) for s in walls],
        "wall_s_median": round(statistics.median(walls), 3),
        "exit": sorted({status for _, status, _, _ in runs}),
        "max_rss_mb": round(max(rss for _, _, _, rss in runs), 1),
        "stdout_sha256": sorted({hashlib.sha256(out).hexdigest() for _, _, out, _ in runs}),
        **by_layer,
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--jobs", nargs="+", default=DEFAULT_JOBS,
                        help="p,n,cutoff triples or quoted phiring command lines")
    parser.add_argument("--repeat", type=int, default=3, help="end-to-end runs per job")
    parser.add_argument("--out-dir", default=".", help="directory for the output file")
    parser.add_argument("--layers", metavar="P,N,CUTOFF", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.layers:
        print(json.dumps(layers(*parse_job(args.layers)[1])))
        return
    if not args.label or args.repeat < 1:
        parser.error("--label is required and --repeat must be positive")
    import numpy

    report = {
        "label": args.label,
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "repeat": args.repeat,
        "jobs": [],
    }
    for text in args.jobs:
        job = bench_job(text, args.repeat)
        print("%-66s median %8.3f s  max RSS %7.1f MB  exit %s"
              % (job["job"], job["wall_s_median"], job["max_rss_mb"], job["exit"]), flush=True)
        report["jobs"].append(job)
    path = Path(args.out_dir) / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("wrote", path)


if __name__ == "__main__":
    main()
