"""One benchmark pass in a fresh interpreter.

Reads {"jobs": [argv, ...], "trace": bool} as JSON on stdin, imports
phiring.cli (timed), runs every job through ``cli.config_from_args`` and
``cli.run`` as the command line would, and writes one JSON object to
stdout: the import time, the wall time of the job loop, ``ru_maxrss``, and
per job the exit status, latency and stdout text; for the import, the loop
and each job also the speed probe's duration there (see below).  With
"trace" set, the span tracer of ``spans.py`` is installed after import and
its summary is included.  Run by ``run.py``; it is not meant to be called by hand.
"""

import json
import platform
import resource
import signal
import sys
import time
import traceback

# Speed probe: in untraced passes a SIGALRM handler times a fixed
# pure-Python kernel every PROBE_EVERY_S of wall time, from before the
# import to the end of the last job.  The host runs this VM's cores at
# speeds that differ by up to 1.7 times for tens of seconds, and the kernel
# slows with the jobs (see README.md), so the probes nearest a stretch of
# work give the speed it ran at.  Their own time is taken out of every
# reported time.  Traced passes are not probed, so no span holds probe time.
PROBE_EVERY_S = 0.02
probes = []  # (start, seconds) of every probe


def kernel() -> int:
    table = {}
    for i in range(3000):
        table[i & 255] = table.get((i * 7) & 255, 0) + i
    return len(table)


def probe(signum, frame) -> None:
    t = time.perf_counter()
    kernel()
    probes.append((t, time.perf_counter() - t))


def timed(start: float, end: float) -> tuple[float, float | None]:
    """(seconds of [start, end) outside probes, harmonic mean of the probe
    durations in it).  Probes come at even intervals, so the harmonic mean
    weights each speed by the time spent at it; a median misses a change of
    speed inside a long job.  A stretch too short to hold a probe takes the
    duration of the nearest one; without probes the duration is None."""
    inside = [d for t, d in probes if start <= t < end]
    if inside:
        return end - start - sum(inside), len(inside) / sum(1 / d for d in inside)
    if probes:
        return end - start, min(probes, key=lambda p: min(abs(p[0] - start), abs(p[0] - end)))[1]
    return end - start, None


def main() -> None:
    request = json.load(sys.stdin)
    if not request["trace"]:
        kernel()  # warm-up
        probe(None, None)  # so that even a stretch shorter than a period has a nearest probe
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    t0 = time.perf_counter()
    from phiring import cli

    t1 = time.perf_counter()
    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    jobs, spans = [], []
    start = time.perf_counter()
    for argv in request["jobs"]:
        t = time.perf_counter()
        error = ""
        try:
            status, text = cli.run(cli.config_from_args(argv))
        except cli.UsageError as exc:
            status, text, error = 2, "", "refused: %s" % exc
        except SystemExit as exc:  # argparse rejected the arguments
            status, text, error = 2, "", "usage error (exit %s)" % exc.code
        except Exception:  # a crash is a failed job, not a failed pass
            status, text, error = None, "", traceback.format_exc()
        spans.append((t, time.perf_counter()))
        jobs.append({"status": status, "stdout": text, "error": error})
    end = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0)
    for job, span in zip(jobs, spans):
        job["seconds"], job["probe_s"] = timed(*span)
    import_s, import_probe_s = timed(t0, t1)
    wall_s, probe_s = timed(start, end)
    out = {
        "import_s": import_s,
        "import_probe_s": import_probe_s,
        "wall_s": wall_s,
        "probe_s": probe_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "phiring_file": cli.__file__,
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "jobs": jobs,
        "trace": tracer.summary() if tracer else None,
    }
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
