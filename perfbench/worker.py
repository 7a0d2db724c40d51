"""Run one op list through ``liesym.cli.run`` in this fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

JOB names the checkout root, the argv of every op, whether to trace, and
where to write the records.  One caller, one thread, closed loop: each op
starts when the previous one has returned.  The records hold each op's
exit code, stdout, stderr, start and end, and the process's peak RSS.
Checking the outputs is left to the parent, so it costs nothing here.

Before each op index listed in ``pause_at`` (and after the last op, if
the list holds the op count) the worker prints PAUSE_SIGNAL and waits for
a line on stdin while the parent takes its timings of the machine.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback

PAUSE_SIGNAL = "perfbench-pause"  # same string as in run.py


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import liesym.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"liesym imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    run = cli.run
    clock = time.perf_counter
    if job["trace"]:
        from liesym import family, jets, orbits, reduction
        from tracing import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install({"cli": cli, "family": family, "jets": jets,
                        "orbits": orbits, "reduction": reduction})
        clock = tracer.clock

        def run(argv, out, err):
            return tracer.span(ROOT_SPAN, cli.run, argv, out=out, err=err)

    pause_at = set(job["pause_at"])

    def pause():
        print(PAUSE_SIGNAL, flush=True)
        sys.stdin.readline()

    records = []
    for i, argv in enumerate(job["argvs"]):
        if i in pause_at:
            pause()
        if tracer is not None:
            tracer.op = i
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = clock()
        try:
            rc = run(argv, out=out, err=err)
        except Exception:  # an op that raises is a failed op, not a failed run
            rc = None
            error = traceback.format_exc(limit=3)
        t1 = clock()
        records.append({"rc": rc, "t0": t0, "t1": t1, "out": out.getvalue(),
                        "err": err.getvalue(), "error": error})
    if len(records) in pause_at:
        pause()

    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
    }
    if tracer is not None:
        tracer.dump(job["spans"])
        result["counters"] = tracer.counters
    with open(job["records"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
