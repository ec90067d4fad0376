"""Run one round of CLI requests in a fresh interpreter.

    python3 perfbench/worker.py < job.json > result.json

The job is {"requests": [argv, ...], "trace": bool, "outputs": bool}.  The
worker starts a `speedclock.SpeedClock`, imports `localp12.cli` and times
that import, before it loads anything else a CLI process would not, then
calls `localp12.cli.main` once per request, closed loop, with stdout and
stderr captured.  It prints one JSON object: per-request latencies, exit
codes and output digests, the round's time and the import time (all in
the clock's reference seconds), the round's wall time, the median probe
time, the process's peak RSS and, when asked, the outputs themselves and
the per-layer trace.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main():
    sys.path.insert(0, HERE)
    import speedclock

    clock = speedclock.SpeedClock().start()
    sys.path.insert(0, SRC)
    t0 = clock.now()
    import localp12.cli as cli
    import_s = clock.now() - t0

    import contextlib
    import hashlib
    import io
    import json
    import resource
    import statistics

    import tracing

    job = json.load(sys.stdin)
    tracer = tracing.Tracer() if job["trace"] else None
    latencies, codes, digests, outputs, errors = [], [], [], [], []
    out_bytes = 0
    with tracer or contextlib.nullcontext():
        start, wall_start = clock.now(), clock.wall_now()
        for i, argv in enumerate(job["requests"]):
            if tracer:
                tracer.request = i
            out, err = io.StringIO(), io.StringIO()
            t = clock.now()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as stop:
                    code = stop.code
                except Exception as exc:  # recorded as a failed operation
                    code = None
                    err.write("%s: %s" % (type(exc).__name__, exc))
            latencies.append(clock.now() - t)
            text = out.getvalue()
            data = text.encode("utf-8")
            out_bytes += len(data)
            codes.append(code)
            digests.append(hashlib.sha256(data).hexdigest())
            errors.append(err.getvalue())
            if job["outputs"]:
                outputs.append(text)
        round_s, wall_s = clock.now() - start, clock.wall_now() - wall_start
    clock.stop()

    result = {
        "import_s": import_s,
        "round_s": round_s,
        "wall_s": wall_s,
        "probe_s": statistics.median(clock.probes),
        "latencies": latencies,
        "codes": codes,
        "digests": digests,
        "errors": errors,
        "out_bytes": out_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if job["outputs"]:
        result["outputs"] = outputs
    if tracer:
        result["trace"] = tracer.table()
        result["spans"] = tracer.spans
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
