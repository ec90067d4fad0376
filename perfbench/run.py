"""Benchmark of the localp12 CLI: three closed-loop workloads, one client.

    python3 perfbench/run.py --workload verify|table|lookup --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The seed makes the workload's
round of requests (see workloads.py).  Each round runs in a fresh
interpreter that imports `localp12.cli` and calls its `main` once per
request, as the CLI would.  A first, untimed round keeps its outputs,
which are checked against `reference`; then timed rounds repeat until S
seconds have passed, and each must print the same bytes as the first.

Times are taken with `speedclock.SpeedClock`, in reference seconds: the
process's CPU time scaled by the CPU speed a probe measured every 5 ms in
the same process, so that the fast and slow spells of a shared host, and
the time spent waiting for a vCPU, cancel out.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are end to end:

    setup_s      median time a fresh interpreter takes to import localp12.cli
    run_s        median time of one round
    req_ms.p50   median latency of one request, over every request of the run
    peak_rss_mb  largest peak RSS of a round's process

With --trace 1 traced and untraced rounds alternate, and the metrics are
the per-layer numbers of tracing.py per traced round (wall seconds), with
the median traced and untraced round times (their difference is the
tracing overhead), the untraced rounds' median wall time and the median
probe time.  Result and trace files go to perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7  # import-only interpreters, on top of one per round
JOB_TIMEOUT_S = 100

sys.path.insert(0, HERE)
import workloads  # noqa: E402


def run_job(requests, trace=False, outputs=False):
    job = json.dumps({"requests": requests, "trace": trace, "outputs": outputs})
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=job, capture_output=True, text=True, timeout=JOB_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout)


def end_to_end_metrics(setup, rounds):
    latencies = [x for r in rounds for x in r["latencies"]]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "run_s": {"value": statistics.median(r["round_s"] for r in rounds), "unit": "s"},
        "req_ms.p50": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
    }


def layer_metrics(traced, plain):
    """Per-layer numbers per round: tracer totals over the traced rounds,
    divided by their count, plus output bytes, the median round time of
    the traced and of the untraced rounds run in between, the untraced
    rounds' median wall time and the median time of the speed probe."""
    n = len(traced)
    totals = {}
    for r in traced:
        for name, value in r["trace"].items():
            totals[name] = totals.get(name, 0) + value
    metrics = {name: {"value": value / n, "unit": "s" if name.endswith("_s") else "count"}
               for name, value in totals.items()}
    metrics["cli.out_bytes"] = {"value": sum(r["out_bytes"] for r in traced) / n, "unit": "bytes"}
    metrics["traced.run_s"] = {"value": statistics.median(r["round_s"] for r in traced), "unit": "s"}
    metrics["untraced.run_s"] = {"value": statistics.median(r["round_s"] for r in plain), "unit": "s"}
    metrics["untraced.wall_s"] = {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"}
    metrics["probe_s"] = {"value": statistics.median(r["probe_s"] for r in plain), "unit": "s"}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "localp12", "cli.py")):
        print("error: no localp12 sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    requests = workloads.WORKLOADS[args.workload](args.seed)
    run_job([])  # compiles the bytecode caches, so no sample pays for it
    setup = [run_job([])["import_s"] for _ in range(SETUP_SAMPLES)]

    first = run_job(requests, outputs=True)  # untimed; its outputs are checked
    timed, plain = [], []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        timed.append(run_job(requests, trace=bool(args.trace)))
        if args.trace:  # untraced rounds in between give the overhead
            plain.append(run_job(requests))
    setup += [r["import_s"] for r in timed + plain]

    # failed operations: a nonzero exit or an exception; the outputs of the
    # others must be right and the same in every round
    failures = []
    for r in timed + plain:
        for argv, code, err in zip(requests, r["codes"], r["errors"]):
            if code != 0:
                failures.append("%s exited %r: %s" % (" ".join(argv), code, err.strip()))
    ok = [i for i, code in enumerate(first["codes"]) if code == 0]
    problems = workloads.check_round(args.workload, [requests[i] for i in ok],
                                     [first["outputs"][i] for i in ok])
    for r in timed + plain:
        if [r["digests"][i] for i in ok] != [first["digests"][i] for i in ok]:
            problems.append("a round printed other bytes than the first")
    for p in (failures + problems)[:20]:
        print("problem: %s" % p, file=sys.stderr)

    attempted = sum(len(r["latencies"]) for r in timed + plain)
    samples = {"rounds": len(timed), "requests": attempted, "setup": len(setup)}
    metrics = layer_metrics(timed, plain) if args.trace else end_to_end_metrics(setup, timed)

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "requests": requests, "samples": samples, "metrics": metrics,
            "problems": problems, "failures": failures,
            "round_s": [r["round_s"] for r in timed],
            "untraced_round_s": [r["round_s"] for r in plain], "setup_s": setup,
            "wall_s": [r["wall_s"] for r in timed], "probe_s": [r["probe_s"] for r in timed],
            "python": sys.version.split()[0], "machine": platform.machine(),
            "cpus": os.cpu_count(),
        }, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["metric", "request", "parent", "start", "end"],
                       "requests": requests, "rounds": [r["spans"] for r in timed]}, fh)

    print("samples: %s" % json.dumps(samples, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
