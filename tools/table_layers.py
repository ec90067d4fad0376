"""In-process times of the build and the write of each benchmark table, for comparing trees.

    python3 tools/table_layers.py [ROOT] > layers.json

Imports `localp12` from ROOT/src (default: the checkout holding this file)
and reads the caps that the benchmark's table workload draws from,
`PLAIN_CAPS` and `EXTENDED_CAPS` of ROOT/perfbench/workloads.py, which it
only reads.  For each of those caps and each format it times, warm, in this
one process:

- `build`: `potentials.potential` or `potentials.extended_potential` at the
  caps, the part of a `potential` request that makes the table's terms;
- `write`: `cli.cmd_potential` of the request, with the config the parser
  makes, minus the build: the part that turns the terms into text.  It is
  timed as `cmd_potential` with `cli._the_potential` handing it the
  potential built once, not as a difference of two times, so that the
  noise of the build does not enter it; `cli._the_potential` gets its own
  function back in a `finally`.

Each is the best of REPEAT `timeit` runs of NUMBER calls, after one call
that fills what a process keeps (the classical cubic, tan's coefficients).
The output is one JSON line: `ms`, {"qmax,zorder[,uorder] format": {"build":
ms, "write": ms}} per call in milliseconds, and `best_of`, [REPEAT, NUMBER].
"""

import json
import os
import sys
import timeit

HERE = os.path.dirname(os.path.abspath(__file__))
REPEAT, NUMBER = 7, 20


def table_caps(root):
    """The caps of the benchmark's tables, plain then extended."""
    bench = os.path.join(root, "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    return list(workloads.PLAIN_CAPS) + list(workloads.EXTENDED_CAPS)


def _best_ms(call, repeat, number):
    call()
    return min(timeit.repeat(call, repeat=repeat, number=number)) / number * 1000


def layer_times(caps_list, repeat=REPEAT, number=NUMBER):
    """{"caps format": {"build": ms, "write": ms}} for the `potential` request
    at each caps in caps_list, in JSON and in CSV."""
    from localp12 import cli, potentials

    true = cli._the_potential
    out = {}
    try:
        for caps in caps_list:
            q, z, *u = caps
            build = potentials.extended_potential if u else potentials.potential
            build_ms = _best_ms(lambda: build(*caps), repeat, number)
            pot = build(*caps)
            cli._the_potential = lambda *args: pot
            for fmt in ("json", "csv"):
                argv = ["potential", "--qmax", str(q), "--zorder", str(z), "--format", fmt]
                if u:
                    argv += ["--extended", "--uorder", str(u[0])]
                cfg = cli._merge(cli._build_parser().parse_args(argv))
                write_ms = _best_ms(lambda: cli.cmd_potential(cfg), repeat, number)
                out["%s %s" % (",".join(map(str, caps)), fmt)] = {
                    "build": round(build_ms, 4), "write": round(write_ms, 4)}
    finally:
        cli._the_potential = true
    return out


def main(argv):
    root = os.path.abspath(argv[0] if argv else os.path.dirname(HERE))
    sys.path.insert(0, os.path.join(root, "src"))
    times = layer_times(table_caps(root), REPEAT, NUMBER)
    print(json.dumps({"ms": times, "best_of": [REPEAT, NUMBER]}, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
