"""Warm in-process times of the parts of one `verify` request, for comparing trees.

    python3 tools/verify_layers.py [ROOT] > layers.json

Imports `localp12` from ROOT/src (default: the checkout holding this file)
and times, in this one process, the parts of `verify --suite all` at the
CLI's default caps:

- each suite that `localp12.cli.SUITE_NAMES` names, run through its entry
  in `cli._SUITES` with the config the parser makes;
- `report_json`: `cli._report_json` over the reports of all the suites;
- `parser`: `cli._build_parser().parse_args` and `cli._merge` of the request.

Each part is called once untimed, so that what it caches for the life of the
process is filled, and then timed as the best of REPEAT `timeit` runs of
NUMBER calls.  The output is one JSON line: `ms`, the best time per call of
each part in milliseconds, and `best_of`, [REPEAT, NUMBER].  A benchmark
trace counts the three `localization` suites as one span; this gives each
suite its own number.
"""

import json
import os
import sys
import timeit

HERE = os.path.dirname(os.path.abspath(__file__))
ARGV = ["verify", "--suite", "all"]
REPEAT, NUMBER = 7, 50


def layer_times(repeat=REPEAT, number=NUMBER):
    """{part: best ms per call} for the parts of one `verify --suite all`."""
    from localp12 import cli

    def parse():
        return cli._merge(cli._build_parser().parse_args(ARGV))

    cfg = parse()
    parts = {name: (lambda run=cli._SUITES[name]: run(cfg)) for name in cli.SUITE_NAMES}
    reports = [run() for run in parts.values()]
    parts["report_json"] = lambda: [cli._report_json(r) for r in reports]
    parts["parser"] = parse
    out = {}
    for name, part in parts.items():
        part()
        best = min(timeit.repeat(part, repeat=repeat, number=number))
        out[name] = round(best / number * 1000, 4)
    return out


def main(argv):
    root = os.path.abspath(argv[0] if argv else os.path.dirname(HERE))
    sys.path.insert(0, os.path.join(root, "src"))
    print(json.dumps({"ms": layer_times(), "best_of": [REPEAT, NUMBER]}, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
