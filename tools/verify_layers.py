"""In-process times of the parts of one `verify` request, cold and warm, for comparing trees.

    python3 tools/verify_layers.py [ROOT] > layers.json

Imports `localp12` from ROOT/src (default: the checkout holding this file)
and times, in this one process, the parts of `verify --suite all` at the
CLI's default caps:

- each suite that `localp12.cli.SUITE_NAMES` names, run through its entry
  in `cli._SUITES` with the config the parser makes;
- `report_json`: `cli._report_json` over the reports of all the suites;
- `parser`: `cli._build_parser().parse_args` and `cli._merge` of the request.

Each part's first call in the process is timed alone, in the order a
request runs them (the parser, the suites, the writer), with what it fills
for the life of the process: that is the part's cold time, which the first
request of a process pays.  Each part is then timed warm, as the best of
REPEAT `timeit` runs of NUMBER calls.  Last, one more warm call of each part
counts the `Fraction`s it makes, as calls to `Fraction.__new__`, and one
more its `Cyclo` products, as calls to `Cyclo.__mul__` and `__rmul__`.  The
output is one JSON line: `ms`, the best warm time per call of each part in
milliseconds, `cold_ms`, the time of its first call, `fractions`, the
`Fraction`s of one warm call, `cyclo_muls`, the `Cyclo` products of one
warm call, and `best_of`, [REPEAT, NUMBER].  A benchmark trace counts the
three `localization` suites as one span; this gives each suite its own
number.
"""

import json
import os
import sys
import time
import timeit
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ARGV = ["verify", "--suite", "all"]
REPEAT, NUMBER = 7, 50


def _calls(parts, cls, names):
    """{part: the calls of cls's methods `names` that one call of it makes},
    counted by wrapping each method for the length of the calls; the class
    gets its own attributes back in a `finally`."""
    true = {name: cls.__dict__[name] for name in names}
    made = [0]

    def counting(method):
        def count(*args, **kwargs):
            made[0] += 1
            return method(*args, **kwargs)
        return count

    counts = {}
    try:
        for name in names:
            setattr(cls, name, counting(getattr(cls, name)))
        for name, part in parts.items():
            made[0] = 0
            part()
            counts[name] = made[0]
    finally:
        for name, method in true.items():
            setattr(cls, name, method)
    return counts


def fractions_made(parts):
    """{part: the `Fraction`s one call of it makes}, as calls to
    `Fraction.__new__`."""
    return _calls(parts, Fraction, ("__new__",))


def cyclo_muls(parts):
    """{part: the `Cyclo` products one call of it makes}, as calls to
    `Cyclo.__mul__` and its alias `__rmul__`."""
    from localp12.cyclotomic import Cyclo

    return _calls(parts, Cyclo, ("__mul__", "__rmul__"))


def layer_times(repeat=REPEAT, number=NUMBER):
    """({part: best warm ms per call}, {part: ms of its first call},
    {part: `Fraction`s of one warm call}, {part: `Cyclo` products of one
    warm call}) for the parts of one `verify --suite all`."""
    from localp12 import cli

    cold = {}

    def first(name, part):
        start = time.perf_counter()
        out = part()
        cold[name] = round((time.perf_counter() - start) * 1000, 4)
        return out

    def parse():
        return cli._merge(cli._build_parser().parse_args(ARGV))

    cfg = first("parser", parse)
    parts = {name: (lambda run=cli._SUITES[name]: run(cfg)) for name in cli.SUITE_NAMES}
    reports = [first(name, part) for name, part in parts.items()]
    parts["report_json"] = lambda: [cli._report_json(r) for r in reports]
    first("report_json", parts["report_json"])
    parts["parser"] = parse
    warm = {}
    for name, part in parts.items():
        best = min(timeit.repeat(part, repeat=repeat, number=number))
        warm[name] = round(best / number * 1000, 4)
    return warm, cold, fractions_made(parts), cyclo_muls(parts)


def main(argv):
    root = os.path.abspath(argv[0] if argv else os.path.dirname(HERE))
    sys.path.insert(0, os.path.join(root, "src"))
    warm, cold, fractions, muls = layer_times(REPEAT, NUMBER)
    print(json.dumps({"ms": warm, "cold_ms": cold, "fractions": fractions, "cyclo_muls": muls,
                      "best_of": [REPEAT, NUMBER]}, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1:])
