"""Digests of the CLI's bytes over a fixed set of requests, for comparing trees.

    python3 tools/cli_digests.py [ROOT] > digests.txt

Imports `localp12` from ROOT/src (default: the checkout holding this file)
and reads the benchmark's request rounds from ROOT/perfbench/workloads.py,
which it only calls.  Every request runs through `localp12.cli.main` in this
one process, in a temporary directory that holds the config files some of the
requests name, so the output does not depend on where it runs.  Each request
prints one line,

    sha1(stdout)[:12] sha1(stderr)[:12] exit argv

where exit is the exit code, or the type name of an exception that escaped
`main`.  A request that writes its `--out` file has that file's text appended
to its stdout, and the file is removed before the next request.  The last
line gives the sha1 of all the lines before it and their count.  Two trees
print the same CLI bytes on these requests when `diff` of their two outputs
is empty.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

#: config file name -> its text, written into the temporary directory; a name
#: that is not here is a missing file
CONFIGS = {
    "format-xml.json": json.dumps({"format": "xml"}),
    "malformed.json": "{",
    "list.json": "[1]",
    "at-object.json": json.dumps({"at": {"t1": "1", "t2": 2}}),
    "deep.json": "[" * 100_000 + "]" * 100_000,
    "deep-at.json": '{"at": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "nul-out.json": json.dumps({"out": "a\0b"}),
    "empty-out.json": json.dumps({"out": ""}),
    "at-decimal.json": '{"at": {"t1": 0.1000000000000000000001, "t2": 1e-400}}',
}


def requests(root):
    """The request list: the workloads' rounds of seeds 1-5, a table in both
    formats at every cap the table workload draws from, every degree-0 class
    triple, an invariant grid, every suite that the CLI on `sys.path` names,
    small tables in both formats, help texts, refusals of bad input, the
    suites' empty and refused caps, empty and unwritable paths, a table
    written to a file, an extended point with its angle u and its refusal
    without --extended, a config's decimal numbers, and argparse's own
    refusals."""
    bench = os.path.join(root, "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads
    from localp12.cli import SUITE_NAMES

    out = [argv for name in ("verify", "table", "lookup") for seed in range(1, 6)
           for argv in workloads.WORKLOADS[name](seed)]
    for fmt in ("json", "csv"):
        out += [["potential", "--qmax", str(q), "--zorder", str(z), "--format", fmt]
                for q, z in workloads.PLAIN_CAPS]
        out += [["potential", "--extended", "--qmax", str(q), "--zorder", str(z),
                 "--uorder", str(u), "--format", fmt] for q, z, u in workloads.EXTENDED_CAPS]
    out += [["invariants", "--d", "0", "--classes", ",".join(c)]
            for c in itertools.product("1HS", repeat=3)]
    out += [["invariants", "--d", str(d), "--n1", str(n1), "--n2", str(n2)]
            for d in range(1, 9) for n1 in range(4) for n2 in range(7)]
    out += [["verify", "--suite", s] for s in SUITE_NAMES + ("all",)]
    for fmt, q, z in itertools.product(("json", "csv"), range(4), range(7)):
        caps = ["--qmax", str(q), "--zorder", str(z), "--format", fmt]
        out.append(["potential"] + caps)
        out += [["potential", "--extended", "--uorder", str(u)] + caps for u in range(4)]
    out += [argv + ["--help"] for argv in ([], ["potential"], ["invariants"], ["verify"],
                                           ["eval"])]
    out += [
        ["potential", "--format", "xml"],
        ["potential", "--config", "format-xml.json"],
        ["eval", "--at", "t1=x,t2=1"],
        ["eval", "--at", "t1=1/0,t2=1"],
        ["eval", "--config", "missing.json"],
        ["eval", "--config", "malformed.json"],
        ["eval", "--config", "list.json"],
        ["invariants", "--d", "0"],
        ["invariants", "--d", "3"],
        ["eval"],
        ["eval", "--at", "t1=1,t2=2"],
        ["eval", "--at", "t1=1,,t2=2"],
        ["eval", "--config", "at-object.json"],
        ["potential", "--qmax", "-1"],
        ["eval", "--config", "deep.json"],
        ["eval", "--config", "deep-at.json"],
        ["potential", "--config", "nul-out.json"],
        ["verify", "--suite", "bracket", "--qmax", "0"],
        ["verify", "--suite", "degree0", "--qmax", "3"],
        ["verify", "--suite", "residual", "--qmax", "3"],
        ["potential", "--out", ""],
        ["potential", "--config", "empty-out.json"],
        ["invariants", "--d", "1", "--n2", "1", "--config", ""],
        ["potential", "--out", "missing-dir/table.json"],
        ["potential", "--qmax", "1", "--zorder", "2", "--out", "table.json"],
        ["eval", "--extended", "--at", "t1=1,t2=2,z2=1/3,u=1/5"],
        ["eval", "--at", "t1=1,t2=2,u=1"],
        ["eval", "--config", "at-decimal.json"],
        [],
        ["verify", "--uorder", "6"],
        ["potential", "--qmax", "x"],
        ["eval", "--at"],
    ]
    return out


def _sha(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


def _take_written(argv):
    """The text of the file that argv's `--out` names, removed once read, or
    "" when there is no such file."""
    path = next((b for a, b in zip(argv, argv[1:]) if a == "--out"), "")
    if not os.path.isfile(path):
        return ""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    os.remove(path)
    return text


def digest_lines(argvs):
    """One digest line per request, each run through `cli.main` in a temporary
    directory holding `CONFIGS`; an exception that escapes `main` is recorded
    by its type name in the exit field, and the next request runs.  A file
    the request writes with `--out` counts as its stdout's continuation."""
    from localp12 import cli

    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIGS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(tmp)
        try:
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(argv))
                    except Exception as exc:
                        code = type(exc).__name__
                out.write(_take_written(argv))
                lines.append("%s %s %s %s" % (_sha(out.getvalue()), _sha(err.getvalue()),
                                              code, " ".join(argv)))
        finally:
            os.chdir(cwd)
    return lines


def main(argv):
    root = os.path.abspath(argv[0] if argv else os.path.dirname(HERE))
    # help texts wrap at the terminal width
    os.environ["COLUMNS"] = "80"
    sys.path.insert(0, os.path.join(root, "src"))
    lines = digest_lines(requests(root))
    total = hashlib.sha1("".join(line + "\n" for line in lines).encode("utf-8")).hexdigest()
    print("\n".join(lines))
    print("total %s %d requests" % (total, len(lines)))


if __name__ == "__main__":
    main(sys.argv[1:])
