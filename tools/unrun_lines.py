"""Statement lines of the package that no request of `cli_digests` runs.

    python3 tools/unrun_lines.py [ROOT]

Imports `localp12` from ROOT/src (default: the checkout holding this file)
and runs the request list of `tools/cli_digests.py` through `digest_lines`
under a `sys.settrace` hook that records only the lines executed in
ROOT/src/localp12; the previous tracer is restored afterwards.  The hook is
installed before the package is imported, so lines that run at import count
as run.  Each function (lambdas and comprehensions included) with a statement
line that no request ran prints one line,

    path:first qualname: line line ...

with the lines sorted.  The last line gives the count of lines and
functions.  Tracing the full list
takes a few times as long as `cli_digests.py` itself.
"""

import inspect
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import cli_digests  # noqa: E402


def ran_lines(pkg, run):
    """Call run() and return {path: set of lines it ran} for the files under
    the directory pkg, a function's first line counting as run once it is
    called.  Any tracer set before is set again, also when run() raises."""
    prefix = os.path.abspath(pkg) + os.sep
    ran = {}
    tracers = {}  # co_filename -> (its ran lines, its line tracer), or None outside pkg

    def line_tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return lines, local

    def hook(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name not in tracers:
            path = os.path.abspath(name)
            tracers[name] = (line_tracer(ran.setdefault(path, set()))
                             if path.startswith(prefix) else None)
        found = tracers[name]
        if found is None:
            return None
        lines, local = found
        lines.add(code.co_firstlineno)
        return local

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous)
    return ran


def _functions(code, prefix=""):
    """(qualified name, code object) of each function defined under code."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield name, const
            yield from _functions(const, name + ".")


def unrun(pkg, ran):
    """(path, first line, qualified name, sorted unrun lines) of each function
    in the .py files under pkg with a statement line missing from ran."""
    out = []
    for entry in sorted(os.listdir(pkg)):
        if not entry.endswith(".py"):
            continue
        path = os.path.abspath(os.path.join(pkg, entry))
        with open(path, encoding="utf-8") as fh:
            module = compile(fh.read(), path, "exec")
        seen = ran.get(path, set())
        for name, code in _functions(module):
            lines = {line for _, _, line in code.co_lines() if line is not None} - seen
            if lines:
                out.append((path, code.co_firstlineno, name, sorted(lines)))
    return out


def main(argv):
    root = os.path.abspath(argv[0] if argv else os.path.dirname(HERE))
    sys.path.insert(0, os.path.join(root, "src"))
    pkg = os.path.join(root, "src", "localp12")
    ran = ran_lines(pkg, lambda: cli_digests.digest_lines(cli_digests.requests(root)))
    found = unrun(pkg, ran)
    for path, first, name, lines in found:
        print("%s:%d %s: %s" % (os.path.relpath(path, root), first, name,
                                " ".join(map(str, lines))))
    print("%d lines in %d functions" % (sum(len(f[3]) for f in found), len(found)))


if __name__ == "__main__":
    main(sys.argv[1:])
