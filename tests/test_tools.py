import importlib.util
import json
import os
import subprocess
import sys

import pytest

from localp12 import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", name + ".py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_digests_cover_every_command_suite_and_format_and_repeat():
    tool = _tool("cli_digests")
    argvs = tool.requests(ROOT)
    workloads = importlib.import_module("workloads")  # on sys.path once requests has run
    assert {a[0] for a in argvs if a and a[0] != "--help"} == set(cli._COMMANDS)
    assert {a[a.index("--suite") + 1] for a in argvs if "--suite" in a} >= set(cli.SUITE_NAMES)
    assert {a[a.index("--format") + 1] for a in argvs if "--format" in a} >= {"json", "csv"}
    # a table in both formats at every cap the benchmark's table workload draws
    tables = {(tuple(a[a.index(flag) + 1] for flag in ("--qmax", "--zorder", "--uorder")
                     if flag in a), a[a.index("--format") + 1])
              for a in argvs if a[:1] == ["potential"] and "--format" in a}
    for caps in workloads.PLAIN_CAPS + workloads.EXTENDED_CAPS:
        for fmt in ("json", "csv"):
            assert (tuple(map(str, caps)), fmt) in tables
    # the config refusals, the bracket's empty report, the per-suite cap
    # refusals, the empty and unwritable paths, a table written to a file, an
    # extended point's angle u and its refusal without --extended, a config's
    # decimal numbers and argparse's own refusals
    for argv in (["eval", "--config", "deep.json"], ["eval", "--config", "deep-at.json"],
                 ["potential", "--config", "nul-out.json"],
                 ["verify", "--suite", "bracket", "--qmax", "0"],
                 ["verify", "--suite", "degree0", "--qmax", "3"],
                 ["verify", "--suite", "residual", "--qmax", "3"],
                 ["potential", "--out", ""], ["potential", "--config", "empty-out.json"],
                 ["invariants", "--d", "1", "--n2", "1", "--config", ""],
                 ["potential", "--out", "missing-dir/table.json"],
                 ["potential", "--qmax", "1", "--zorder", "2", "--out", "table.json"],
                 ["eval", "--extended", "--at", "t1=1,t2=2,z2=1/3,u=1/5"],
                 ["eval", "--at", "t1=1,t2=2,u=1"],
                 ["eval", "--config", "at-decimal.json"],
                 [], ["verify", "--uorder", "6"], ["potential", "--qmax", "x"], ["eval", "--at"]):
        assert argv in argvs
    assert {"deep.json", "deep-at.json", "nul-out.json", "empty-out.json",
            "at-decimal.json"} <= set(tool.CONFIGS)
    first = tool.digest_lines(argvs[:20])
    assert len(first) == 20
    assert tool.digest_lines(argvs[:20]) == first


def test_cli_digests_hash_a_written_table_as_the_request_output(capsys):
    """A table written with --out is digested as if it had gone to stdout,
    and the file is gone before the next request."""
    tool = _tool("cli_digests")
    argv = ["potential", "--qmax", "1", "--zorder", "2"]
    refused = ["potential", "--format", "xml", "--out", "table.json"]
    written, after = tool.digest_lines([argv + ["--out", "table.json"], refused])
    assert cli.main(argv) == 0
    assert written == " ".join([tool._sha(capsys.readouterr().out), tool._sha(""), "0", *argv,
                                "--out", "table.json"])
    assert after.split()[0] == tool._sha("") and after.split()[2] == "2"


def test_cli_digests_record_an_escaped_exception_and_go_on(monkeypatch):
    tool = _tool("cli_digests")
    main = cli.main

    def flaky(argv):
        if argv == ["boom"]:
            raise RecursionError("deep")
        return main(argv)
    monkeypatch.setattr(cli, "main", flaky)
    boom, after = tool.digest_lines([["boom"], ["invariants", "--d", "1", "--n2", "1"]])
    assert boom.split()[2:] == ["RecursionError", "boom"]
    assert after.split()[2] == "0"


def test_the_tracer_counts_a_suite_the_cli_imported_before_it_was_installed():
    """The benchmark's worker imports the CLI, then installs the tracer, then
    runs requests.  `Tracer.install` patches only the `localp12` modules
    loaded before it runs, so a suite module the CLI imported lazily would
    go uncounted; the corollary suite, imported eagerly, is counted."""
    code = """if True:
        import contextlib, io, json
        import localp12.cli as cli
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", "corollary"])
        print(json.dumps([code, tracer.table()]))
    """
    path = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    exit_code, table = json.loads(done.stdout)
    assert exit_code == 0
    assert table["pcrc.corollary.calls"] == 1 and table["cli.main.calls"] == 1


def test_verify_layers_times_each_suite_the_writer_and_the_parser():
    warm, cold, fractions, muls = _tool("verify_layers").layer_times(repeat=1, number=1)
    parts = set(cli.SUITE_NAMES) | {"report_json", "parser"}
    assert set(warm) == set(cold) == set(fractions) == set(muls) == parts
    assert all(type(t) is float and t > 0 for t in [*warm.values(), *cold.values()])
    assert all(type(n) is int and n >= 0 for n in [*fractions.values(), *muls.values()])
    # the parser, the writer and the integer suites make none; the bracket and
    # residual series run in Q(zeta12), so only resummation's Fraction waves make many
    assert fractions["parser"] == fractions["report_json"] == fractions["assembly"] == 0
    assert fractions["bracket"] <= 10 and fractions["residual"] <= 10
    assert fractions["resummation"] > 0
    # the field checks multiply in Q(zeta12); the parser and the writer do not
    assert muls["parser"] == muls["report_json"] == 0
    assert muls["bracket"] > 0 and muls["residual"] > 0


def test_verify_layers_counts_the_fractions_of_each_call_and_restores_the_class():
    from fractions import Fraction

    tool = _tool("verify_layers")
    true_new = Fraction.__dict__["__new__"]
    made = tool.fractions_made({"none": lambda: 3 * 4,
                                "two": lambda: (Fraction(1, 3), Fraction(2)),
                                "one": lambda: [Fraction(6, 4)]})
    assert made == {"none": 0, "two": 2, "one": 1}
    assert Fraction.__dict__["__new__"] is true_new
    with pytest.raises(ZeroDivisionError):
        tool.fractions_made({"raises": lambda: Fraction(1, 0)})
    assert Fraction.__dict__["__new__"] is true_new and Fraction(6, 4) == Fraction(3, 2)


def test_verify_layers_counts_the_cyclo_products_of_each_call_and_restores_the_class():
    from fractions import Fraction

    from localp12.cyclotomic import I, ONE, Cyclo

    tool = _tool("verify_layers")
    true_mul, true_rmul = Cyclo.__dict__["__mul__"], Cyclo.__dict__["__rmul__"]
    made = tool.cyclo_muls({"none": lambda: (I + ONE, Fraction(1, 3) * 3),
                            "two": lambda: (I * I, 2 * I),
                            "one": lambda: [ONE * Fraction(1, 2)],
                            "power": lambda: I**4})
    # I**4 squares twice and multiplies the unit once
    assert made == {"none": 0, "two": 2, "one": 1, "power": 3}
    assert Cyclo.__dict__["__mul__"] is true_mul and Cyclo.__dict__["__rmul__"] is true_rmul
    with pytest.raises(TypeError):
        tool.cyclo_muls({"raises": lambda: I * "x"})
    assert Cyclo.__dict__["__mul__"] is true_mul and Cyclo.__dict__["__rmul__"] is true_rmul
    assert I * I == -ONE and 2 * I == I + I


def test_verify_layers_prints_warm_and_cold_times_on_one_line(monkeypatch, capsys):
    tool = _tool("verify_layers")
    monkeypatch.setattr(tool, "REPEAT", 1)
    monkeypatch.setattr(tool, "NUMBER", 2)
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool.main([ROOT])
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    record = json.loads(out)
    assert set(record) == {"ms", "cold_ms", "fractions", "cyclo_muls", "best_of"}
    assert record["best_of"] == [1, 2]
    assert set(record["ms"]) == set(record["cold_ms"]) == set(record["fractions"]) == set(
        record["cyclo_muls"]) == set(cli.SUITE_NAMES) | {"report_json", "parser"}
    assert record["fractions"]["assembly"] == 0


def _body_lines(code):
    return {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}


def test_unrun_lines_lists_the_functions_no_request_ran(monkeypatch, capsys):
    from localp12 import mpseries, pcrc

    tool = _tool("unrun_lines")
    argvs = [["verify", "--suite", "residual"], ["invariants", "--d", "1", "--n2", "1"]]
    monkeypatch.setattr(tool.cli_digests, "requests", lambda root: argvs)
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool.main([ROOT])
    out = capsys.readouterr().out.splitlines()
    found = {}  # (path, first line, qualified name) -> unrun lines
    for line in out[:-1]:
        where, lines = line.split(": ")
        path, name = where.split(" ")
        path, first = path.split(":")
        found[path, int(first), name] = {int(n) for n in lines.split()}
    assert out[-1] == "%d lines in %d functions" % (
        sum(map(len, found.values())), len(found))
    src = os.path.join("src", "localp12")
    assert {path for path, _, _ in found} <= {
        os.path.join(src, name) for name in os.listdir(os.path.join(ROOT, src))}
    # a passing residual case takes no inverse; the residual check and main ran
    for fn, ran in ((mpseries.inverse, False), (pcrc.verify_residual_thirdderiv, True),
                    (cli.main, True)):
        code = fn.__code__
        key = (os.path.relpath(code.co_filename, ROOT), code.co_firstlineno, fn.__name__)
        assert (_body_lines(code) <= found.get(key, set())) is not ran


def test_unrun_lines_restores_the_previous_tracer():
    tool = _tool("unrun_lines")
    pkg = os.path.join(ROOT, "src", "localp12")

    def mine(frame, event, arg):
        return None

    def boom():
        raise RuntimeError("boom")

    previous = sys.gettrace()
    sys.settrace(mine)
    try:
        ran = tool.ran_lines(pkg, lambda: cli.main(["invariants", "--d", "1", "--n2", "1"]))
        assert sys.gettrace() is mine
        with pytest.raises(RuntimeError):
            tool.ran_lines(pkg, boom)
        assert sys.gettrace() is mine
    finally:
        sys.settrace(previous)
    assert set(ran) <= {os.path.join(pkg, name) for name in os.listdir(pkg)}
    assert cli.main.__code__.co_firstlineno in ran[os.path.join(pkg, "cli.py")]
