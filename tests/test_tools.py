import importlib.util
import os

from localp12 import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest_tool():
    spec = importlib.util.spec_from_file_location(
        "cli_digests", os.path.join(ROOT, "tools", "cli_digests.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_digests_cover_every_command_suite_and_format_and_repeat():
    tool = _digest_tool()
    argvs = tool.requests(ROOT)
    workloads = importlib.import_module("workloads")  # on sys.path once requests has run
    assert {a[0] for a in argvs if a[0] != "--help"} == set(cli._COMMANDS)
    assert {a[a.index("--suite") + 1] for a in argvs if "--suite" in a} >= set(cli.SUITE_NAMES)
    assert {a[a.index("--format") + 1] for a in argvs if "--format" in a} >= {"json", "csv"}
    # a table in both formats at every cap the benchmark's table workload draws
    tables = {(tuple(a[a.index(flag) + 1] for flag in ("--qmax", "--zorder", "--uorder")
                     if flag in a), a[a.index("--format") + 1])
              for a in argvs if a[0] == "potential" and "--format" in a}
    for caps in workloads.PLAIN_CAPS + workloads.EXTENDED_CAPS:
        for fmt in ("json", "csv"):
            assert (tuple(map(str, caps)), fmt) in tables
    # the config refusals, the bracket's empty report, the per-suite cap
    # refusals and the empty paths
    for argv in (["eval", "--config", "deep.json"], ["eval", "--config", "deep-at.json"],
                 ["potential", "--config", "nul-out.json"],
                 ["verify", "--suite", "bracket", "--qmax", "0"],
                 ["verify", "--suite", "degree0", "--qmax", "3"],
                 ["verify", "--suite", "residual", "--qmax", "3"],
                 ["potential", "--out", ""], ["potential", "--config", "empty-out.json"],
                 ["invariants", "--d", "1", "--n2", "1", "--config", ""]):
        assert argv in argvs
    assert {"deep.json", "deep-at.json", "nul-out.json", "empty-out.json"} <= set(tool.CONFIGS)
    first = tool.digest_lines(argvs[:20])
    assert len(first) == 20
    assert tool.digest_lines(argvs[:20]) == first


def test_cli_digests_record_an_escaped_exception_and_go_on(monkeypatch):
    tool = _digest_tool()
    main = cli.main

    def flaky(argv):
        if argv == ["boom"]:
            raise RecursionError("deep")
        return main(argv)
    monkeypatch.setattr(cli, "main", flaky)
    boom, after = tool.digest_lines([["boom"], ["invariants", "--d", "1", "--n2", "1"]])
    assert boom.split()[2:] == ["RecursionError", "boom"]
    assert after.split()[2] == "0"
