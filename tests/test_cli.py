import csv
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from localp12 import cli, localization, pcrc, potentials
from localp12.cli import main
from localp12.cyclotomic import ZERO, Cyclo
from localp12.mpseries import Series
from localp12.potentials import classical_part, extended_potential, potential
from localp12.ratfun import RF_T1, RF_T2, RatFun
from localp12.reports import SuiteReport


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdlib(obj):
    """The layout every JSON document of the CLI has, from the stdlib encoder."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_potential_two_term_table(capsys):
    code, out, _ = _run(capsys, "potential", "--qmax", "1", "--zorder", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == ["z0", "z1", "z2", "q"]
    assert doc["caps"] == [1, 1, 1, 1]
    exps = [tuple(t["exp"]) for t in doc["terms"]]
    assert exps == [(0, 0, 1, 1), (0, 1, 1, 1)]
    # both coefficients are t1 + t2 over 1
    for t in doc["terms"]:
        assert t["coeff"]["num"] == [
            [1, 0, ["1", "0", "0", "0"]],
            [0, 1, ["1", "0", "0", "0"]],
        ]
        assert t["coeff"]["den"] == [[0, 0, ["1", "0", "0", "0"]]]


def test_potential_order_zero_is_empty(capsys):
    code, out, _ = _run(capsys, "potential", "--qmax", "0", "--zorder", "0")
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_potential_extended_adds_u_column(capsys):
    code, out, _ = _run(
        capsys, "potential", "--qmax", "1", "--zorder", "1", "--uorder", "1",
        "--extended",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == ["z0", "z1", "z2", "q", "u"]
    exps = {tuple(t["exp"]) for t in doc["terms"]}
    # the z2 insertion may now land on u instead
    assert (0, 0, 0, 1, 1) in exps
    assert (0, 0, 1, 1, 0) in exps


def test_potential_csv_golden(capsys):
    code, out, _ = _run(
        capsys, "potential", "--qmax", "1", "--zorder", "1", "--format", "csv"
    )
    assert code == 0
    assert out == (
        "z0,z1,z2,q,num,den\n"
        "0,0,1,1,t1 + t2,1\n"
        "0,1,1,1,t1 + t2,1\n"
    )


def test_csv_is_potential_only(capsys):
    code, _, err = _run(capsys, "verify", "--suite", "degree0", "--format", "csv")
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize("name, cases", [
    ("degree0", 6), ("resummation", 49), ("assembly", 49),
    ("bracket", 8), ("residual", 1), ("corollary", 18),
])
def test_verify_single_suite_report(capsys, name, cases):
    code, out, _ = _run(capsys, "verify", "--suite", name)
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == name
    assert len(doc["cases"]) == cases
    assert all(c["pass"] for c in doc["cases"])
    assert all(c["first_mismatch"] is None for c in doc["cases"])


def test_verify_all_runs_every_suite(capsys):
    code, out, _ = _run(
        capsys, "verify", "--suite", "all",
        "--qmax", "3", "--zorder", "6",
    )
    assert code == 0
    docs = json.loads(out)
    assert [d["suite"] for d in docs] == [
        "degree0", "resummation", "assembly", "bracket", "residual", "corollary",
    ]
    assert all(c["pass"] for d in docs for c in d["cases"])


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, err = _run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "nonsense" in err


@pytest.mark.parametrize("qmax, zorder", [(0, 0), (3, 2), (8, 10)])
@pytest.mark.parametrize("suite", cli.SUITE_NAMES + ("all",))
def test_verify_writes_the_reports_as_dump_would(capsys, suite, qmax, zorder):
    names = cli.SUITE_NAMES if suite == "all" else (suite,)
    reports = [cli._SUITES[n](SimpleNamespace(qmax=qmax, zorder=zorder)) for n in names]
    payload = [r.to_json() for r in reports] if suite == "all" else reports[0].to_json()
    # each suite is passed only the caps it reads
    caps = [arg for cap, value in (("qmax", qmax), ("zorder", zorder))
            if suite in cli._CAP_SUITES[cap] for arg in ("--" + cap, str(value))]
    got = _run(capsys, "verify", "--suite", suite, *caps)
    assert got == (0, _stdlib(payload), "")


@pytest.mark.parametrize("suite", sorted(set(cli.SUITE_NAMES) - set(cli._CAP_SUITES["qmax"])))
def test_verify_refuses_caps_its_suite_ignores(tmp_path, capsys, suite):
    cfg = tmp_path / "run.json"
    readers = {"qmax": "all, bracket", "zorder": "all, bracket, residual"}
    for cap in [c for c in readers if suite not in cli._CAP_SUITES[c]]:
        want = (2, "", "error: --%s is only for the suites %s\n" % (cap, readers[cap]))
        assert _run(capsys, "verify", "--suite", suite, "--" + cap, "3") == want
        cfg.write_text(json.dumps({"suite": suite, cap: 3}))
        assert _run(capsys, "verify", "--config", str(cfg)) == want
        cfg.write_text(json.dumps({cap: 3}))
        assert _run(capsys, "verify", "--suite", suite, "--config", str(cfg)) == want
    # the suites that read a cap still read it, from either path
    for cap, suites in cli._CAP_SUITES.items():
        for capped in suites[1:]:
            cfg.write_text(json.dumps({"suite": capped, cap: 2}))
            assert _run(capsys, "verify", "--config", str(cfg))[0] == 0
            assert _run(capsys, "verify", "--suite", capped, "--" + cap, "2")[0] == 0


#: reports no suite makes, each written by the verify writer: failing
#: cases, no info, no cases, bool, int and nested info values, empty
#: lists and dicts, and keys and text that JSON must escape
_HAND_BUILT = [
    SuiteReport("bracket", [
        {"key": "d=1", "pass": False, "first_mismatch": [0, 1, 1, 2],
         "info": {"got": "1/2", "want": "-1/2"}},
        {"key": "d=2", "pass": True, "first_mismatch": None},
    ]),
    SuiteReport("empty", []),
    SuiteReport("values", [
        {"key": "typed", "pass": True, "first_mismatch": None,
         "info": {"matches": False, "ok": True, "exponent": 3, "big": -10**30}},
        {"key": "no info", "pass": True, "first_mismatch": None},
        {"key": "empty", "pass": False, "first_mismatch": [], "info": {}},
        {"key": "nested", "pass": False, "first_mismatch": [[1, 2], {"b": None}],
         "info": {"list": [1, [2, {"z": None, "a": "b"}]], "dict": {"y": {}, "x": []}}},
    ]),
    SuiteReport('q"uo\\te \u00fc', [
        {"key": 'k"\\\u00e9\u221e', "pass": False, "first_mismatch": [7],
         "info": {'a"b': "c\\d", "\u00fcn\u00ef": "\u00e7\u00f8d\u00e9 \u221e \n\t",
                  "\u2028": "\x00\U0001f600"}},
    ]),
]


@pytest.mark.parametrize("report", _HAND_BUILT, ids=["failing", "empty", "values", "escapes"])
def test_verify_writes_hand_built_reports_as_dump_would(monkeypatch, capsys, report):
    monkeypatch.setitem(cli._SUITES, "bracket", lambda cfg: report)
    got = _run(capsys, "verify", "--suite", "bracket")
    assert got == (0 if report.passed else 1, _stdlib(report.to_json()), "")


def test_verify_all_writes_hand_built_reports_as_dump_would(monkeypatch, capsys):
    reports = [_HAND_BUILT[k % len(_HAND_BUILT)] for k in range(len(cli.SUITE_NAMES))]
    for name, report in zip(cli.SUITE_NAMES, reports):
        monkeypatch.setitem(cli._SUITES, name, lambda cfg, report=report: report)
    got = _run(capsys, "verify")
    assert got == (1, _stdlib([r.to_json() for r in reports]), "")


def test_token_writes_empty_containers_and_refuses_what_no_document_holds():
    assert cli._token([], "  ") + "\n" == _stdlib([])
    assert cli._token({}, "  ") + "\n" == _stdlib({})
    for value in (0.5, [1, 0.5], {"half": 0.5}, {1: "a"}, (1, 2)):
        with pytest.raises(TypeError):
            cli._token(value, "")


@pytest.mark.parametrize("argv", [
    ["invariants", "--d", "0", "--classes", "1,1,H"],
    ["invariants", "--d", "0", "--classes", "1,1,1"],
    ["invariants", "--d", "0", "--classes", "H,H,H"],
    ["invariants", "--d", "0", "--classes", "S,S,H"],
    ["invariants", "--d", "3", "--n1", "2", "--n2", "3"],
    ["invariants", "--d", "4", "--n2", "0"],
    ["invariants", "--d", "7", "--n1", "3", "--n2", "41"],
    ["eval", "--at", "t1=1,t2=2,z2=1/3"],
    ["eval", "--at", "t1=1,t2=2,z0=-1/2,z1=3,q=1/7", "--qmax", "2", "--zorder", "3"],
    ["eval", "--extended", "--at", "t1=1,t2=2,z2=1/3,u=5", "--uorder", "2"],
    ["potential", "--qmax", "0", "--zorder", "0"],
    ["potential", "--qmax", "1", "--zorder", "1"],
])
def test_dump_writes_the_records_as_the_stdlib_does(capsys, argv):
    # the record as the command wrote it, read back: the same str, int and
    # bool values, so the stdlib writes it in the layout `_dump` must have
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert out == _stdlib(record)
    assert cli._dump(record) == _stdlib(record)
    if argv[-1] == "1,1,H":  # a zero value: its numerator is the empty list
        assert record["value"]["num"] == []


def test_invariants_degree_zero(capsys):
    code, out, _ = _run(capsys, "invariants", "--d", "0", "--classes", "1,H,H")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 0
    assert doc["classes"] == ["1", "H", "H"]
    assert doc["pretty"] == "-2/3"


def test_invariants_positive_degree(capsys):
    code, out, _ = _run(capsys, "invariants", "--d", "1", "--n2", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "d": 1,
        "n1": 0,
        "n2": 1,
        "pretty": "t1 + t2",
        "value": {
            "num": [[1, 0, ["1", "0", "0", "0"]], [0, 1, ["1", "0", "0", "0"]]],
            "den": [[0, 0, ["1", "0", "0", "0"]]],
        },
    }


def test_invariants_parity_rejected(capsys):
    code, _, err = _run(capsys, "invariants", "--d", "1", "--n2", "0")
    assert code == 2
    assert "parity" in err


@pytest.mark.parametrize("classes, message", [
    ("X,S,1", "unknown insertion class 'X'"),
    ("S", "expected three insertion classes, got ('S',)"),
    ("S,S,S,S,S", "expected three insertion classes, got ('S', 'S', 'S', 'S', 'S')"),
], ids=["X,S,1", "S", "S,S,S,S,S"])
def test_degree_zero_classes_are_checked_before_the_parity_rule(capsys, classes, message):
    got = _run(capsys, "invariants", "--d", "0", "--classes", classes)
    assert got == (2, "", "error: %s\n" % message)


def test_invariants_classes_need_degree_zero(capsys):
    code, _, _ = _run(capsys, "invariants", "--d", "2", "--classes", "1,1,1")
    assert code == 2


@pytest.mark.parametrize("argv, values", [
    (["--n1", "5", "--n2", "3"], {"n1": 5, "n2": 3}),
    (["--n1", "0"], {"n1": 0}),
    (["--n2", "2"], {"n2": 2}),
])
def test_invariants_insertions_need_positive_degree(tmp_path, capsys, argv, values):
    flag = next(iter(values))
    want = (2, "", "error: --%s is only for positive degree\n" % flag)
    got = _run(capsys, "invariants", "--d", "0", "--classes", "1,H,H", *argv)
    assert got == want
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(dict(values, d=0, classes="1,H,H")))
    assert _run(capsys, "invariants", "--config", str(cfg)) == want


def test_eval_classical_point(capsys):
    code, out, _ = _run(
        capsys, "eval", "--at", "t1=1,t2=1,z0=1", "--qmax", "0", "--zorder", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == {"re": "0.0555555555555556", "im": "0"}
    # unset series variables default to zero
    assert doc["at"]["z1"] == "0"
    assert doc["at"]["q"] == "0"
    assert "uorder" not in doc


def test_eval_extended_records_uorder(capsys):
    code, out, _ = _run(
        capsys, "eval", "--at", "t1=1,t2=2", "--extended",
        "--qmax", "1", "--zorder", "2", "--uorder", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["extended"] is True
    assert doc["uorder"] == 2


def test_eval_pole_exits_one(capsys):
    code, out, err = _run(capsys, "eval", "--at", "t1=0,t2=1")
    assert (code, out, err) == (1, "", "error: pole at (t1, t2) = (0, 1)\n")


def test_eval_requires_torus_weights(capsys):
    code, _, _ = _run(capsys, "eval", "--at", "t2=1")
    assert code == 2


def test_eval_rejects_unknown_variable(capsys):
    code, _, _ = _run(capsys, "eval", "--at", "t1=1,t2=1,w=3")
    assert code == 2


def test_eval_rejects_u_without_extended(capsys):
    code, out, err = _run(capsys, "eval", "--at", "t1=1,t2=2,z2=1/3,u=5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "--extended" in err


@pytest.mark.parametrize("spec, name", [
    ("t1=1,t1=2,t2=1", "t1"),
    ("t1=1,t2=1,z2=1/3,z2=1/3", "z2"),
    ("t1=1, t2=1,t2 =2", "t2"),
])
def test_eval_refuses_a_repeated_variable(capsys, spec, name):
    code, out, err = _run(capsys, "eval", "--at", spec)
    assert (code, out, err) == (2, "", "error: %s is set twice in --at\n" % name)


def test_bad_at_spec_is_usage_error(capsys):
    code, _, _ = _run(capsys, "eval", "--at", "t1")
    assert code == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"qmax": 1, "zorder": 1}))
    code, from_cfg, _ = _run(capsys, "potential", "--config", str(cfg))
    assert code == 0
    code, from_flags, _ = _run(capsys, "potential", "--qmax", "1", "--zorder", "1")
    assert code == 0
    assert from_cfg == from_flags


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"qmax": 1, "zorder": 1}))
    code, out, _ = _run(capsys, "potential", "--config", str(cfg), "--qmax", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["caps"][3] == 0
    assert doc["terms"] == []


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"qqmax": 1}))
    code, _, err = _run(capsys, "potential", "--config", str(cfg))
    assert code == 2
    assert "qqmax" in err


@pytest.mark.parametrize("command, key, value", [
    ("verify", "uorder", 6), ("verify", "extended", True),
    ("verify", "at", "t1=1,t2=2"), ("verify", "format", "json"),
    ("invariants", "qmax", 1), ("invariants", "zorder", 2),
    ("invariants", "uorder", 1), ("invariants", "extended", True),
    ("invariants", "at", "t1=1,t2=2"), ("invariants", "suite", "all"),
    ("potential", "at", "t1=1,t2=2"), ("potential", "d", 3),
    ("eval", "format", "json"), ("eval", "suite", "all"),
])
def test_keys_a_command_does_not_read_are_rejected(tmp_path, capsys, command, key, value):
    base = {"invariants": ["--d", "3", "--n2", "3"], "eval": ["--at", "t1=1,t2=2"]}
    argv = [command] + base.get(command, [])
    flag = ["--" + key] if value is True else ["--" + key, str(value)]
    code, out, err = _run(capsys, *argv, *flag)
    assert code == 2
    assert out == "" and key in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = _run(capsys, *argv, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and key in err


def test_out_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _, _ = _run(
        capsys, "potential", "--qmax", "1", "--zorder", "1", "--out", str(target)
    )
    assert code == 0
    code, out, _ = _run(capsys, "potential", "--qmax", "1", "--zorder", "1")
    assert code == 0
    assert target.read_text() == out


def test_repeat_runs_are_byte_identical(capsys):
    first = _run(capsys, "verify", "--suite", "corollary")
    second = _run(capsys, "verify", "--suite", "corollary")
    assert first == second


@pytest.mark.parametrize("values", [
    {"extended": "false"}, {"extended": 0}, {"qmax": "x"}, {"qmax": "3"},
    {"zorder": -1}, {"uorder": 1.5}, {"qmax": True}, {"out": 5},
])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, values):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    code, out, err = _run(capsys, "potential", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and next(iter(values)) in err


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"at": ' + "[" * 100_000 + "]" * 100_000 + "}",
], ids=["top", "at"])
def test_a_deeply_nested_config_is_a_usage_error(tmp_path, capsys, text):
    cfg = tmp_path / "deep.json"
    cfg.write_text(text)
    code, out, err = _run(capsys, "eval", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read config %r: " % str(cfg)) and err.count("\n") == 1


def test_an_out_path_holding_a_nul_is_refused_before_any_work(monkeypatch, tmp_path, capsys):
    built = []
    monkeypatch.setattr(cli, "potential", lambda *caps: built.append(caps))
    want = (2, "", "error: out must not contain a NUL character, got 'a\\x00b'\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": "a\u0000b"}))
    assert _run(capsys, "potential", "--config", str(cfg)) == want
    assert _run(capsys, "potential", "--out", "a\x00b") == want
    assert built == []


def test_an_empty_out_path_is_refused_before_any_work(monkeypatch, tmp_path, capsys):
    # it once read as unset, and the table went to stdout
    built = []
    monkeypatch.setattr(cli, "potential", lambda *caps: built.append(caps))
    want = (2, "", "error: out must not be an empty path\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": ""}))
    assert _run(capsys, "potential", "--config", str(cfg)) == want
    assert _run(capsys, "potential", "--out", "") == want
    assert built == []


def test_an_empty_config_path_is_read_and_refused(capsys):
    # it once read as no config, and the command ran with its defaults
    code, out, err = _run(capsys, "invariants", "--d", "1", "--n2", "1", "--config", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read config '': ") and err.count("\n") == 1


def test_an_unwritable_out_path_is_named_in_quotes(tmp_path, capsys):
    out = str(tmp_path / "missing-dir" / "table.json")
    code, text, err = _run(capsys, "potential", "--qmax", "0", "--zorder", "0", "--out", out)
    assert (code, text) == (2, "")
    assert err == "error: cannot write %r: No such file or directory\n" % out


def test_a_decimal_number_in_a_config_at_object_is_read_from_its_text(tmp_path, capsys):
    # through a float, t1 read as 1/10 and t2 as 0, a pole
    spec = "t1=0.1000000000000000000001,t2=1e-400"
    want = _run(capsys, "eval", "--at", spec, "--qmax", "1", "--zorder", "1")
    assert want[0] == 0 and '"t1": "1000000000000000000001/10000000000000000000000"' in want[1]
    cfg = tmp_path / "run.json"
    cfg.write_text('{"at": {"t1": 0.1000000000000000000001, "t2": 1e-400}, '
                   '"qmax": 1, "zorder": 1}')
    assert _run(capsys, "eval", "--config", str(cfg)) == want


def test_a_huge_decimal_exponent_in_a_config_is_refused_before_work(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"at": {"t1": 1e999999999, "t2": 1}}')
    start = time.perf_counter()
    code, out, err = _run(capsys, "eval", "--config", str(cfg))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == "error: the value of t1 in --at has more than %d digits\n" % (
        sys.get_int_max_str_digits(),)


@pytest.mark.parametrize("command, text, message", [
    ("eval", '{"uorder": 1.5, "extended": true}', "uorder must be a nonnegative integer, got 1.5"),
    ("potential", '{"qmax": 2.0}', "qmax must be a nonnegative integer, got 2.0"),
    ("potential", '{"out": 1.5}', "out must be a path, got 1.5"),
    ("potential", '{"extended": 0.0}', "extended must be true or false, got 0.0"),
    ("eval", '{"at": -1.5e3}', "at must be a string or an object, got -1.5e3"),
    ("invariants", '{"classes": 1.5}', "classes must be a comma-separated string, got 1.5"),
    ("verify", '{"suite": 1.5}', "unknown suite 1.5; choose from %s or 'all'"
     % ", ".join(cli.SUITE_NAMES)),
])
def test_a_decimal_number_in_a_config_is_refused_with_its_text(tmp_path, capsys, command, text,
                                                               message):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert _run(capsys, command, "--config", str(cfg)) == (2, "", "error: %s\n" % message)


def test_config_extended_false_is_plain(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"qmax": 1, "zorder": 1, "extended": False}))
    code, from_cfg, _ = _run(capsys, "potential", "--config", str(cfg))
    assert code == 0
    assert json.loads(from_cfg)["vars"] == ["z0", "z1", "z2", "q"]


@pytest.mark.parametrize("values, flags", [
    ({"d": 3, "n2": 3}, ["--d", "3", "--n2", "3"]),
    ({"d": 2, "n1": 1, "n2": 2}, ["--d", "2", "--n1", "1", "--n2", "2"]),
    ({"classes": "1,H,H"}, ["--classes", "1,H,H"]),
])
def test_config_supplies_invariant_arguments(tmp_path, capsys, values, flags):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    code, from_cfg, _ = _run(capsys, "invariants", "--config", str(cfg))
    assert code == 0
    code, from_flags, _ = _run(capsys, "invariants", *flags)
    assert code == 0
    assert from_cfg == from_flags


@pytest.mark.parametrize("command, text, key", [
    ("potential", '{"qmax": 1, "qmax": 0, "zorder": 1}', "qmax"),
    ("eval", '{"at": {"t1": 1, "t1": 2, "t2": 1}}', "t1"),
    ("eval", '{"at": "t1=1,t2=1", "qmax": 1, "at": "t1=2,t2=1"}', "at"),
    ("invariants", '{"d": 3, "n2": 3, "n2": 1}', "n2"),
])
def test_repeated_config_keys_are_refused(tmp_path, capsys, command, text, key):
    # raw text: json.dumps cannot write a repeated key
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    code, out, err = _run(capsys, command, "--config", str(cfg))
    assert (code, out, err) == (2, "", "error: config key %r is set twice\n" % key)


@pytest.mark.parametrize("value", [["t1=1", "t2=2"], 5, True])
def test_config_at_must_be_a_string_or_an_object(tmp_path, capsys, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"at": value}))
    code, out, err = _run(capsys, "eval", "--config", str(cfg))
    want = "error: at must be a string or an object, got %r\n" % (value,)
    assert (code, out, err) == (2, "", want)


@pytest.mark.parametrize("command, values", [
    (command, {key: None}) for command, (_, reads, _) in cli._COMMANDS.items()
    for key in (*reads, "out")
] + [
    ("verify", {"zorder": 4, "qmax": None}),
    ("eval", {"extended": None, "at": "t1=1,t2=1"}),
    ("invariants", {"d": 3, "n2": None}),
])
def test_config_null_is_refused(tmp_path, capsys, command, values):
    # a null once read as "flag not given" and reached the command unchecked
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    code, out, err = _run(capsys, command, "--config", str(cfg))
    key = next(k for k, v in values.items() if v is None)
    assert (code, out, err) == (2, "", "error: config key %r must not be null\n" % key)


@pytest.mark.parametrize("argv, keys", [
    (["potential"], {"qmax", "zorder", "uorder", "extended", "format"}),
    (["invariants", "--d", "3", "--n2", "3"], {"d", "n1", "n2", "classes"}),
    (["verify"], {"qmax", "zorder", "suite"}),
    (["eval", "--at", "t1=1,t2=2"], {"qmax", "zorder", "uorder", "extended", "at"}),
])
def test_merged_config_holds_only_what_the_command_reads(argv, keys):
    merged = cli._merge(cli._build_parser().parse_args(argv))
    assert set(vars(merged)) == {"command", "out"} | keys
    assert merged.command == argv[0]


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.json"
    code, out, err = _run(
        capsys, "potential", "--qmax", "1", "--zorder", "1", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(target) in err


# -- the term table and eval, written from the cubic and the rational tail

_PLAIN_CAPS = [(0, 0), (0, 2), (0, 3), (0, 4), (2, 0), (1, 1), (1, 2), (3, 5), (5, 4)]
# at (2, 0, 5) and (3, 1, 6) the z cap leaves the cubic only its u terms
_EXTENDED_CAPS = [(2, 3, 0), (0, 4, 1), (1, 2, 3), (0, 0, 2), (3, 4, 2), (2, 0, 5), (3, 1, 6)]


def _cap_argv(caps):
    argv = ["--qmax", str(caps[0]), "--zorder", str(caps[1])]
    if len(caps) == 3:
        argv += ["--extended", "--uorder", str(caps[2])]
    return argv


def _record(caps):
    return extended_potential(*caps) if len(caps) == 3 else potential(*caps)


def _generic_table(series, fmt):
    """The table as the series' own JSON and sorted terms render it."""
    if fmt == "json":
        return _stdlib(series.to_json())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(series.vs.names) + ["num", "den"])
    for e, v in series.sorted_terms():
        writer.writerow([str(x) for x in e] + [str(v.num), str(v.den)])
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
# benchmark caps: (16, 12) reaches q^16 and 75-bit numerators, (5, 8, 4) all five variables
@pytest.mark.parametrize("caps", _PLAIN_CAPS + _EXTENDED_CAPS + [(16, 12), (5, 8, 4)])
def test_table_bytes_equal_the_generic_rendering(capsys, caps, fmt):
    code, out, err = _run(capsys, "potential", *_cap_argv(caps), "--format", fmt)
    assert (code, err) == (0, "")
    assert out == _generic_table(_record(caps).series(), fmt)


def _count_ratfun_ops(monkeypatch):
    count = [0]

    def counting(fn):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("__init__", "__mul__", "__rmul__"):
        monkeypatch.setattr(RatFun, name, counting(RatFun.__dict__[name]))
    return count


@pytest.mark.parametrize("small, big, fmt", [
    ((2, 5), (16, 12), "json"),
    ((2, 5), (16, 12), "csv"),
    ((1, 3, 2), (4, 7, 6), "json"),
])
def test_table_makes_a_fixed_number_of_ratfun_operations(monkeypatch, capsys, small, big, fmt):
    classical_part.cache_clear()
    count = _count_ratfun_ops(monkeypatch)
    seen = []
    for caps in (small, small, big):
        before = count[0]
        code, out, _ = _run(capsys, "potential", *_cap_argv(caps), "--format", fmt)
        assert code == 0
        seen.append(count[0] - before)
    # only the first table builds the classical cubic; a warm one makes no
    # RatFun operation, except that an extended one shifts the cubic, which
    # costs the same at any cap from 3 up; no tail term adds any
    assert seen[0] > 0
    assert seen[1] == seen[2]
    if len(big) == 2:
        assert seen[2] == 0
    else:
        assert 0 < 5 * seen[2] < len(_record(big).tail.terms())


#: Cyclo inverses in one warm `verify` at default caps, by call site: 10 in
#: the one canonicalization each of the degree-0 sums <1,1,1>, <1,H,H> and
#: <H,H,H> (4, 3 and 3: the divisors' leading coefficients in Euclid, the
#: gcd's normalization and the denominator's leading coefficient; <1,1,H> has
#: a zero numerator and takes no gcd), 1 pivot in the one elimination (the
#: other two are already 1), and the scalars of `build_cov`'s scalar and
#: exponential lines, i, i and -1.  A leading coefficient or pivot that is
#: already 1 is not inverted.
_VERIFY_CYCLO_INVERSES = 14
#: the first `verify` in a process also builds the degree-0 suite's frozen
#: targets, once: 2 inverses in the canonicalization of 1/(3 t1 t2)
_COLD_VERIFY_CYCLO_INVERSES = _VERIFY_CYCLO_INVERSES + 2


def test_verify_builds_one_series_per_degree_and_eliminates_once(monkeypatch, capsys):
    builds = []
    build = localization.resummed
    monkeypatch.setattr(localization, "resummed", lambda d, n: builds.append(d) or build(d, n))
    calls = Counter()

    def counting(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(Cyclo, "inv", counting("inv", Cyclo.inv))
    for name in ("invert", "compose"):
        monkeypatch.setattr(pcrc, name, counting(name, getattr(pcrc, name)))
    # the resummation route's Taylor builds: one wave per parity, made once
    for name in ("sin", "cos"):
        monkeypatch.setattr(localization, name, counting(name, getattr(localization, name)))
    localization._wave.cache_clear()
    localization._degree0_targets.cache_clear()
    seen = []
    for _ in range(2):
        builds.clear()
        calls.clear()
        code, _, _ = _run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert sorted(builds) == list(range(1, 10))
        seen.append(dict(calls))
    common = {"invert": 1, "compose": 1}
    assert seen == [dict(common, inv=_COLD_VERIFY_CYCLO_INVERSES, sin=1, cos=1),
                    dict(common, inv=_VERIFY_CYCLO_INVERSES)]


def _series_value(series, at):
    """The exact value of series at the point, term by term."""
    total = ZERO
    for e, c in series.sorted_terms():
        v = c.eval(at["t1"], at["t2"])
        for name, k in zip(series.vs.names, e):
            v = v * at.get(name, 0) ** k
        total = total + v
    return total


@pytest.mark.parametrize("caps, spec", [
    ((3, 6), "t1=3/2,t2=5,z0=1/3,z1=1/5,z2=-2/7,q=1/2"),
    ((0, 2), "t1=1,t2=2,z2=1/3"),
    ((4, 5, 3), "t1=-2,t2=7/3,z0=1/2,z1=-1/3,z2=1/4,q=2/3,u=1/5"),
    ((0, 0, 0), "t1=1,t2=2"),
])
def test_eval_equals_the_series_term_by_term(capsys, caps, spec):
    code, out, _ = _run(capsys, "eval", "--at", spec, *_cap_argv(caps))
    assert code == 0
    at = {k: Fraction(v) for k, v in (kv.split("=") for kv in spec.split(","))}
    value = _series_value(_record(caps).series(), at).embed()
    assert json.loads(out)["value"] == {"re": format(value.real, ".15g"),
                                        "im": format(value.imag, ".15g")}


def _fraction_tail_sum(tail, values):
    """The tail's value at the point, one `Fraction` product per term."""
    total = Fraction(0)
    for e, r in tail.terms():
        m = r
        for x, k in zip(values, e):
            m = m * x**k
        total += m
    return total


def _eval_points(arity, seed):
    """Points with zero, negative and integer coordinates, and a seeded rest."""
    rng = random.Random("eval-points:%d" % seed)
    points = [[Fraction(0)] * arity, [Fraction(-2)] * arity,
              [Fraction(k - 2) for k in range(arity)]]
    for _ in range(4):
        points.append([Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 7)))
                       for _ in range(arity)])
    return points


@pytest.mark.parametrize("caps", _PLAIN_CAPS + _EXTENDED_CAPS + [(3, 6), (4, 8), (2, 4, 3)])
def test_integer_tail_sum_equals_the_fraction_sum(caps):
    pot = _record(caps)
    for values in _eval_points(len(pot.vs.names), sum(caps)):
        got = cli._rational_sum(pot.pairs.items(), values, pot.vs.caps)
        assert type(got) is Fraction
        assert got == _fraction_tail_sum(pot.tail, values)


def test_warm_eval_makes_no_embed_call(monkeypatch, capsys):
    argv = ("eval", "--at", "t1=3/2,t2=5,z0=1/3,z1=-1/5,z2=2/7,q=1/2")
    assert _run(capsys, *argv)[0] == 0
    counts = _count_calls(monkeypatch, Cyclo, ("embed",))
    code, out, _ = _run(capsys, *argv)
    assert (code, counts) == (0, {"embed": 0})
    assert json.loads(out)["value"]["im"] == "0"


@pytest.mark.parametrize("caps, spec", [
    ((3, 6), "t1=1,t2=-1,z0=1/3,z1=1/5,z2=-2/7,q=1/2"),
    ((0, 3), "t1=-5/2,t2=5/2,z0=2,z1=-3,z2=7/3"),
    ((2, 4, 3), "t1=2/3,t2=-2/3,z0=1/2,z1=1/7,z2=1/4,q=2,u=-1/3"),
])
def test_eval_at_opposite_weights_is_the_exact_sum(capsys, caps, spec):
    """At t1 + t2 = 0 the tail drops out and the cubic alone is summed."""
    code, out, err = _run(capsys, "eval", "--at", spec, *_cap_argv(caps))
    assert (code, err) == (0, "")
    at = {k: Fraction(v) for k, v in (kv.split("=") for kv in spec.split(","))}
    exact = _series_value(_record(caps).series(), at).rational()
    assert exact
    assert json.loads(out)["value"] == {"re": format(float(exact), ".15g"), "im": "0"}


def _old_level_cell(r):
    a = str(abs(r))
    m = "" if a == "1" else a + "*"
    return ("-%st1 - %st2" if r < 0 else "%st1 + %st2") % (m, m)


@pytest.mark.parametrize("r", [Fraction(k) * s for k in (1, 2, Fraction(1, 2), Fraction(7, 96))
                               for s in (1, -1)])
def test_level_cell_from_the_text_of_r(r):
    cell = cli._LEVEL_CELLS[r < 0][abs(r) == 1]
    if abs(r) != 1:
        cell %= (str(abs(r)),) * 2
    assert cell == _old_level_cell(r)
    assert cell == str(((RF_T1 + RF_T2) * r).num)


def _count_calls(monkeypatch, cls, names):
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    return counts


def test_eval_makes_as_many_fraction_products_at_any_cap(monkeypatch, capsys):
    """The tail sum is integer work: a bigger tail adds no `Fraction` power
    or product; those left belong to the classical cubic."""
    seen = []
    for caps in ((3, 6), (4, 8)):
        pot = potential(*caps)
        monkeypatch.setattr(cli, "potential", lambda qmax, zorder, pot=pot: pot)
        counts = _count_calls(monkeypatch, Fraction, ("__pow__", "__mul__"))
        code, _, _ = _run(capsys, "eval", "--at", "t1=3/2,t2=5,z0=1/3,z1=-1/5,z2=2/7,q=1/2",
                          *_cap_argv(caps))
        monkeypatch.undo()
        assert code == 0
        seen.append((dict(counts), len(pot.tail.terms())))
    (small, small_terms), (big, big_terms) = seen
    assert small_terms < big_terms
    assert small == big
    assert sum(small.values()) < small_terms


def test_eval_builds_the_potential_once_per_run_of_caps(monkeypatch, capsys):
    """`eval` keeps only the potential of its last caps; a table is built on
    every request."""
    built = []
    monkeypatch.setattr(cli, "potential", lambda *caps: built.append(caps) or potential(*caps))
    monkeypatch.setattr(cli, "extended_potential",
                        lambda *caps: built.append(caps) or extended_potential(*caps))
    cli._eval_potential.cache_clear()
    for caps in ((2, 4), (2, 4), (3, 5), (2, 4), (1, 2, 3), (1, 2, 3), (1, 2, 2)):
        code, out, _ = _run(capsys, "eval", "--at", "t1=1,t2=2,z2=1/3", *_cap_argv(caps))
        assert code == 0 and json.loads(out)["qmax"] == caps[0]
    assert built == [(2, 4), (3, 5), (2, 4), (1, 2, 3), (1, 2, 2)]
    built.clear()
    for _ in range(2):
        assert _run(capsys, "potential", *_cap_argv((2, 4)))[0] == 0
    assert built == [(2, 4), (2, 4)]
    cli._eval_potential.cache_clear()


def test_importing_the_cli_loads_no_introspection_machinery():
    """The records are plain classes and tables are written from templates:
    `import localp12.cli` brings in neither `dataclasses`, nor what it pulls
    in, nor `csv`, nor `bisect` or `heapq`, so a table's merge stays plain
    Python.  Of the package it loads exactly the nine modules the
    workloads run, since every eagerly imported line is compiled by each."""
    code = ("import sys; before = set(sys.modules); import localp12.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    added = set(done.stdout.split())
    assert {"argparse", "json"} <= added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "copy", "csv",
                        "bisect", "heapq"}
    # a suite module that no workload runs is imported inside its `_SUITES`
    # lambda, never here
    assert {m for m in added if m.split(".")[0] == "localp12"} == {
        "localp12", "localp12.cli", "localp12.cyclotomic", "localp12.localization",
        "localp12.mpseries", "localp12.pcrc", "localp12.potentials", "localp12.ratfun",
        "localp12.reports"}


def _package_modules_loaded_by(module):
    """The `localp12` modules a fresh interpreter holds after `import module`."""
    code = "import sys, %s; print(' '.join(sys.modules))" % module
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return {m for m in done.stdout.split() if m.split(".")[0] == "localp12"}


def test_the_checks_sit_on_top_of_the_builder():
    """The builder writes the potential from closed forms it owns, so it loads
    no check module; the change-of-variable checks load no localization."""
    assert _package_modules_loaded_by("localp12.potentials") == {
        "localp12", "localp12.cyclotomic", "localp12.ratfun", "localp12.mpseries",
        "localp12.reports", "localp12.potentials"}
    assert "localp12.localization" not in _package_modules_loaded_by("localp12.pcrc")


@pytest.mark.parametrize("fmt, to_json", [("json", 1), ("csv", 0)])
def test_table_writes_the_tail_from_text_alone(monkeypatch, capsys, fmt, to_json):
    """A tail term costs no `Fraction`, not even a sign test: with the weights
    invariant_pair(d, n) and G_n held fixed, a table makes as many Fractions
    at any cap.  Only a JSON table's cubic goes through `Series.to_json`."""
    # the weights are made once per (d, n) and not per term
    for name in ("invariant_pair", "g_series"):
        monkeypatch.setattr(potentials, name, functools.cache(getattr(potentials, name)))
    fractions = _count_calls(monkeypatch, Fraction, ("__new__", "__abs__", "__lt__"))
    series = _count_calls(monkeypatch, Series, ("to_json",))
    seen = []
    for qmax, zorder in ((5, 6), (16, 12)):
        argv = ("potential", "--qmax", str(qmax), "--zorder", str(zorder), "--format", fmt)
        assert _run(capsys, *argv)[0] == 0  # fills the weights' caches
        before = {**fractions, **series}
        assert _run(capsys, *argv)[0] == 0
        seen.append({k: v - before[k] for k, v in {**fractions, **series}.items()})
    assert len(potential(16, 12).pairs) > 10 * len(potential(5, 6).pairs)
    assert seen[0] == seen[1]
    assert (seen[0]["__abs__"], seen[0]["__lt__"], seen[0]["to_json"]) == (0, 0, to_json)


@pytest.mark.parametrize("argv", [
    ["verify", "--uorder", "6"],
    ["potential", "--qmax", "-1"],
    ["frobnicate"],
    [],
])
def test_argparse_errors_are_one_line(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["potential", "--qmax", "1", "--zorder", "2"],
    ["eval", "--at", "t1=1,t2=2,z2=1/3"],
])
def test_uorder_needs_the_extended_potential(tmp_path, capsys, argv):
    want = (2, "", "error: --uorder is only for the --extended potential\n")
    assert _run(capsys, *argv, "--uorder", "6") == want
    cfg = tmp_path / "run.json"
    for values in ({"uorder": 6}, {"uorder": 3, "extended": False}):
        cfg.write_text(json.dumps(values))
        assert _run(capsys, *argv, "--config", str(cfg)) == want
    cfg.write_text(json.dumps({"extended": True}))
    assert _run(capsys, *argv, "--uorder", "6", "--config", str(cfg))[0] == 0


@pytest.mark.parametrize("command, flag", [
    ("potential", "qmax"), ("potential", "zorder"), ("eval", "uorder"),
    ("verify", "qmax"), ("invariants", "d"), ("invariants", "n2"),
])
def test_a_negative_cap_reads_the_same_from_a_flag_and_a_config(tmp_path, capsys, command, flag):
    argv = [command, "--extended"] if flag == "uorder" else [command]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag: -1}))
    want = (2, "", "error: %s must be a nonnegative integer, got -1\n" % flag)
    assert _run(capsys, *argv, "--" + flag, "-1") == want
    assert _run(capsys, *argv, "--config", str(cfg)) == want
    code, out, err = _run(capsys, *argv, "--" + flag, "abc")
    assert (code, out, err) == (2, "", "error: argument --%s: invalid int value: 'abc'\n" % flag)
    assert "_nat" not in err


def test_a_bad_format_reads_the_same_from_a_flag_and_a_config(tmp_path, capsys):
    want = (2, "", "error: format must be json or csv\n")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    assert _run(capsys, "potential", "--format", "xml") == want
    assert _run(capsys, "potential", "--config", str(cfg)) == want
    code, out, err = _run(capsys, "potential", "--help")
    assert (code, err) == (0, "") and "--format {json,csv}" in out


@pytest.mark.parametrize("argv, config, message", [
    (["eval", "--at", "t1=x,t2=1"], None, "cannot parse 'x' as a rational"),
    (["eval", "--at", "t1=1/0,t2=1"], None, "cannot parse '1/0' as a rational"),
    (["eval"], "[1]", "config must be a JSON object"),
    (["invariants", "--d", "0"], None, "degree 0 needs --classes, e.g. --classes 1,H,H"),
    (["invariants", "--d", "3"], None, "positive degree needs --n2 (twisted insertion count)"),
    (["eval"], None, "--at must set t1 and t2"),
])
def test_refusals_print_their_one_line(tmp_path, capsys, argv, config, message):
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert _run(capsys, *argv) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("text", [None, "{", '{"qmax": 1,}'])
def test_an_unreadable_config_is_refused(tmp_path, capsys, text):
    cfg = tmp_path / "run.json"
    if text is not None:
        cfg.write_text(text)
    code, out, err = _run(capsys, "eval", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: cannot read config %r: " % str(cfg))


def test_empty_at_chunks_and_an_at_object_read_as_the_plain_spec(tmp_path, capsys):
    want = _run(capsys, "eval", "--at", "t1=1,t2=2", "--qmax", "1", "--zorder", "2")
    assert want[0] == 0 and want[1]
    assert _run(capsys, "eval", "--at", "t1=1,,t2=2", "--qmax", "1", "--zorder", "2") == want
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"at": {"t1": "1", "t2": 2}, "qmax": 1, "zorder": 2}))
    assert _run(capsys, "eval", "--config", str(cfg)) == want


def test_no_digit_limit_makes_no_literal_too_long(monkeypatch):
    assert cli._too_long("1" * (sys.get_int_max_str_digits() + 1))
    monkeypatch.setattr(cli.sys, "get_int_max_str_digits", lambda: 0)
    assert not cli._too_long("1" * 10000)
    assert not cli._too_long("1e100000")


def test_help_still_prints_and_exits_zero(capsys):
    code, out, err = _run(capsys, "potential", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: localp12 potential") and "--zorder" in out


@pytest.mark.parametrize("spec", ["t1=1,t2=1,z2=1e100", "t1=1e200,t2=1,z0=1e200"])
def test_eval_overflow_is_one_line(capsys, spec):
    code, out, err = _run(capsys, "eval", "--at", spec)
    assert (code, out, err) == (1, "", "error: the value at this point is too large for a float\n")


@pytest.mark.parametrize("argv", [
    ["eval", "--at", "t1=1e5000,t2=1"],
    ["eval", "--at", "t1=1e3000000,t2=1"],
    ["eval", "--at", "t1=1,t2=" + "7" * 5000],
    ["invariants", "--d", "3", "--n1", "100000", "--n2", "1"],
    ["invariants", "--d", "3", "--n1", "0", "--n2", "100001"],
])
def test_oversized_numbers_are_refused_before_work(capsys, argv):
    start = time.perf_counter()
    code, out, err = _run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert err.endswith(" has more than %d digits\n" % sys.get_int_max_str_digits())


@pytest.mark.parametrize("argv", [
    ["eval", "--at", "t1=1.5e4290,t2=1"],
    ["invariants", "--d", "3", "--n1", "9000", "--n2", "1"],
    ["invariants", "--d", "1", "--n2", "14283"],
])
def test_numbers_near_the_digit_limit_still_print(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(out) > sys.get_int_max_str_digits()


# -- golden digests: (argv, sha1 of stdout, sha1 of stderr, exit code), first
# 12 hex digits each; da39a3ee5e6b is the empty stream.  Any change here is a
# change of the CLI's bytes and must be deliberate.

_GOLDEN = [
    (["potential"], "f7eedf3d893d", "da39a3ee5e6b", 0),
    (["potential", "--format", "csv"], "d15df7c766f3", "da39a3ee5e6b", 0),
    (["potential", "--extended"], "1c762807e5d0", "da39a3ee5e6b", 0),
    (["potential", "--extended", "--format", "csv"], "343d8048cf31", "da39a3ee5e6b", 0),
    (["potential", "--extended", "--qmax", "5", "--zorder", "7", "--uorder", "5"],
     "9a44cf9ae96f", "da39a3ee5e6b", 0),
    (["potential", "--extended", "--qmax", "3", "--zorder", "1", "--uorder", "6",
      "--format", "csv"], "3d3eccca2a76", "da39a3ee5e6b", 0),
    (["potential", "--qmax", "12", "--zorder", "14", "--format", "csv"],
     "352e5d7c691d", "da39a3ee5e6b", 0),
    (["potential", "--qmax", "0", "--zorder", "3", "--format", "csv"],
     "be017911ffad", "da39a3ee5e6b", 0),
    (["verify"], "6164a4e3e7e6", "da39a3ee5e6b", 0),
    (["verify", "--suite", "bracket", "--qmax", "10", "--zorder", "9"],
     "dbb0c88657af", "da39a3ee5e6b", 0),
    (["eval", "--at", "t1=1,t2=2,z2=1/3"], "8355c20fd8e7", "da39a3ee5e6b", 0),
    (["eval", "--at", "t1=1,t2=2,z2=1/3,u=1/5", "--extended"],
     "a5df182e5661", "da39a3ee5e6b", 0),
    (["eval", "--at", "t1=3/7,t2=-2/5,z0=1/2,z1=1/3,z2=1/4,q=1/5"],
     "19c967c8da19", "da39a3ee5e6b", 0),
    (["invariants", "--d", "0", "--classes", "H,H,H"], "4b55a256f1b8", "da39a3ee5e6b", 0),
    (["invariants", "--d", "3", "--n2", "3"], "e53299e564c5", "da39a3ee5e6b", 0),
    (["invariants", "--d", "4", "--n1", "2", "--n2", "2"], "ddb3f545d06b", "da39a3ee5e6b", 0),
    (["invariants", "--d", "1", "--n2", "0"], "da39a3ee5e6b", "b7957c26198e", 2),
    (["eval", "--at", "t1=0,t2=1"], "da39a3ee5e6b", "d066406546db", 1),
    (["verify", "--suite", "degree0"], "ee66bc168da7", "da39a3ee5e6b", 0),
    (["verify", "--suite", "resummation"], "e279001b9771", "da39a3ee5e6b", 0),
    (["verify", "--suite", "assembly"], "6c0a6657c994", "da39a3ee5e6b", 0),
    (["verify", "--suite", "bracket", "--qmax", "5", "--zorder", "13"],
     "e168a922582d", "da39a3ee5e6b", 0),
    (["verify", "--suite", "residual", "--zorder", "13"], "5b59d5d90a3f", "da39a3ee5e6b", 0),
    (["verify", "--suite", "corollary"], "33a7e9565ae3", "da39a3ee5e6b", 0),
    (["verify", "--suite", "all", "--qmax", "12", "--zorder", "8"],
     "50872b5bd310", "da39a3ee5e6b", 0),
    (["potential", "--qmax", "16", "--zorder", "12"], "a1128b5d3b06", "da39a3ee5e6b", 0),
    (["potential", "--extended", "--qmax", "4", "--zorder", "7", "--uorder", "6"],
     "7536f2fe18c8", "da39a3ee5e6b", 0),
    (["potential", "--extended", "--qmax", "6", "--zorder", "6", "--uorder", "5",
      "--format", "csv"], "c84dd763f5d8", "da39a3ee5e6b", 0),
    (["potential", "--qmax", "0", "--zorder", "0"], "97434ff3030f", "da39a3ee5e6b", 0),
    (["potential", "--qmax", "0", "--zorder", "0", "--format", "csv"],
     "d4dce111b5ea", "da39a3ee5e6b", 0),
    (["eval", "--extended", "--qmax", "4", "--zorder", "6", "--uorder", "4",
      "--at", "t1=2,t2=-3/4,z0=-1/2,z1=1/3,z2=-2/5,q=1/7,u=-3"],
     "905364fe7d11", "da39a3ee5e6b", 0),
    (["eval", "--qmax", "0", "--zorder", "0", "--at", "t1=1,t2=2,z2=1/3"],
     "5728aa963c6a", "da39a3ee5e6b", 0),
    (["verify", "--suite", "bracket", "--qmax", "0", "--zorder", "0"],
     "6f70139b4f62", "da39a3ee5e6b", 0),
    (["verify", "--suite", "residual", "--zorder", "0"], "733778df9aa4", "da39a3ee5e6b", 0),
]


def _sha(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


@pytest.mark.parametrize("argv, out_sha, err_sha, want", _GOLDEN,
                         ids=[" ".join(g[0]) for g in _GOLDEN])
def test_cli_bytes_match_the_golden_digests(capsys, argv, out_sha, err_sha, want):
    code, out, err = _run(capsys, *argv)
    assert (_sha(out), _sha(err), code) == (out_sha, err_sha, want)
