import csv
import io
import json
import sys
import time
from fractions import Fraction

import pytest

from localp12.cli import main
from localp12.cyclotomic import ZERO
from localp12.potentials import extended_potential, potential
from localp12.ratfun import RatFun


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_invariants_classes_need_degree_zero(capsys):
    code, _, _ = _run(capsys, "invariants", "--d", "2", "--classes", "1,1,1")
    assert code == 2


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


def test_out_into_missing_directory_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.json"
    code, out, err = _run(
        capsys, "potential", "--qmax", "1", "--zorder", "1", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and str(target) in err


# -- the term table and eval, written from the cubic and the rational tail

_PLAIN_CAPS = [(0, 0), (0, 2), (0, 3), (0, 4), (2, 0), (1, 2), (3, 5), (5, 4)]
_EXTENDED_CAPS = [(2, 3, 0), (0, 4, 1), (1, 2, 3), (0, 0, 2), (3, 4, 2)]


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
        return json.dumps(series.to_json(), indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(series.vs.names) + ["num", "den"])
    for e, v in series.sorted_terms():
        writer.writerow([str(x) for x in e] + [str(v.num), str(v.den)])
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("caps", _PLAIN_CAPS + _EXTENDED_CAPS)
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
    count = _count_ratfun_ops(monkeypatch)
    seen = []
    for caps in (small, big):
        before = count[0]
        code, out, _ = _run(capsys, "potential", *_cap_argv(caps), "--format", fmt)
        assert code == 0
        seen.append(count[0] - before)
    # the classical cubic costs the same at any cap from 3 up; no tail term adds any
    assert seen[0] == seen[1]
    assert 0 < 5 * seen[1] < len(_record(big).tail.terms())


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
