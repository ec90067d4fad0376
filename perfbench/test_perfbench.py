"""Tests of the benchmark itself: inputs, checkers, reference and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import speedclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from localp12 import cli  # noqa: E402

VERIFY = ["verify", "--suite", "all", "--qmax", "2", "--zorder", "4"]
PLAIN = ["potential", "--qmax", "2", "--zorder", "5", "--format", "json"]
EXTENDED_CSV = ["potential", "--extended", "--qmax", "2", "--zorder", "3", "--uorder", "2",
                "--format", "csv"]
DEGREE0 = ["invariants", "--d", "0", "--classes", "H,1,H"]
POSITIVE = ["invariants", "--d", "3", "--n1", "2", "--n2", "3"]
EVAL = ["eval", "--at", "t1=3/2,t2=5,z0=1/3,z2=-2/7,q=1/2"]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs():
    return {tuple(a): run(a) for a in (VERIFY, PLAIN, EXTENDED_CSV, DEGREE0, POSITIVE, EVAL)}


def check(workload, argv, text):
    return workloads.check_round(workload, [argv], [text])


def test_reference_self_check():
    ref.self_check()
    assert ref.invariant(3, 0, 3) == ({(1, 0): ref.Fraction(1, 4), (0, 1): ref.Fraction(1, 4)}, ref.ONE)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    make = workloads.WORKLOADS[workload]
    assert make(11) == make(11)
    assert make(11) != make(12)


def test_every_request_is_a_valid_cli_call():
    parser = cli._build_parser()
    for make in workloads.WORKLOADS.values():
        for argv in make(3):
            parser.parse_args(argv)


def test_untouched_outputs_pass(outputs):
    for argv in (VERIFY,):
        assert check("verify", argv, outputs[tuple(argv)]) == []
    for argv in (PLAIN, EXTENDED_CSV):
        assert check("table", argv, outputs[tuple(argv)]) == []
    for argv in (DEGREE0, POSITIVE, EVAL):
        assert check("lookup", argv, outputs[tuple(argv)]) == []
    texts = [outputs[tuple(PLAIN)], outputs[tuple(EXTENDED_CSV)]]
    assert workloads.check_table_truncation([PLAIN, EXTENDED_CSV], texts) == []


def _verify_doc(outputs):
    return json.loads(outputs[tuple(VERIFY)])


def test_verify_checker_rejects_a_failing_case(outputs):
    doc = _verify_doc(outputs)
    doc[3]["cases"][1]["pass"] = False
    assert check("verify", VERIFY, json.dumps(doc))


def test_verify_checker_rejects_a_dropped_case(outputs):
    doc = _verify_doc(outputs)
    del doc[3]["cases"][-1]
    assert check("verify", VERIFY, json.dumps(doc))


def test_verify_checker_rejects_a_changed_value(outputs):
    doc = _verify_doc(outputs)
    doc[1]["cases"][0]["info"]["value"] = "2"
    assert check("verify", VERIFY, json.dumps(doc))
    doc = _verify_doc(outputs)
    doc[2]["cases"][-1]["info"]["s_exponent"] = "0"
    assert check("verify", VERIFY, json.dumps(doc))


def test_table_checker_rejects_a_changed_coefficient(outputs):
    doc = json.loads(outputs[tuple(PLAIN)])
    doc["terms"][-1]["coeff"]["num"][0][2][0] = "7/5"
    assert check("table", PLAIN, json.dumps(doc))
    rows = outputs[tuple(EXTENDED_CSV)].splitlines()
    cells = rows[-1].split(",")
    cells[-2] = "t1 + 3*t2"  # every quantum coefficient is c*(t1 + t2)
    rows[-1] = ",".join(cells)
    assert check("table", EXTENDED_CSV, "\n".join(rows) + "\n")


def test_table_checker_rejects_a_dropped_term(outputs):
    doc = json.loads(outputs[tuple(PLAIN)])
    del doc["terms"][7]
    assert check("table", PLAIN, json.dumps(doc))
    lines = outputs[tuple(EXTENDED_CSV)].splitlines(keepends=True)
    del lines[3]
    assert check("table", EXTENDED_CSV, "".join(lines))


def test_truncation_check_rejects_tables_that_disagree(outputs):
    doc = json.loads(outputs[tuple(PLAIN)])
    low = next(t for t in doc["terms"] if t["exp"] == [0, 0, 1, 1])
    low["coeff"]["num"][0][2][0] = "3"
    texts = [json.dumps(doc), outputs[tuple(EXTENDED_CSV)]]
    assert workloads.check_table_truncation([PLAIN, EXTENDED_CSV], texts)


def test_lookup_checker_rejects_changed_values(outputs):
    for argv in (DEGREE0, POSITIVE):
        doc = json.loads(outputs[tuple(argv)])
        doc["value"]["num"][0][2][0] = "5"
        assert check("lookup", argv, json.dumps(doc))
        doc = json.loads(outputs[tuple(argv)])
        doc["pretty"] = "1"
        assert check("lookup", argv, json.dumps(doc))
    doc = json.loads(outputs[tuple(EVAL)])
    doc["value"]["re"] = repr(float(doc["value"]["re"]) * (1 + 1e-9))
    assert check("lookup", EVAL, json.dumps(doc))


def _namespaces():
    mods = [m for n, m in sys.modules.items() if n == "localp12" or n.startswith("localp12.")]
    classes = [c for m in mods for c in vars(m).values()
               if isinstance(c, type) and c.__module__.startswith("localp12")]
    return mods + classes


def _snapshot():
    return {(id(ns), name): value for ns in _namespaces() for name, value in vars(ns).items()
            if callable(value)}


def test_tracer_restores_every_name_and_keeps_bytes():
    argvs = [VERIFY, PLAIN, EXTENDED_CSV, DEGREE0, POSITIVE, EVAL]
    before = _snapshot()
    plain = [run(a) for a in argvs]
    tracer = tracing.Tracer()
    with tracer:
        wrapped = [k for k, v in _snapshot().items() if before.get(k) is not v]
        traced = [run(a) for a in argvs]
    after = _snapshot()
    assert traced == plain
    assert len(wrapped) >= sum(len(paths) for _, _, paths in tracing.LAYERS)
    assert all(after[k] is v for k, v in before.items())
    table = tracer.table()
    for metric, _, _ in tracing.LAYERS:
        assert table[metric + ".calls"] > 0, metric
    assert table["cli.main.calls"] == len(argvs)
    assert 0 < table["ratfun.gcd.nontrivial"] <= table["ratfun.gcd.calls"]
    assert table["mpseries.mul.terms"] > 0
    assert all(s[4] is not None and s[4] >= s[3] for s in tracer.spans)


def _busy(seconds):
    end = speedclock.time.perf_counter() + seconds
    while speedclock.time.perf_counter() < end:
        pass


def test_speed_clock_scales_cpu_time_by_the_probe(monkeypatch):
    monkeypatch.setattr(speedclock, "probe", lambda: 2 * speedclock.PROBE_REF_S)
    cpu = speedclock.time.process_time()
    clock = speedclock.SpeedClock().start()
    _busy(0.05)
    clock.stop()
    cpu = speedclock.time.process_time() - cpu
    assert len(clock.probes) > 2
    assert clock.wall >= 0.05
    assert clock.scaled == pytest.approx(cpu / 2, rel=0.05)


def test_speed_clock_restores_the_signal_and_leaves_probes_out():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    clock = speedclock.SpeedClock().start()
    t0, w0, p0 = clock.now(), clock.wall_now(), speedclock.time.perf_counter()
    run(POSITIVE)
    _busy(0.03)
    elapsed, wall = clock.now() - t0, clock.wall_now() - w0
    total = speedclock.time.perf_counter() - p0
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert elapsed > 0
    assert 0.03 <= wall < total


def test_emitted_metrics_are_the_declared_ones():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    fake = {"round_s": 1.0, "wall_s": 1.5, "probe_s": 1e-4, "latencies": [0.5, 0.5],
            "peak_rss_mb": 20.0, "out_bytes": 10,
            "trace": tracing.Tracer().table()}
    for kind, metrics in (("end_to_end", run.end_to_end_metrics([0.1], [fake])),
                          ("per_layer", run.layer_metrics([fake], [fake]))):
        want = {m["name"]: m["unit"] for m in declared[kind]}
        assert {k: v["unit"] for k, v in metrics.items()} == want
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
