"""Seeded inputs and output checkers of the three workloads.

A workload is a round: a list of CLI argument vectors drawn from the seed.
Each run repeats its round; the program sees only the argument vectors.

Caps are drawn from sets of cap tuples that cost about the same (measured
within about +-8% of each other), so a different seed changes the inputs
but not the amount of work, and the figures of ten seeds can be compared.

Every checker takes the round's requests and the outputs of one round and
returns a list of problems; an empty list means every output is right.
Expectations come from `reference` or from properties of the method
(case counts that follow from the caps, truncation), never from a saved
copy of the program's output.
"""

import csv
import io
import json
import math
import random
import re
from fractions import Fraction

import reference as ref

# -- verify ----------------------------------------------------------------

#: (qmax, zorder) around the CLI default (8, 10), each about 1 s per request
VERIFY_CAPS = ((5, 13), (6, 12), (7, 11), (8, 10), (9, 9), (10, 9), (12, 8))
VERIFY_PER_ROUND = 5

SUITES = ("degree0", "resummation", "assembly", "bracket", "residual", "corollary")
DEGREE0_KEYS = ("<1,1,1>", "<1,1,H>", "<1,H,H>", "<H,H,H>", "<1,S,S>", "<H,S,S>")
# the suites' fixed ranges (their defaults): odd d <= 9, even d <= 8, g <= 4
ODD_CASES = [(d, g) for d in range(1, 10, 2) for g in range(0, 5)]
EVEN_CASES = [(d, g) for d in range(2, 9, 2) for g in range(-1, 5)]


def verify_requests(seed):
    rng = random.Random("verify:%d" % seed)
    caps = rng.sample(VERIFY_CAPS, VERIFY_PER_ROUND)
    return [["verify", "--suite", "all", "--qmax", str(q), "--zorder", str(z)] for q, z in caps]


def _flag(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def check_verify_one(argv, text):
    problems = []
    qmax, zorder = int(_flag(argv, "--qmax")), int(_flag(argv, "--zorder"))
    reports = json.loads(text)
    if [r["suite"] for r in reports] != list(SUITES):
        return ["suites are %r" % ([r["suite"] for r in reports],)]
    by = {r["suite"]: r["cases"] for r in reports}
    for suite, cases in by.items():
        for case in cases:
            if case["pass"] is not True or case["first_mismatch"] is not None:
                problems.append("%s %s does not pass" % (suite, case["key"]))

    def keys(suite, want):
        got = [c["key"] for c in by[suite]]
        if got != want:
            problems.append("%s has cases %r, expected %r" % (suite, got, want))

    keys("degree0", list(DEGREE0_KEYS))
    keys("bracket", ["d=%d" % d for d in range(1, qmax + 1)])
    keys("residual", ["theta-order=%d" % zorder])
    keys("resummation", ["odd d=%d g=%d" % c for c in ODD_CASES]
         + ["even d=%d g=%d" % c for c in EVEN_CASES])
    keys("assembly", ["odd d=%d g=%d" % c for c in ODD_CASES]
         + ["even-literal d=%d g=%d" % c for c in EVEN_CASES])
    keys("corollary", ["chain"] + ["line %s" % v for v in ("z0", "z1", "z2", "q", "u")]
         + ["branch=%d" % b for b in range(12)])
    if problems:
        return problems

    resum = by["resummation"]
    for case, (d, g) in zip(resum, ODD_CASES + EVEN_CASES):
        n = 2 * g + 1 if d % 2 else 2 * g + 2
        if case["info"]["value"] != str(ref.closed_form(d, n)):
            problems.append("resummation %s value %s" % (case["key"], case["info"]["value"]))
    for case, (d, g) in zip(by["assembly"], ODD_CASES + EVEN_CASES):
        info = case["info"]
        if d % 2:
            want = {"s_exponent": "0", "value": str(ref.closed_form(d, 2 * g + 1))}
        else:
            want = {"s_exponent": "-1/2", "matches": False,
                    "closed_form": str(ref.closed_form(d, 2 * g + 2))}
        if any(info.get(k) != v for k, v in want.items()):
            problems.append("assembly %s records %r" % (case["key"], info))
    for case in by["corollary"][6:]:
        b = int(case["key"].split("=")[1])
        want = {"phase_exponent": 10, "angle_over_pi": str(Fraction(-1, 3) + 2 * b)}
        if case["info"] != want:
            problems.append("corollary %s records %r" % (case["key"], case["info"]))
    return problems


# -- table -----------------------------------------------------------------

#: (qmax, zorder) with about 0.45 s and 0.9 MB of JSON per request
PLAIN_CAPS = ((8, 17), (9, 16), (12, 14), (13, 13), (14, 13), (16, 12), (18, 11))
#: (qmax, zorder, uorder) with about 0.5 s and 0.65 MB of JSON per request
EXTENDED_CAPS = ((5, 7, 5), (6, 7, 4), (5, 8, 4), (6, 8, 3), (6, 6, 5), (4, 7, 6))
TABLE_PER_KIND = 2
PLAIN_VARS = ("z0", "z1", "z2", "q")
EXTENDED_VARS = PLAIN_VARS + ("u",)


def table_requests(seed):
    rng = random.Random("table:%d" % seed)
    out = []
    for fmt in ("json", "csv"):
        for q, z in rng.sample(PLAIN_CAPS, TABLE_PER_KIND):
            out.append(["potential", "--qmax", str(q), "--zorder", str(z), "--format", fmt])
        for q, z, u in rng.sample(EXTENDED_CAPS, TABLE_PER_KIND):
            out.append(["potential", "--extended", "--qmax", str(q), "--zorder", str(z),
                        "--uorder", str(u), "--format", fmt])
    rng.shuffle(out)
    return out


def _table_args(argv):
    q, z = int(_flag(argv, "--qmax")), int(_flag(argv, "--zorder"))
    return (q, z, int(_flag(argv, "--uorder"))) if "--extended" in argv else (q, z)


def table_caps(argv):
    """(variable names, caps in variable order) of a `potential` request."""
    q, z, *u = _table_args(argv)
    return (EXTENDED_VARS if u else PLAIN_VARS), (z, z, z, q, *u)


def reference_table(argv):
    args = _table_args(argv)
    return ref.extended_table(*args) if len(args) == 3 else ref.potential_table(*args)


def _poly_from_json(rows):
    out = {}
    for e1, e2, coords in rows:
        if any(Fraction(c) for c in coords[1:]):
            raise ValueError("irrational coefficient %r" % (coords,))
        if (e1, e2) in out:
            raise ValueError("repeated monomial %r" % ((e1, e2),))
        out[(e1, e2)] = Fraction(coords[0])
    return out


def coeff_from_json(obj):
    return _poly_from_json(obj["num"]), _poly_from_json(obj["den"])


_TERM_SPLIT = re.compile(r" ([+-]) ")
_MONOMIAL = re.compile(r"t([12])(?:\^(\d+))?")


def poly_from_str(text):
    """Parse the package's printed polynomial (rational coefficients)."""
    if text == "0":
        return {}
    parts = _TERM_SPLIT.split(text)
    terms = [parts[0]] + [("-" if s == "-" else "") + t for s, t in zip(parts[1::2], parts[2::2])]
    out = {}
    for term in terms:
        coeff, exp = Fraction(1), [0, 0]
        if term.startswith("-") and not term[1:2].isdigit():
            coeff, term = Fraction(-1), term[1:]
        for factor in term.split("*"):
            m = _MONOMIAL.fullmatch(factor)
            if m:
                exp[int(m[1]) - 1] += int(m[2] or 1)
            else:
                coeff *= Fraction(factor)
        if tuple(exp) in out or not coeff:
            raise ValueError("malformed polynomial %r" % (text,))
        out[tuple(exp)] = coeff
    return out


def ratfun_from_str(text):
    """Parse the package's printed rational function: p or (p)/(q)."""
    if text.startswith("(") and text.endswith(")") and ")/(" in text:
        num, den = text[1:-1].split(")/(")
        return poly_from_str(num), poly_from_str(den)
    return poly_from_str(text), dict(ref.ONE)


def _sort_key(exp):
    return (sum(exp), exp)


def parse_table(argv, text):
    """{exponent tuple: coeff} of a `potential` output, JSON or CSV."""
    names, caps = table_caps(argv)
    if _flag(argv, "--format") == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != list(names) + ["num", "den"]:
            raise ValueError("CSV header %r" % (rows[0],))
        exps = [tuple(int(x) for x in r[:-2]) for r in rows[1:]]
        coeffs = [(poly_from_str(r[-2]), poly_from_str(r[-1])) for r in rows[1:]]
    else:
        doc = json.loads(text)
        if doc["vars"] != list(names) or doc["caps"] != list(caps):
            raise ValueError("vars %r caps %r" % (doc["vars"], doc["caps"]))
        exps = [tuple(t["exp"]) for t in doc["terms"]]
        coeffs = [coeff_from_json(t["coeff"]) for t in doc["terms"]]
    if exps != sorted(exps, key=_sort_key) or len(set(exps)) != len(exps):
        raise ValueError("terms are not in sorted order without repeats")
    return dict(zip(exps, coeffs))


def _truncate(table, caps):
    return {e: c for e, c in table.items() if all(x <= cap for x, cap in zip(e, caps))}


def check_table_one(argv, text):
    want = reference_table(argv)
    got = parse_table(argv, text)
    if len(got) != len(want):
        return ["%d terms, reference has %d" % (len(got), len(want))]
    bad = [e for e in want if got.get(e) != want[e]]
    if bad:
        return ["%d coefficients differ from the reference, first at %r" % (len(bad), min(bad))]
    return []


def check_table_truncation(requests, texts):
    """Every two tables agree on the caps they share; an extended table's
    u^0 slice is the plain table at its (qmax, zorder)."""
    plain = []
    for argv, text in zip(requests, texts):
        caps = table_caps(argv)[1]
        table = parse_table(argv, text)
        if "--extended" in argv:
            table = {e[:4]: c for e, c in table.items() if e[4] == 0}
            caps = caps[:4]
        plain.append((caps, table, " ".join(argv)))
    problems = []
    for i, (caps_a, a, name_a) in enumerate(plain):
        for caps_b, b, name_b in plain[i + 1:]:
            common = tuple(min(x, y) for x, y in zip(caps_a, caps_b))
            if _truncate(a, common) != _truncate(b, common):
                problems.append("%s and %s differ below caps %r" % (name_a, name_b, common))
    return problems


# -- lookup ----------------------------------------------------------------

EVAL_CAPS = (3, 6)  # the CLI defaults of eval
GRID_DEGREES = 3
GRID_INSERTIONS = 2
# A round has 12 requests of about 2 ms (the six degree-0 triples with an S
# and the grid), 4 of about 25 ms (the degree-0 triples without S, each a
# fixed-point sum through the general gcd) and 12 evals of about 150 ms.
# With as many evals as cheap requests, the median request is always one
# of the four fixed-point sums, whatever share of a round a slow or fast
# spell of the machine covers.
EVAL_PER_ROUND = 12
EVAL_POINTS = 4


def _rational(rng, lo, hi, den_hi):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den_hi))


def lookup_requests(seed):
    rng = random.Random("lookup:%d" % seed)
    out = []
    for c0 in range(4):
        for c1 in range(4 - c0):
            classes = ["1"] * c0 + ["H"] * c1 + ["S"] * (3 - c0 - c1)
            rng.shuffle(classes)
            out.append(["invariants", "--d", "0", "--classes", ",".join(classes)])
    for d in rng.sample(range(1, 13), GRID_DEGREES):
        for _ in range(GRID_INSERTIONS):
            n1, n2 = rng.randint(0, 4), 2 * rng.randint(0, 4) + d % 2
            out.append(["invariants", "--d", str(d), "--n1", str(n1), "--n2", str(n2)])
    points = []
    for _ in range(EVAL_POINTS):
        at = ["t1=%s" % _rational(rng, 1, 9, 4), "t2=%s" % _rational(rng, 1, 9, 4)]
        for name in ("z0", "z1", "z2", "q"):
            if rng.random() < 0.75:
                at.append("%s=%s" % (name, _rational(rng, -3, 3, 7)))
        points.append(",".join(at))
    for _ in range(EVAL_PER_ROUND):
        out.append(["eval", "--at", rng.choice(points)])
    rng.shuffle(out)
    return out


def check_lookup_one(argv, text, eval_table):
    record = json.loads(text)
    if argv[0] == "eval":
        point = {k: Fraction(v) for k, v in (kv.split("=") for kv in argv[2].split(","))}
        want_at = {n: str(point.get(n, Fraction(0))) for n in ("t1", "t2") + PLAIN_VARS}
        if record["at"] != want_at or record["extended"] is not False:
            return ["eval echoes %r" % (record,)]
        if (record["qmax"], record["zorder"]) != EVAL_CAPS:
            return ["eval caps %r" % ((record["qmax"], record["zorder"]),)]
        want = float(ref.evaluate(eval_table, PLAIN_VARS, point))
        got_re, got_im = float(record["value"]["re"]), float(record["value"]["im"])
        if got_im != 0 or not math.isclose(got_re, want, rel_tol=1e-12, abs_tol=0.0):
            return ["eval at %s gives %r, reference %r" % (argv[2], record["value"], want)]
        return []
    d = int(_flag(argv, "--d"))
    if d == 0:
        classes = _flag(argv, "--classes").split(",")
        want = ref.degree0(classes)
        head = {"d": 0, "classes": classes}
    else:
        n1, n2 = int(_flag(argv, "--n1")), int(_flag(argv, "--n2"))
        want = ref.invariant(d, n1, n2)
        head = {"d": d, "n1": n1, "n2": n2}
    if any(record.get(k) != v for k, v in head.items()):
        return ["record %r does not echo %r" % (record, head)]
    if coeff_from_json(record["value"]) != want or ratfun_from_str(record["pretty"]) != want:
        return ["%s gives %s, reference %r" % (" ".join(argv), record["pretty"], want)]
    return []


# -- rounds ----------------------------------------------------------------


def check_round(workload, requests, texts):
    """Problems found in one round's outputs (empty list when all are right)."""
    problems = []
    eval_table = ref.potential_table(*EVAL_CAPS) if workload == "lookup" else None
    for argv, text in zip(requests, texts):
        try:
            if workload == "verify":
                found = check_verify_one(argv, text)
            elif workload == "table":
                found = check_table_one(argv, text)
            else:
                found = check_lookup_one(argv, text, eval_table)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as err:
            found = ["unreadable output (%s: %s)" % (type(err).__name__, err)]
        problems.extend("%s: %s" % (" ".join(argv), p) for p in found)
    if workload == "table" and not problems:
        problems.extend(check_table_truncation(requests, texts))
    return problems


WORKLOADS = {
    "verify": verify_requests,
    "table": table_requests,
    "lookup": lookup_requests,
}
