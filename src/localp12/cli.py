"""Command-line front end.

Four subcommands: `potential` prints the truncated potential as an exact
coefficient table, `invariants` prints a single invariant, `verify` runs
the verification suites, and `eval` embeds the truncated potential at a
numeric point.  Output is deterministic: identical configuration yields
byte-identical bytes, with terms sorted and rationals in canonical form.

Exit codes: 0 on success (all suites passing for `verify`), 1 on a
verification failure, an evaluation pole or a value too large for a float,
2 on a usage error.
"""

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import localization, pcrc
from .cyclotomic import ZERO as C_ZERO
from .potentials import degree0_triple, extended_potential, gw_invariant, potential

#: suite name -> runner; each looks its suite up in its module at call time,
#: so a function patched into that module (a tracer, say) is the one run
_SUITES = {
    "degree0": lambda cfg: localization.degree0_suite(),
    "resummation": lambda cfg: localization.resummation_suite(),
    "assembly": lambda cfg: localization.assembly_suite(),
    "bracket": lambda cfg: pcrc.verify_bracket_identity(cfg.qmax, cfg.zorder),
    "residual": lambda cfg: pcrc.verify_residual_thirdderiv(cfg.zorder),
    "corollary": lambda cfg: pcrc.corollary_suite(),
}

SUITE_NAMES = tuple(_SUITES)

#: per-command cap defaults; a command without a cap does not read it
_DEFAULT_CAPS = {
    "potential": {"qmax": 3, "zorder": 6, "uorder": 3},
    "eval": {"qmax": 3, "zorder": 6, "uorder": 3},
    "verify": {"qmax": 8, "zorder": 10},
    "invariants": {},
}

_EVAL_VARS = ("z0", "z1", "z2", "q", "u")


@dataclass
class RunConfig:
    command: str
    qmax: int
    zorder: int
    uorder: int
    extended: bool
    suites: tuple
    format: str
    at: dict
    out: str
    d: int
    n1: int
    n2: int
    classes: str


class UsageError(Exception):
    pass


def _nat(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer")
    return value


#: flag -> its argparse keywords
_FLAG_SPECS = {
    "qmax": dict(type=_nat, help="curve-degree cap"),
    "zorder": dict(type=_nat, help="cap on each z variable"),
    "uorder": dict(type=_nat, help="cap on the angle variable"),
    "extended": dict(action="store_true", help="use the u-extended potential"),
    "format": dict(choices=("json", "csv")),
    "at": dict(help="comma-separated k=v rational assignments"),
    "suite": dict(help="one of %s, or 'all'" % (", ".join(SUITE_NAMES),)),
    "d": dict(type=_nat, help="curve degree"),
    "n1": dict(type=_nat, help="divisor insertions"),
    "n2": dict(type=_nat, help="twisted insertions"),
    "classes": dict(help="three comma-separated classes for d=0, e.g. 1,H,H"),
}


#: command -> (help, the flags it reads besides --config and --out)
_COMMAND_FLAGS = {
    "potential": ("print the truncated potential as a coefficient table",
                  ("qmax", "zorder", "uorder", "extended", "format")),
    "invariants": ("print one invariant value", ("d", "n1", "n2", "classes")),
    "verify": ("run verification suites", ("qmax", "zorder", "suite")),
    "eval": ("numerically evaluate the truncated potential",
             ("qmax", "zorder", "uorder", "extended", "at")),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one line, exit 2.

    Subparsers are made with the parser's own class, so they inherit it.
    """

    def error(self, message):
        self.exit(2, "error: %s\n" % (message,))


def _build_parser():
    top = _Parser(
        prog="localp12",
        description="Exact genus-0 potential and verification suites for local P(1,2).",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMAND_FLAGS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument("--" + flag, default=None, **_FLAG_SPECS[flag])
        p.add_argument("--config", default=None, help="JSON file with the same keys as the flags")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    return top


def _load_config(path, command):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        raise UsageError("cannot read config %s: %s" % (path, err))
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    keys = _COMMAND_FLAGS[command][1] + ("out",)
    for key in data:
        if key not in keys:
            raise UsageError("config key %r is not read by %s" % (key, command))
    return data


def _merge(args):
    """Flags override config-file values; defaults fill the rest."""
    cfg = _load_config(args.config, args.command) if args.config else {}

    def pick(name, fallback=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in cfg:
            return cfg[name]
        return fallback

    def pick_nat(name, fallback=None):
        value = pick(name, fallback)
        # bool is an int subclass, but true is no cap
        if value is not None and (type(value) is not int or value < 0):
            raise UsageError("%s must be a nonnegative integer, got %r" % (name, value))
        return value

    def pick_typed(name, kind, what, fallback=None):
        value = pick(name, fallback)
        if value is not None and not isinstance(value, kind):
            raise UsageError("%s must be %s, got %r" % (name, what, value))
        return value

    # only verify reads a suite; the others keep the default, unused
    suite = pick("suite", "all")
    if suite != "all" and suite not in SUITE_NAMES:
        raise UsageError("unknown suite %r; choose from %s or 'all'"
                         % (suite, ", ".join(SUITE_NAMES)))
    suites = SUITE_NAMES if suite == "all" else (suite,)

    fmt = pick("format", "json")
    if fmt not in ("json", "csv"):
        raise UsageError("format must be json or csv")

    caps = _DEFAULT_CAPS[args.command]
    return RunConfig(
        command=args.command,
        qmax=pick_nat("qmax", caps.get("qmax")),
        zorder=pick_nat("zorder", caps.get("zorder")),
        uorder=pick_nat("uorder", caps.get("uorder")),
        extended=pick_typed("extended", bool, "true or false", False),
        suites=suites,
        format=fmt,
        at=_parse_at(pick("at")),
        out=pick_typed("out", str, "a path"),
        d=pick_nat("d", 0),
        n1=pick_nat("n1", 0),
        n2=pick_nat("n2"),
        classes=pick_typed("classes", str, "a comma-separated string"),
    )


def _parse_at(spec):
    if spec is None:
        return {}
    if isinstance(spec, dict):
        items = spec.items()
    else:
        items = []
        for chunk in str(spec).split(","):
            if not chunk:
                continue
            if "=" not in chunk:
                raise UsageError("bad assignment %r in --at" % (chunk,))
            k, v = chunk.split("=", 1)
            items.append((k.strip(), v.strip()))
    out = {}
    for k, v in items:
        text = str(v)
        if _too_long(text):
            raise UsageError("the value of %s in --at has more than %d digits"
                             % (k, sys.get_int_max_str_digits()))
        try:
            out[k] = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise UsageError("cannot parse %r as a rational" % (v,))
    return out


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*$")


def _too_long(text):
    """Whether the Fraction of a literal may pass the int-to-str digit limit.

    Its numerator and denominator have at most len(text) + |exponent| digits.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return False
    if len(text) > limit:
        return True
    power = _EXPONENT.search(text)
    return bool(power) and len(text) + abs(int(power.group(1))) > limit


# --------------------------------------------------------------------------
# subcommands


def _the_potential(cfg):
    if cfg.extended:
        return extended_potential(cfg.qmax, cfg.zorder, cfg.uorder)
    return potential(cfg.qmax, cfg.zorder)


def _sorted_rows(pot, cubic_row, tail_row):
    """Rows of the cubic's and the tail's terms, in `Series.sorted_terms` order.

    The two supports are disjoint, so each exponent has exactly one row.
    """
    rows = {e: cubic_row(e, c) for e, c in pot.cubic.terms()}
    rows.update((e, tail_row(e, r)) for e, r in pot.tail.terms())
    return [rows[e] for e in sorted(rows, key=lambda e: (sum(e), e))]


def _term_json(exp, coeff_text):
    """One term of `Series.to_json` laid out as `_dump` lays it out in a table."""
    return '    {\n      "coeff": %s,\n      "exp": [\n        %s\n      ]\n    }' % (
        coeff_text, ",\n        ".join(map(str, exp)))


def _nested_json(obj):
    """`_dump` of obj, indented to sit at the coefficient of a table term."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n      ")


#: `_nested_json` of the `RatFun.to_json` of (t1+t2)*r, with %s for str(r)
_LEVEL_JSON = _nested_json({
    "num": [[1, 0, ["%s", "0", "0", "0"]], [0, 1, ["%s", "0", "0", "0"]]],
    "den": [[0, 0, ["1", "0", "0", "0"]]],
})


def _level_cell(r):
    """`str` of the polynomial r*t1 + r*t2, for a nonzero rational r."""
    a = str(abs(r))
    m = "" if a == "1" else a + "*"
    return ("-%st1 - %st2" if r < 0 else "%st1 + %st2") % (m, m)


def cmd_potential(cfg):
    pot = _the_potential(cfg)
    if cfg.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(pot.vs.names) + ["num", "den"])
        writer.writerows(_sorted_rows(
            pot,
            lambda e, c: [*map(str, e), str(c.num), str(c.den)],
            lambda e, r: [*map(str, e), _level_cell(r), "1"]))
        return buf.getvalue(), 0
    cubic = {tuple(t["exp"]): _nested_json(t["coeff"]) for t in pot.cubic.to_json()["terms"]}
    terms = _sorted_rows(
        pot,
        lambda e, c: _term_json(e, cubic[e]),
        lambda e, r: _term_json(e, _LEVEL_JSON % (r, r)))
    # the table as `_dump` writes it, with the term list written in place
    table = _dump({"caps": list(pot.vs.caps), "terms": [], "vars": list(pot.vs.names)})
    if terms:
        table = table.replace('"terms": []', '"terms": [\n%s\n  ]' % ",\n".join(terms))
    return table, 0


def cmd_invariants(cfg):
    d = cfg.d
    if d == 0:
        if not cfg.classes:
            raise UsageError("degree 0 needs --classes, e.g. --classes 1,H,H")
        classes = tuple(c.strip() for c in cfg.classes.split(","))
        try:
            value = degree0_triple(classes)
        except ValueError as err:
            raise UsageError(str(err))
        record = {"d": 0, "classes": list(classes), "value": value.to_json(),
                  "pretty": str(value)}
        return _dump(record), 0
    if cfg.classes is not None:
        raise UsageError("--classes is only for degree 0")
    if cfg.n2 is None:
        raise UsageError("positive degree needs --n2 (twisted insertion count)")
    limit = sys.get_int_max_str_digits()
    # the value is (t1+t2) times +-2 d^(n1+n2-3) / 2^n2: its numerator has at
    # most 1 + (n1+n2) log2(d) bits, its denominator at most 3 log2(d) + n2
    bits = max(1 + (cfg.n1 + cfg.n2) * math.log2(d), 3 * math.log2(d) + cfg.n2)
    if limit and math.floor(bits * math.log10(2)) + 1 > limit:
        raise UsageError("the invariant at d=%d, n1=%d, n2=%d has more than %d digits"
                         % (d, cfg.n1, cfg.n2, limit))
    try:
        value = gw_invariant(cfg.n1, cfg.n2, d)
    except ValueError as err:
        raise UsageError(str(err))
    record = {"d": d, "n1": cfg.n1, "n2": cfg.n2, "value": value.to_json(),
              "pretty": str(value)}
    return _dump(record), 0


def cmd_verify(cfg):
    reports = [_SUITES[name](cfg) for name in cfg.suites]
    ok = all(r.passed for r in reports)
    if len(reports) == 1:
        payload = reports[0].to_json()
    else:
        payload = [r.to_json() for r in reports]
    return _dump(payload), 0 if ok else 1


def cmd_eval(cfg):
    """Embed the truncated potential at a numeric point.

    The value depends on the truncation orders; it is the polynomial the
    caps retain, not the analytic sum.
    """
    for key in cfg.at:
        if key not in ("t1", "t2") + _EVAL_VARS:
            raise UsageError("unknown variable %r in --at" % (key,))
    if "u" in cfg.at and not cfg.extended:
        raise UsageError("--at sets u, which only the --extended potential has")
    if "t1" not in cfg.at or "t2" not in cfg.at:
        raise UsageError("--at must set t1 and t2")
    t1, t2 = cfg.at["t1"], cfg.at["t2"]
    pot = _the_potential(cfg)
    point = {"t1": t1, "t2": t2}
    for name in pot.vs.names:
        point[name] = cfg.at.get(name, Fraction(0))
    values = [point[name] for name in pot.vs.names]

    def monomial(e):
        m = 1
        for x, ev in zip(values, e):
            if ev:
                m = m * x**ev
        return m

    # the value is exact, so its embedding does not depend on the summation order
    cubic = sum((c.eval(t1, t2) * monomial(e) for e, c in pot.cubic.terms()), C_ZERO)
    tail = sum(r * monomial(e) for e, r in pot.tail.terms())
    try:
        value = (cubic + (t1 + t2) * tail).embed()
    except OverflowError:
        raise OverflowError("the value at this point is too large for a float")
    record = {
        "at": {k: str(v) for k, v in sorted(point.items())},
        "extended": cfg.extended,
        "qmax": cfg.qmax,
        "zorder": cfg.zorder,
        "value": {"re": format(value.real, ".15g"), "im": format(value.imag, ".15g")},
    }
    if cfg.extended:
        record["uorder"] = cfg.uorder
    return _dump(record), 0


def _dump(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_COMMANDS = {
    "potential": cmd_potential,
    "invariants": cmd_invariants,
    "verify": cmd_verify,
    "eval": cmd_eval,
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse has printed help or the usage error
        return stop.code
    try:
        cfg = _merge(args)
        text, code = _COMMANDS[cfg.command](cfg)
        if cfg.out:
            try:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as err:
                raise UsageError("cannot write %s: %s" % (cfg.out, err.strerror or err))
        else:
            sys.stdout.write(text)
    except UsageError as err:
        print("error: %s" % (err,), file=sys.stderr)
        return 2
    except (ZeroDivisionError, OverflowError) as err:
        print("error: %s" % (err,), file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
