"""Command-line front end.

Four subcommands: `potential` prints the truncated potential as an exact
coefficient table, `invariants` prints a single invariant, `verify` runs
the verification suites, and `eval` embeds the truncated potential at a
numeric point.  Output is deterministic: identical configuration yields
byte-identical bytes, with terms sorted and rationals in canonical form.

A table is written in one ordered pass: the rational tail's pairs come in
table order, by total degree and then by exponent, and only the classical
cubic's few terms (disjoint from the tail's) are sorted in among them.  A
cubic term is written from the cubic's `Series.to_json`, a tail term n/m
from the text of its integer pair alone (`str(n)` when m is 1, else "n/m",
as `str(Fraction(n, m))` writes it), between the fixed pieces of one JSON
term or of one of two CSV rows by its sign, cut once per table, so `%` fills
only the exponents (a row of n/m = 1 or -1 is one of two fixed templates).
`eval` sums exactly in integers: with x = p/q at each variable, a table of
p^k q^(cap-k) per variable turns every monomial into an integer product, the
coefficients are brought to the lcm of their denominators, and the sum is
divided once.  The tail's pairs go through that sum as they are, the cubic
once its coefficients are evaluated at (t1, t2); only the exact total is
turned into a float.  `eval` keeps the
potential of its last caps, so a run of evals at the same caps builds it
once; `potential` builds every table afresh.  Every JSON document goes
through `_token`, which writes the stdlib's indented, key-sorted layout
itself: `_dump` is `_token` and a newline, and `verify` fills one fixed
template per case with `_token`'s texts.

Exit codes: 0 on success (all suites passing for `verify`), 1 on a
verification failure, an evaluation pole or a value too large for a float,
2 on a usage error.
"""

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import localization, pcrc
from .cyclotomic import _signed_sum
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

#: cap -> the --suite values that read it; the other suites refuse it
_CAP_SUITES = {"qmax": ("all", "bracket"), "zorder": ("all", "bracket", "residual")}

_EVAL_VARS = ("z0", "z1", "z2", "q", "u")


class UsageError(Exception):
    pass


# each check takes a flag's name and merged value and returns the value to run with


def _check_nat(name, value):
    # bool is an int subclass, but true is no cap
    if value is not None and (type(value) is not int or value < 0):
        raise UsageError("%s must be a nonnegative integer, got %r" % (name, value))
    return value


def _check_type(kind, what):
    def check(name, value):
        if value is not None and not isinstance(value, kind):
            raise UsageError("%s must be %s, got %r" % (name, what, value))
        return value
    return check


def _check_path(name, value):
    # open would refuse these only after the command has done its work
    if _check_type(str, "a path")(name, value) is not None:
        if not value:
            raise UsageError("%s must not be an empty path" % (name,))
        if "\0" in value:
            raise UsageError("%s must not contain a NUL character, got %r" % (name, value))
    return value


def _check_suite(name, value):
    if value != "all" and value not in SUITE_NAMES:
        raise UsageError("unknown suite %r; choose from %s or 'all'"
                         % (value, ", ".join(SUITE_NAMES)))
    return value


def _check_format(name, value):
    if value not in ("json", "csv"):
        raise UsageError("format must be json or csv")
    return value


def _parse_at(name, spec):
    if spec is None:
        return {}
    if isinstance(spec, dict):
        items = spec.items()
    elif isinstance(spec, str):
        items = []
        for chunk in spec.split(","):
            if not chunk:
                continue
            if "=" not in chunk:
                raise UsageError("bad assignment %r in --at" % (chunk,))
            k, v = chunk.split("=", 1)
            items.append((k.strip(), v.strip()))
    else:
        raise UsageError("at must be a string or an object, got %r" % (spec,))
    out = {}
    for k, v in items:
        if k in out:
            raise UsageError("%s is set twice in --at" % (k,))
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


#: flag -> (its argparse keywords, the check on its merged value), in the
#: order the checks run
_FLAGS = {
    "suite": (dict(help="one of %s, or 'all'" % (", ".join(SUITE_NAMES),)), _check_suite),
    "format": (dict(metavar="{json,csv}"), _check_format),
    "qmax": (dict(type=int, help="curve-degree cap"), _check_nat),
    "zorder": (dict(type=int, help="cap on each z variable"), _check_nat),
    "uorder": (dict(type=int, help="cap on the angle variable"), _check_nat),
    "extended": (dict(action="store_true", help="use the u-extended potential"),
                 _check_type(bool, "true or false")),
    "at": (dict(help="comma-separated k=v rational assignments"), _parse_at),
    "out": (dict(help="write output to this path instead of stdout"), _check_path),
    "d": (dict(type=int, help="curve degree"), _check_nat),
    "n1": (dict(type=int, help="divisor insertions"), _check_nat),
    "n2": (dict(type=int, help="twisted insertions"), _check_nat),
    "classes": (dict(help="three comma-separated classes for d=0, e.g. 1,H,H"),
                _check_type(str, "a comma-separated string")),
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
    for name, (help_text, reads, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in reads:
            p.add_argument("--" + flag, default=None, **_FLAGS[flag][0])
        p.add_argument("--config", default=None, help="JSON file with the same keys as the flags")
        p.add_argument("--out", default=None, **_FLAGS["out"][0])
    return top


def _unique_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise UsageError("config key %r is set twice" % (key,))
        out[key] = value
    return out


class _Literal:
    """A config's decimal number as its text: `_parse_at` reads it exactly,
    where a float would round it, and every other check refuses it with its
    text, as it would the float.  It is no str, so no check takes it for one."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text

    __repr__ = __str__


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys, parse_float=_Literal)
    except (OSError, ValueError, RecursionError) as err:
        raise UsageError("cannot read config %r: %s" % (path, err))
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    return data


def _merge(args):
    """Flags override config-file values; the command's defaults fill the rest.

    The result holds the command, `out` and the flags that command reads.
    """
    reads = dict(_COMMANDS[args.command][1], out=None)
    cfg = {} if args.config is None else _load_config(args.config)
    for key, value in cfg.items():
        if key not in reads:
            raise UsageError("config key %r is not read by %s" % (key, args.command))
        # None is how a flag reads as unset, so a null would pass every check
        if value is None:
            raise UsageError("config key %r must not be null" % (key,))
    merged = argparse.Namespace(command=args.command)
    for name, (_, check) in _FLAGS.items():
        if name in reads:
            value = getattr(args, name)
            if value is None:
                value = cfg.get(name, reads[name])
            setattr(merged, name, check(name, value))
    # a cap that would go unread is refused: the plain potential has no u,
    # and only some suites take caps
    given = [cap for cap in ("qmax", "zorder", "uorder")
             if cap in reads and (getattr(args, cap) is not None or cap in cfg)]
    if "uorder" in given and not merged.extended:
        raise UsageError("--uorder is only for the --extended potential")
    if args.command == "verify":
        for cap in given:
            if merged.suite not in _CAP_SUITES[cap]:
                raise UsageError("--%s is only for the suites %s"
                                 % (cap, ", ".join(_CAP_SUITES[cap])))
    return merged


# --------------------------------------------------------------------------
# subcommands


def _the_potential(extended, qmax, zorder, uorder):
    if extended:
        return extended_potential(qmax, zorder, uorder)
    return potential(qmax, zorder)


#: `eval`'s potential, kept for the last caps only: repeated evals at the same
#: caps build it once, and it holds one potential at most
_eval_potential = functools.lru_cache(maxsize=1)(_the_potential)


_STR = json.encoder.encode_basestring_ascii


def _token(v, pad):
    """A str, None, bool, int, or list or str-keyed dict of them, as the
    stdlib's `json` writes it with indent=2 and sorted keys, with pad after
    each newline; TypeError for any other value."""
    t = type(v)
    if t is str:
        return _STR(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    if t is int:
        return int.__repr__(v)
    if t is list:
        if not v:
            return "[]"
        inner = pad + "  "
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join([_token(x, inner) for x in v]), pad)
    if t is dict:
        if not v:
            return "{}"
        inner = pad + "  "
        # `_STR` of a key that is no str raises TypeError
        return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(
            [_STR(k) + ": " + (_STR(x) if type(x) is str else _token(x, inner))
             for k, x in sorted(v.items())]), pad)
    raise TypeError("cannot write %r as JSON" % (v,))


#: `_token` of the `RatFun.to_json` of (t1+t2)*r at the coefficient of a
#: table term, with %s for str(r)
_LEVEL_JSON = _token({
    "num": [[1, 0, ["%s", "0", "0", "0"]], [0, 1, ["%s", "0", "0", "0"]]],
    "den": [[0, 0, ["1", "0", "0", "0"]]],
}, "      ")

#: the CSV cell of the polynomial r*t1 + r*t2, by r < 0 and then by |r| == 1,
#: with %s for the text of |r| where |r| != 1
_LEVEL_CELLS = tuple((_signed_sum([(sign + "%s", "t1"), (sign + "%s", "t2")]),
                      _signed_sum([(sign + "1", "t1"), (sign + "1", "t2")]))
                     for sign in ("", "-"))


def cmd_potential(cfg):
    """The table in one ordered pass: the tail's pairs come in table order,
    and the cubic's terms (all of total degree 3, none at a tail exponent)
    are merged in among the tail's first ones; each term is written from its
    part, a tail term's text between template pieces cut once per call."""
    pot = _the_potential(cfg.extended, cfg.qmax, cfg.zorder, cfg.uorder)
    exps = ",".join(["%d"] * len(pot.vs.names))
    # a cubic term is (exponent, (its CSV cells or JSON coefficient, None)),
    # a tail term (exponent, (n, m))
    if cfg.format == "csv":
        cubic = [(e, ("%s,%s" % (c.num, c.den), None)) for e, c in pot.cubic.terms()]
    else:
        cubic = [(tuple(t["exp"]), (_token(t["coeff"], "      "), None))
                 for t in pot.cubic.to_json()["terms"]]
    terms = list(pot.pairs.items())
    hi = 0
    while hi < len(terms) and sum(terms[hi][0]) <= 3:
        hi += 1
    terms[:hi] = sorted(terms[:hi] + cubic, key=lambda t: (sum(t[0]), t[0]))
    if cfg.format == "csv":
        # rows as the csv module writes them: no cell holds a comma, a quote
        # or a line break, so none is quoted
        cells = [[exps + "," + cell + ",1\n" for cell in pair] for pair in _LEVEL_CELLS]
        # a row of |r| != 1 cut at its two %s: (exponents and sign, middle, end)
        cut = [pair[0].split("%s") for pair in cells]
        rows = [",".join(pot.vs.names) + ",num,den\n"]
        for e, (n, m) in terms:
            if m is None:
                rows.append(exps % e + "," + n + "\n")
            elif m == 1 and (n == 1 or n == -1):
                rows.append(cells[n < 0][1] % e)
            else:
                head, mid, end = cut[n < 0]
                s = str(abs(n)) if m == 1 else f"{abs(n)}/{m}"
                rows.append(f"{head % e}{s}{mid}{s}{end}")
        return "".join(rows), 0
    # one term of `Series.to_json` as `_dump` lays it out in a table: %s for the
    # coefficient's text, %d for each exponent
    term = '    {\n      "coeff": %%s,\n      "exp": [\n        %s\n      ]\n    }' % (
        exps.replace(",", ",\n        "),)
    # a tail term cut at the two places of the text of r: the end keeps the %d
    a, b, c = term.replace("%s", _LEVEL_JSON).split("%s")
    out = [term % (n, *e) if m is None
           else f"{a}{(s := str(n) if m == 1 else f'{n}/{m}')}{b}{s}{c % e}"
           for e, (n, m) in terms]
    # the table as `_dump` writes it, joined once with the terms in place
    table = _dump({"caps": list(pot.vs.caps), "terms": [], "vars": list(pot.vs.names)})
    if out:
        head, _, foot = table.partition('"terms": []')
        out[0] = head + '"terms": [\n' + out[0]
        out[-1] += "\n  ]" + foot
        table = ",\n".join(out)
    return table, 0


def cmd_invariants(cfg):
    d = cfg.d
    if d == 0:
        for flag in ("n1", "n2"):
            if getattr(cfg, flag) is not None:
                raise UsageError("--%s is only for positive degree" % (flag,))
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
    n1 = 0 if cfg.n1 is None else cfg.n1
    limit = sys.get_int_max_str_digits()
    # the value is (t1+t2) times +-2 d^(n1+n2-3) / 2^n2: its numerator has at
    # most 1 + (n1+n2) log2(d) bits, its denominator at most 3 log2(d) + n2
    bits = max(1 + (n1 + cfg.n2) * math.log2(d), 3 * math.log2(d) + cfg.n2)
    if limit and math.floor(bits * math.log10(2)) + 1 > limit:
        raise UsageError("the invariant at d=%d, n1=%d, n2=%d has more than %d digits"
                         % (d, n1, cfg.n2, limit))
    try:
        value = gw_invariant(n1, cfg.n2, d)
    except ValueError as err:
        raise UsageError(str(err))
    record = {"d": d, "n1": n1, "n2": cfg.n2, "value": value.to_json(),
              "pretty": str(value)}
    return _dump(record), 0


def _report_json(report, pad=""):
    """`_token(report.to_json(), pad)`, one template per case: a case's values
    in sorted key order, its null, true, false and key written without `_token`."""
    inner = pad + "      "
    template = '{\n%s"first_mismatch": %%s,%%s\n%s"key": %%s,\n%s"pass": %%s\n%s    }' % (
        inner, inner, inner, pad)
    info = "\n" + inner + '"info": %s,'
    cases = [template % ("null" if (first := c["first_mismatch"]) is None else _token(first, inner),
                         info % _token(c["info"], inner) if "info" in c else "",
                         _STR(c["key"]), "true" if c["pass"] else "false")
             for c in report.cases]
    body = "[\n%s    %s\n%s  ]" % (pad, (",\n    " + pad).join(cases), pad) if cases else "[]"
    return '{\n%s  "cases": %s,\n%s  "suite": %s\n%s}' % (pad, body, pad, _STR(report.suite), pad)


def cmd_verify(cfg):
    """Run the suites and write their reports as `_dump` would: one report
    alone, several as a list, each written at the list's indent."""
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    reports = [_SUITES[name](cfg) for name in names]
    ok = all(r.passed for r in reports)
    if len(reports) == 1:
        text = _report_json(reports[0])
    else:
        text = "[\n  %s\n]" % ",\n  ".join([_report_json(r, "  ") for r in reports])
    return text + "\n", 0 if ok else 1


def _rational_sum(terms, values, caps):
    """The sum of (n/d) * prod(x_i^e_i) over (e, (n, d)) terms, d > 0, exact,
    in integers.

    With x_i = p_i/q_i, the table A_i[k] = p_i^k q_i^(cap_i - k) turns each
    monomial into prod A_i[e_i] / prod q_i^cap_i; with L the lcm of the
    denominators d, the sum is sum(n (L/d) prod A_i[e_i]) / (L prod q_i^cap_i),
    one division in all.
    """
    tables = [[x.numerator**k * x.denominator**(cap - k) for k in range(cap + 1)]
              for x, cap in zip(values, caps)]
    lcm = math.lcm(*(d for _, (n, d) in terms))
    total = sum(math.prod(map(list.__getitem__, tables, e), start=n * (lcm // d))
                for e, (n, d) in terms)
    return Fraction(total, lcm * math.prod(x.denominator**cap for x, cap in zip(values, caps)))


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
    pot = _eval_potential(cfg.extended, cfg.qmax, cfg.zorder, cfg.uorder)
    point = {"t1": t1, "t2": t2}
    for name in pot.vs.names:
        point[name] = cfg.at.get(name, Fraction(0))
    values = [point[name] for name in pot.vs.names]
    # every cubic coefficient is rational at rational (t1, t2); a pole raises
    cubic = [(e, (r.numerator, r.denominator))
             for e, c in pot.cubic.terms() for r in (c.eval(t1, t2).rational(),)]
    exact = (_rational_sum(cubic, values, pot.vs.caps)
             + (t1 + t2) * _rational_sum(pot.pairs.items(), values, pot.vs.caps))
    try:
        value = float(exact)
    except OverflowError:
        raise OverflowError("the value at this point is too large for a float")
    record = {
        "at": {k: str(v) for k, v in sorted(point.items())},
        "extended": cfg.extended,
        "qmax": cfg.qmax,
        "zorder": cfg.zorder,
        "value": {"re": format(value, ".15g"), "im": "0"},
    }
    if cfg.extended:
        record["uorder"] = cfg.uorder
    return _dump(record), 0


def _dump(obj):
    return _token(obj, "") + "\n"


#: command -> (help, the flags it reads besides --config and --out, with their
#: defaults, runner)
_COMMANDS = {
    "potential": ("print the truncated potential as a coefficient table",
                  {"qmax": 3, "zorder": 6, "uorder": 3, "extended": False, "format": "json"},
                  cmd_potential),
    "invariants": ("print one invariant value",
                   {"d": 0, "n1": None, "n2": None, "classes": None}, cmd_invariants),
    "verify": ("run verification suites", {"qmax": 8, "zorder": 10, "suite": "all"}, cmd_verify),
    "eval": ("numerically evaluate the truncated potential",
             {"qmax": 3, "zorder": 6, "uorder": 3, "extended": False, "at": None}, cmd_eval),
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as stop:  # argparse has printed help or the usage error
        return stop.code
    try:
        cfg = _merge(args)
        text, code = _COMMANDS[cfg.command][2](cfg)
        if cfg.out is not None:
            try:
                with open(cfg.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as err:
                raise UsageError("cannot write %r: %s" % (cfg.out, err.strerror or err))
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
