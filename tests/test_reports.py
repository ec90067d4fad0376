"""Record semantics of every record class of the package: field-wise `==`
within one class only, a hash that agrees with it, frozen fields, copy and
pickle, the `__init__` a record gets from its slots, the default weights
callers rely on, and the one rule that makes a suite's case: the dict the
CLI writes."""

import copy
import inspect
import pickle
import types
from fractions import Fraction

import pytest

from localp12 import cli, localization, pcrc
from localp12.cyclotomic import I, ONE, Cyclo
from localp12.localization import (
    DEFAULT_WEIGHTS,
    EvenLiteralAssembly,
    OddAssembly,
    SMonomial,
    WeightTable,
)
from localp12.pcrc import AngleLine, CovMap, ExpLine, LinearForm, LogLine, ScalarLine
from localp12.potentials import TORUS_WEIGHTS, TorusWeights
from localp12.ratfun import RF_T1, RF_T2
from localp12.reports import SuiteReport, case, pair_text, reduced


def _form():
    return LinearForm.of({"u": I, "z1": 2})


def _mono(a=1):
    return SMonomial(a, 2, -1)


#: class name -> a factory building an equal record, from fresh field values, on each call
FROZEN = {
    "SMonomial": lambda: SMonomial(1, 2, -1),
    "WeightTable": lambda: WeightTable((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(0)),
                                       (Fraction(1, 3), Fraction(0))),
    "OddAssembly": lambda: OddAssembly(3, 1, _mono(), _mono(3), _mono(5),
                                       SMonomial(1, 3, 0), SMonomial(1, 2, 0)),
    "EvenLiteralAssembly": lambda: EvenLiteralAssembly(
        2, 0, (1, 8), (-1, 2), (1, 2), (0, 1), (-1, 2)),
    "TorusWeights": lambda: TorusWeights(
        RF_T2 - RF_T1, RF_T1 * 3, Fraction(1, 2), RF_T1, RF_T2 * 3, Fraction(1),
        RF_T1, RF_T2 * 2, -RF_T1, Fraction(1, 2)),
    "LinearForm": _form,
    "ScalarLine": lambda: ScalarLine(Cyclo(0, 1), "q"),
    "ExpLine": lambda: ExpLine(-ONE, _form()),
    "LogLine": lambda: LogLine(-I, -ONE, "q1", 2),
    "AngleLine": lambda: AngleLine(-ONE, 2, _form()),
    "CovMap": lambda: CovMap(("y", "q"), ("z", "t"),
                             (("y", _form()), ("q", ScalarLine(I, "t")))),
    "SuiteReport": lambda: SuiteReport("degree0", [case("d=1", False, {"got": "1"}, 1, 2, (0, 1)),
                                                   case("d=2", True)]),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_equal_fields_are_equal_records_of_that_class_only(name):
    make = FROZEN[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    others = [f() for n, f in FROZEN.items() if n != name]
    assert all(a != o and o != a for o in others)
    # a record is not a tuple of its fields
    fields = tuple(getattr(a, f) for f in type(a).__slots__)
    assert a != fields and a != list(fields)
    assert repr(a).startswith(name + "(" + type(a).__slots__[0] + "=")


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_with_eq_and_refuse_assignment(name):
    a, b = FROZEN[name](), FROZEN[name]()
    if name == "SuiteReport":  # it holds a list, which the field tuple's hash refuses
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b}) == 1
    field = type(a).__slots__[0]
    value = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, value)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) is value and a == b


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_take_their_slots_as_init_parameters(name):
    a = FROZEN[name]()
    cls = type(a)
    init = cls.__init__
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    assert (init.__qualname__, init.__module__) == (name + ".__init__", cls.__module__)
    fields = {f: getattr(a, f) for f in cls.__slots__}
    assert cls(**fields) == a and cls(*fields.values()) == a
    missing = r"^%s\.__init__\(\) missing 1 required positional argument: '%s'$"
    with pytest.raises(TypeError, match=missing % (name, cls.__slots__[-1])):
        cls(*list(fields.values())[:-1])
    with pytest.raises(TypeError, match=r"^%s\.__init__\(\) takes .* but %d were given$"
                                        % (name, len(fields) + 2)):
        cls(*fields.values(), None)


def test_a_changed_field_makes_a_different_record():
    assert SMonomial(1, 1, 0) != SMonomial(1, 1, 1)
    assert LogLine(-I, -ONE, "q1", 0) != LogLine(-I, -ONE, "q1", 1)
    assert SuiteReport("s", [case("k", True)]) != SuiteReport("s", [case("k", True, {})])


def test_defaults():
    assert DEFAULT_WEIGHTS == WeightTable((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(0)),
                                          (Fraction(1, 2), Fraction(0)))
    with pytest.raises(TypeError, match="missing 3 required positional arguments"):
        WeightTable()
    assert TORUS_WEIGHTS == TORUS_WEIGHTS and hash(TORUS_WEIGHTS) == hash(TORUS_WEIGHTS)


def test_case_keeps_a_passing_info_and_names_both_sides_of_a_failing_one():
    info = {"value": "1/2"}
    assert case("k", True, info, "1/2", "1/3", (3,)) == {
        "key": "k", "pass": True, "first_mismatch": None, "info": info}
    assert case("k", True) == {"key": "k", "pass": True, "first_mismatch": None}
    assert case("k", True, {}) == {"key": "k", "pass": True, "first_mismatch": None, "info": {}}
    assert case("k", False, info, Fraction(1, 2), Fraction(1, 3), (0, 3)) == {
        "key": "k", "pass": False, "first_mismatch": [0, 3],
        "info": {"value": "1/2", "got": "1/2", "want": "1/3"}}
    assert info == {"value": "1/2"}
    line = ScalarLine(I, "q")
    assert case("k", False, None, line, (1, "a")) == {
        "key": "k", "pass": False, "first_mismatch": None,
        "info": {"got": repr(line), "want": repr((1, "a"))}}
    # `pass` is a real bool whatever truth value the suite hands in
    passes = [case("k", p)["pass"] for p in (1, [0], 0, [], None)]
    assert passes == [True, True, False, False, False] and all(type(p) is bool for p in passes)


def test_repr_names_every_field():
    assert repr(SMonomial(1, 2, 0)) == "SMonomial(num=1, den=2, s_exp=0)"
    assert repr(SuiteReport("s", [case("k", True)])) == (
        "SuiteReport(suite='s', cases=[{'key': 'k', 'pass': True, 'first_mismatch': None}])")


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_records_copy_and_pickle(name):
    a = FROZEN[name]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and b is not a


@pytest.mark.parametrize("broken", [False, True], ids=["as built", "broken"])
def test_every_suite_makes_its_cases_as_the_json_objects_the_cli_writes(monkeypatch, broken):
    if broken:
        # a wrong input to five of the six suites, so each of them fails a case
        sign, pair, total = pcrc.quantum_sign, localization.invariant_pair, pcrc.g_series
        degree0 = localization.degree0_fixed_point_sum
        monkeypatch.setattr(pcrc, "quantum_sign", lambda d: -sign(d))
        monkeypatch.setattr(pcrc, "g_series", lambda order: total(order).scale(2))
        # the closed form plus 1, as the integer pair the suites compare with
        monkeypatch.setattr(localization, "invariant_pair",
                            lambda d, n: (lambda num, den: (num + den, den))(*pair(d, n)))
        monkeypatch.setattr(localization, "degree0_fixed_point_sum",
                            lambda classes: degree0(classes) + 1)
    cfg = types.SimpleNamespace(qmax=2, zorder=3)
    reports = [cli._SUITES[name](cfg) for name in cli.SUITE_NAMES]
    assert [r.suite for r in reports] == list(cli.SUITE_NAMES)
    failing = [r.suite for r in reports if not r.passed]
    assert failing == (["degree0", "resummation", "assembly", "bracket", "residual"] if broken
                       else [])
    for report in reports:
        assert report.cases
        for c in report.cases:
            assert type(c) is dict and {"key", "pass", "first_mismatch"} <= set(c) <= {
                "key", "pass", "first_mismatch", "info"}
            assert type(c["pass"]) is bool
            assert c["first_mismatch"] is None or type(c["first_mismatch"]) is list
        for field in ("suite", "cases"):
            with pytest.raises(AttributeError):
                setattr(report, field, getattr(report, field))


_BIG = 10**30 + 1


#: the corollary's twelve branch angles over pi, a/6 with a = -2 + 12 b
_BRANCH_ANGLES = [(-2 + 12 * b, 6) for b in range(12)]


@pytest.mark.parametrize("n, m", [(0, 1), (1, 1), (-1, 1), (7, 1), (-7, 1), (1, 2), (-1, 2),
                                  (-5, 4), (5, 12), (_BIG, 1), (-_BIG, 1), (1, _BIG),
                                  (-1, _BIG), (_BIG, _BIG + 1), (-_BIG, _BIG - 1),
                                  (0, 7), (6, 4), (-6, 4), (-2, 8), (3 * _BIG, 3),
                                  (-2 * _BIG, 4 * _BIG), (_BIG**2, _BIG)] + _BRANCH_ANGLES)
def test_pair_text_is_the_text_of_the_fraction(n, m):
    value = Fraction(n, m)
    assert reduced(n, m) == value.as_integer_ratio()
    assert pair_text(reduced(n, m)) == str(value)
    assert pair_text(value.as_integer_ratio()) == str(value)
