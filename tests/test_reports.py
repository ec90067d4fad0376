"""Record semantics of every record class of the package: field-wise `==`
within one class only, a hash that agrees with it, frozen fields, copy and
pickle, the `__init__` a frozen record gets from its slots, the defaults
callers rely on, and the one rule that makes a suite's case."""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from localp12.cyclotomic import I, ONE, Cyclo
from localp12.localization import (
    TORUS_WEIGHTS,
    EvenLiteralAssembly,
    OddAssembly,
    SMonomial,
    TorusWeights,
    WeightTable,
)
from localp12.pcrc import AngleLine, CovMap, ExpLine, LinearForm, LogLine, ScalarLine
from localp12.ratfun import RF_T1, RF_T2
from localp12.reports import CaseResult, SuiteReport, case


def _form():
    return LinearForm.of({"u": I, "z1": 2})


def _mono(a=1):
    return SMonomial(Fraction(a, 2), Fraction(-1))


#: class name -> a factory building an equal record, from fresh field values, on each call
FROZEN = {
    "SMonomial": lambda: SMonomial(Fraction(2, 4), Fraction(-1)),
    "WeightTable": lambda: WeightTable(tangent=(Fraction(1, 3), Fraction(0))),
    "OddAssembly": lambda: OddAssembly(3, 1, _mono(), _mono(3), _mono(5),
                                       Fraction(1, 3), Fraction(1, 2)),
    "EvenLiteralAssembly": lambda: EvenLiteralAssembly(
        2, 0, Fraction(1, 8), Fraction(-1, 2), Fraction(1, 2), Fraction(0), Fraction(-1, 2)),
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
}

MUTABLE = {
    "CaseResult": lambda: CaseResult("d=1", False, [0, 1], {"got": "1"}),
    "SuiteReport": lambda: SuiteReport("degree0", [CaseResult("d=1", True)]),
}


@pytest.mark.parametrize("name", sorted(FROZEN) + sorted(MUTABLE))
def test_equal_fields_are_equal_records_of_that_class_only(name):
    make = {**FROZEN, **MUTABLE}[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    others = [f() for n, f in {**FROZEN, **MUTABLE}.items() if n != name]
    assert all(a != o and o != a for o in others)
    # a record is not a tuple of its fields
    fields = tuple(getattr(a, f) for f in type(a).__slots__)
    assert a != fields and a != list(fields)
    assert repr(a).startswith(name + "(" + type(a).__slots__[0] + "=")


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_hash_with_eq_and_refuse_assignment(name):
    a, b = FROZEN[name](), FROZEN[name]()
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
    required = len(fields) - len(cls._defaults)
    if required:
        missing = r"^%s\.__init__\(\) missing 1 required positional argument: '%s'$"
        with pytest.raises(TypeError, match=missing % (name, cls.__slots__[required - 1])):
            cls(*list(fields.values())[:required - 1])
    with pytest.raises(TypeError, match=r"^%s\.__init__\(\) takes .* but %d were given$"
                                        % (name, len(fields) + 2)):
        cls(*fields.values(), None)


def test_a_changed_field_makes_a_different_record():
    assert SMonomial(Fraction(1), Fraction(0)) != SMonomial(Fraction(1), Fraction(1))
    assert LogLine(-I, -ONE, "q1", 0) != LogLine(-I, -ONE, "q1", 1)
    assert CaseResult("k", True) != CaseResult("k", True, None, {})


def test_defaults():
    assert WeightTable() == WeightTable((Fraction(0), Fraction(1)), (Fraction(-1, 2), Fraction(0)),
                                        (Fraction(1, 2), Fraction(0)))
    case = CaseResult("k", True)
    assert (case.first_mismatch, case.info) == (None, None)
    assert TORUS_WEIGHTS == TORUS_WEIGHTS and hash(TORUS_WEIGHTS) == hash(TORUS_WEIGHTS)


def test_case_keeps_a_passing_info_and_names_both_sides_of_a_failing_one():
    info = {"value": "1/2"}
    assert case("k", True, info, "1/2", "1/3", (3,)) == CaseResult("k", True, None, info)
    assert case("k", True) == CaseResult("k", True)
    assert case("k", False, info, Fraction(1, 2), Fraction(1, 3), (0, 3)) == CaseResult(
        "k", False, [0, 3], {"value": "1/2", "got": "1/2", "want": "1/3"})
    assert info == {"value": "1/2"}
    line = ScalarLine(I, "q")
    assert case("k", False, None, line, (1, "a")) == CaseResult(
        "k", False, None, {"got": repr(line), "want": repr((1, "a"))})


def test_repr_names_every_field():
    assert repr(SMonomial(Fraction(1, 2), Fraction(0))) == (
        "SMonomial(coeff=Fraction(1, 2), s_exp=Fraction(0, 1))")
    assert repr(CaseResult("k", True)) == (
        "CaseResult(key='k', passed=True, first_mismatch=None, info=None)")


def test_suite_reports_do_not_share_a_case_list():
    a, b = SuiteReport("a"), SuiteReport("b")
    assert a.cases == [] and a.cases is not b.cases
    a.cases.append(CaseResult("k", True))
    assert b.cases == [] and SuiteReport("c").cases == []


def test_mutable_records_are_unhashable_and_take_assignment():
    case = CaseResult("k", True)
    for record in (case, SuiteReport("s")):
        with pytest.raises(TypeError):
            hash(record)
    case.passed = False
    assert case == CaseResult("k", False)
    assert SuiteReport("s", [case]).passed is False


@pytest.mark.parametrize("name", sorted(FROZEN) + sorted(MUTABLE))
def test_records_copy_and_pickle(name):
    a = {**FROZEN, **MUTABLE}[name]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and b is not a
