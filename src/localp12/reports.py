"""Records: the one record base of the package, the one rule by which every
verification suite makes a case, and the suite report the CLI writes.

A record lists its fields in `__slots__`, in order.  `FrozenRecord` gives
`==` between instances of the same class only, field by field, a hash of the
field tuple (so a record holding a list is unhashable), a
`Class(field=value, ...)` repr, and refuses attribute assignment.  Each of
its subclasses gets an `__init__` made from its `__slots__`, every field
required; it is compiled once per class, as `namedtuple` makes its
`__new__`, and sets each field with `setfield`, one call per field, which
constructs faster than a loop would.

A case is the JSON object the CLI writes for it: the dict that `case`
returns.  A `SuiteReport` is a suite's name and its list of cases.  A suite
that decides a case on integer pairs reduces each with `reduced` and writes
its text with `pair_text`, as `str(Fraction(n, m))` would, in a passing and
a failing case alike: no case is written through a `Fraction`.
"""

from math import gcd

#: how a frozen record's `__init__` sets a field past its `__setattr__`
setfield = object.__setattr__


class FrozenRecord:
    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__slots__
        source = "def __init__(self, %s):\n%s" % (", ".join(fields), "".join(
            ["    setfield(self, %r, %s)\n" % (name, name) for name in fields]))
        namespace = {"setfield": setfield, "__name__": cls.__module__}
        exec(source, namespace)
        init = namespace["__init__"]
        init.__qualname__ = cls.__qualname__ + ".__init__"
        cls.__init__ = init

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self.__slots__]))

    def __reduce__(self):
        # copy and pickle rebuild through `__init__`, which takes the fields in slot order
        return type(self), self._fields()

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % (name,))

    __delattr__ = __setattr__


def case(key, passed, info=None, got=None, want=None, first=None):
    """A case as the CLI writes it: `key`, `pass` (True or False) and
    `first_mismatch`, with `info` only when there is some.  A failing case
    also names both sides, as text, in its info, and the first mismatching
    exponent when there is one."""
    if passed:
        out = {"key": key, "pass": True, "first_mismatch": None}
        if info is not None:
            out["info"] = info
        return out
    return {"key": key, "pass": False, "first_mismatch": None if first is None else list(first),
            "info": dict(info or {}, got=str(got), want=str(want))}


def reduced(num, den):
    """num/den, den > 0, in lowest terms, as `Fraction(num, den).as_integer_ratio()`."""
    g = gcd(num, den)
    return num // g, den // g


def pair_text(pair):
    """The text of the rational n/m held as the pair (n, m) in lowest terms,
    m > 0: `str(n)` when m is 1, else "n/m", as `str(Fraction(n, m))` writes it."""
    n, m = pair
    return str(n) if m == 1 else "%d/%d" % (n, m)


class SuiteReport(FrozenRecord):
    __slots__ = ("suite", "cases")

    @property
    def passed(self):
        return all(c["pass"] for c in self.cases)

    def to_json(self):
        return {"suite": self.suite, "cases": self.cases}
