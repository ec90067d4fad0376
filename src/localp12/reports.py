"""Record classes: pass/fail case records shared by the verification suites
and the CLI, the one rule by which every suite makes a case, and the plain
base every record class of the package uses.

A record lists its fields in `__slots__`, in order.  `Record` gives `==`
between instances of the same class only, field by field, and a
`Class(field=value, ...)` repr; it is unhashable, as a mutable record must
be, and writes its own `__init__`.  `FrozenRecord` adds a hash of the field
tuple and refuses attribute assignment.  Each of its subclasses gets an
`__init__` made from its `__slots__`, with trailing defaults from the
class's `_defaults`; it is compiled once per class, as `namedtuple` makes
its `__new__`, and sets each field with `setfield`, one call per field,
which constructs faster than a loop would.  `case` is the one rule by which
a suite makes a case record.
"""

#: how a frozen record's `__init__` sets a field past its `__setattr__`
setfield = object.__setattr__


class Record:
    __slots__ = ()
    __hash__ = None

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self.__slots__]))

    def __reduce__(self):
        # copy and pickle rebuild through `__init__`, which takes the fields in slot order
        return type(self), self._fields()


class FrozenRecord(Record):
    __slots__ = ()
    #: values of the last fields for a call that leaves them out
    _defaults = ()

    def __init_subclass__(cls):
        fields = cls.__slots__
        source = "def __init__(self, %s):\n%s" % (", ".join(fields), "".join(
            ["    setfield(self, %r, %s)\n" % (name, name) for name in fields]))
        namespace = {"setfield": setfield, "__name__": cls.__module__}
        exec(source, namespace)
        init = namespace["__init__"]
        init.__qualname__ = cls.__qualname__ + ".__init__"
        init.__defaults__ = cls._defaults
        cls.__init__ = init

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to or delete field %r" % (name,))

    __delattr__ = __setattr__


class CaseResult(Record):
    __slots__ = ("key", "passed", "first_mismatch", "info")

    def __init__(self, key, passed, first_mismatch=None, info=None):
        self.key = key
        self.passed = passed
        self.first_mismatch = first_mismatch
        self.info = info

    def to_json(self):
        out = {
            "key": self.key,
            "pass": self.passed,
            "first_mismatch": self.first_mismatch,
        }
        if self.info is not None:
            out["info"] = self.info
        return out


def case(key, passed, info=None, got=None, want=None, first=None):
    """A case record; a failing one also names both sides, as text, and the
    first mismatching exponent when there is one."""
    if passed:
        return CaseResult(key, True, None, info)
    return CaseResult(key, False, None if first is None else list(first),
                      dict(info or {}, got=str(got), want=str(want)))


class SuiteReport(Record):
    __slots__ = ("suite", "cases")

    def __init__(self, suite, cases=None):
        self.suite = suite
        self.cases = [] if cases is None else cases

    @property
    def passed(self):
        return all(c.passed for c in self.cases)

    def to_json(self):
        return {"suite": self.suite, "cases": [c.to_json() for c in self.cases]}
