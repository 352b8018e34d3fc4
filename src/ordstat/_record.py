"""The package's value records, as plain classes of one kind.

A subclass of FrozenRecord lists its fields as class annotations, in
constructor order; a field given a value in the class body defaults to
that value, which stays readable on the class.  The subclass gets:

    __init__       by position and by keyword, then __post_init__, which
                   may check or complete the fields
    __repr__       Name(field=value, ...)
    __eq__         the same class and equal fields
    __hash__       by the fields, so a record holding a list or a dict
                   equals by value but has no hash
    AttributeError on any assignment or deletion after __init__

Fields are ordinary instance attributes, so reading one costs what reading
any attribute costs, and a record pickles as its instance dict.  Importing
this module loads nothing, where dataclasses loads inspect, ast and dis:
they took a CLI query longer to import than the query took to answer.
"""

_set = object.__setattr__


class FrozenRecord:
    """An immutable record, equal and hashable by value."""

    def __init_subclass__(cls):
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        # compiled from the field list, as dataclasses does: a real signature
        # gives Python's own argument errors, and setting each field directly
        # costs what a hand-written __init__ costs
        params = "".join(f", {f}=_cls.{f}" if f in cls.__dict__ else f", {f}" for f in fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        scope = {"_cls": cls, "_set": _set}
        exec(f"def __init__(self{params}):{body}\n    self.__post_init__()", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __post_init__(self):
        """Check or complete the fields just set; it sets one through
        object.__setattr__."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
