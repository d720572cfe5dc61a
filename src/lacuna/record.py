"""Record: a small base for lacuna's plain data classes.

A subclass lists its fields as class annotations, in order, with optional
defaults as class attributes, much like a dataclass:

    class Entry(Record):
        index: int
        codes: tuple[int, ...] = ()

A record is built from positional or keyword arguments, runs the class's
__post_init__ (if any), compares equal to a record of the same class with
equal fields, and has a dataclass-style repr.  The fields are the record's
inputs only: a value that follows from them is made once in __post_init__
(written into __dict__) or is a property, so no constructor takes one.
A record whose inputs can be inconsistent refuses them in __post_init__,
so replace(**changes), which builds a new record through __init__, derives
and checks it afresh.  Every record refuses attribute assignment and
deletion; the one in-place change is engine.build, which extends a state's
entries and depth through its __dict__.  No record is hashable: lacuna
keys no set or dict by one.  A default is shared by every instance, so a
mutable field has none.

It stands in for the standard library's dataclass decorator, whose module
import (with inspect, ast, dis and tokenize) and per-class code generation
cost a few milliseconds in every CLI step.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, "
                            f"got {len(args)} positional arguments")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name in values or name not in fields:
                raise TypeError(f"{type(self).__name__}: unknown or repeated field {name!r}")
            values[name] = value
        for name in fields:
            if name not in values:
                if name not in self._defaults:
                    raise TypeError(f"{type(self).__name__} is missing field {name!r}")
                values[name] = self._defaults[name]
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A new record with the given fields changed, built through __init__."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign or delete {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__
