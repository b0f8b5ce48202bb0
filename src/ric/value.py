"""The one base of ric's records.

A record class lists its fields as annotations, in order, each with an
optional default written as a class attribute; `factory(make)` is a
default made afresh for each record. Bases' fields come first. A record
is frozen unless its class statement says `frozen=False`.

Records compare equal only to records of the same class with equal
fields. A frozen record hashes as the tuple of its fields, so sets and
dicts of records iterate in the same order as a tuple key would give;
a mutable record is unhashable. The fields live in the instance
`__dict__`, in field order, and nothing else is stored there.
"""

from __future__ import annotations

from types import MemberDescriptorType


class factory:
    """A default made by calling `make()` for each new record."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}
    _tail = ()

    def __init_subclass__(cls, frozen=True, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = []
        for klass in reversed(cls.__mro__):
            for name in klass.__dict__.get("__annotations__", ()):
                if name not in fields:
                    fields.append(name)
        cls._fields = tuple(fields)
        cls._defaults = defaults = {  # a slot a base declares under a field's name is no default
            f: getattr(cls, f)
            for f in fields
            if hasattr(cls, f) and not isinstance(getattr(cls, f), MemberDescriptorType)
        }
        tail = []  # defaults of the last fields, up to one without a plain default
        for f in reversed(fields):
            if f not in defaults or isinstance(defaults[f], factory):
                break
            tail.insert(0, defaults[f])
        cls._tail = tuple(tail)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), args, kwargs)
        self.__dict__.update(zip(fields, args))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({args})"


def _bind(cls, args, kwargs):
    """The field values of `cls(*args, **kwargs)`, in field order."""
    fields = cls._fields
    missing = len(fields) - len(args)
    if not kwargs and 0 < missing <= len(cls._tail):
        return args + cls._tail[-missing:]
    if missing < 0:
        raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, {len(args)} given")
    values = list(args)
    for name in fields[len(args):]:
        if name in kwargs:
            values.append(kwargs.pop(name))
        elif name in cls._defaults:
            default = cls._defaults[name]
            values.append(default.make() if isinstance(default, factory) else default)
        else:
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
    if kwargs:
        raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
    return values


def fields(record):
    """The field names of a record or record class, in order."""
    return record._fields


def replace(record, **changes):
    """A new record of the same class, with the named fields changed."""
    values = {**record.__dict__, **changes}
    if len(values) != len(record._fields):
        unknown = sorted(set(changes) - set(record._fields))
        raise TypeError(f"{type(record).__name__} has no fields {unknown}")
    return type(record)(*values.values())


def asdict(record):
    """The record's fields as a dict, with records inside tuples and
    lists turned into dicts too."""
    if isinstance(record, Record):
        return {f: asdict(v) for f, v in record.__dict__.items()}
    if isinstance(record, (tuple, list)):
        return type(record)(asdict(v) for v in record)
    return record
