"""The base classes of anomalion's records and immutable values.

Every record is a plain class with __slots__, so importing anomalion
generates no code.  A subclass lists its fields in __slots__ and may name
the fields that == reads in the class keyword compare (all of them by
default): two records are equal when they have the same class and equal
compared fields, and an instance of any other class is never equal.

Record.__init__ binds positional, then keyword, arguments to the public
slots (the names without a leading _), in order and each exactly once; a
missing, extra or repeated field is a TypeError.  A subclass that adds no
slot keeps its parent's fields.  A class whose constructor checks or
derives a field writes its own __init__.

A Record is mutable and unhashable.  A Frozen value hashes its compared
fields and refuses assignment and deletion of any field; its __init__ sets
each field once with init_field, and copy and pickle restore the fields
without calling it.  A field may still hold a mutable object
(ProceduralCircuit's cache) that is left out of the comparison.
"""

from __future__ import annotations

from operator import attrgetter

init_field = object.__setattr__


def _restore(cls, fields: tuple):
    """The value of cls with the given fields, set without __init__."""
    value = object.__new__(cls)
    for name, field in zip(cls.__slots__, fields):
        init_field(value, name, field)
    return value


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, compare: tuple[str, ...] | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__ if compare is None else compare
        if names:  # Frozen passes none: its _hash slot is not a field
            cls._key = attrgetter(*names)
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if fields:
            cls._fields = fields

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)} positional")
        for name, arg in zip(fields, args):
            if name in kwargs:
                raise TypeError(f"{type(self).__name__} got field {name!r} twice")
            init_field(self, name, arg)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            init_field(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(kwargs))!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    __hash__ = None


class Frozen(Record, compare=()):
    __slots__ = ("_hash",)

    def __hash__(self):
        # values are hashed again and again as cache keys (Region, Window,
        # GateRule), so the hash is kept after the first call
        try:
            return self._hash
        except AttributeError:
            h = hash(self._key(self))
            init_field(self, "_hash", h)
            return h

    def __reduce__(self):
        # copy, deepcopy and pickle restore the fields as they are, since
        # __init__ may derive some of them (FiniteGroup's inverses); the
        # hash is recomputed, as str hashes differ between processes
        cls = type(self)
        return _restore, (cls, tuple(getattr(self, name) for name in cls.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")
