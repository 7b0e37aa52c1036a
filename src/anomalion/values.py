"""The base classes of anomalion's records and immutable values, and the JSON field reader.

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

_JSON_TYPES = {int: "an int", str: "a string", list: "a list", dict: "an object"}


def read_fields(obj, path: str, required: dict, optional: dict) -> dict:
    """obj, checked to be a JSON object with every key of required, no key
    outside required and optional, and each value of exactly its key's type
    (a type, or a tuple of types): a JSON bool or float is no int.  Anything
    else is a ValueError that names path, the object's place in its input
    ("" for the top level)."""
    where = f"{path}: " if path else ""
    if type(obj) is not dict:
        raise ValueError(f"{where}expected an object, got {obj!r}")
    for key, value in obj.items():
        types = required.get(key) or optional.get(key)
        if types is None:
            raise ValueError(f"{where}unknown key {key!r}")
        types = types if type(types) is tuple else (types,)
        if type(value) not in types:
            expected = " or ".join(_JSON_TYPES[t] for t in types)
            raise ValueError(f"{where}{key!r} must be {expected}, got {value!r}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{where}missing key {key!r}")
    return obj


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
