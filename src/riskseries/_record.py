"""Frozen record classes, made without generated code.

A record class lists its fields as annotations; a class attribute of the
same name is that field's default. A subclass's fields follow its base's.
Instances are built by keyword or by position, checked by the class's
``__post_init__``, and cannot be changed afterwards. They compare and
hash by their fields, unless the class is declared with ``eq=False``:
then they compare by identity, as records holding numpy columns do.

``dataclasses`` writes out and ``exec``s each generated method of every
class, about a millisecond per class at import. ``Record`` reads the
annotations once in ``__init_subclass__`` and shares one ``__init__``.

``pickle`` and ``copy.deepcopy`` rebuild a record's attributes as they
were, and every numpy column, which its record made read-only, comes
back read-only. An attribute whose name starts with an underscore is a
memo of derived state: they leave it out, and the copy fills its own on use.
"""
from __future__ import annotations

import numpy as np


class Record:
    _fields: tuple[str, ...] = ()  # declaration order, the JSON schema's order
    _field_set: frozenset[str] = frozenset()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", {}) if name not in cls._fields]
        cls._fields += tuple(own)
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        # Every field by keyword is the common call and needs no binding.
        if args or kwargs.keys() != self._field_set:
            kwargs = self._bind(args, kwargs)
        self.__dict__.update(kwargs)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> dict:
        """Every field's value, from the arguments or else from its default."""
        name = cls.__qualname__
        if len(args) > len(cls._fields):
            raise TypeError(
                f"{name}() takes {len(cls._fields)} positional arguments "
                f"but {len(args)} were given"
            )
        bound = dict(zip(cls._fields, args))
        for key in kwargs:
            if key not in cls._field_set:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in bound:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        bound.update(kwargs)
        missing = [f for f in cls._fields if f not in bound and f not in cls._defaults]
        if missing:
            names = ", ".join(map(repr, missing))
            raise TypeError(f"{name}() missing required arguments: {names}")
        return {**cls._defaults, **bound}

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __reduce__(self):
        return _rebuild, (self.__class__,
                          {name: value for name, value in vars(self).items() if name[0] != "_"})


def _rebuild(cls: type[Record], state: dict) -> Record:
    # An unpickled or deep-copied array is writeable.
    for value in state.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    record = object.__new__(cls)
    record.__dict__.update(state)
    return record
