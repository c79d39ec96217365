"""Immutable records: the value classes of every layer share one definition.

A subclass lists its fields as class annotations, in order; a class
attribute after a field is that field's default.  A record compares equal
to another of exactly its class with equal fields, hashes as the tuple of
its fields, prints as ``Name(field=value, ...)``, and refuses assignment
and deletion.  An optional ``__post_init__`` runs after the fields are set;
it may validate them, or normalize one with ``object.__setattr__``.

``to_json_dict()`` is a record's one JSON form: its fields in declaration
order, a tuple as a list, a rational that is not an int, in a field or a
tuple's entry, as its ``"p/q"`` string, and no ``None`` field in a class
that sets ``_json_drops_none``.  ``read_json`` decodes every JSON document
the package reads.

This is the part of a frozen ``dataclasses.dataclass`` the package uses,
written without ``dataclasses``: importing that module pulls in ``inspect``
and its dependencies, and each decorated class generates its methods with
``exec``.  Both are paid again by every short command-line process.
"""
from __future__ import annotations

import json


class FrozenInstanceError(AttributeError):
    """Raised on an attempt to assign or delete a field of a record."""


_MISSING = object()


def _json_value(value):
    """value, or as its "p/q" string a rational that is not an int: a
    Fraction, known by its denominator without loading fractions."""
    return value if isinstance(value, int) or not hasattr(value, "denominator") else str(value)


class Record:
    """Base of a frozen value class, as the module docstring describes."""

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()
    _post_init = None
    _json_drops_none = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = tuple(vars(cls).get(name, _MISSING) for name in cls._fields)
        cls._post_init = getattr(cls, "__post_init__", None)
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        if self._post_init is not None:
            self._post_init()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value, in order, from the arguments and the defaults."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        bound = [values.get(field, default) for field, default in zip(fields, cls._defaults)]
        for field, value in zip(fields, bound):
            if value is _MISSING:
                raise TypeError(f"{name}() missing required argument {field!r}")
        return bound

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def to_json_dict(self) -> dict:
        """The fields in declaration order, each tuple as a list."""
        return {
            field: list(map(_json_value, value)) if isinstance(value, tuple)
            else _json_value(value)
            for field, value in zip(self._fields, self._values())
            if value is not None or not self._json_drops_none
        }

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        pairs = zip(self._fields, self._values())
        inner = ", ".join(f"{field}={value!r}" for field, value in pairs)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def read_json(document: str, what: str):
    """The decoded JSON document; a malformed one raises ValueError naming
    what it should have been."""
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc
