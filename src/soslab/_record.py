"""Immutable value records, the base of the package's frozen data types.

The package does not use `dataclasses`: importing it imports `inspect`,
and with it `ast`, `dis` and `tokenize`, which cost about 1 MB of resident
memory and 10 ms of start-up for code the package never calls.
"""

from __future__ import annotations


class Record:
    """An immutable record whose fields are its class's `__slots__`.

    `Record.__init__` builds the records that check nothing, from one value
    per field in slot order.  The others set each field once with `_set`,
    and so do those built per search or per request (`QuadInt` and
    `quadfield._from_pair`, `SearchVerdict`, `Decomposition`, `SElement`,
    `SVerdict`): for three fields the shared loop takes about 850 ns against
    510 ns.  Assignment afterwards raises AttributeError.  Equality, hashing,
    repr and pickling go by the fields in slot order, as for a frozen
    dataclass.
    """

    __slots__ = ()

    # Sets a field from __init__ or __setstate__, past the guard below.
    _set = object.__setattr__

    def __init__(self, *fields: object) -> None:
        names = self.__slots__
        if len(fields) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(fields)}"
            )
        for name, value in zip(names, fields):
            self._set(name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({inner})"

    def __getstate__(self) -> tuple:
        return self._fields()

    def __setstate__(self, state: tuple) -> None:
        Record.__init__(self, *state)
