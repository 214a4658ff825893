"""The frozen record base of the package's value types.

A subclass lists its fields in ``__slots__``, in constructor order, and sets
each one once in ``__init__`` through ``object.__setattr__``.  The base then
gives it what ``@dataclass(frozen=True)`` would: a ``repr`` of the form
``Name(field=value, ...)``, equality only with an instance of the same class,
a hash of the field values, and ``AttributeError`` on any assignment or
deletion.  The ``dataclasses`` module itself is not imported, which keeps
``inspect``, ``ast`` and ``tokenize`` off the command line's start-up.
"""
from __future__ import annotations


class FrozenRecord:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # Rebuild through __init__, so pickling and copy.copy work and
        # validate again.
        return type(self), self._values()
