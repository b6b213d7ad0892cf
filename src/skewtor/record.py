"""Value records without ``dataclasses``.

A record lists its fields in ``__slots__`` and sets them in ``__init__``.  It
is equal to another record of the same class with equal fields, hashes its
fields and prints like a dataclass.  Records are not changed after they are
built.  Importing ``dataclasses`` (and ``inspect`` through it) and decorating
each class would cost more than parsing a presentation.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        # the fields as one value: a tuple, or the field itself when alone
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"
