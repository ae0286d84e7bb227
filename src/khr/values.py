"""One small frozen value base, built without the dataclasses module.

Importing dataclasses also imports inspect, a large share of the command
line's start-up.  A FrozenRecord subclass names its fields in _fields,
declares them as __slots__ and sets each with object.__setattr__ in its own
__init__; the base gives it a dataclass-style repr, equality between
instances of the same class and a hash, field by field, and refuses
assignment and deletion.
"""

from __future__ import annotations

from operator import attrgetter


class FrozenRecord:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            # attrgetter objects are not descriptors: self._key(self) works as is
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
