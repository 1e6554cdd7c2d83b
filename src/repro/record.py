"""Slot-backed value classes whose methods are written once.

A ``@dataclass`` compiles its generated methods (``__init__``, ``__eq__``,
``__repr__``, ``__hash__``, the frozen ``__setattr__``...) through ``exec``
every time its module is imported, cached bytecode or not, which made
dataclass generation most of the checker's import time.  The two bases here
give the same value semantics from methods defined in this module, driven
by each subclass's ``__slots__``: a subclass writes its ``__slots__`` and
its ``__init__`` and nothing else.

* :class:`Record` — field-wise ``==`` (instances of the same class only)
  and a dataclass-style ``repr``; unhashable, like a plain ``@dataclass``.
* :class:`FrozenRecord` — adds a field-wise ``hash``, like
  ``@dataclass(frozen=True)``; its instances are never mutated after
  ``__init__``.

The fields are the slots that do not start with ``_``, in declaration
order, a subclass's after its base's; a private slot (a memo) takes part
in neither ``==`` nor ``hash`` nor ``repr``.  (The statistics tables of
:mod:`repro.statsutil` set ``_fields`` from annotated defaults instead.)
"""

from __future__ import annotations

from typing import Any


class Record:
    """Field-wise ``==`` and ``repr`` over the public ``__slots__``."""

    __slots__ = ()

    #: the value fields, in constructor order
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in own if not name.startswith("_"))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A :class:`Record` that is hashed by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())
