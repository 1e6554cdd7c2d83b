"""Sorts (types) for the SMT term language.

The fragment Marple needs is small: booleans, integers, and a family of
uninterpreted sorts used for opaque datatype payloads (paths, byte blobs,
set elements, graph nodes, characters, ...).  Sorts are interned so they can
be compared with ``is`` and used as dictionary keys cheaply.
"""

from __future__ import annotations

from ..record import FrozenRecord


class Sort(FrozenRecord):
    """An SMT sort.  ``name`` uniquely identifies the sort."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.name

    @property
    def is_bool(self) -> bool:
        return self.name == "Bool"

    @property
    def is_int(self) -> bool:
        return self.name == "Int"

    @property
    def is_uninterpreted(self) -> bool:
        return not (self.is_bool or self.is_int)


BOOL = Sort("Bool")
INT = Sort("Int")

_SORT_CACHE: dict[str, Sort] = {"Bool": BOOL, "Int": INT}


def sort(name: str) -> Sort:
    """Return the interned sort with the given name, creating it if needed."""
    existing = _SORT_CACHE.get(name)
    if existing is not None:
        return existing
    fresh = Sort(name)
    _SORT_CACHE[name] = fresh
    return fresh


def uninterpreted(name: str) -> Sort:
    """Declare (or fetch) an uninterpreted sort.

    ``Bool`` and ``Int`` are rejected so interpreted sorts cannot be shadowed.
    """
    if name in ("Bool", "Int"):
        raise ValueError(f"{name} is an interpreted sort")
    return sort(name)


# Sorts that appear throughout the benchmark suite.  Declaring them here keeps
# the rest of the code base free of stringly-typed sort names.
PATH = uninterpreted("Path")
BYTES = uninterpreted("Bytes")
ELEM = uninterpreted("Elem")
NODE = uninterpreted("Node")
CHAR = uninterpreted("Char")
ADDR = uninterpreted("Addr")
UNIT = uninterpreted("Unit")
