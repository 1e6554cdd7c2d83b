"""Signatures of effectful operators used inside symbolic automata.

Every effectful library operator (``put``, ``exists``, ``insert``, ...) has a
fixed list of argument sorts and a result sort.  Symbolic event atoms
``⟨op x̄ = ν | φ⟩`` qualify the *formal* argument and result variables of the
operator; this module owns those formal variables so that every part of the
pipeline (spec parser, minterm construction, alphabet transformation, trace
acceptance) agrees on their identity.
"""

from __future__ import annotations

from typing import Sequence

from .. import smt
from ..record import FrozenRecord
from ..smt.sorts import Sort


class EventSignature(FrozenRecord):
    """An effectful operator as seen by the automata layer."""

    __slots__ = ("name", "arg_names", "arg_sorts", "result_sort")

    def __init__(
        self,
        name: str,
        arg_names: tuple[str, ...],
        arg_sorts: tuple[Sort, ...],
        result_sort: Sort,
    ) -> None:
        if len(arg_names) != len(arg_sorts):
            raise ValueError("argument names and sorts must align")
        self.name = name
        self.arg_names = arg_names
        self.arg_sorts = arg_sorts
        self.result_sort = result_sort

    # -- formal variables -----------------------------------------------------------
    @property
    def arg_vars(self) -> tuple[smt.Term, ...]:
        return tuple(
            smt.var(f"{self.name}.{arg_name}", arg_sort)
            for arg_name, arg_sort in zip(self.arg_names, self.arg_sorts)
        )

    @property
    def result_var(self) -> smt.Term:
        return smt.var(f"{self.name}.result", self.result_sort)

    @property
    def formals(self) -> tuple[smt.Term, ...]:
        return self.arg_vars + (self.result_var,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(
            f"{n}:{s.name}" for n, s in zip(self.arg_names, self.arg_sorts)
        )
        return f"{self.name}({args}) -> {self.result_sort.name}"


class OperatorRegistry:
    """A set of operator signatures (one per stateful library)."""

    def __init__(self, signatures: Sequence[EventSignature] = ()) -> None:
        self._by_name: dict[str, EventSignature] = {}
        for signature in signatures:
            self.add(signature)

    def add(self, signature: EventSignature) -> EventSignature:
        existing = self._by_name.get(signature.name)
        if existing is not None and existing != signature:
            raise ValueError(f"operator {signature.name} already registered")
        self._by_name[signature.name] = signature
        return signature

    def declare(
        self,
        name: str,
        args: Sequence[tuple[str, Sort]],
        result_sort: Sort,
    ) -> EventSignature:
        signature = EventSignature(
            name=name,
            arg_names=tuple(a for a, _ in args),
            arg_sorts=tuple(s for _, s in args),
            result_sort=result_sort,
        )
        return self.add(signature)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> EventSignature:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown effectful operator {name!r}") from None

    def get(self, name: str) -> EventSignature | None:
        return self._by_name.get(name)

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def names(self) -> list[str]:
        return sorted(self._by_name)

    def merge(self, other: "OperatorRegistry") -> "OperatorRegistry":
        merged = OperatorRegistry(list(self))
        for signature in other:
            merged.add(signature)
        return merged
