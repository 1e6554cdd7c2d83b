"""Typing contexts Γ and the built-in operator context Δ.

Γ maps program variables to *pure* refinement types (HATs are not allowed in
contexts — see Sec. 4.2 of the paper) plus a set of path-condition
hypotheses.  Each binding also fixes the SMT variable that represents the
program variable inside qualifiers and automata.

Δ assigns types to the effectful operators of the backing library (Example
4.2) and to its pure helper functions (``Path.parent``, ``File.isDir``, ...).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .. import smt
from ..record import FrozenRecord
from ..smt.sorts import Sort
from . import rtypes
from .rtypes import FunType, GhostArrow, HatType, Intersection, RefinementType, Type


class TypingError(Exception):
    """A (user-facing) type error raised during verification."""


class Binding(FrozenRecord):
    __slots__ = ("name", "type")

    def __init__(self, name: str, type: Union[RefinementType, Type]) -> None:
        self.name = name
        self.type = type


class TypingContext:
    """An immutable ordered typing context."""

    def __init__(
        self,
        bindings: Sequence[Binding] = (),
        hypotheses: Sequence[smt.Term] = (),
    ) -> None:
        self._bindings = tuple(bindings)
        self._hypotheses = tuple(hypotheses)
        self._by_name = {b.name: b for b in self._bindings}

    # -- construction -------------------------------------------------------------
    def bind(self, name: str, ty: Type) -> "TypingContext":
        return TypingContext(self._bindings + (Binding(name, ty),), self._hypotheses)

    def assume(self, formula: smt.Term) -> "TypingContext":
        if formula.is_true:
            return self
        return TypingContext(self._bindings, self._hypotheses + (formula,))

    # -- lookup --------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def lookup(self, name: str) -> Type:
        binding = self._by_name.get(name)
        if binding is None:
            raise TypingError(f"unbound variable {name!r}")
        return binding.type

    def term_of(self, name: str) -> smt.Term:
        """The SMT variable standing for program variable ``name``."""
        ty = self.lookup(name)
        if not isinstance(ty, RefinementType):
            raise TypingError(f"{name!r} is function-typed and has no logical term")
        return smt.var(name, ty.sort)

    @property
    def bindings(self) -> tuple[Binding, ...]:
        return self._bindings

    def names(self) -> list[str]:
        return [b.name for b in self._bindings]

    # -- logical content --------------------------------------------------------------
    def hypotheses(self) -> list[smt.Term]:
        """The qualifier of every pure binding (at its variable) plus assumptions."""
        out: list[smt.Term] = []
        for binding in self._bindings:
            if isinstance(binding.type, RefinementType):
                variable = smt.var(binding.name, binding.type.sort)
                qualifier = binding.type.instantiate(variable)
                if not qualifier.is_true:
                    out.append(qualifier)
        out.extend(self._hypotheses)
        return out

    def is_infeasible(self, solver: smt.Solver) -> bool:
        """Is the denotation of the context empty? (used to prune dead branches)"""
        return not solver.is_satisfiable(smt.and_(*self.hypotheses()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"{b.name}:{b.type!r}" for b in self._bindings]
        parts.extend(repr(h) for h in self._hypotheses)
        return "Γ[" + ", ".join(parts) + "]"


# ---------------------------------------------------------------------------
# Pure helper functions of the backing libraries
# ---------------------------------------------------------------------------


class PureOpSpec(FrozenRecord):
    """A pure library function, typed by an equational qualifier on ν.

    ``make_qualifier(nu, args)`` builds the refinement of the result in terms
    of the SMT encodings of the arguments (typically ``ν = f(args)`` for an
    uninterpreted function or ``ν ⟺ p(args)`` for a method predicate).
    """

    __slots__ = ("name", "arg_sorts", "result_sort", "make_qualifier")

    def __init__(
        self,
        name: str,
        arg_sorts: tuple[Sort, ...],
        result_sort: Sort,
        make_qualifier: Callable[[smt.Term, Sequence[smt.Term]], smt.Term],
    ) -> None:
        self.name = name
        self.arg_sorts = arg_sorts
        self.result_sort = result_sort
        self.make_qualifier = make_qualifier

    def result_type(self, args: Sequence[smt.Term]) -> RefinementType:
        binder = rtypes.nu(self.result_sort)
        return RefinementType(self.result_sort, self.make_qualifier(binder, args))


def uninterpreted_pure_op(name: str, decl: smt.FuncDecl) -> PureOpSpec:
    """A pure op whose meaning is an uninterpreted SMT function/predicate."""

    def make_qualifier(binder: smt.Term, args: Sequence[smt.Term]) -> smt.Term:
        return smt.eq(binder, smt.apply(decl, *args))

    return PureOpSpec(name, decl.arg_sorts, decl.result_sort, make_qualifier)


class PureOpContext:
    """The pure fragment of Δ: library helper functions and method predicates."""

    def __init__(self, specs: Iterable[PureOpSpec] = ()) -> None:
        self._specs: dict[str, PureOpSpec] = {}
        for spec in specs:
            self.add(spec)

    def add(self, spec: PureOpSpec) -> PureOpSpec:
        self._specs[spec.name] = spec
        return spec

    def declare(self, name: str, decl: smt.FuncDecl) -> PureOpSpec:
        return self.add(uninterpreted_pure_op(name, decl))

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __getitem__(self, name: str) -> PureOpSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise TypingError(f"unknown pure operator {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._specs)


# ---------------------------------------------------------------------------
# The effectful operator context Δ
# ---------------------------------------------------------------------------


class BuiltinContext:
    """Δ: HAT signatures for the effectful operators of a backing library."""

    def __init__(self, signatures: Mapping[str, Type] | None = None) -> None:
        self._signatures: dict[str, Type] = dict(signatures or {})

    def add(self, op: str, ty: Type) -> None:
        self._signatures[op] = ty

    def __contains__(self, op: str) -> bool:
        return op in self._signatures

    def __getitem__(self, op: str) -> Type:
        try:
            return self._signatures[op]
        except KeyError:
            raise TypingError(f"no HAT signature for effectful operator {op!r}") from None

    def operators(self) -> list[str]:
        return sorted(self._signatures)
