"""Refinement types and Hoare Automata Types (Fig. 4 of the paper).

The type grammar reproduced here:

* pure refinement types ``{ν : b | φ}``,
* dependent function types ``x:t → τ``,
* ghost-variable arrows ``x:b ⤳ τ``,
* Hoare Automata Types ``[A] t [B]`` qualifying a pure type with a
  precondition and a postcondition symbolic automaton,
* intersections of HATs ``τ ⊓ τ``.

Types are plain immutable value classes; substitution of program variables maps
through both the logical qualifiers and the automata.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from .. import smt
from ..record import FrozenRecord
from ..smt.sorts import Sort
from ..sfa import symbolic
from ..sfa.symbolic import Sfa

#: The canonical refinement binder ν, one per sort.
def nu(sort: Sort) -> smt.Term:
    return smt.var(f"nu:{sort.name}", sort)


class RefinementType(FrozenRecord):
    """``{ν : b | φ}`` — a base sort refined by a qualifier over ν."""

    __slots__ = ("sort", "qualifier")

    def __init__(self, sort: Sort, qualifier: smt.Term = smt.TRUE) -> None:
        self.sort = sort
        self.qualifier = qualifier

    @property
    def binder(self) -> smt.Term:
        return nu(self.sort)

    def instantiate(self, value: smt.Term) -> smt.Term:
        """The qualifier with ν replaced by ``value``."""
        return smt.substitute(self.qualifier, {self.binder: value})

    def substitute(self, mapping: Mapping[smt.Term, smt.Term]) -> "RefinementType":
        return RefinementType(self.sort, smt.substitute(self.qualifier, dict(mapping)))

    def __repr__(self) -> str:
        if self.qualifier.is_true:
            return self.sort.name
        return f"{{ν:{self.sort.name} | {self.qualifier!r}}}"


def base(sort: Sort) -> RefinementType:
    """``{ν : b | ⊤}`` (the paper's abbreviation ``b``)."""
    return RefinementType(sort)


def singleton(sort: Sort, value: smt.Term) -> RefinementType:
    """``{ν : b | ν = value}``."""
    return RefinementType(sort, smt.eq(nu(sort), value))


class HatType(FrozenRecord):
    """``[A] {ν:b|φ} [B]`` — a Hoare Automata Type."""

    __slots__ = ("precondition", "result", "postcondition")

    def __init__(self, precondition: Sfa, result: RefinementType, postcondition: Sfa) -> None:
        self.precondition = precondition
        self.result = result
        self.postcondition = postcondition

    def substitute(self, mapping: Mapping[smt.Term, smt.Term]) -> "HatType":
        mapping = dict(mapping)
        return HatType(
            precondition=symbolic.substitute(self.precondition, mapping),
            result=self.result.substitute(mapping),
            postcondition=symbolic.substitute(self.postcondition, mapping),
        )

    def __repr__(self) -> str:
        return f"[{self.precondition!r}] {self.result!r} [{self.postcondition!r}]"


class Intersection(FrozenRecord):
    """An intersection of HATs, used for operators with several behaviours."""

    __slots__ = ("cases",)

    def __init__(self, cases: tuple[HatType, ...]) -> None:
        if not cases:
            raise ValueError("an intersection needs at least one case")
        sorts = {case.result.sort for case in cases}
        if len(sorts) > 1:
            raise ValueError("intersected HATs must share a base type (WFInter)")
        self.cases = cases

    def substitute(self, mapping: Mapping[smt.Term, smt.Term]) -> "Intersection":
        return Intersection(tuple(case.substitute(mapping) for case in self.cases))

    def __repr__(self) -> str:
        return " ⊓ ".join(repr(case) for case in self.cases)


EffectType = Union[HatType, Intersection]


def cases_of(effect: EffectType) -> tuple[HatType, ...]:
    """The HAT cases of a possibly-intersected effect type."""
    if isinstance(effect, HatType):
        return (effect,)
    return effect.cases


class FunType(FrozenRecord):
    """``x : t → τ`` — dependent function type."""

    __slots__ = ("param_name", "param_type", "result")

    def __init__(
        self,
        param_name: str,
        param_type: Union[RefinementType, "FunType"],
        result: Union["FunType", RefinementType, HatType, Intersection, "GhostArrow"],
    ) -> None:
        self.param_name = param_name
        self.param_type = param_type
        self.result = result

    def substitute(self, mapping: Mapping[smt.Term, smt.Term]) -> "FunType":
        return FunType(
            self.param_name,
            self.param_type.substitute(mapping),
            self.result.substitute(mapping),
        )

    def __repr__(self) -> str:
        return f"{self.param_name}:{self.param_type!r} → {self.result!r}"


class GhostArrow(FrozenRecord):
    """``x : b ⤳ τ`` — a ghost (purely logical) variable binder."""

    __slots__ = ("name", "sort", "body")

    def __init__(
        self,
        name: str,
        sort: Sort,
        body: Union[FunType, RefinementType, HatType, Intersection, "GhostArrow"],
    ) -> None:
        self.name = name
        self.sort = sort
        self.body = body

    @property
    def variable(self) -> smt.Term:
        return smt.var(self.name, self.sort)

    def substitute(self, mapping: Mapping[smt.Term, smt.Term]) -> "GhostArrow":
        mapping = {k: v for k, v in mapping.items() if k is not self.variable}
        return GhostArrow(self.name, self.sort, self.body.substitute(mapping))

    def __repr__(self) -> str:
        return f"{self.name}:{self.sort.name} ⤳ {self.body!r}"


Type = Union[RefinementType, FunType, GhostArrow, HatType, Intersection]


# ---------------------------------------------------------------------------
# Type erasure (Fig. 5): the shape of a type with all qualifiers removed
# ---------------------------------------------------------------------------


def erase(ty: Type) -> str:
    """A string rendering of the erased (basic) type — used for diagnostics."""
    if isinstance(ty, RefinementType):
        return ty.sort.name
    if isinstance(ty, HatType):
        return erase(ty.result)
    if isinstance(ty, Intersection):
        return erase(ty.cases[0])
    if isinstance(ty, FunType):
        return f"{erase(ty.param_type)} -> {erase(ty.result)}"
    if isinstance(ty, GhostArrow):
        return erase(ty.body)
    raise TypeError(f"unexpected type {ty!r}")


def strip_ghosts(ty: Type) -> tuple[list[tuple[str, Sort]], Type]:
    """Split the leading ghost binders off a type."""
    ghosts: list[tuple[str, Sort]] = []
    while isinstance(ty, GhostArrow):
        ghosts.append((ty.name, ty.sort))
        ty = ty.body
    return ghosts, ty


def function_signature(ty: Type) -> tuple[list[tuple[str, Sort]], list[tuple[str, RefinementType]], EffectType | RefinementType]:
    """Decompose ``ghosts ⤳ params → effect`` into its three parts."""
    ghosts, rest = strip_ghosts(ty)
    params: list[tuple[str, RefinementType]] = []
    while isinstance(rest, FunType):
        if not isinstance(rest.param_type, RefinementType):
            raise TypeError("higher-order parameters must be decomposed by the caller")
        params.append((rest.param_name, rest.param_type))
        rest = rest.result
    if not isinstance(rest, (HatType, Intersection, RefinementType)):
        raise TypeError(f"unexpected result type {rest!r}")
    return ghosts, params, rest
