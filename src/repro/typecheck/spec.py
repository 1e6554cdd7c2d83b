"""Method specifications: the HAT-enriched signatures of ADT operations.

A :class:`MethodSpec` is the flattened form of the types the paper ascribes
to ADT methods, e.g. (τ_add)::

    p:Path.t ⤳ path:{ν:Path.t|⊤} → bytes:{ν:Bytes.t|⊤} → [I_FS(p)] bool [I_FS(p)]

i.e. a list of ghost variables, a list of (dependent) value parameters, and a
result HAT.  Representation invariants are expressed by using the same
automaton as pre- and postcondition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from .. import smt
from ..smt.sorts import Sort
from ..sfa import symbolic
from ..sfa.symbolic import Sfa
from ..types.rtypes import FunType, RefinementType, base

#: A parameter is either a pure refinement type or (for thunk-passing ADTs
#: such as LazySet) a function type whose result is a HAT.
ParamType = Union[RefinementType, FunType]


@dataclass(frozen=True)
class MethodSpec:
    """The declared signature of one ADT method."""

    name: str
    ghosts: tuple[tuple[str, Sort], ...]
    params: tuple[tuple[str, ParamType], ...]
    precondition: Sfa
    result: Union[RefinementType, FunType]
    postcondition: Sfa

    # -- derived views ---------------------------------------------------------------
    def rename_params(self, new_names: Sequence[str]) -> "MethodSpec":
        """Rename the value parameters (to match an implementation's names)."""
        if len(new_names) != len(self.params):
            raise ValueError(
                f"{self.name}: specification has {len(self.params)} parameters, "
                f"implementation has {len(new_names)}"
            )
        mapping: dict[smt.Term, smt.Term] = {}
        params: list[tuple[str, ParamType]] = []
        for (old_name, param_type), new_name in zip(self.params, new_names):
            if isinstance(param_type, RefinementType) and old_name != new_name:
                mapping[smt.var(old_name, param_type.sort)] = smt.var(new_name, param_type.sort)
            params.append((new_name, param_type))
        if not mapping:
            return MethodSpec(
                self.name, self.ghosts, tuple(params), self.precondition, self.result, self.postcondition
            )
        result = (
            self.result.substitute(mapping)
            if isinstance(self.result, RefinementType)
            else self.result
        )
        return MethodSpec(
            name=self.name,
            ghosts=self.ghosts,
            params=tuple(
                (n, t.substitute(mapping) if isinstance(t, RefinementType) else t)
                for n, t in params
            ),
            precondition=symbolic.substitute(self.precondition, mapping),
            result=result,
            postcondition=symbolic.substitute(self.postcondition, mapping),
        )


def invariant_method(
    name: str,
    ghosts: Sequence[tuple[str, Sort]],
    params: Sequence[tuple[str, ParamType]],
    invariant: Sfa,
    result: Union[RefinementType, FunType],
) -> MethodSpec:
    """The common shape: the representation invariant as both pre- and postcondition."""
    return MethodSpec(
        name=name,
        ghosts=tuple(ghosts),
        params=tuple(params),
        precondition=invariant,
        result=result,
        postcondition=invariant,
    )
