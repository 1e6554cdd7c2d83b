"""Subtyping (Fig. 5): pure refinement subtyping and HAT subtyping.

Pure subtyping is the classical refinement-type implication check discharged
by the SMT solver (rule SubBaseAlg).  HAT subtyping (rule SubHoare) is
contravariant in the precondition automaton and covariant in the
postcondition automaton *relative to the target's precondition*; both sides
reduce to SFA inclusion queries handled by :class:`repro.sfa.InclusionChecker`.
"""

from __future__ import annotations

from typing import Sequence

from .. import smt
from ..record import Record
from ..sfa import symbolic
from ..sfa.inclusion import InclusionChecker
from . import rtypes
from .context import TypingContext, TypingError
from .rtypes import HatType, RefinementType


class SubtypingEngine(Record):
    """Bundles the SMT solver and the SFA inclusion checker."""

    __slots__ = ("solver", "inclusion")

    def __init__(self, solver: smt.Solver, inclusion: InclusionChecker) -> None:
        self.solver = solver
        self.inclusion = inclusion

    # -- pure refinement subtyping -------------------------------------------------
    def base_subtype(
        self, context: TypingContext, sub: RefinementType, sup: RefinementType
    ) -> bool:
        """Γ ⊢ {ν:b|φ₁} <: {ν:b|φ₂}."""
        if sub.sort is not sup.sort:
            raise TypingError(
                f"cannot compare refinement types over {sub.sort.name} and {sup.sort.name}"
            )
        binder = rtypes.nu(sub.sort)
        hypotheses = context.hypotheses() + [sub.instantiate(binder)]
        return self.solver.is_valid(sup.instantiate(binder), hypotheses=hypotheses)

    def value_has_type(
        self, context: TypingContext, value_term: smt.Term, ty: RefinementType
    ) -> bool:
        """Γ ⊢ {ν = value} <: ty — the common 'check a value against a type' query."""
        return self.solver.is_valid(
            ty.instantiate(value_term), hypotheses=context.hypotheses()
        )

    # -- automata inclusion -----------------------------------------------------------
    def automata_included(
        self, context: TypingContext, lhs: symbolic.Sfa, rhs: symbolic.Sfa
    ) -> bool:
        """Γ ⊢ A₁ ⊆ A₂ (rule SubAutomata)."""
        return self.inclusion.check(context.hypotheses(), lhs, rhs)

    # -- HAT subtyping -------------------------------------------------------------------
    def hat_subtype(self, context: TypingContext, sub: HatType, sup: HatType) -> bool:
        """Γ ⊢ [A₁] t₁ [B₁] <: [A₂] t₂ [B₂] (rule SubHoare)."""
        if not self.automata_included(context, sup.precondition, sub.precondition):
            return False
        if not self.base_subtype(context, sub.result, sup.result):
            return False
        frame = symbolic.concat(sup.precondition, symbolic.any_trace())
        return self.automata_included(
            context,
            symbolic.and_(frame, sub.postcondition),
            symbolic.and_(frame, sup.postcondition),
        )
