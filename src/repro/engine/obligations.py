"""The obligation IR connecting the type checker to proof discharge.

The checker (Sec. 5.2) used to decide every leaf/coverage/emptiness check
inline, interleaving the bidirectional walk with Algorithm-1 inclusion
queries.  It now *emits* first-class :class:`Obligation` values instead —
context hypotheses, the two symbolic automata, and provenance — collected
into an :class:`ObligationSet`.  The :mod:`repro.engine.scheduler` stage
dedupes and discharges them afterwards, in emission order.

Because terms and SFA formulas are hash-consed, an obligation has an exact
structural fingerprint ``(sorted hypothesis ids, lhs id, rhs id)``: two
obligations with equal fingerprints denote the same logical query, no matter
where in the program they were emitted.  This is what the engine's dedupe
and cross-method memo key on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..sfa import symbolic
from ..sfa.symbolic import Sfa
from ..smt.terms import Term

#: The obligation kinds the checker emits (plus "emptiness" for L(A) = ∅
#: queries, which are inclusions into BOT).
KINDS = ("postcondition", "coverage", "precondition", "emptiness")

Fingerprint = tuple


@dataclass(frozen=True)
class Obligation:
    """One leaf proof obligation ``Γ ⊢ L(lhs) ⊆ L(rhs)``."""

    kind: str
    hypotheses: tuple[Term, ...]
    lhs: Sfa
    rhs: Sfa
    #: where the obligation came from, e.g. "insert: postcondition at return"
    provenance: str
    #: the message reported when the obligation fails to discharge
    failure_message: str
    #: emission order within the method (walk order); fixes error reporting
    index: int

    def fingerprint(self) -> Fingerprint:
        """Structural content address: isomorphic obligations coincide."""
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = (
                tuple(sorted(h.term_id for h in self.hypotheses)),
                self.lhs.sfa_id,
                self.rhs.sfa_id,
            )
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def cost_estimate(self) -> int:
        """A cheap syntactic proxy for discharge cost.

        Formula size bounds both the literal sets driving the alphabet
        transformation and the derivative state space, so the dispatch queue
        can order never-measured obligations without any solver work.
        """
        return symbolic.size(self.lhs) + symbolic.size(self.rhs) + len(self.hypotheses)


@dataclass
class ObligationSet:
    """Obligations emitted while walking one method body."""

    method: str = ""
    obligations: list[Obligation] = field(default_factory=list)

    def emit(
        self,
        kind: str,
        hypotheses: Sequence[Term],
        lhs: Sfa,
        rhs: Sfa,
        *,
        provenance: str = "",
        failure_message: str = "",
    ) -> Obligation:
        if kind not in KINDS:
            raise ValueError(f"unknown obligation kind {kind!r}; expected one of {KINDS}")
        obligation = Obligation(
            kind=kind,
            hypotheses=tuple(hypotheses),
            lhs=lhs,
            rhs=rhs,
            provenance=provenance or f"{self.method}: {kind}",
            failure_message=failure_message or f"{kind} obligation failed",
            index=len(self.obligations),
        )
        self.obligations.append(obligation)
        return obligation

    def emit_emptiness(
        self,
        hypotheses: Sequence[Term],
        formula: Sfa,
        *,
        provenance: str = "",
        failure_message: str = "",
    ) -> Obligation:
        """``L(formula) = ∅`` as an inclusion into the empty automaton."""
        return self.emit(
            "emptiness",
            hypotheses,
            formula,
            symbolic.BOT,
            provenance=provenance,
            failure_message=failure_message,
        )

    def __len__(self) -> int:
        return len(self.obligations)

    def __iter__(self) -> Iterator[Obligation]:
        return iter(self.obligations)

    def deduped(self) -> list[tuple[Obligation, list[Obligation]]]:
        """Group structurally-isomorphic obligations under one representative.

        Returns ``(representative, aliases)`` pairs in first-emission order;
        ``aliases`` lists every later obligation with the same fingerprint
        (they receive the representative's verdict without re-discharge).
        """
        groups: dict[Fingerprint, tuple[Obligation, list[Obligation]]] = {}
        for obligation in self.obligations:
            key = obligation.fingerprint()
            entry = groups.get(key)
            if entry is None:
                groups[key] = (obligation, [])
            else:
                entry[1].append(obligation)
        return list(groups.values())


@dataclass
class DischargeOutcome:
    """The verdict for one emitted obligation (representatives and aliases)."""

    obligation: Obligation
    included: bool
    #: readable event trace witnessing the failure, when not included
    counterexample: Optional[list[str]] = None
    #: set when discharge hit a resource limit (AlphabetError & co.); the
    #: obligation is then reported as failed with this message
    error: Optional[str] = None
    #: answered from the engine's cross-method memo (no discharge work done)
    from_memo: bool = False
    #: answered from the persistent obligation store (warm start)
    from_store: bool = False
    #: this obligation was an alias of an isomorphic representative
    deduped: bool = False

    @property
    def failed(self) -> bool:
        return not self.included
