"""The obligation IR connecting the type checker to proof discharge.

The checker (Sec. 5.2) used to decide every leaf/coverage check inline,
interleaving the bidirectional walk with Algorithm-1 inclusion queries.  It
now *emits* first-class :class:`Obligation` values instead — context
hypotheses, the two symbolic automata, and provenance — collected into an
:class:`ObligationSet`.  The :mod:`repro.engine.scheduler` stage dedupes and
discharges them afterwards, in emission order.

An obligation is identified by its content digest
(:func:`~repro.store.fingerprint.obligation_digest`): the hypotheses as an
unordered set plus the two automata, hashed from structure alone.  Two
obligations with equal digests denote the same logical query, no matter
where in the program they were emitted; the engine's dedupe, its memo, the
store and the dispatch queue all key on it.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..record import FrozenRecord, Record
from ..sfa import symbolic
from ..sfa.symbolic import Sfa
from ..smt.terms import Term

#: The obligation kinds the checker emits.
KINDS = ("postcondition", "coverage", "precondition")


class Obligation(FrozenRecord):
    """One leaf proof obligation ``Γ ⊢ L(lhs) ⊆ L(rhs)``."""

    __slots__ = (
        "kind", "hypotheses", "lhs", "rhs", "provenance", "failure_message", "index", "_digest",
    )

    def __init__(
        self,
        kind: str,
        hypotheses: tuple[Term, ...],
        lhs: Sfa,
        rhs: Sfa,
        provenance: str,
        failure_message: str,
        index: int,
    ) -> None:
        self.kind = kind
        self.hypotheses = hypotheses
        self.lhs = lhs
        self.rhs = rhs
        #: where the obligation came from, e.g. "insert: postcondition at return"
        self.provenance = provenance
        #: the message reported when the obligation fails to discharge
        self.failure_message = failure_message
        #: emission order within the method (walk order); fixes error reporting
        self.index = index
        #: the content digest, memoised by ``obligation_digest``
        self._digest: Optional[str] = None

    def cost_estimate(self) -> int:
        """A cheap syntactic proxy for discharge cost.

        Formula size bounds both the literal sets driving the alphabet
        transformation and the derivative state space, so the dispatch queue
        can order never-measured obligations without any solver work.
        """
        return symbolic.size(self.lhs) + symbolic.size(self.rhs) + len(self.hypotheses)


class ObligationSet(Record):
    """Obligations emitted while walking one method body."""

    __slots__ = ("method", "obligations")

    def __init__(self, method: str = "", obligations: Optional[list[Obligation]] = None) -> None:
        self.method = method
        self.obligations = [] if obligations is None else obligations

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

    def __len__(self) -> int:
        return len(self.obligations)

    def __iter__(self) -> Iterator[Obligation]:
        return iter(self.obligations)


class DischargeOutcome(Record):
    """The verdict for one emitted obligation."""

    __slots__ = ("obligation", "included", "counterexample", "error")

    def __init__(
        self,
        obligation: Obligation,
        included: bool,
        counterexample: Optional[list[str]] = None,
        error: Optional[str] = None,
    ) -> None:
        self.obligation = obligation
        self.included = included
        #: readable event trace witnessing the failure, when not included
        self.counterexample = counterexample
        #: set when discharge hit a resource limit (AlphabetError & co.); the
        #: obligation is then reported as failed with this message
        self.error = error

    @property
    def failed(self) -> bool:
        return not self.included
