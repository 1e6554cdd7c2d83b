"""SFA inclusion checking (Algorithm 1 of the paper).

``InclusionChecker.check(Γ, A, B)`` decides ``Γ ⊢ A ⊆ B``: under every
instantiation of the typing context, every trace accepted by ``A`` is accepted
by ``B``.  The pipeline is the paper's:

1. enumerate satisfiable boolean combinations of the context literals,
2. within each, enumerate satisfiable minterms per operator (the alphabet
   transformation), asking the SMT solver for each candidate,
3. decide inclusion over that finite alphabet.

Step 3 has one decider: a walk over an interned transition table per
context case (:func:`repro.sfa.batch.decide`).  Product states are explored
breadth-first with antichain-style subsumption pruning, nothing is
materialised beyond the reachable product, and the walk exits at the first
counterexample.  The paper's DFA-compiling construction lives on only as a
test oracle (``tests/sfa/oracles.py``).

All three steps live in one function, :func:`decide_inclusion`, which both
the checker's inline queries and the engine's deferred obligations run.  It
builds the alphabets on a *fresh* solver, so every counter it bills is a pure
function of the query: asking the same inclusion twice, or after any other
query, bills the same numbers.

The checker records the statistics reported in the paper's evaluation: the
number of FA inclusion checks (``#FA⊆``), explored product states
(``#prod-states``), the automaton size each walk reached (``avg. s_FA``) and
the time spent in FA inclusion (``t_FA⊆``); SMT counts and times are billed
to the caller's solver stats.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .. import smt
from ..record import Record
from ..smt.terms import Term
from ..statsutil import MergeableStats
from .alphabet import AlphabetStats, build_alphabets, resolve_max_literals
from .batch import TransitionTable, decide
from .signatures import OperatorRegistry
from .symbolic import BOT, Sfa


class InclusionStats(MergeableStats):
    """Counters mirroring #FA⊆ / avg s_FA / #prod-states of Tables 1, 3 and 4.

    ``merge``/``snapshot`` iterate the field tuple that
    :class:`MergeableStats` reads off this class body: a counter added here
    automatically participates in per-worker merges and before/after deltas.
    """

    fa_inclusion_checks: int = 0
    #: automata the walks stood in for: two (lhs and rhs) per walk
    automata_built: int = 0
    #: per walk, the distinct lhs-side plus rhs-side states it reached times
    #: the alphabet size — the transitions of the part of both automata the
    #: query needed (``average_transitions`` is the paper's s_FA)
    total_transitions: int = 0
    #: product pairs explored by the walks (#Prod)
    prod_states: int = 0
    context_cases: int = 0
    minterm_candidates: int = 0
    satisfiable_minterms: int = 0
    #: alphabet constructions, one per decided inclusion (#Alph)
    alphabet_builds: int = 0
    fa_time_seconds: float = 0.0

    @property
    def average_transitions(self) -> float:
        if self.automata_built == 0:
            return 0.0
        return self.total_transitions / self.automata_built

    def record_walk(self, walk, num_chars: int, seconds: float) -> None:
        """Bill one completed context-case walk (not a failed one)."""
        self.fa_inclusion_checks += 1
        self.prod_states += walk.explored
        self.automata_built += 2
        self.total_transitions += walk.automaton_states() * num_chars
        self.fa_time_seconds += seconds


class InclusionResult(Record):
    __slots__ = ("included", "counterexample")

    def __init__(self, included: bool, counterexample: Optional[list[str]] = None) -> None:
        self.included = included
        #: one witness trace (one readable step per event) when not included
        self.counterexample = counterexample


def decide_inclusion(
    hypotheses: Sequence[Term],
    lhs: Sfa,
    rhs: Sfa,
    operators: OperatorRegistry,
    axioms: Sequence,
    stats: InclusionStats,
    solver_stats: smt.SolverStats,
    *,
    max_literals: Optional[int] = None,
    filter_unsat: bool = True,
    max_pairs: int = 1_000_000,
) -> Optional[list[str]]:
    """Algorithm 1 for one inclusion ``Γ ⊢ lhs ⊆ rhs``; bills ``stats``/``solver_stats``.

    Builds the alphabets on a fresh ``smt.Solver(axioms)`` (no warm caches,
    no inherited lemmas) and merges that solver's counters into
    ``solver_stats`` once the construction succeeds; a failed construction
    bills nothing.  Then each context case gets a fresh
    :class:`TransitionTable` and one :func:`decide`, and the first witness
    wins: returns it rendered, or ``None`` when the inclusion holds in every
    case.  A :class:`~repro.sfa.derivatives.CompilationError` propagates with
    the earlier cases' walks billed.
    """
    solver = smt.Solver(axioms=list(axioms))
    alphabet_stats = AlphabetStats()
    alphabets = build_alphabets(
        solver,
        list(hypotheses),
        [lhs, rhs],
        operators,
        max_literals=max_literals,
        filter_unsat=filter_unsat,
        stats=alphabet_stats,
    )
    solver_stats.merge(solver.stats)
    stats.alphabet_builds += 1
    stats.context_cases += alphabet_stats.context_cases
    stats.minterm_candidates += alphabet_stats.minterm_candidates
    stats.satisfiable_minterms += alphabet_stats.satisfiable_minterms
    for alphabet in alphabets:
        counterexample = decide(TransitionTable(alphabet), lhs, rhs, stats, max_pairs=max_pairs)
        if counterexample is not None:
            return counterexample
    return None


class InclusionChecker:
    """Decides language inclusion between symbolic automata under a context.

    Each query runs :func:`decide_inclusion` under the axioms of ``solver``,
    whose stats it bills; the solver itself answers none of the queries.
    """

    def __init__(
        self,
        solver: smt.Solver,
        operators: OperatorRegistry,
        *,
        filter_unsat_minterms: bool = True,
        max_literals: Optional[int] = None,
    ) -> None:
        self.solver = solver
        self.operators = operators
        self.filter_unsat_minterms = filter_unsat_minterms
        self.max_literals = resolve_max_literals(max_literals, filter_unsat_minterms)
        self.stats = InclusionStats()

    # -- the main entry point ----------------------------------------------------------
    def check(self, hypotheses: Sequence[Term], lhs: Sfa, rhs: Sfa) -> bool:
        return self.check_detailed(hypotheses, lhs, rhs).included

    def check_detailed(self, hypotheses: Sequence[Term], lhs: Sfa, rhs: Sfa) -> InclusionResult:
        counterexample = decide_inclusion(
            hypotheses,
            lhs,
            rhs,
            self.operators,
            self.solver.axioms,
            self.stats,
            self.solver.stats,
            max_literals=self.max_literals,
            filter_unsat=self.filter_unsat_minterms,
        )
        return InclusionResult(included=counterexample is None, counterexample=counterexample)
    # -- auxiliary queries used by the type checker --------------------------------------
    def is_empty(self, hypotheses: Sequence[Term], formula: Sfa) -> bool:
        """Is L(formula) empty under every instantiation of the context?"""
        if formula is BOT:
            # the initial state is non-accepting and has no transitions: no
            # trace is ever accepted, so skip the alphabet transformation
            return True
        return self.check(hypotheses, formula, BOT)

    def equivalent(self, hypotheses: Sequence[Term], lhs: Sfa, rhs: Sfa) -> bool:
        return self.check(hypotheses, lhs, rhs) and self.check(hypotheses, rhs, lhs)
