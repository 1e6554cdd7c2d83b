"""SFA inclusion checking (Algorithm 1 of the paper).

``InclusionChecker.check(Γ, A, B)`` decides ``Γ ⊢ A ⊆ B``: under every
instantiation of the typing context, every trace accepted by ``A`` is accepted
by ``B``.  The pipeline is the paper's:

1. enumerate satisfiable boolean combinations of the context literals,
2. within each, enumerate satisfiable minterms per operator (the alphabet
   transformation), asking the SMT solver for each candidate,
3. decide inclusion over that finite alphabet.

Step 3 has one decider: a single-member walk over an interned transition
table (:func:`repro.sfa.batch.decide`) — the same walk the engine runs for
its grouped obligations.  Product states are explored breadth-first with
antichain-style subsumption pruning, nothing is materialised beyond the
reachable product, and the walk exits at the first counterexample.  The
paper's DFA-compiling construction lives on only as a test oracle
(``tests/sfa/oracles.py``).

The checker records the statistics reported in the paper's evaluation: the
number of FA inclusion checks (``#FA⊆``), explored product states
(``#prod-states``), the automaton size each walk reached (``avg. s_FA``) and
the time spent in FA inclusion (``t_FA⊆``); SMT counts and times are tracked
by the shared solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .. import smt
from ..obs import trace
from ..smt.terms import Term
from ..statsutil import MergeableStats
from .alphabet import (
    Alphabet,
    AlphabetMemo,
    AlphabetStats,
    build_alphabets,
    resolve_max_literals,
)
from .batch import decide
from .derivatives import DerivativeCache
from .signatures import OperatorRegistry
from .symbolic import BOT, Sfa


@dataclass
class InclusionStats(MergeableStats):
    """Counters mirroring #FA⊆ / avg s_FA / #prod-states of Tables 1, 3 and 4.

    ``merge``/``snapshot`` are derived from ``dataclasses.fields`` via
    :class:`MergeableStats`: a counter added here automatically participates
    in per-worker merges and before/after deltas.
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
    #: alphabet constructions actually enumerated (#Alph — volatile: whether a
    #: check builds or reuses depends on what ran before it in this process)
    alphabet_builds: int = 0
    #: alphabet constructions answered by the cross-obligation memo, which
    #: replays the recorded counter bill so every other column stays put
    alphabet_memo_hits: int = 0
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


@dataclass
class InclusionResult:
    included: bool
    #: one witness trace (one readable step per event) when not included
    counterexample: Optional[list[str]] = None


def render_witness(alphabet: Alphabet, witness: Sequence[int]) -> list[str]:
    """Render a character-index witness as a readable event trace.

    Each step shows the operator name and the qualifier valuation of the
    minterm (:meth:`Character.describe`), so failure messages read as
    ``put((key == x), not (value == x))`` rather than as raw indices.
    """
    return [alphabet.characters[index].describe() for index in witness]


class InclusionChecker:
    """Decides language inclusion between symbolic automata under a context."""

    def __init__(
        self,
        solver: smt.Solver,
        operators: OperatorRegistry,
        *,
        filter_unsat_minterms: bool = True,
        max_literals: Optional[int] = None,
        strategy: str = "guided",
        alphabet_memo: Optional[AlphabetMemo] = None,
        derivative_cache: Optional[DerivativeCache] = None,
    ) -> None:
        self.solver = solver
        self.operators = operators
        self.filter_unsat_minterms = filter_unsat_minterms
        self.max_literals = resolve_max_literals(max_literals, strategy, filter_unsat_minterms)
        self.strategy = strategy
        #: when set, alphabets come from the shared cross-obligation memo
        #: (hermetic construction + recorded-counter replay); when ``None``
        #: the checker builds them on its own solver, the standalone path
        self.alphabet_memo = alphabet_memo
        #: optional cross-query memo for derivative steps (pure reuse)
        self.derivative_cache = derivative_cache
        self.stats = InclusionStats()
        self.cache_hits = 0
        self._cache: dict[tuple, InclusionResult] = {}

    # -- the main entry point ----------------------------------------------------------
    def check(
        self,
        hypotheses: Sequence[Term],
        lhs: Sfa,
        rhs: Sfa,
        *,
        extra_context_literals: Iterable[Term] = (),
    ) -> bool:
        return self.check_detailed(
            hypotheses, lhs, rhs, extra_context_literals=extra_context_literals
        ).included

    def check_detailed(
        self,
        hypotheses: Sequence[Term],
        lhs: Sfa,
        rhs: Sfa,
        *,
        extra_context_literals: Iterable[Term] = (),
    ) -> InclusionResult:
        cache_key = (
            tuple(sorted(h.term_id for h in hypotheses)),
            lhs.sfa_id,
            rhs.sfa_id,
            tuple(sorted(l.term_id for l in extra_context_literals)),
        )
        cached = self._cache.get(cache_key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        alphabet_stats = AlphabetStats()
        if self.alphabet_memo is not None:
            alphabets, built = self.alphabet_memo.alphabets_for(
                list(hypotheses),
                [lhs, rhs],
                self.operators,
                extra_context_literals=extra_context_literals,
                max_literals=self.max_literals,
                filter_unsat=self.filter_unsat_minterms,
                strategy=self.strategy,
                stats=alphabet_stats,
                solver_stats=self.solver.stats,
            )
            if built:
                self.stats.alphabet_builds += 1
            else:
                self.stats.alphabet_memo_hits += 1
        else:
            alphabets = build_alphabets(
                self.solver,
                list(hypotheses),
                [lhs, rhs],
                self.operators,
                extra_context_literals=extra_context_literals,
                max_literals=self.max_literals,
                filter_unsat=self.filter_unsat_minterms,
                strategy=self.strategy,
                stats=alphabet_stats,
            )
            self.stats.alphabet_builds += 1
        self.stats.context_cases += alphabet_stats.context_cases
        self.stats.minterm_candidates += alphabet_stats.minterm_candidates
        self.stats.satisfiable_minterms += alphabet_stats.satisfiable_minterms

        outcome = InclusionResult(included=True)
        for alphabet in alphabets:
            result = self._check_under_alphabet(lhs, rhs, alphabet)
            if not result.included:
                outcome = result
                break
        self._cache[cache_key] = outcome
        return outcome

    # -- per-context-case check ---------------------------------------------------------
    def _check_under_alphabet(self, lhs: Sfa, rhs: Sfa, alphabet: Alphabet) -> InclusionResult:
        start = time.perf_counter()
        with trace.span("inclusion.walk", cat="discharge", characters=len(alphabet.characters)):
            walk = decide(lhs, rhs, alphabet, cache=self.derivative_cache)
        if walk.error is not None:
            raise walk.error
        self.stats.record_walk(walk, len(alphabet.characters), time.perf_counter() - start)
        if walk.witness is None:
            return InclusionResult(included=True)
        return InclusionResult(
            included=False, counterexample=render_witness(alphabet, walk.witness)
        )

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
