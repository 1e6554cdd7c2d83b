"""The top-level SMT solver facade.

Implements the classic *lazy SMT* architecture: the input formula (plus
ground instances of the method-predicate axioms) is Tseitin-encoded and
handed to the incremental DPLL core (:mod:`repro.smt.backends`); every
propositional model is checked against the EUF + linear-arithmetic theory
combination; theory conflicts are turned into blocking clauses until either
a theory-consistent model is found (SAT) or the propositional abstraction
becomes unsatisfiable (UNSAT).

The :class:`Solver` also exposes the two derived queries the type checker
needs — validity and implication — and records statistics (#SAT queries and
cumulative time) which feed the evaluation tables.

Two throughput features sit on top of the basic lazy loop:

* a **content-addressed query cache**: terms are hash-consed, so a goal's
  ``term_id`` is a canonical content address, and repeated satisfiability
  queries (ubiquitous in the alphabet transformation, which re-discharges the
  same context/minterm conjunctions across inclusion checks) are answered
  from a dictionary.  Hits and misses are counted in :class:`SolverStats`.
* **solver-guided model enumeration** (:meth:`Solver.enumerate_models`): an
  AllSAT-style loop that Tseitin-encodes the base formula *once* and then
  pushes blocking clauses into the incremental SAT core to walk the
  satisfiable assignments of a literal set directly, instead of re-encoding
  and re-solving one candidate conjunction at a time.  This is what lets the
  alphabet transformation skip entire unsatisfiable subtrees for free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import terms
from ..obs import trace
from ..statsutil import MergeableStats
from .axioms import Axiom, instantiate
from .backends import SatSolver
from .cnf import CnfBuilder
from .terms import Term
from .theory import check_theory


@dataclass
class SolverStats(MergeableStats):
    """Counters mirroring the #SAT / t_SAT columns of the paper's tables.

    ``merge``/``snapshot``/``as_dict`` come from :class:`MergeableStats`, so
    every field added here automatically participates in worker-result merges.

    The ``sat_*`` fields are the SAT core's own counters (decisions,
    propagations, conflicts, restarts), accumulated across every encoded
    query.  Like every other counter here they are deterministic: the core
    returns the same models for the same clause/solve sequence, so a rerun
    reports the same numbers.
    """

    queries: int = 0
    sat_results: int = 0
    unsat_results: int = 0
    theory_conflicts: int = 0
    #: answered from the content-addressed query / enumeration caches
    cache_hits: int = 0
    cache_misses: int = 0
    #: times a size cap wiped one of the solver's caches (bulk clear-all)
    cache_evictions: int = 0
    #: satisfiable assignments produced by :meth:`Solver.enumerate_models`
    models_enumerated: int = 0
    #: SAT-core internals (the #Confl column of the tables)
    sat_decisions: int = 0
    sat_propagations: int = 0
    sat_conflicts: int = 0
    sat_restarts: int = 0
    time_seconds: float = 0.0


class SolverError(RuntimeError):
    """Raised when the lazy loop exceeds its iteration budget."""


class Solver:
    """A reusable solver configured with a fixed set of background axioms."""

    def __init__(
        self,
        axioms: Sequence[Axiom] = (),
        *,
        instantiation_rounds: int = 2,
        max_lazy_iterations: int = 20000,
        max_cache_entries: int = 100_000,
    ) -> None:
        self.axioms = tuple(axioms)
        self.instantiation_rounds = instantiation_rounds
        self.max_lazy_iterations = max_lazy_iterations
        self.max_cache_entries = max_cache_entries
        self.stats = SolverStats()
        # Terms are interned, so a term_id is a canonical content address for
        # the whole goal; both caches are sound because the axiom set of a
        # Solver instance is fixed at construction time.
        self._sat_cache: dict[int, bool] = {}
        self._enum_cache: dict[tuple, tuple] = {}
        # Theory conflicts are valid lemmas (the negation of an inconsistent
        # conjunction); remembering them across queries lets every later
        # encoding that mentions the same atoms prune those assignments
        # without re-deriving the conflict through the theory solver.
        self._theory_lemmas: dict[tuple, list[tuple[Term, bool]]] = {}

    # -- cross-query theory-lemma reuse -------------------------------------------------
    def _remember_lemma(self, conflict: list[tuple[Term, bool]]) -> None:
        if len(self._theory_lemmas) >= self.max_cache_entries:
            self._theory_lemmas.clear()
            self.stats.cache_evictions += 1
        key = tuple(sorted((atom.term_id, value) for atom, value in conflict))
        self._theory_lemmas.setdefault(key, conflict)

    def _install_lemmas(self, builder: CnfBuilder) -> None:
        """Assert every remembered lemma whose atoms this encoding mentions."""
        var_of_atom = builder.var_of_atom
        for lemma in self._theory_lemmas.values():
            if all(atom in var_of_atom for atom, _ in lemma):
                builder.block_assignment(lemma)

    # -- primitive queries ----------------------------------------------------------
    def is_satisfiable(self, formula: Term, *, extra: Iterable[Term] = ()) -> bool:
        """Is ``formula`` (conjoined with ``extra``) satisfiable modulo the axioms?

        Results are memoised per canonical goal term; ``stats.queries`` counts
        only the queries that actually reach the lazy SMT loop, while cache
        hits are tallied in ``stats.cache_hits``.
        """
        goal = terms.and_(formula, *extra)
        key = goal.term_id
        cached = self._sat_cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        start = time.perf_counter()
        self.stats.queries += 1
        self.stats.cache_misses += 1
        # only cache *misses* are spanned: hits are nanosecond dictionary
        # reads and would dominate the trace without carrying any time
        with trace.span("solver.check", cat="solver"):
            result = self._check(goal)
        self.stats.time_seconds += time.perf_counter() - start
        if result:
            self.stats.sat_results += 1
        else:
            self.stats.unsat_results += 1
        if len(self._sat_cache) >= self.max_cache_entries:
            self._sat_cache.clear()
            self.stats.cache_evictions += 1
        self._sat_cache[key] = result
        return result

    def is_valid(self, formula: Term, *, hypotheses: Iterable[Term] = ()) -> bool:
        """Is ``hypotheses ==> formula`` valid modulo the axioms?"""
        negated = terms.and_(*hypotheses, terms.not_(formula))
        return not self.is_satisfiable(negated)

    def implies(self, hypotheses: Iterable[Term], conclusion: Term) -> bool:
        return self.is_valid(conclusion, hypotheses=hypotheses)

    # -- solver-guided model enumeration ------------------------------------------------
    def enumerate_models(
        self,
        literals: Sequence[Term],
        *,
        base: Optional[Term] = None,
        extra: Iterable[Term] = (),
    ) -> list[tuple[tuple[Term, bool], ...]]:
        """All assignments to ``literals`` consistent with ``base`` (AllSAT).

        Returns every signed assignment ``((lit, bool), ...)`` of the atoms in
        ``literals`` that extends to a theory-consistent model of ``base``
        modulo the axioms.  The base formula is Tseitin-encoded once; each
        found assignment (and each theory conflict) becomes a blocking clause
        pushed into the same incremental SAT core, so unsatisfiable subtrees
        of the 2^n candidate space are never visited.

        The result is returned in the canonical order of the exhaustive
        depth-first walk (``True`` branch before ``False``, literals in the
        given order), which keeps downstream alphabets — and therefore
        automata, character indices and counterexamples — byte-identical
        to the exhaustive reference enumeration of the differential tests.

        Results are memoised per ``(base, literals)`` content address.
        ``literals`` must be atoms (as produced by :func:`repro.smt.atoms`).
        """
        lits = tuple(literals)
        goal = terms.and_(base if base is not None else terms.TRUE, *extra)
        key = (goal.term_id, tuple(lit.term_id for lit in lits))
        cached = self._enum_cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return list(cached)
        self.stats.cache_misses += 1
        start = time.perf_counter()
        try:
            with trace.span("solver.enumerate", cat="solver", literals=len(lits)):
                models = self._enumerate(goal, lits)
        finally:
            self.stats.time_seconds += time.perf_counter() - start
        models.sort(key=lambda assignment: tuple(not value for _, value in assignment))
        self.stats.models_enumerated += len(models)
        if len(self._enum_cache) >= self.max_cache_entries:
            self._enum_cache.clear()
            self.stats.cache_evictions += 1
        self._enum_cache[key] = tuple(models)
        return models

    def _enumerate(
        self, goal: Term, lits: tuple[Term, ...]
    ) -> list[tuple[tuple[Term, bool], ...]]:
        """Model-guided Shannon expansion over one shared incremental encoding.

        The goal (plus axiom instances) is Tseitin-encoded once.  A DFS over
        the literal order maintains a stack of assumption prefixes; each SAT
        call under a prefix either proves the whole subtree unsatisfiable (one
        query kills 2^k candidates) or returns a theory-consistent model whose
        projection IS a complete satisfiable minterm (one query per minterm,
        where the per-candidate walk pays one query per tree edge).  Theory
        conflicts are learned as clauses in the shared core, so a lemma
        refuted once prunes every later subtree for free.
        """
        if goal.is_false:
            return []
        builder, sat, lit_vars = self._encode(goal, lits)
        # Force the search to decide every tracked literal so a model always
        # projects onto a complete minterm (an unassigned tracked atom could
        # not soundly be given a default value: only the asserted literals
        # were theory-checked).
        sat.priority_vars = tuple(lit_vars)

        def solve_modulo_theory(assumptions: tuple[int, ...]):
            # One *query* (the analog of a single is_satisfiable call); the
            # inner lazy iterations are accounted as theory conflicts, exactly
            # as in _check.
            self.stats.queries += 1
            model = self._solve_encoded(builder, sat, assumptions)
            if model is None:
                self.stats.unsat_results += 1
            else:
                self.stats.sat_results += 1
            return model

        found: list[tuple[tuple[Term, bool], ...]] = []
        #: (assumption literals fixing lits[0:index], index, parent model hint)
        stack: list[tuple[tuple[int, ...], int, Optional[dict[int, bool]]]] = [((), 0, None)]
        while stack:
            assumptions, index, hint = stack.pop()
            sat.phase_hint = hint or {}
            model = solve_modulo_theory(assumptions)
            if model is None:
                continue  # the whole subtree under this prefix is unsatisfiable
            values = [model[var] for var in lit_vars]
            found.append(tuple(zip(lits, values)))
            # The remaining minterms of this subtree each agree with the model
            # up to some first literal d >= index and differ at d: recurse into
            # those (disjoint, covering) branches, seeding each with this
            # model as the preferred completion.
            for d in range(index, len(lits)):
                flipped = assumptions + tuple(
                    (var if values[i] else -var)
                    for i, var in enumerate(lit_vars[index:d], start=index)
                )
                flipped += ((-lit_vars[d]) if values[d] else lit_vars[d],)
                stack.append((flipped, d + 1, model))
        sat.phase_hint = {}
        return found

    # -- the lazy SMT loop ------------------------------------------------------------
    def _encode(self, goal: Term, lits: tuple[Term, ...] = ()) -> tuple[CnfBuilder, SatSolver, list[int]]:
        """Tseitin-encode ``goal`` (plus axiom instances and known lemmas)."""
        instances = instantiate(
            self.axioms, [goal, *lits], rounds=self.instantiation_rounds
        )
        builder = CnfBuilder()
        builder.assert_formula(goal)
        for instance in instances:
            builder.assert_formula(instance)
        lit_vars = [builder.var_for_atom(lit) for lit in lits]
        self._install_lemmas(builder)
        sat = SatSolver()
        sat.ensure_vars(builder.num_vars)
        return builder, sat, lit_vars

    def _solve_encoded(
        self,
        builder: CnfBuilder,
        sat: SatSolver,
        assumptions: tuple[int, ...] = (),
    ) -> Optional[dict[int, bool]]:
        """One lazy-SMT query on an encoded problem: a partial model or None.

        Clauses the builder holds beyond what the SAT core has seen (initial
        encoding, lemmas, conflicts from previous calls) are synced first, so
        callers may interleave clause additions and solves freely.  A partial
        model satisfying every clause suffices: atoms the search never
        assigned impose no theory constraint, and skipping them avoids
        refuting arbitrary default values one blocking clause at a time.
        """
        before = (
            sat.stats_decisions,
            sat.stats_propagations,
            sat.stats_conflicts,
            sat.stats_restarts,
        )
        try:
            for _ in range(self.max_lazy_iterations):
                for clause in builder.clauses[sat.num_clauses:]:
                    sat.add_clause(clause)
                model = sat.solve_partial(assumptions)
                if model is None:
                    return None
                literals = [
                    (atom, model[var])
                    for var, atom in builder.atom_of_var.items()
                    if var in model
                ]
                theory = check_theory(literals)
                if theory.consistent:
                    return model
                self.stats.theory_conflicts += 1
                self._remember_lemma(theory.conflict)
                builder.block_assignment(theory.conflict)
            raise SolverError("lazy SMT loop exceeded its iteration budget")
        finally:
            self.stats.sat_decisions += sat.stats_decisions - before[0]
            self.stats.sat_propagations += sat.stats_propagations - before[1]
            self.stats.sat_conflicts += sat.stats_conflicts - before[2]
            self.stats.sat_restarts += sat.stats_restarts - before[3]

    def _check(self, goal: Term) -> bool:
        if goal.is_false:
            return False
        builder, sat, _ = self._encode(goal)
        return self._solve_encoded(builder, sat) is not None

