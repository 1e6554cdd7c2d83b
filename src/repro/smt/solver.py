"""The top-level SMT solver facade.

Implements the classic *lazy SMT* architecture (DPLL(T), after Nieuwenhuis,
Oliveras & Tinelli, "Solving SAT and SAT Modulo Theories", JACM 2006): the
input formula (plus ground instances of the method-predicate axioms) is
Tseitin-encoded and handed to the incremental DPLL core
(:mod:`repro.smt.backends`); every propositional model is checked against
the EUF + linear-arithmetic theory combination; theory conflicts become
clauses of the core until either a theory-consistent model is found (SAT)
or the propositional abstraction becomes unsatisfiable (UNSAT).

Every query runs in an :class:`SmtContext`: one incremental problem over a
fixed base formula, with one CNF encoding, one SAT core whose trail
outlives a solve, and one backtrackable congruence closure.  A context
answers many related queries:

* **scopes** — what differs between the queries is switched by assumptions.
  Each scope has one activation variable that guards the scope's clauses:
  a context case guards its signed context literals, and an axiom-instance
  set guards its instances.  A query assumes its own scopes' variables and
  the negation of every other scope's, in scope creation order, so each
  query sees exactly the instances it would have been grounded with alone;
* **lemmas are clauses** — a theory conflict is blocked by a clause of the
  one core, and stays there for every later query of the context;
* **shared work** — the core backtracks only to the deepest assumption level
  the next solve shares (:mod:`repro.smt.backends.dpll`), and a theory
  check pushes only the literals after the prefix its closure already
  holds (:func:`repro.smt.euf.check_euf`).

The :class:`Solver` owns the statistics (#SAT queries, cumulative time and
the SAT/theory work counters that feed the evaluation tables) and two entry
points:

* :meth:`Solver.is_satisfiable` (and validity/implication on top): one
  context per query, behind a **content-addressed query cache** — terms are
  hash-consed, so a goal's ``term_id`` is a canonical content address;
* :meth:`Solver.enumerate_models`: **solver-guided model enumeration**, an
  AllSAT-style depth-first walk over assumption prefixes.  Every
  enumeration over one base formula runs in the solver's one context for
  that base, so an alphabet construction (one base Γ; one enumeration for
  the context cases, one per context case and operator) encodes Γ once.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

from . import terms
from ..obs import trace
from ..statsutil import MergeableStats
from .axioms import Axiom, ground_terms_by_sort, instantiate
from .backends import SatSolver
from .cnf import CnfBuilder
from .euf import CongruenceClosure
from .terms import Term
from .theory import check_theory

#: one signed literal assignment, in the order of the literals enumerated
Assignment = tuple[tuple[Term, bool], ...]


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
    #: answered from the content-addressed query cache
    cache_hits: int = 0
    cache_misses: int = 0
    #: times a size cap wiped the query cache (bulk clear-all)
    cache_evictions: int = 0
    #: satisfiable assignments produced by :meth:`Solver.enumerate_models`
    models_enumerated: int = 0
    #: CNF encodings: one per :class:`SmtContext` (an alphabet construction's
    #: enumerations share one; each query-cache miss opens one)
    encodings: int = 0
    #: candidate models handed to the theory check
    theory_checks: int = 0
    #: SAT-core internals (the #Confl column of the tables)
    sat_decisions: int = 0
    sat_propagations: int = 0
    sat_conflicts: int = 0
    sat_restarts: int = 0
    time_seconds: float = 0.0


class SolverError(RuntimeError):
    """Raised when the lazy loop exceeds its iteration budget."""


class SmtContext:
    """One incremental SMT problem over a fixed ``base`` formula.

    ``base`` is encoded once, unguarded, and ``literals`` (the atoms the
    context's queries will track) get their variables up front; the closure
    registers every atom of that encoding before its first check.
    Everything else a query adds is scoped (see the module docstring):
    :meth:`activation` opens the scopes of a query and returns its
    activation assumptions.
    """

    def __init__(self, solver: "Solver", base: Term, literals: Sequence[Term] = ()) -> None:
        self.solver = solver
        self.base = base
        self.builder = CnfBuilder()
        self.sat = SatSolver()
        self.closure = CongruenceClosure()
        #: scope key -> activation variable, in creation order
        self._scopes: dict[tuple, int] = {}
        #: the minterms enumerations under no case found: each is satisfiable
        #: with ``base`` and the instances its own atoms ground
        self._minterms: set[Assignment] = set()
        self.builder.assert_formula(base)
        for lit in literals:
            self.builder.var_for_atom(lit)
        for atom in self.builder.atom_of_var.values():
            self.closure.register_atom(atom)
        solver.stats.encodings += 1

    def _scope(self, key: tuple) -> tuple[int, bool]:
        """The activation variable of scope ``key``, and whether it is new."""
        var = self._scopes.get(key)
        if var is not None:
            return var, False
        var = self._scopes[key] = self.builder.fresh_var()
        return var, True

    def activation(
        self, case: Sequence[tuple[Term, bool]], lits: Sequence[Term]
    ) -> tuple[int, ...]:
        """Open the scopes of a query over ``lits`` under ``case``.

        The query's instance set is what grounding the axioms over
        ``base ∧ case`` and ``lits`` yields.  That set is a function of the
        query's ground terms, so queries with the same ground terms share
        one instance scope.  Returns every scope's activation literal:
        positive for this query's scopes, negative for the others.
        """
        builder = self.builder
        active: list[int] = []
        if case:
            var, new = self._scope(("case", tuple(case)))
            if new:
                for lit, value in case:
                    atom = builder.var_for_atom(lit)
                    builder.add_clause((-var, atom if value else -atom))
            active.append(var)
        axioms = self.solver.axioms
        if axioms:
            query = [self.base, *(lit for lit, _ in case), *lits]
            universe = frozenset(
                term for group in ground_terms_by_sort(query).values() for term in group
            )
            var, new = self._scope(("instances", universe))
            if new:
                for instance in instantiate(
                    axioms, query, rounds=self.solver.instantiation_rounds
                ):
                    builder.assert_guarded(instance, var)
            active.append(var)
        return tuple(var if var in active else -var for var in self._scopes.values())

    def solve(self, assumptions: tuple[int, ...] = ()) -> Optional[dict[int, bool]]:
        """One lazy-SMT query under ``assumptions``: a partial model or None.

        Clauses the builder holds beyond what the SAT core has seen (scope
        clauses, lemmas) are synced first.  A partial model satisfying every
        clause suffices: atoms the search never assigned impose no theory
        constraint.  The model's atoms go to the theory check in trail
        order, so consecutive checks share the prefix the retained root
        assigned.
        """
        builder, sat, stats = self.builder, self.sat, self.solver.stats
        before = (
            sat.stats_decisions,
            sat.stats_propagations,
            sat.stats_conflicts,
            sat.stats_restarts,
        )
        clauses, atom_of_var = builder.clauses, builder.atom_of_var
        try:
            for _ in range(self.solver.max_lazy_iterations):
                if len(clauses) > sat.num_clauses:
                    for clause in clauses[sat.num_clauses:]:
                        sat.add_clause(clause)
                model = sat.solve_partial(assumptions)
                if model is None:
                    return None
                literals = [
                    (atom_of_var[var], value)
                    for var, value in model.items()
                    if var in atom_of_var
                ]
                stats.theory_checks += 1
                theory = check_theory(literals, self.closure)
                if theory.consistent:
                    return model
                stats.theory_conflicts += 1
                builder.block_assignment(theory.conflict)
            raise SolverError("lazy SMT loop exceeded its iteration budget")
        finally:
            stats.sat_decisions += sat.stats_decisions - before[0]
            stats.sat_propagations += sat.stats_propagations - before[1]
            stats.sat_conflicts += sat.stats_conflicts - before[2]
            stats.sat_restarts += sat.stats_restarts - before[3]

    def enumerate(
        self, lits: tuple[Term, ...], case: tuple[tuple[Term, bool], ...] = ()
    ) -> list[Assignment]:
        """Model-guided Shannon expansion over ``lits`` under ``case``.

        A DFS over the literal order maintains a stack of assumption
        prefixes; each SAT call under a prefix either proves the whole
        subtree unsatisfiable (one query kills 2^k candidates) or returns a
        theory-consistent model whose projection IS a complete satisfiable
        minterm.  The deepest prefix is popped first, so consecutive solves
        share all but the last assumptions.

        Enumerating no literals under a case that an earlier enumeration of
        this context found asks that enumeration's question again (same
        base, same atoms, so the same instances), and is answered without a
        query.
        """
        if self.base.is_false:
            return []
        if not lits and case in self._minterms:
            return [()]
        stats = self.solver.stats
        sat = self.sat
        lit_vars = [self.builder.var_for_atom(lit) for lit in lits]
        scope = self.activation(case, lits)
        # Force the search to decide every tracked literal so a model always
        # projects onto a complete minterm (an unassigned tracked atom could
        # not soundly be given a default value: only the asserted literals
        # were theory-checked).
        sat.priority_vars = tuple(lit_vars)

        found: list[Assignment] = []
        #: (assumption literals fixing lits[0:index], index, parent model hint)
        stack: list[tuple[tuple[int, ...], int, Optional[dict[int, bool]]]] = [
            (scope, 0, None)
        ]
        while stack:
            assumptions, index, hint = stack.pop()
            sat.phase_hint = hint or {}
            stats.queries += 1
            model = self.solve(assumptions)
            if model is None:
                stats.unsat_results += 1
                continue  # the whole subtree under this prefix is unsatisfiable
            stats.sat_results += 1
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
        sat.priority_vars = ()
        if not case:
            self._minterms.update(found)
        return found

    def check(self) -> bool:
        """Is the base formula satisfiable modulo the axioms?"""
        if self.base.is_false:
            return False
        return self.solve(self.activation((), ())) is not None


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
        # the whole goal; the cache is sound because the axiom set of a
        # Solver instance is fixed at construction time.
        self._sat_cache: dict[int, bool] = {}
        #: the context of the latest enumeration's base formula
        self._context: Optional[SmtContext] = None

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

    def _check(self, goal: Term) -> bool:
        if goal.is_false:
            return False
        return SmtContext(self, goal).check()

    # -- solver-guided model enumeration ------------------------------------------------
    def context(self, base: Term, literals: Sequence[Term] = ()) -> SmtContext:
        """The incremental context of ``base``: kept while the base stays the same.

        ``literals`` are encoded up front when the context is new; an
        alphabet construction passes the union of its literals, so its one
        encoding and its closure cover every enumeration it will make.
        """
        context = self._context
        if context is None or context.base is not base:
            context = self._context = SmtContext(self, base, literals)
        return context

    def enumerate_models(
        self,
        literals: Sequence[Term],
        *,
        base: Optional[Term] = None,
        extra: Iterable[Term] = (),
        case: Sequence[tuple[Term, bool]] = (),
    ) -> list[Assignment]:
        """All assignments to ``literals`` consistent with ``base`` ∧ ``case`` (AllSAT).

        Returns every signed assignment ``((lit, bool), ...)`` of the atoms in
        ``literals`` that extends to a theory-consistent model of ``base``
        (conjoined with ``extra``) and the signed literals of ``case``, modulo
        the axioms.  The enumeration runs in the solver's context for that
        base formula (:meth:`context`): successive enumerations over one base
        share its encoding, its SAT trail, its lemmas and its closure, and
        ``case`` is switched by an activation literal.

        The result is returned in the canonical order of the exhaustive
        depth-first walk (``True`` branch before ``False``, literals in the
        given order), which keeps downstream alphabets — and therefore
        automata, character indices and counterexamples — byte-identical
        to the exhaustive reference enumeration of the differential tests.
        ``literals`` must be atoms (as produced by :func:`repro.smt.atoms`).
        """
        lits = tuple(literals)
        goal = terms.and_(base if base is not None else terms.TRUE, *extra)
        start = time.perf_counter()
        try:
            with trace.span("solver.enumerate", cat="solver", literals=len(lits)):
                models = self.context(goal).enumerate(lits, tuple(case))
        finally:
            self.stats.time_seconds += time.perf_counter() - start
        models.sort(key=lambda assignment: tuple(not value for _, value in assignment))
        self.stats.models_enumerated += len(models)
        return models
