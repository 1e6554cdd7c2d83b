"""The per-enumeration SMT path, kept as the oracle of the incremental context.

Production runs every enumeration of an alphabet construction in one
:class:`repro.smt.solver.SmtContext`: one encoding of Γ, scopes switched by
activation literals, lemmas kept as clauses of one SAT core, and one
backtrackable congruence closure.  :class:`PerEnumerationSolver` is the
solver as it was before that: each enumeration Tseitin-encodes its own goal
``Γ ∧ case`` with the axioms grounded over that goal and its literals, on a
fresh SAT core; theory conflicts are remembered as lemmas and installed into
every later encoding that mentions all of their atoms; every theory check
runs on a fresh closure; and enumerations are memoised per
``(goal, literals)``.

Swapping it in for a construction must not change a single alphabet
(``tests/sfa/test_enumeration_diff.py``).
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

from repro.smt import terms
from repro.smt.axioms import instantiate
from repro.smt.backends import SatSolver
from repro.smt.cnf import CnfBuilder
from repro.smt.solver import Solver, SolverError
from repro.smt.terms import Term
from repro.smt.theory import check_theory


class PerEnumerationSolver(Solver):
    """A :class:`Solver` whose enumerations each encode their own problem."""

    def __init__(self, axioms=(), **kwargs) -> None:
        super().__init__(axioms, **kwargs)
        self._enum_cache: dict[tuple, tuple] = {}
        self._theory_lemmas: dict[tuple, list[tuple[Term, bool]]] = {}

    def _remember_lemma(self, conflict: list[tuple[Term, bool]]) -> None:
        key = tuple(sorted((atom.term_id, value) for atom, value in conflict))
        self._theory_lemmas.setdefault(key, conflict)

    def _install_lemmas(self, builder: CnfBuilder) -> None:
        """Assert every remembered lemma whose atoms this encoding mentions."""
        var_of_atom = builder.var_of_atom
        for lemma in self._theory_lemmas.values():
            if all(atom in var_of_atom for atom, _ in lemma):
                builder.block_assignment(lemma)

    def enumerate_models(
        self,
        literals: Sequence[Term],
        *,
        base: Optional[Term] = None,
        extra: Iterable[Term] = (),
        case: Sequence[tuple[Term, bool]] = (),
    ):
        lits = tuple(literals)
        goal = terms.and_(
            base if base is not None else terms.TRUE,
            *extra,
            *(lit if value else terms.not_(lit) for lit, value in case),
        )
        key = (goal.term_id, tuple(lit.term_id for lit in lits))
        cached = self._enum_cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return list(cached)
        self.stats.cache_misses += 1
        start = time.perf_counter()
        try:
            models = self._enumerate(goal, lits)
        finally:
            self.stats.time_seconds += time.perf_counter() - start
        models.sort(key=lambda assignment: tuple(not value for _, value in assignment))
        self.stats.models_enumerated += len(models)
        self._enum_cache[key] = tuple(models)
        return models

    def _enumerate(self, goal: Term, lits: tuple[Term, ...]):
        if goal.is_false:
            return []
        builder, sat, lit_vars = self._encode(goal, lits)
        sat.priority_vars = tuple(lit_vars)
        found = []
        stack: list[tuple[tuple[int, ...], int, Optional[dict[int, bool]]]] = [((), 0, None)]
        while stack:
            assumptions, index, hint = stack.pop()
            sat.phase_hint = hint or {}
            self.stats.queries += 1
            model = self._solve_encoded(builder, sat, assumptions)
            if model is None:
                self.stats.unsat_results += 1
                continue
            self.stats.sat_results += 1
            values = [model[var] for var in lit_vars]
            found.append(tuple(zip(lits, values)))
            for d in range(index, len(lits)):
                flipped = assumptions + tuple(
                    (var if values[i] else -var)
                    for i, var in enumerate(lit_vars[index:d], start=index)
                )
                flipped += ((-lit_vars[d]) if values[d] else lit_vars[d],)
                stack.append((flipped, d + 1, model))
        return found

    def _encode(self, goal: Term, lits: tuple[Term, ...] = ()):
        instances = instantiate(self.axioms, [goal, *lits], rounds=self.instantiation_rounds)
        builder = CnfBuilder()
        builder.assert_formula(goal)
        for instance in instances:
            builder.assert_formula(instance)
        lit_vars = [builder.var_for_atom(lit) for lit in lits]
        self._install_lemmas(builder)
        self.stats.encodings += 1
        return builder, SatSolver(), lit_vars

    def _solve_encoded(self, builder: CnfBuilder, sat: SatSolver, assumptions=()):
        for _ in range(self.max_lazy_iterations):
            for clause in builder.clauses[sat.num_clauses:]:
                sat.add_clause(clause)
            model = sat.solve_partial(assumptions)
            if model is None:
                return None
            literals = [
                (atom, model[var]) for var, atom in builder.atom_of_var.items() if var in model
            ]
            self.stats.theory_checks += 1
            theory = check_theory(literals)
            if theory.consistent:
                return model
            self.stats.theory_conflicts += 1
            self._remember_lemma(theory.conflict)
            builder.block_assignment(theory.conflict)
        raise SolverError("lazy SMT loop exceeded its iteration budget")
