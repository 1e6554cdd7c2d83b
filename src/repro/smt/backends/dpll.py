"""A small iterative DPLL SAT solver with two-watched-literal propagation.

The propositional problems produced by the HAT type checker used to be tiny,
but solver-guided minterm enumeration (``repro.smt.solver``) issues thousands
of incremental queries against clause sets that grow with learned theory
lemmas, so unit propagation must not rescan the whole clause database per
pass.  The engine is therefore the classic iterative scheme:

* **two watched literals** per clause — assigning a variable only touches the
  clauses watching the falsified literal;
* a **trail** with chronological backtracking (plain DPLL, no clause
  learning — theory lemmas arrive from outside via ``add_clause``);
* **branch priorities** (``priority_vars``) so minterm enumeration can force
  the tracked literals to be decided first, and **phase hints**
  (``phase_hint``) so enumeration can steer the search toward a known-good
  completion from a neighbouring subtree;
* **partial models**: ``solve_partial`` stops as soon as every clause is
  satisfied and returns only the assigned variables, which keeps downstream
  lazy theory checking focused on literals the search actually asserted.

The interface is incremental — clauses may be added between ``solve`` calls —
which is what the lazy SMT loop relies on to add theory blocking clauses.

This is the one SAT core of the lazy SMT loop (:mod:`repro.smt.backends`).
A CDCL core with the same interface lives in the tests as an oracle
(``tests/smt/sat_oracle.py``); the differential suites
(``tests/smt/test_backend_diff``, ``tests/smt/test_backend_fuzz``) check the
two against each other.
"""

from __future__ import annotations

from typing import Iterable, Optional

Clause = tuple[int, ...]


class SatSolver:
    """Incremental DPLL solver over integer literals (DIMACS convention)."""

    def __init__(self) -> None:
        self._clauses: list[Clause] = []
        self._num_vars = 0
        self._has_empty_clause = False
        #: literals of unit clauses, asserted at the start of every solve
        self._units: list[int] = []
        #: clause index -> the two currently watched literals of that clause
        self._watched: list[list[int]] = []
        #: literal -> indices of clauses currently watching it
        self._watches: dict[int, list[int]] = {}
        #: variables branched on first (in order) before the generic heuristic;
        #: used by minterm enumeration so every tracked literal is decided even
        #: once all clauses are satisfied.
        self.priority_vars: tuple[int, ...] = ()
        #: preferred branch values (phase saving); model enumeration seeds this
        #: with the parent subtree's theory-consistent model so neighbouring
        #: minterms reuse a known-good completion instead of rediscovering one
        #: theory conflict at a time.
        self.phase_hint: dict[int, bool] = {}
        self.stats_decisions = 0
        self.stats_propagations = 0
        self.stats_conflicts = 0
        #: always 0 — plain DPLL never restarts; present so the solver reads
        #: the same counter surface from this core and the test oracle
        self.stats_restarts = 0

    # -- problem construction ---------------------------------------------------
    def add_clause(self, clause: Iterable[int]) -> None:
        clause = tuple(clause)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._num_vars = max(self._num_vars, abs(lit))
        index = len(self._clauses)
        self._clauses.append(clause)
        if not clause:
            self._has_empty_clause = True
            self._watched.append([])
        elif len(clause) == 1:
            self._units.append(clause[0])
            self._watched.append([])
        else:
            pair = [clause[0], clause[1]]
            self._watched.append(pair)
            self._watches.setdefault(pair[0], []).append(index)
            self._watches.setdefault(pair[1], []).append(index)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def ensure_vars(self, num_vars: int) -> None:
        self._num_vars = max(self._num_vars, num_vars)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    # -- solving ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = ()) -> Optional[dict[int, bool]]:
        """Return a satisfying assignment ``{var: bool}`` or ``None`` if UNSAT.

        ``assumptions`` are literals that must hold in the returned model.
        The returned model assigns every variable seen by the solver (variables
        not constrained by any clause default to ``False``).
        """
        result = self.solve_partial(assumptions)
        if result is None:
            return None
        return {v: result.get(v, False) for v in range(1, self._num_vars + 1)}

    def is_satisfiable(self, assumptions: Iterable[int] = ()) -> bool:
        return self.solve_partial(assumptions) is not None

    def solve_partial(self, assumptions: Iterable[int] = ()) -> Optional[dict[int, bool]]:
        """Like :meth:`solve` but leaves irrelevant variables unassigned.

        The returned partial assignment satisfies every clause; variables the
        search never had to touch are simply absent.  Callers doing lazy
        theory checking should prefer this: an unassigned atom imposes no
        theory constraint, whereas defaulting it manufactures literals the
        theory solver then has to refute one blocking clause at a time.
        """
        if self._has_empty_clause:
            return None
        assign: dict[int, bool] = {}
        trail: list[int] = []
        qhead = 0

        def enqueue(lit: int) -> bool:
            var = abs(lit)
            value = lit > 0
            current = assign.get(var)
            if current is not None:
                return current == value
            assign[var] = value
            trail.append(lit)
            return True

        def propagate() -> bool:
            nonlocal qhead
            while qhead < len(trail):
                if not self._propagate_literal(trail[qhead], assign, enqueue):
                    return False
                qhead += 1
            return True

        for lit in self._units:
            if not enqueue(lit):
                return None
        for lit in assumptions:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._num_vars = max(self._num_vars, abs(lit))
            if not enqueue(lit):
                return None
        if not propagate():
            return None

        # Variables assigned before the first decision keep their values for
        # the whole search, so any clause they satisfy stays satisfied; the
        # branch picker uses this to skip a growing prefix of the clause DB.
        level0_vars = frozenset(assign)
        scan_state = [0]

        #: decision stack: (trail length before the decision, var, value, flipped)
        decisions: list[tuple[int, int, bool, bool]] = []
        while True:
            var = self._pick_branch_var(assign, level0_vars, scan_state)
            if var is None:
                return dict(assign)
            value = self.phase_hint.get(var, True)
            self.stats_decisions += 1
            decisions.append((len(trail), var, value, False))
            enqueue(var if value else -var)
            while not propagate():
                self.stats_conflicts += 1
                while decisions:
                    mark, dvar, dvalue, flipped = decisions.pop()
                    for lit in trail[mark:]:
                        del assign[abs(lit)]
                    del trail[mark:]
                    qhead = mark
                    if not flipped:
                        decisions.append((mark, dvar, not dvalue, True))
                        enqueue(dvar if not dvalue else -dvar)
                        break
                else:
                    return None

    # -- internals ----------------------------------------------------------------
    def _propagate_literal(self, lit: int, assign: dict[int, bool], enqueue) -> bool:
        """Visit the clauses watching ``-lit``; ``False`` on conflict."""
        falsified = -lit
        watchers = self._watches.get(falsified)
        if not watchers:
            return True
        keep: list[int] = []
        for position, index in enumerate(watchers):
            watched = self._watched[index]
            if watched[0] == falsified:
                watched[0], watched[1] = watched[1], watched[0]
            other = watched[0]
            other_value = assign.get(abs(other))
            if other_value is not None and other_value == (other > 0):
                keep.append(index)
                continue
            replacement = 0
            for candidate in self._clauses[index]:
                if candidate == other or candidate == falsified:
                    continue
                candidate_value = assign.get(abs(candidate))
                if candidate_value is None or candidate_value == (candidate > 0):
                    replacement = candidate
                    break
            if replacement:
                watched[1] = replacement
                self._watches.setdefault(replacement, []).append(index)
                continue
            keep.append(index)
            if other_value is None:
                self.stats_propagations += 1
                enqueue(other)
            else:
                # every literal of the clause is false: conflict
                keep.extend(watchers[position + 1:])
                self._watches[falsified] = keep
                return False
        self._watches[falsified] = keep
        return True

    def _pick_branch_var(
        self,
        assign: dict[int, bool],
        level0_vars: frozenset[int] = frozenset(),
        scan_state: Optional[list[int]] = None,
    ) -> Optional[int]:
        """Priority variables first, then a literal from the first unsatisfied clause.

        ``scan_state`` holds the index below which every clause is known to be
        satisfied by a level-0 variable (immutable for this solve); the prefix
        is skipped and extended greedily, so repeated decisions do not rescan
        the clauses unit propagation of the root assignment already satisfied.
        """
        for var in self.priority_vars:
            if var not in assign:
                return var
        start = scan_state[0] if scan_state is not None else 0
        for index in range(start, len(self._clauses)):
            clause = self._clauses[index]
            unassigned = 0
            satisfied_by = 0
            for lit in clause:
                value = assign.get(abs(lit))
                if value is None:
                    if unassigned == 0:
                        unassigned = abs(lit)
                elif value == (lit > 0):
                    satisfied_by = abs(lit)
                    break
            if satisfied_by:
                if scan_state is not None and index == scan_state[0] and satisfied_by in level0_vars:
                    scan_state[0] += 1
                continue
            if unassigned:
                return unassigned
        return None
