"""A small iterative DPLL SAT solver with two-watched-literal propagation.

The propositional problems produced by the HAT type checker used to be tiny,
but solver-guided minterm enumeration (``repro.smt.solver``) issues thousands
of incremental queries against clause sets that grow with learned theory
lemmas, so unit propagation must not rescan the whole clause database per
pass.  The engine is therefore the classic iterative scheme (Chaff's watches,
MiniSat's trail):

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

The trail outlives a solve.  Its **root** is level 0 (the unit clauses and
their consequences) plus one level per assumption literal, each propagated
in turn; a solve keeps the root levels its assumptions share with the
previous solve's and backtracks only the rest, so an enumeration that walks
assumption prefixes depth-first re-propagates only what changed (Eén &
Sörensson, "An Extensible SAT-solver", SAT 2003).  The search above the root
is undone when the solve returns.  Adding a clause keeps the root when two
of the clause's literals are not false under it (those two are watched);
otherwise the root is cut back to the deepest level where that holds, and a
new unit clause drops it altogether.

Most queries are tiny (tens of clauses, one decision), so one solve's
interpreter overhead matters as much as its search.  ``solve_partial`` keeps
the whole search in one loop:

* a **truth list** indexed by literal — ``val[lit]`` is ``True``, ``False``
  or ``None`` and ``val[-lit]`` its negation (negative indices wrap), so a
  literal's value is one list read, with no ``abs()`` and no dict;
* **one propagation routine** — enqueueing and the watch-list walk run in
  one call per propagation round, with no per-literal call;
* a **branch cursor** — the index of the first clause not yet known to be
  satisfied (and of the first priority variable not yet known to be
  assigned).  Between a decision and its backtrack assignments only grow,
  so whatever the cursor skipped stays satisfied; each decision pushes the
  cursor and backtracking restores it.  The scan past the cursor skips a
  clause whose watched literal is true without reading the rest of it.
  The branch variable is still the first unassigned variable of the first
  unsatisfied clause, and its value the phase hint's, else the polarity
  that satisfies that literal (``True`` for a priority variable).

The interface is incremental — clauses may be added between ``solve`` calls —
which is what the lazy SMT loop relies on to add theory blocking clauses.

This is the one SAT core of the lazy SMT loop (:mod:`repro.smt.backends`).
Two oracles with the same interface live in the tests
(``tests/smt/sat_oracle.py``): a CDCL core, checked against this one for
answers (``tests/smt/test_backend_diff``, ``tests/smt/test_backend_fuzz``),
and ``ReferenceDpllSolver``, this core's search before the truth list and
the cursor (with the same retained root), checked for the very same
decisions, conflicts and propagations on every solve
(``tests/smt/test_dpll_reference``).
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
        #: literals of unit clauses, asserted at level 0
        self._units: list[int] = []
        #: clause index -> the two currently watched literals of that clause
        self._watched: list[list[int]] = []
        #: literal -> indices of clauses currently watching it
        self._watches: dict[int, list[int]] = {}
        #: the truth list (sized for ``_val_vars`` variables) and the trail;
        #: between solves they hold the retained root only
        self._val: list[Optional[bool]] = [None]
        self._val_vars = 0
        self._trail: list[int] = []
        #: trail length at the end of each retained root level (level 0 first)
        self._roots: list[int] = []
        #: the assumption literal of each retained root level above 0
        self._assumed: list[int] = []
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
        num_vars = self._num_vars
        for lit in clause:
            if lit > num_vars:
                num_vars = lit
            elif -lit > num_vars:
                num_vars = -lit
            elif lit == 0:
                raise ValueError("0 is not a valid literal")
        self._num_vars = num_vars
        index = len(self._clauses)
        self._clauses.append(clause)
        if not clause:
            self._has_empty_clause = True
            self._watched.append([])
        elif len(clause) == 1:
            self._units.append(clause[0])
            self._watched.append([])
            self._cut_roots(0)
        else:
            first, second = self._watch_positions(clause) if self._roots else (0, 1)
            pair = [clause[first], clause[second]]
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

    # -- the retained root ------------------------------------------------------
    def _watch_positions(self, clause: Clause) -> tuple[int, int]:
        """Two positions of ``clause`` whose literals are not false at the root.

        Cuts the root back until there are two: below the level of the
        deepest false literal when one literal is not false, below the
        second deepest when none is.
        """
        size = self._val_vars

        def free_positions() -> list[int]:
            val = self._val
            return [
                position
                for position, lit in enumerate(clause)
                if lit > size or -lit > size or val[lit] is not False
            ]

        free = free_positions()
        if len(free) < 2:
            level: dict[int, int] = {}
            start = 0
            for depth, end in enumerate(self._roots):
                for lit in self._trail[start:end]:
                    level[lit if lit > 0 else -lit] = depth
                start = end
            falsified = sorted(
                (
                    level[lit if lit > 0 else -lit]
                    for position, lit in enumerate(clause)
                    if position not in free
                ),
                reverse=True,
            )
            self._cut_roots(falsified[1 - len(free)])
            free = free_positions()
        return free[0], free[1]

    def _cut_roots(self, keep: int) -> None:
        """Keep root levels ``0 .. keep - 1`` only (``keep == 0``: none)."""
        roots = self._roots
        if keep >= len(roots):
            return
        self._undo(roots[keep - 1] if keep else 0)
        del roots[keep:]
        del self._assumed[max(keep - 1, 0):]

    def _undo(self, mark: int) -> None:
        """Unassign the trail from position ``mark`` on."""
        val, trail = self._val, self._trail
        for lit in trail[mark:]:
            val[lit] = val[-lit] = None
        del trail[mark:]

    def _grow(self, num_vars: int) -> None:
        """Resize the truth list for ``num_vars`` variables, keeping the trail."""
        val: list[Optional[bool]] = [None] * (2 * num_vars + 1)
        for lit in self._trail:
            val[lit] = True
            val[-lit] = False
        self._val = val
        self._val_vars = num_vars

    def _propagate(self, qhead: int) -> bool:
        """Unit propagation over the trail from ``qhead``; ``True`` on conflict."""
        val = self._val
        trail = self._trail
        clauses = self._clauses
        watched_pairs = self._watched
        watches = self._watches
        propagations = 0
        conflict = False
        while qhead < len(trail):
            falsified = -trail[qhead]
            watchers = watches.get(falsified)
            if watchers:
                keep: list[int] = []
                for position, index in enumerate(watchers):
                    pair = watched_pairs[index]
                    if pair[0] == falsified:
                        pair[0], pair[1] = pair[1], falsified
                    other = pair[0]
                    other_value = val[other]
                    if other_value:
                        keep.append(index)
                        continue
                    # a replacement watch: any literal but the two watched
                    # ones that is not false (``falsified`` is false)
                    for candidate in clauses[index]:
                        if val[candidate] is not False and candidate != other:
                            pair[1] = candidate
                            watches.setdefault(candidate, []).append(index)
                            break
                    else:
                        keep.append(index)
                        if other_value is None:
                            propagations += 1
                            val[other] = True
                            val[-other] = False
                            trail.append(other)
                        else:
                            # every literal of the clause is false
                            keep.extend(watchers[position + 1:])
                            conflict = True
                            break
                watches[falsified] = keep
                if conflict:
                    break
            qhead += 1
        self.stats_propagations += propagations
        return conflict

    # -- solving ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = ()) -> Optional[dict[int, bool]]:
        """Return a satisfying assignment ``{var: bool}`` or ``None`` if UNSAT.

        ``assumptions`` are literals that must hold in the returned model.
        The returned model assigns every variable seen by the solver —
        in a clause, an assumption or ``priority_vars`` (variables not
        constrained by any clause default to ``False``).
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

        The model lists the variables in trail order: level 0, then each
        assumption's level, then the search.
        """
        if self._has_empty_clause:
            return None
        assumptions = tuple(assumptions)
        roots = self._roots
        assumed = self._assumed
        # the root levels these assumptions share with the retained ones
        shared = 0
        if roots:
            limit = min(len(assumed), len(assumptions))
            while shared < limit and assumed[shared] == assumptions[shared]:
                shared += 1
        priority = self.priority_vars
        num_vars = self._num_vars
        for lit in assumptions[shared:]:
            if lit > num_vars:
                num_vars = lit
            elif -lit > num_vars:
                num_vars = -lit
            elif lit == 0:
                raise ValueError("0 is not a valid literal")
        for var in priority:
            if var > num_vars:
                num_vars = var
        self._num_vars = num_vars
        if num_vars > self._val_vars:
            self._grow(num_vars)

        #: literal -> True / False / None; ``val[-lit]`` wraps to the negation
        val = self._val
        trail = self._trail
        # -- the root: keep the levels these assumptions share, assert the rest --
        if roots:
            self._cut_roots(shared + 1)
        else:
            for lit in self._units:
                value = val[lit]
                if value is None:
                    val[lit] = True
                    val[-lit] = False
                    trail.append(lit)
                elif not value:
                    self._undo(0)
                    return None
            if self._propagate(0):
                self._undo(0)
                return None
            roots.append(len(trail))
        for lit in assumptions[len(assumed):]:
            value = val[lit]
            if value is None:
                mark = len(trail)
                val[lit] = True
                val[-lit] = False
                trail.append(lit)
                if self._propagate(mark):
                    self._undo(mark)
                    return None
            elif not value:
                return None
            assumed.append(lit)
            roots.append(len(trail))

        clauses = self._clauses
        num_clauses = len(clauses)
        watched_pairs = self._watched
        phase_hint = self.phase_hint
        root = qhead = len(trail)
        decisions = 0
        conflicts = 0
        #: branch cursor: every priority variable before ``priority_cursor`` is
        #: assigned, and every clause before ``clause_cursor`` is satisfied or
        #: has every literal false (which conflict-free propagation rules
        #: out); growing the assignment keeps both, so the picker skips them
        priority_cursor = 0
        clause_cursor = 0
        #: decision stack: (trail length before the decision, var, value,
        #: flipped, the branch cursor valid for that trail prefix)
        stack: list[tuple[int, int, bool, bool, int, int]] = []
        model: Optional[dict[int, bool]] = None
        while True:
            if qhead < len(trail) and self._propagate(qhead):
                if not stack:
                    break  # refuted before any decision
                conflicts += 1
                # -- chronological backtracking to the last unflipped decision ----
                while stack:
                    mark, var, value, flipped, priority_cursor, clause_cursor = stack.pop()
                    for lit in trail[mark:]:
                        val[lit] = val[-lit] = None
                    del trail[mark:]
                    qhead = mark
                    if not flipped:
                        value = not value
                        stack.append((mark, var, value, True, priority_cursor, clause_cursor))
                        lit = var if value else -var
                        val[lit] = True
                        val[-lit] = False
                        trail.append(lit)
                        break
                else:
                    break  # both branches of every decision refuted
                continue
            qhead = len(trail)

            # -- branch: priority variables first, then the first unsatisfied clause --
            var = 0
            default = True
            while priority_cursor < len(priority):
                candidate = priority[priority_cursor]
                if val[candidate] is None:
                    var = candidate
                    break
                priority_cursor += 1
            if not var:
                for index in range(clause_cursor, num_clauses):
                    pair = watched_pairs[index]
                    if pair and (val[pair[0]] or val[pair[1]]):
                        continue  # satisfied by a watched literal
                    free = 0
                    for lit in clauses[index]:
                        value = val[lit]
                        if value:
                            break
                        if value is None and not free:
                            free = lit
                    else:
                        if free:
                            var = free if free > 0 else -free
                            default = free > 0
                            clause_cursor = index
                            break
                if not var:
                    model = {(lit if lit > 0 else -lit): lit > 0 for lit in trail}
                    break
            value = phase_hint.get(var, default)
            decisions += 1
            stack.append((len(trail), var, value, False, priority_cursor, clause_cursor))
            lit = var if value else -var
            val[lit] = True
            val[-lit] = False
            trail.append(lit)

        self._undo(root)
        self.stats_decisions += decisions
        self.stats_conflicts += conflicts
        return model
