"""SAT cores kept as test oracles for the production DPLL core.

Production answers every encoded query with the DPLL core
(:class:`repro.smt.backends.dpll.SatSolver`).  This module keeps an
independent conflict-driven core with the same incremental interface, so the
differential suites (``test_backend_diff.py``, ``test_backend_fuzz.py``) can
check that the lazy SMT loop's answers do not depend on which core searched
for them; :func:`use_cdcl_core` swaps it in for a whole test.

Same incremental interface as the DPLL core — clauses may be added between
``solve`` calls, ``priority_vars`` are decided first, ``phase_hint`` steers
branch polarity, and ``solve_partial`` stops as soon as every clause is
satisfied — but the search is conflict-driven:

* **1-UIP clause learning** — every conflict is analysed back to the first
  unique implication point; the learned clause is attached permanently (it is
  a logical consequence of the input clauses, so it stays valid across the
  incremental ``solve`` calls of one encoding) and its asserting literal is
  enqueued after a non-chronological backjump;
* **VSIDS-style activity** — variables involved in conflict analysis are
  bumped and decisions pick the highest-activity unassigned variable, with
  the increment decayed geometrically per conflict; ties break toward the
  lowest variable index so runs are deterministic;
* **Luby restarts** — the conflict budget between restarts follows the Luby
  sequence (scaled by ``restart_base``), and restarts keep the learned
  clauses and phase saving, so repeated work is bounded;
* **incremental assumptions** — assumption literals are re-asserted as the
  first decisions after every restart/backjump (the MiniSat scheme), which is
  what lets ``Solver.enumerate_models`` drive one shared encoding through
  thousands of assumption-prefixed queries while pushing blocking clauses.

Learned clauses are internal: :attr:`num_clauses` counts only externally
added clauses, because the lazy SMT loop uses it as a cursor for syncing new
Tseitin/blocking clauses from its ``CnfBuilder``.

:class:`ReferenceDpllSolver` is the production core's search as it stood
before its truth list and branch cursor, with the same root kept across
solves: the decision-level differential (``test_dpll_reference.py``) checks
that the production core makes exactly the same decisions, conflicts and
propagations.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.smt import solver as solver_module

Clause = tuple[int, ...]

#: Unit of the Luby restart schedule, in conflicts.
RESTART_BASE = 64

#: Geometric decay applied to the VSIDS increment after every conflict.
VARIABLE_DECAY = 0.95


def luby(index: int) -> int:
    """The ``index``-th element (1-based) of the Luby sequence: 1 1 2 1 1 2 4 …"""
    x = index - 1
    size, exponent = 1, 0
    while size < x + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        exponent -= 1
        x %= size
    return 1 << exponent


class CdclSolver:
    """Incremental CDCL solver over integer literals (DIMACS convention).

    Drop-in for :class:`repro.smt.backends.dpll.SatSolver`: same construction
    surface, same solve contract (a partial model satisfying every clause, or
    ``None``), same determinism guarantees — given the same clause/solve
    sequence, the search is bit-for-bit reproducible.
    """

    def __init__(self) -> None:
        #: every clause the solver knows, external first come first; learned
        #: clauses are appended here too but not counted by :attr:`num_clauses`
        self._clauses: list[Clause] = []
        self._external_clauses = 0
        self._num_vars = 0
        self._has_empty_clause = False
        #: literals of unit clauses (external and learned), asserted at level 0
        self._units: list[int] = []
        #: clause index -> the two currently watched literals of that clause
        self._watched: list[list[int]] = []
        #: literal -> indices of clauses currently watching it
        self._watches: dict[int, list[int]] = {}
        #: variables branched on first (in order) before the VSIDS heuristic
        self.priority_vars: tuple[int, ...] = ()
        #: preferred branch values; overrides phase saving when present
        self.phase_hint: dict[int, bool] = {}
        #: VSIDS activity; persists across solve calls of one instance
        self._activity: dict[int, float] = {}
        self._variable_increment = 1.0
        #: last polarity assigned per variable (phase saving across restarts)
        self._saved_phase: dict[int, bool] = {}
        self.stats_decisions = 0
        self.stats_propagations = 0
        self.stats_conflicts = 0
        self.stats_restarts = 0
        self.stats_learned_clauses = 0
        # per-call search state (reset by solve_partial)
        self._assign: dict[int, bool] = {}
        self._level: dict[int, int] = {}
        self._reason: dict[int, Optional[int]] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0

    # -- problem construction ---------------------------------------------------
    def add_clause(self, clause: Iterable[int]) -> None:
        clause = tuple(clause)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._num_vars = max(self._num_vars, abs(lit))
        self._external_clauses += 1
        self._attach(clause)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def _attach(self, clause: Clause) -> int:
        """Store ``clause`` and set up its watches; returns its index."""
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
        return index

    def ensure_vars(self, num_vars: int) -> None:
        self._num_vars = max(self._num_vars, num_vars)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        """Externally added clauses only — the sync cursor of the lazy loop."""
        return self._external_clauses

    # -- solving ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = ()) -> Optional[dict[int, bool]]:
        """A total satisfying assignment ``{var: bool}`` or ``None`` if UNSAT."""
        result = self.solve_partial(assumptions)
        if result is None:
            return None
        return {v: result.get(v, False) for v in range(1, self._num_vars + 1)}

    def is_satisfiable(self, assumptions: Iterable[int] = ()) -> bool:
        return self.solve_partial(assumptions) is not None

    def solve_partial(self, assumptions: Iterable[int] = ()) -> Optional[dict[int, bool]]:
        """Like :meth:`solve` but leaves irrelevant variables unassigned.

        The returned partial assignment satisfies every clause the solver
        knows.  Assumption literals hold in any returned model; ``None`` means
        the clauses are unsatisfiable *under the assumptions*.
        """
        if self._has_empty_clause:
            return None
        assumptions = tuple(assumptions)
        for lit in assumptions:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._num_vars = max(self._num_vars, abs(lit))
        for variable in self.priority_vars:
            self._num_vars = max(self._num_vars, variable)

        self._assign = {}
        self._level = {}
        self._reason = {}
        self._trail = []
        self._trail_lim = []
        self._qhead = 0

        for lit in self._units:
            if not self._enqueue(lit, None):
                return None
        if self._propagate() is not None:
            return None

        # Clauses satisfied by the root (level-0) assignment stay satisfied
        # for the whole search; the satisfaction scan skips that growing prefix.
        level0_vars = frozenset(self._assign)
        scan_state = [0]

        restart_index = 1
        conflict_budget = RESTART_BASE * luby(restart_index)
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats_conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    return None
                learnt, backjump = self._analyze(conflict)
                self._backtrack(backjump)
                self._learn(learnt)
                self._decay_activities()
                continue
            if conflicts_since_restart >= conflict_budget:
                self.stats_restarts += 1
                restart_index += 1
                conflict_budget = RESTART_BASE * luby(restart_index)
                conflicts_since_restart = 0
                self._backtrack(0)
                continue
            level = self._decision_level()
            if level < len(assumptions):
                # re-assert the next assumption as a decision (MiniSat scheme:
                # survives restarts and backjumps into the assumption prefix)
                lit = assumptions[level]
                value = self._assign.get(abs(lit))
                if value is None:
                    self._new_decision_level()
                    self._enqueue(lit, None)
                elif value == (lit > 0):
                    self._new_decision_level()  # dummy level keeps indices aligned
                else:
                    return None  # the assumption is refuted by implied literals
                continue
            variable = self._pick_branch_variable(level0_vars, scan_state)
            if variable is None:
                return dict(self._assign)
            value = self.phase_hint.get(
                variable, self._saved_phase.get(variable, True)
            )
            self.stats_decisions += 1
            self._new_decision_level()
            self._enqueue(variable if value else -variable, None)

    # -- trail management ---------------------------------------------------------
    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        variable = abs(lit)
        value = lit > 0
        current = self._assign.get(variable)
        if current is not None:
            return current == value
        self._assign[variable] = value
        self._level[variable] = self._decision_level()
        self._reason[variable] = reason
        self._trail.append(lit)
        return True

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        mark = self._trail_lim[level]
        for lit in self._trail[mark:]:
            variable = abs(lit)
            self._saved_phase[variable] = lit > 0
            del self._assign[variable]
            del self._level[variable]
            del self._reason[variable]
        del self._trail[mark:]
        del self._trail_lim[level:]
        self._qhead = mark

    # -- propagation ----------------------------------------------------------------
    def _propagate(self) -> Optional[int]:
        """Exhaust the queue; returns a conflicting clause index or ``None``."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            conflict = self._propagate_literal(lit)
            if conflict is not None:
                return conflict
        return None

    def _propagate_literal(self, lit: int) -> Optional[int]:
        """Visit the clauses watching ``-lit``; a conflict index or ``None``."""
        falsified = -lit
        watchers = self._watches.get(falsified)
        if not watchers:
            return None
        assign = self._assign
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
                self._enqueue(other, index)
            else:
                # every literal of the clause is false: conflict
                keep.extend(watchers[position + 1:])
                self._watches[falsified] = keep
                return index
        self._watches[falsified] = keep
        return None

    # -- conflict analysis (1-UIP) ----------------------------------------------------
    def _analyze(self, conflict_index: int) -> tuple[list[int], int]:
        """Resolve the conflict back to the first UIP of the current level.

        Returns ``(learnt, backjump_level)``: ``learnt[0]`` is the asserting
        literal (unassigned after backjumping), ``learnt[1]`` — when present —
        is a literal of the backjump level, so attaching the clause with its
        first two literals watched is immediately correct.
        """
        current_level = self._decision_level()
        learnt: list[int] = [0]  # placeholder for the asserting literal
        seen: set[int] = set()
        pending = 0  # current-level variables awaiting resolution
        resolved_literal: Optional[int] = None
        index = len(self._trail) - 1
        clause: Clause = self._clauses[conflict_index]
        while True:
            for lit in clause:
                if lit == resolved_literal:
                    continue
                variable = abs(lit)
                if variable in seen:
                    continue
                level = self._level[variable]
                if level == 0:
                    continue  # root-level facts never need to be learned
                seen.add(variable)
                self._bump_activity(variable)
                if level == current_level:
                    pending += 1
                else:
                    learnt.append(lit)
            while abs(self._trail[index]) not in seen:
                index -= 1
            resolved_literal = self._trail[index]
            variable = abs(resolved_literal)
            pending -= 1
            index -= 1
            if pending == 0:
                learnt[0] = -resolved_literal
                break
            # not the UIP, so it was propagated: resolve with its reason clause
            reason = self._reason[variable]
            assert reason is not None, "decision reached before the first UIP"
            clause = self._clauses[reason]
        if len(learnt) == 1:
            return learnt, 0
        deepest = max(
            range(1, len(learnt)), key=lambda i: self._level[abs(learnt[i])]
        )
        learnt[1], learnt[deepest] = learnt[deepest], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    def _learn(self, learnt: list[int]) -> None:
        """Attach the learned clause and enqueue its asserting literal."""
        self.stats_learned_clauses += 1
        clause = tuple(learnt)
        if len(clause) == 1:
            # permanent root-level fact: future solve calls assert it with the
            # external units, this call enqueues it at the current (0) level
            self._units.append(clause[0])
            self._watched.append([])
            self._clauses.append(clause)
            self._enqueue(clause[0], None)
            return
        # _attach stores and watches without touching the external count:
        # learned clauses are internal and invisible to the sync cursor
        index = self._attach(clause)
        self._enqueue(clause[0], index)

    # -- VSIDS --------------------------------------------------------------------
    def _bump_activity(self, variable: int) -> None:
        activity = self._activity.get(variable, 0.0) + self._variable_increment
        self._activity[variable] = activity
        if activity > 1e100:
            for var in self._activity:
                self._activity[var] *= 1e-100
            self._variable_increment *= 1e-100

    def _decay_activities(self) -> None:
        self._variable_increment /= VARIABLE_DECAY

    def _pick_branch_variable(
        self, level0_vars: frozenset[int], scan_state: list[int]
    ) -> Optional[int]:
        """Priority variables first; else the VSIDS-best variable, or ``None``.

        ``None`` means every clause is already satisfied by the current
        partial assignment (the scan skips and greedily extends the prefix of
        clauses satisfied at level 0, exactly like the DPLL core), so the
        search can stop with a partial model.
        """
        for variable in self.priority_vars:
            if variable not in self._assign:
                return variable
        assign = self._assign
        unsatisfied = False
        for index in range(scan_state[0], len(self._clauses)):
            clause = self._clauses[index]
            satisfied_by = 0
            for lit in clause:
                value = assign.get(abs(lit))
                if value is not None and value == (lit > 0):
                    satisfied_by = abs(lit)
                    break
            if satisfied_by:
                if index == scan_state[0] and satisfied_by in level0_vars:
                    scan_state[0] += 1
                continue
            unsatisfied = True
            break
        if not unsatisfied:
            return None
        best: Optional[int] = None
        best_activity = -1.0
        for variable in range(1, self._num_vars + 1):
            if variable in assign:
                continue
            activity = self._activity.get(variable, 0.0)
            if activity > best_activity:
                best, best_activity = variable, activity
        return best


class ReferenceDpllSolver:
    """The DPLL core as it searched before its truth list and branch cursor.

    Kept as the decision-level oracle of ``test_dpll_reference.py``: the
    production core must make exactly the same decisions, so every partial
    model and every ``stats_decisions`` / ``stats_conflicts`` /
    ``stats_propagations`` count must match.  It retains its root the way
    the core does: level 0 (the units and their consequences) and one level
    per assumption outlive a solve, a solve keeps the levels its assumptions
    share with the previous one, and a clause that would be unit or false
    at the root cuts the root back before its watches are chosen.
    """

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
        #: the assignment and the trail; between solves, the root only
        self._assign: dict[int, bool] = {}
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
            self._cut_roots(0)
        else:
            first, second = self._watch_positions(clause)
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
    def _is_false(self, lit: int) -> bool:
        value = self._assign.get(abs(lit))
        return value is not None and value != (lit > 0)

    def _watch_positions(self, clause: Clause) -> tuple[int, int]:
        free = [i for i, lit in enumerate(clause) if not self._is_false(lit)]
        if len(free) >= 2:
            return free[0], free[1]
        levels = []
        for lit in clause:
            if self._is_false(lit):
                position = self._trail.index(-lit)
                levels.append(
                    next(depth for depth, end in enumerate(self._roots) if position < end)
                )
        levels.sort(reverse=True)
        self._cut_roots(levels[1 - len(free)])
        free = [i for i, lit in enumerate(clause) if not self._is_false(lit)]
        return free[0], free[1]

    def _cut_roots(self, keep: int) -> None:
        if keep >= len(self._roots):
            return
        self._undo(self._roots[keep - 1] if keep else 0)
        del self._roots[keep:]
        del self._assumed[max(keep - 1, 0):]

    def _undo(self, mark: int) -> None:
        for lit in self._trail[mark:]:
            del self._assign[abs(lit)]
        del self._trail[mark:]

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
        assumptions = tuple(assumptions)
        for lit in assumptions:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self._num_vars = max(self._num_vars, abs(lit))
        assign = self._assign
        trail = self._trail
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

        if self._roots:
            shared = 0
            while (
                shared < min(len(self._assumed), len(assumptions))
                and self._assumed[shared] == assumptions[shared]
            ):
                shared += 1
            self._cut_roots(shared + 1)
        else:
            for lit in self._units:
                if not enqueue(lit):
                    self._undo(0)
                    return None
            if not propagate():
                self._undo(0)
                return None
            self._roots.append(len(trail))
        for lit in assumptions[len(self._assumed):]:
            current = assign.get(abs(lit))
            if current is None:
                mark = qhead = len(trail)
                enqueue(lit)
                if not propagate():
                    self._undo(mark)
                    return None
            elif current != (lit > 0):
                return None
            self._assumed.append(lit)
            self._roots.append(len(trail))
        root = qhead = len(trail)

        # Variables assigned before the first decision keep their values for
        # the whole search, so any clause they satisfy stays satisfied; the
        # branch picker uses this to skip a growing prefix of the clause DB.
        level0_vars = frozenset(assign)
        scan_state = [0]

        #: decision stack: (trail length before the decision, var, value, flipped)
        decisions: list[tuple[int, int, bool, bool]] = []
        try:
            while True:
                pick = self._pick_branch_var(assign, level0_vars, scan_state)
                if pick is None:
                    return dict(assign)
                var = abs(pick)
                value = self.phase_hint.get(var, pick > 0)
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
        finally:
            self._undo(root)

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

        Returns the literal to branch on: a priority variable (positive), or
        the first unassigned literal of the first unsatisfied clause, whose
        polarity is the branch value when no phase hint names its variable.

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
                        unassigned = lit
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


def use_cdcl_core(monkeypatch) -> None:
    """Make every SMT query for the rest of the test run on :class:`CdclSolver`.

    ``Solver`` instantiates its SAT core through the ``repro.smt.solver``
    module global.
    """
    monkeypatch.setattr(solver_module, "SatSolver", CdclSolver)
