"""repro.smt.backends — the SAT core behind the lazy SMT loop.

The solver facade (:class:`repro.smt.solver.Solver`) hands every encoded
query to one propositional engine, the DPLL core of :mod:`.dpll`.  The lazy
loop is written against its incremental clause/solve surface:

=====================  ======================================================
``add_clause(s)``      incremental clause addition (DIMACS integer literals)
``ensure_vars(n)``     widen the variable universe
``num_clauses``        *externally added* clauses only — the lazy loop uses
                       it as a cursor when syncing new Tseitin/blocking
                       clauses
``solve_partial(a)``   a partial model satisfying every clause (unassigned
                       variables absent) or ``None`` under assumptions ``a``
``solve(a)``           like ``solve_partial`` but totalised over every
                       variable seen (clauses, assumptions, priorities)
``priority_vars``      variables that must be decided (hence assigned) first
``phase_hint``         preferred branch polarities
``stats_*``            decisions / propagations / conflicts / restarts
=====================  ======================================================

**Determinism contract.**  Given the same sequence of ``add_clause`` /
``solve`` calls, the core returns the same answers *and the same models* on
every run — verdicts, witness traces and every table counter (#SAT and
#Confl included) flow from it.  The contract reaches down to the search
itself: the branch variable is the first unassigned priority variable, else
the first unassigned literal of the first unsatisfied clause; the branch
value is ``phase_hint``'s, else the polarity satisfying that literal
(``True`` for a priority variable); propagation visits watch lists in
trail order.  A speed-up must keep every decision, conflict and
propagation, so ``ReferenceDpllSolver`` in ``tests/smt/sat_oracle.py`` pins
them solve for solve (``tests/smt/test_dpll_reference.py``, on seeded
random sequences and on every solve of a cold fast-corpus run).  A CDCL
core with the same surface lives there too, as an answer oracle: the
differential and fuzzing suites (``tests/smt/test_backend_diff.py``,
``tests/smt/test_backend_fuzz.py``) check that the answers do not depend on
which core searched for them.
"""

from .dpll import SatSolver

__all__ = ["SatSolver"]
