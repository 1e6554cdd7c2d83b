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
``solve(a)``           like ``solve_partial`` but totalised
``priority_vars``      variables that must be decided (hence assigned) first
``phase_hint``         preferred branch polarities
``stats_*``            decisions / propagations / conflicts / restarts
=====================  ======================================================

**Determinism contract.**  Given the same sequence of ``add_clause`` /
``solve`` calls, the core returns the same answers *and the same models* on
every run — verdicts, witness traces and every table counter (#SAT and
#Confl included) flow from it.  A CDCL core with the same surface lives in
the tests (``tests/smt/sat_oracle.py``) as an oracle: the differential and
fuzzing suites (``tests/smt/test_backend_diff.py``,
``tests/smt/test_backend_fuzz.py``) check that the answers do not depend on
which core searched for them.
"""

from .dpll import SatSolver

__all__ = ["SatSolver"]
