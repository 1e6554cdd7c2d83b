"""repro.smt.backends — pluggable SAT cores behind the lazy SMT loop.

The solver facade (:class:`repro.smt.solver.Solver`) is generic over the
propositional engine that answers its encoded queries.  A backend is any
object satisfying the :class:`SatBackend` protocol — the incremental
clause/solve surface the original DPLL core established:

=====================  ======================================================
``add_clause(s)``      incremental clause addition (DIMACS integer literals)
``ensure_vars(n)``     widen the variable universe
``num_clauses``        *externally added* clauses only — the lazy loop uses
                       it as a cursor when syncing new Tseitin/blocking
                       clauses, so learned clauses must not inflate it
``solve_partial(a)``   a partial model satisfying every clause (unassigned
                       variables absent) or ``None`` under assumptions ``a``
``solve(a)``           like ``solve_partial`` but totalised
``priority_vars``      variables that must be decided (hence assigned) first
``phase_hint``         preferred branch polarities; may be ignored
``stats_*``            decisions / propagations / conflicts / restarts
=====================  ======================================================

**Determinism contract.**  Given the same sequence of ``add_clause`` /
``solve`` calls, a backend must return the same answers *and the same
models* on every run — verdicts, witness traces and obligation-derived
counters all flow from it.  Which model a backend returns is its own
business (DPLL and CDCL legitimately differ, which is why the
solver-internal ``#SAT``/``#Confl`` counters are per-backend columns), but
the answer itself is semantics and must agree across backends — enforced by
the cross-backend differential and fuzzing suites
(``tests/smt/test_backend_diff.py``, ``tests/smt/test_backend_fuzz.py``).

Adding a backend: implement the protocol, register a zero-argument factory
in :data:`_FACTORIES`, and the differential suite picks it up via
:func:`known_backends`.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Protocol, runtime_checkable

from .cdcl import CdclSolver
from .dpll import SatSolver

#: Default backend when neither the caller nor ``REPRO_BACKEND`` says otherwise.
DEFAULT_BACKEND = "dpll"


@runtime_checkable
class SatBackend(Protocol):
    """The incremental SAT surface the lazy SMT loop is written against."""

    priority_vars: tuple[int, ...]
    phase_hint: dict[int, bool]
    stats_decisions: int
    stats_propagations: int
    stats_conflicts: int
    stats_restarts: int

    def add_clause(self, clause) -> None: ...

    def add_clauses(self, clauses) -> None: ...

    def ensure_vars(self, num_vars: int) -> None: ...

    @property
    def num_vars(self) -> int: ...

    @property
    def num_clauses(self) -> int: ...

    def solve(self, assumptions=()) -> Optional[dict[int, bool]]: ...

    def is_satisfiable(self, assumptions=()) -> bool: ...

    def solve_partial(self, assumptions=()) -> Optional[dict[int, bool]]: ...


#: backend id -> factory
_FACTORIES: dict[str, Callable[[], SatBackend]] = {
    "dpll": SatSolver,
    "cdcl": CdclSolver,
}


def known_backends() -> tuple[str, ...]:
    """Every registered backend id (CLI choices)."""
    return tuple(_FACTORIES)


def resolve_backend(name: Optional[str] = None) -> str:
    """Normalise a backend id: explicit > ``REPRO_BACKEND`` > ``dpll``.

    Raises ``ValueError`` for unknown ids, so misconfiguration fails at
    construction time instead of deep inside a discharge.
    """
    resolved = name or os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND
    if resolved not in _FACTORIES:
        raise ValueError(
            f"unknown solver backend {resolved!r}; known: {', '.join(_FACTORIES)}"
        )
    return resolved


def make_sat_backend(name: Optional[str] = None) -> SatBackend:
    """Instantiate a fresh SAT core for ``name`` (resolved like above)."""
    return _FACTORIES[resolve_backend(name)]()


__all__ = [
    "DEFAULT_BACKEND",
    "SatBackend",
    "SatSolver",
    "CdclSolver",
    "known_backends",
    "make_sat_backend",
    "resolve_backend",
]
