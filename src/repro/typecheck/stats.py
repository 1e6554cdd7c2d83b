"""Per-method verification statistics (the columns of Tables 1, 3 and 4)."""

from __future__ import annotations

from typing import Optional

from ..record import Record
from ..statsutil import StatsTable


class MethodStats(StatsTable):
    """Statistics collected while checking one ADT method."""

    method: str = ""
    branches: int = 0
    operator_applications: int = 0
    #: proof obligations emitted by the checker's walk (before dedupe)
    obligations: int = 0
    smt_queries: int = 0
    #: SMT queries and model enumerations answered from the solver's caches
    smt_cache_hits: int = 0
    #: SAT-core conflicts during those queries (#Confl)
    sat_conflicts: int = 0
    #: SAT-core decisions and unit propagations during those queries
    sat_decisions: int = 0
    sat_propagations: int = 0
    #: CNF encodings (SMT contexts) and theory checks behind those queries
    encodings: int = 0
    theory_checks: int = 0
    fa_inclusion_checks: int = 0
    #: alphabet/minterm constructions (#Alph): one per inclusion decided
    #: for this method, inline or discharged (a store hit replays the
    #: recorded count)
    alphabet_builds: int = 0
    #: product pairs explored during inclusion (#prod-states)
    prod_states: int = 0
    #: obligations answered by the persistent store (warm start, #Store)
    store_hits: int = 0
    #: avg. s_FA: per walk, the distinct lhs- plus rhs-side states it reached
    #: times the alphabet size, averaged over the two automata of each walk
    average_fa_size: float = 0.0
    smt_time_seconds: float = 0.0
    fa_time_seconds: float = 0.0
    total_time_seconds: float = 0.0

    def as_row(self) -> dict[str, object]:
        return {
            "Method": self.method,
            "#Branch": self.branches,
            "#App": self.operator_applications,
            "#Obl": self.obligations,
            "#SAT": self.smt_queries,
            "#SATcache": self.smt_cache_hits,
            "#Confl": self.sat_conflicts,
            "#Inc": self.fa_inclusion_checks,
            "#Alph": self.alphabet_builds,
            "#Prod": self.prod_states,
            "#Store": self.store_hits,
            "avg. sFA": round(self.average_fa_size, 1),
            "tSAT (s)": round(self.smt_time_seconds, 2),
            "tInc (s)": round(self.fa_time_seconds, 2),
            "t (s)": round(self.total_time_seconds, 2),
        }

    def work_counters(self) -> dict[str, int]:
        """The solver work counters that ``evaluate --json`` adds to a method's
        row; the rendered tables leave them out."""
        return {
            "sat_decisions": self.sat_decisions,
            "sat_propagations": self.sat_propagations,
            "encodings": self.encodings,
            "theory_checks": self.theory_checks,
        }

    #: the wall-clock columns of :meth:`as_row` (excluded from determinism
    #: comparisons — every counter column must be byte-identical across
    #: cold, warm and dispatched runs, but times vary run to run)
    TIME_COLUMNS = ("tSAT (s)", "tInc (s)", "t (s)")

    #: columns excluded from cold-vs-warm/dispatched determinism
    #: comparisons: the time columns, plus #Store (by design 0 on a cold run
    #: and >0 on a warm one) and #Alph (a work count of alphabet
    #: constructions, left out of the deterministic renderings so the
    #: pinned tables keep their columns)
    VOLATILE_COLUMNS = TIME_COLUMNS + ("#Store", "#Alph")


class MethodResult(Record):
    """The outcome of verifying one method against its HAT specification."""

    __slots__ = ("method", "verified", "error", "counterexample", "stats")

    def __init__(
        self,
        method: str,
        verified: bool,
        error: Optional[str] = None,
        counterexample: Optional[list[str]] = None,
        stats: Optional[MethodStats] = None,
    ) -> None:
        self.method = method
        self.verified = verified
        self.error = error
        #: the witness trace of the first failing obligation (readable events)
        self.counterexample = counterexample
        self.stats = MethodStats() if stats is None else stats

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.verified


class AdtStats(Record):
    """Aggregate statistics for a whole ADT implementation (Table 1 rows)."""

    __slots__ = (
        "adt", "library", "num_methods", "num_ghosts", "invariant_size",
        "total_time_seconds", "all_verified", "method_results",
    )

    def __init__(
        self,
        adt: str = "",
        library: str = "",
        num_methods: int = 0,
        num_ghosts: int = 0,
        invariant_size: int = 0,
        total_time_seconds: float = 0.0,
        all_verified: bool = True,
        method_results: Optional[list[MethodResult]] = None,
    ) -> None:
        self.adt = adt
        self.library = library
        self.num_methods = num_methods
        self.num_ghosts = num_ghosts
        self.invariant_size = invariant_size
        self.total_time_seconds = total_time_seconds
        self.all_verified = all_verified
        self.method_results = [] if method_results is None else method_results

    def hardest_method(self) -> Optional[MethodResult]:
        """The most complex method (paper: second half of Table 1).

        Ranked by emission-derived complexity (obligations, branches,
        applications) rather than #SAT: the featured method is a property of
        the program, not of how the SAT core's search happened to branch.
        """
        if not self.method_results:
            return None
        return max(
            self.method_results,
            key=lambda r: (r.stats.obligations, r.stats.branches, r.stats.operator_applications),
        )

    def as_row(self) -> dict[str, object]:
        hardest = self.hardest_method()
        row: dict[str, object] = {
            "ADT": self.adt,
            "Library": self.library,
            "#Method": self.num_methods,
            "#Ghost": self.num_ghosts,
            "sI": self.invariant_size,
            "ttotal (s)": round(self.total_time_seconds, 2),
            "verified": self.all_verified,
        }
        if hardest is not None:
            row.update(
                {
                    "#Branch": hardest.stats.branches,
                    "#App": hardest.stats.operator_applications,
                    "#Obl": hardest.stats.obligations,
                    "#SAT": hardest.stats.smt_queries,
                    "#SATcache": hardest.stats.smt_cache_hits,
                    "#Confl": hardest.stats.sat_conflicts,
                    "#FA⊆": hardest.stats.fa_inclusion_checks,
                    "#Alph": hardest.stats.alphabet_builds,
                    "#Prod": hardest.stats.prod_states,
                    "#Store": hardest.stats.store_hits,
                    "avg. sFA": round(hardest.stats.average_fa_size, 1),
                    "tSAT (s)": round(hardest.stats.smt_time_seconds, 2),
                    "tFA⊆ (s)": round(hardest.stats.fa_time_seconds, 2),
                }
            )
        return row
