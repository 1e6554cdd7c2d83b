"""Per-method verification statistics (the columns of Tables 1, 3 and 4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class MethodStats:
    """Statistics collected while checking one ADT method."""

    method: str = ""
    branches: int = 0
    operator_applications: int = 0
    #: proof obligations emitted by the checker's walk (before dedupe)
    obligations: int = 0
    smt_queries: int = 0
    #: SMT queries and model enumerations answered from the solver's caches
    smt_cache_hits: int = 0
    #: SAT-core conflicts during those queries (#Confl — backend-internal,
    #: like #SAT: DPLL and CDCL legitimately differ here and nowhere else)
    sat_conflicts: int = 0
    fa_inclusion_checks: int = 0
    #: alphabet/minterm constructions actually enumerated (#Alph) — volatile:
    #: whether a check builds or reuses depends on what the shared
    #: cross-obligation memo saw earlier in the process, so, like #Store,
    #: this may read 0 on a warm run that built nothing
    alphabet_builds: int = 0
    #: alphabet constructions answered by the cross-obligation memo (which
    #: replays the recorded counter bill, so every other column stays put)
    alphabet_memo_hits: int = 0
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

    #: the wall-clock columns of :meth:`as_row` (excluded from determinism
    #: comparisons — every counter column must be byte-identical across
    #: cold, warm and dispatched runs, but times vary run to run)
    TIME_COLUMNS = ("tSAT (s)", "tInc (s)", "t (s)")

    #: columns excluded from cold-vs-warm/dispatched determinism
    #: comparisons: the time columns, plus #Store (by design 0 on a cold run
    #: and >0 on a warm one), #Alph (how many alphabet constructions a
    #: method *ran* depends on what the shared cross-obligation memo already
    #: held — the memo replays recorded counters, so everything else is
    #: deterministic, but the build count itself is reuse bookkeeping)
    VOLATILE_COLUMNS = TIME_COLUMNS + ("#Store", "#Alph")

    #: solver-internal columns: deterministic for a *fixed* backend (they
    #: participate in cold-vs-warm and dispatched comparisons) but
    #: legitimately different *between* backends — which model a SAT core
    #: returns steers the guided enumeration's branching.  Everything else in
    #: :meth:`counter_row` must be byte-identical across dpll/cdcl.
    BACKEND_SENSITIVE_COLUMNS = ("#SAT", "#Confl")

    def counter_row(self) -> dict[str, object]:
        """The :meth:`as_row` columns that are deterministic counters."""
        return {
            key: value
            for key, value in self.as_row().items()
            if key not in self.VOLATILE_COLUMNS
        }


@dataclass
class MethodResult:
    """The outcome of verifying one method against its HAT specification."""

    method: str
    verified: bool
    error: Optional[str] = None
    #: the witness trace of the first failing obligation (readable events)
    counterexample: Optional[list[str]] = None
    stats: MethodStats = field(default_factory=MethodStats)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.verified


@dataclass
class AdtStats:
    """Aggregate statistics for a whole ADT implementation (Table 1 rows)."""

    adt: str = ""
    library: str = ""
    num_methods: int = 0
    num_ghosts: int = 0
    invariant_size: int = 0
    total_time_seconds: float = 0.0
    all_verified: bool = True
    method_results: list[MethodResult] = field(default_factory=list)

    def hardest_method(self) -> Optional[MethodResult]:
        """The most complex method (paper: second half of Table 1).

        Ranked by emission-derived complexity (obligations, branches,
        applications) rather than #SAT: the selection must not depend on the
        solver backend, or Table 1's obligation-derived columns would change
        between ``--backend dpll`` and ``--backend cdcl`` merely because a
        different method was featured.
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
