"""Scheduling and discharging proof obligations.

This is the middle stage of the decoupled pipeline:

1. **Emit** — :mod:`repro.typecheck.checker` walks the method body and emits
   :class:`~repro.engine.obligations.Obligation` values instead of deciding
   them inline;
2. **Schedule** — :class:`ObligationEngine` keys every obligation by its
   content digest (:func:`~repro.store.fingerprint.obligation_digest`):
   a digest the verdict map already holds, or one emitted earlier in the
   batch, is answered without work; the persistent store answers the
   next; the remainder is discharged in emission order.  This is the one
   discharge step; a corpus run fetches each benchmark's digests ahead of
   it in one :meth:`ObligationEngine.prefetch`, and a dispatch coordinator
   (:mod:`repro.engine.dispatch`) also asks which ones the store lacks
   (:meth:`ObligationEngine.store_misses` per method), has a worker fleet
   record those, and then runs the same step, which finds them in the store;
3. **Discharge** — each residual obligation is decided on its own, in
   emission order (:func:`discharge_group`), by
   :func:`~repro.sfa.inclusion.decide_inclusion`: its alphabet is built on
   a fresh solver, and one transition-table walk per context case decides
   it; the per-obligation ``SolverStats``/``InclusionStats`` are merged back
   into the caller's tables.

Every obligation is discharged *hermetically* — its alphabet is built on a
fresh solver and its walk depends on nothing but the obligation — so the
discharge counters recorded per obligation are a pure function of the
obligation itself, and a dispatch worker (:mod:`repro.engine.worker`) that
discharges a leased subset records exactly the counters a serial run
would.  A method's *inline* counters (the walk's own queries on the
checker's shared solver) are not: they carry the checker's history —
which methods it walked and finished before, and what its query cache and
learned lemmas hold.  Cross-obligation sharing happens only at the
obligation level: the verdict map answers a repeated digest, within a batch
or across methods, without re-discharge.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..obs import trace
from ..obs.logs import get_logger
from ..sfa.alphabet import AlphabetError
from ..sfa.derivatives import CompilationError
from ..sfa.inclusion import InclusionStats, decide_inclusion
from ..sfa.signatures import OperatorRegistry
from ..smt.solver import SolverError, SolverStats
from ..statsutil import MergeableStats
from ..store.fingerprint import environment_fingerprint, obligation_digest
from ..store.obligation_store import ObligationStore, StoreContext, StoreEntry
from .obligations import DischargeOutcome, Obligation, ObligationSet

logger = get_logger("engine")


class EngineStats(MergeableStats):
    """Bookkeeping for the schedule/discharge stages."""

    obligations_emitted: int = 0
    obligations_discharged: int = 0
    #: later emissions of a digest already emitted in the same batch
    deduped_aliases: int = 0
    #: digests a batch found answered before it began (cross-method memo)
    memo_hits: int = 0
    #: digests answered by the persistent store (warm start)
    store_hits: int = 0
    #: digests that missed the persistent store and were discharged
    store_misses: int = 0
    batches: int = 0


# kept under this name: perfbench's `sfa.walk` layer wraps it by its module path
def discharge_group(
    obligations: Sequence[Obligation],
    operators: OperatorRegistry,
    axioms: Sequence,
    *,
    max_literals: Optional[int] = None,
    filter_unsat: bool = True,
    max_pairs: int = 1_000_000,
) -> list[dict]:
    """Discharge each obligation on its own, in order, under ``axioms``.

    Returns one plain result dict per obligation (verdict, witness, error,
    counter dicts, wall time), each a pure function of that obligation
    apart from wall-clock time.
    """
    results = []
    for obligation in obligations:
        if trace.enabled():
            # the engine's key, memoised on the frozen obligation: it keys
            # the span so the report correlates with `repro store` entries
            span = trace.span(
                "discharge",
                cat="discharge",
                obligation_fp=obligation_digest(obligation),
                kind=obligation.kind,
            )
        else:
            span = trace.span("discharge")
        started = time.perf_counter()
        inclusion = InclusionStats()
        solver = SolverStats()
        counterexample = error = None
        try:
            with span:
                try:
                    counterexample = decide_inclusion(
                        obligation.hypotheses,
                        obligation.lhs,
                        obligation.rhs,
                        operators,
                        axioms,
                        inclusion,
                        solver,
                        max_literals=max_literals,
                        filter_unsat=filter_unsat,
                        max_pairs=max_pairs,
                    )
                except (AlphabetError, SolverError, CompilationError) as exc:
                    # a failed construction bills nothing; a walk over budget
                    # keeps the alphabet and the context cases walked before it
                    error = str(exc)
        except Exception as exc:  # unexpected: capture context, then propagate
            from ..obs.postmortem import dump_postmortem

            dump_postmortem(
                exc,
                obligation_fp=obligation_digest(obligation),
                context={"kind": obligation.kind, "provenance": obligation.provenance},
            )
            raise
        results.append(
            {
                "included": counterexample is None and error is None,
                "counterexample": counterexample,
                "error": error,
                "inclusion": inclusion.as_dict(),
                "solver": solver.as_dict(),
                "wall": time.perf_counter() - started,
            }
        )
    return results


class ObligationEngine:
    """Answer and discharge the obligations of one method at a time."""

    def __init__(
        self,
        operators: OperatorRegistry,
        axioms: Sequence = (),
        *,
        filter_unsat_minterms: bool = True,
        max_literals: Optional[int] = None,
        store: Optional[ObligationStore] = None,
    ) -> None:
        self.operators = operators
        self.axioms = tuple(axioms)
        self.filter_unsat_minterms = filter_unsat_minterms
        self.max_literals = max_literals
        self.store = store
        #: the semantic-environment key store entries are read/written under
        self._env_fp = (
            environment_fingerprint(
                operators,
                axioms,
                filter_unsat_minterms=filter_unsat_minterms,
                max_literals=max_literals,
            )
            if store is not None
            else None
        )
        self.stats = EngineStats()
        #: the verdict map: obligation digest -> (included, counterexample,
        #: error); cleared at the start of a batch once it outgrows the cap
        self.max_memo_entries = 100_000
        self._memo: dict[str, tuple[bool, Optional[list[str]], Optional[str]]] = {}

    # ------------------------------------------------------------------
    def discharge_all(
        self,
        obligation_set: ObligationSet,
        *,
        solver_stats: Optional[SolverStats] = None,
        inclusion_stats: Optional[InclusionStats] = None,
        store_context: Optional[StoreContext] = None,
    ) -> dict[int, DischargeOutcome]:
        """Discharge a batch; returns one outcome per emitted obligation.

        ``solver_stats``/``inclusion_stats`` are the caller's aggregate tables
        (typically the checker's); per-obligation counters are merged into
        them, exactly as the inline design accumulated them.  Lookup order per
        digest is memo → persistent store → discharge: a store hit merges the
        *recorded* counters (so warm tables match cold ones byte for byte), a
        miss is discharged and written back under ``store_context``'s
        dependency record.  Later emissions of a digest share its verdict.
        """
        self.stats.batches += 1
        self.stats.obligations_emitted += len(obligation_set)
        if len(self._memo) > self.max_memo_entries:
            self._memo.clear()
        store_hits = 0
        #: digest -> first emission, for the digests nothing answers yet
        fresh: dict[str, Obligation] = {}
        with trace.span("schedule", cat="schedule", obligations=len(obligation_set)):
            self.prefetch([obligation_set])
            for obligation in obligation_set:
                digest = obligation_digest(obligation)
                if digest in self._memo or digest in fresh:
                    continue
                entry = self._stored(digest)
                if entry is None:
                    fresh[digest] = obligation
                    continue
                store_hits += 1
                counterexample = list(entry.counterexample) if entry.counterexample else None
                self._memo[digest] = (entry.included, counterexample, entry.error)
                # merge the counters the original discharge produced, so
                # the tables come out identical to a cold run
                if solver_stats is not None:
                    solver_stats.merge(SolverStats.from_dict(entry.solver_stats))
                if inclusion_stats is not None:
                    inclusion_stats.merge(InclusionStats.from_dict(entry.inclusion_stats))
        distinct = len({obligation_digest(obligation) for obligation in obligation_set})
        memo_hits = distinct - len(fresh) - store_hits
        self.stats.deduped_aliases += len(obligation_set) - distinct
        self.stats.memo_hits += memo_hits
        self.stats.store_hits += store_hits
        if self.store is not None:
            self.stats.store_misses += len(fresh)
        logger.debug(
            "batch %d: %d emitted, %d fresh (%d memo, %d store)",
            self.stats.batches,
            len(obligation_set),
            len(fresh),
            memo_hits,
            store_hits,
        )
        self._discharge_and_record(
            [(obligation, digest, store_context) for digest, obligation in fresh.items()],
            solver_stats=solver_stats,
            inclusion_stats=inclusion_stats,
        )

        outcomes: dict[int, DischargeOutcome] = {}
        for obligation in obligation_set:
            included, counterexample, error = self._memo[obligation_digest(obligation)]
            outcomes[obligation.index] = DischargeOutcome(
                obligation=obligation,
                included=included,
                counterexample=counterexample,
                error=error,
            )
        return outcomes

    def store_misses(self, obligation_set: ObligationSet) -> list[tuple[str, str, Obligation]]:
        """The digests neither the memo nor the store answers.

        Returns ``(env, digest, first emission)`` in first-emission order:
        what a dispatch coordinator enqueues before it discharges anything.
        One batched prefetch, then local lookups; no counter moves and no
        memo entry is written, so the later :meth:`discharge_all` of the
        same set bills exactly what it would have billed anyway.
        """
        self.prefetch([obligation_set])
        misses: dict[str, Obligation] = {}
        for obligation in obligation_set:
            digest = obligation_digest(obligation)
            if digest in self._memo or digest in misses:
                continue
            if self._stored(digest) is None:
                misses[digest] = obligation
        return [(self._env_fp, digest, obligation) for digest, obligation in misses.items()]

    def prefetch(self, obligation_sets: Sequence[ObligationSet]) -> None:
        """One batched fetch over several sets' digests (the store fetches
        each unique digest once).

        A no-op against a local store (or none); a single lookup RPC instead
        of per-obligation round-trips against a remote one.  A corpus run
        calls it once per benchmark with every emitted method's set, so the
        per-set lookups that follow cost no round-trip.
        """
        if self.store is not None:
            self.store.prefetch(
                self._env_fp,
                [
                    obligation_digest(obligation)
                    for obligation_set in obligation_sets
                    for obligation in obligation_set
                ],
            )

    def _stored(self, digest: str) -> Optional[StoreEntry]:
        """The store's usable entry for ``digest`` (None without a store).

        Error entries read as misses: this engine never writes them (see
        :meth:`_discharge_and_record`), but an older or hand-edited store
        could contain them.
        """
        if self.store is None:
            return None
        entry = self.store.lookup(self._env_fp, digest)
        return entry if entry is not None and entry.error is None else None

    def discharge_leased(self, leased: Sequence[tuple[Obligation, StoreContext]]) -> None:
        """Discharge a dispatch lease's decoded obligations.

        Each verdict is recorded under the store context its item shipped
        with — the context the coordinator saw when it emitted the
        obligation — so the entry is the one a serial run writes.  The
        items are known store misses (that is why they were queued), so
        nothing is looked up first; a stolen lease's re-discharge is
        filtered server-side by ``if_absent`` appends.
        """
        if len(self._memo) > self.max_memo_entries:
            self._memo.clear()
        self._discharge_and_record(
            [(obligation, obligation_digest(obligation), context) for obligation, context in leased]
        )

    def _discharge_and_record(
        self,
        fresh: Sequence[tuple[Obligation, str, Optional[StoreContext]]],
        *,
        solver_stats: Optional[SolverStats] = None,
        inclusion_stats: Optional[InclusionStats] = None,
    ) -> None:
        """Discharge ``(obligation, digest, context)`` triples; record verdicts.

        Counters merge into the caller's tables when given; each verdict is
        memoised under its digest and, with a store and a context, written
        back under that context.
        """
        # merging the results back is discharge work too: keep it inside a
        # phase span so the trace attributes it
        with trace.span("discharge.batch", cat="discharge", obligations=len(fresh)):
            results = discharge_group(
                [ob for ob, _, _ in fresh],
                self.operators,
                self.axioms,
                max_literals=self.max_literals,
                filter_unsat=self.filter_unsat_minterms,
            )
            for (obligation, digest, store_context), result in zip(fresh, results):
                self.stats.obligations_discharged += 1
                if solver_stats is not None:
                    solver_stats.merge(SolverStats.from_dict(result["solver"]))
                if inclusion_stats is not None:
                    inclusion_stats.merge(InclusionStats.from_dict(result["inclusion"]))
                self._memo[digest] = (result["included"], result["counterexample"], result["error"])
                # Resource-limit errors are NOT persisted: a budget hit by a small
                # `check --method` run must not be replayed as a permanent
                # failure by a full `evaluate` whose budgets differ.  True
                # verdicts (included, or a genuine counterexample) are pure in the
                # obligation and safe to keep forever.
                if (
                    self.store is not None
                    and store_context is not None
                    and result["error"] is None
                ):
                    self.store.record(
                        StoreEntry(
                            env=self._env_fp,
                            fp=digest,
                            included=result["included"],
                            counterexample=result["counterexample"],
                            error=result["error"],
                            solver_stats=result["solver"],
                            inclusion_stats=result["inclusion"],
                            scope=store_context.scope,
                            method=store_context.method,
                            spec=store_context.spec_digest,
                            library=store_context.library_digest,
                            kind=obligation.kind,
                            provenance=obligation.provenance,
                            cost={
                                "wall": round(result.get("wall", 0.0), 6),
                                "queries": result["solver"].get("queries", 0),
                                "prod_states": result["inclusion"].get("prod_states", 0),
                            },
                        )
                    )
