"""Scheduling and discharging proof obligations.

This is the middle stage of the decoupled pipeline:

1. **Emit** — :mod:`repro.typecheck.checker` walks the method body and emits
   :class:`~repro.engine.obligations.Obligation` values instead of deciding
   them inline;
2. **Schedule** — :class:`ObligationEngine` dedupes structurally-isomorphic
   obligations (hash-consed fingerprints) and answers each representative
   from the cross-method memo, then the persistent store; the remainder is
   discharged in emission order.  This is the one discharge step; a corpus
   run fetches each benchmark's representatives ahead of it in one
   :meth:`ObligationEngine.prefetch`, and a dispatch coordinator
   (:mod:`repro.engine.dispatch`) also asks which ones the store lacks
   (:meth:`ObligationEngine.store_misses` per method), has a worker fleet
   record those, and then runs the same step, which finds them in the store;
3. **Discharge** — each residual obligation is decided on its own, in
   emission order (:func:`discharge_group`): its alphabet comes from the
   shared :class:`~repro.sfa.alphabet.AlphabetMemo` (built, or replayed when
   an earlier obligation shared its key), and one transition-table walk per
   context case decides it; the per-obligation
   ``SolverStats``/``InclusionStats`` are merged back into the caller's
   tables.

Every obligation is discharged *hermetically* — its alphabet is built on a
fresh solver (or replayed from the memo's recorded bill) and its walk
depends on nothing but the obligation — so the discharge counters recorded
per obligation are a pure function of the obligation itself, and a dispatch
worker (:mod:`repro.engine.worker`) that discharges a leased subset records
exactly the counters a serial run would.  A method's *inline* counters (the
walk's own queries on the checker's shared solver) and its memo hits are
not: they carry the checker's history — which methods it walked and
finished before, and what its query cache and learned lemmas hold.
Cross-obligation sharing happens at the obligation level — the batch
dedupe and the cross-method memo answer repeated queries without
re-discharge — and below it only through the alphabet memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..obs import trace
from ..obs.logs import get_logger
from ..obs.postmortem import dump_postmortem
from ..sfa.alphabet import AlphabetError, AlphabetMemo, AlphabetStats
from ..sfa.batch import decide_cases
from ..sfa.derivatives import CompilationError
from ..sfa.inclusion import InclusionStats
from ..sfa.signatures import OperatorRegistry
from ..smt.solver import SolverError, SolverStats
from ..statsutil import MergeableStats
from ..store.fingerprint import environment_fingerprint, obligation_digest
from ..store.obligation_store import ObligationStore, StoreContext, StoreEntry
from .obligations import DischargeOutcome, Obligation, ObligationSet

logger = get_logger("engine")


@dataclass
class EngineStats(MergeableStats):
    """Bookkeeping for the schedule/discharge stages."""

    obligations_emitted: int = 0
    obligations_discharged: int = 0
    #: later emissions answered by an isomorphic representative in the batch
    deduped_aliases: int = 0
    #: representatives answered by the cross-method memo
    memo_hits: int = 0
    #: representatives answered by the persistent store (warm start)
    store_hits: int = 0
    #: representatives that missed the persistent store and were discharged
    store_misses: int = 0
    batches: int = 0


# kept under this name: perfbench's `sfa.walk` layer wraps it by its module path
def discharge_group(
    obligations: Sequence[Obligation],
    operators: OperatorRegistry,
    memo: AlphabetMemo,
    *,
    max_literals: Optional[int] = None,
    filter_unsat: bool = True,
    max_pairs: int = 1_000_000,
) -> list[dict]:
    """Discharge each obligation on its own, in order.

    Returns one plain result dict per obligation (verdict, witness, error,
    counter dicts, wall time), each a pure function of that obligation
    apart from wall-clock time.  An obligation's alphabet comes from
    ``memo``, which replays the recorded construction bill when an earlier
    obligation shared its key, so a replay bills what a build would.
    """
    results = []
    for obligation in obligations:
        if trace.enabled():
            # the digest is memoised on the frozen obligation and strictly
            # volatile here: it keys the span so the report correlates with
            # `repro store` entries, never the other way around
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
                alphabet_stats = AlphabetStats()
                try:
                    alphabets, built = memo.alphabets_for(
                        list(obligation.hypotheses),
                        [obligation.lhs, obligation.rhs],
                        operators,
                        max_literals=max_literals,
                        filter_unsat=filter_unsat,
                        stats=alphabet_stats,
                        solver_stats=solver,
                    )
                    counterexample = decide_cases(
                        alphabets,
                        built,
                        alphabet_stats,
                        obligation.lhs,
                        obligation.rhs,
                        inclusion,
                        max_pairs=max_pairs,
                    )
                except (AlphabetError, SolverError, CompilationError) as exc:
                    # a failed construction bills nothing; a walk over budget
                    # keeps the alphabet and the context cases walked before it
                    error = str(exc)
        except Exception as exc:  # unexpected: capture context, then propagate
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
    """Dedupe and discharge the obligations of one method at a time."""

    def __init__(
        self,
        operators: OperatorRegistry,
        axioms: Sequence = (),
        *,
        filter_unsat_minterms: bool = True,
        max_literals: Optional[int] = None,
        store: Optional[ObligationStore] = None,
        alphabet_memo: Optional[AlphabetMemo] = None,
    ) -> None:
        self.operators = operators
        self.filter_unsat_minterms = filter_unsat_minterms
        self.max_literals = max_literals
        #: shared cross-obligation alphabet memo: hermetic constructions with
        #: a recorded counter bill, replayed identically on every hit; a
        #: standalone engine gets a private one
        if alphabet_memo is None:
            alphabet_memo = AlphabetMemo(axioms=tuple(axioms))
        self.alphabet_memo = alphabet_memo
        self.store = store
        #: the semantic-environment key store entries are read/written under;
        #: the memo layers deliberately don't participate (they never change
        #: a counter)
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
        #: cross-method memo: fingerprint -> (included, counterexample, error);
        #: bounded like every other cache in the pipeline
        self.max_memo_entries = 100_000
        self._memo: dict[tuple, tuple[bool, Optional[list[str]], Optional[str]]] = {}

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
        representative is memo → persistent store → discharge: a store hit
        merges the *recorded* counters (so warm tables match cold ones byte
        for byte), a miss is discharged and written back under
        ``store_context``'s dependency record.
        """
        self.stats.batches += 1
        self.stats.obligations_emitted += len(obligation_set)
        with trace.span("schedule", cat="schedule", obligations=len(obligation_set)):
            batch = obligation_set.deduped()

        self._prefetch(batch)

        #: this batch's verdicts: fingerprint -> (included, counterexample, error)
        verdicts: dict[tuple, tuple[bool, Optional[list[str]], Optional[str]]] = {}
        fresh: list[tuple[Obligation, Optional[str], Optional[StoreContext]]] = []
        memoed_keys: set[tuple] = set()
        stored_keys: set[tuple] = set()
        for representative, aliases in batch:
            self.stats.deduped_aliases += len(aliases)
            key = representative.fingerprint()
            cached = self._memo.get(key)
            if cached is not None:
                memoed_keys.add(key)
                verdicts[key] = cached
                continue
            digest = obligation_digest(representative) if self.store is not None else None
            entry = self._stored(digest)
            if entry is not None:
                self.stats.store_hits += 1
                stored_keys.add(key)
                counterexample = list(entry.counterexample) if entry.counterexample else None
                verdict = (entry.included, counterexample, entry.error)
                verdicts[key] = verdict
                self._memo[key] = verdict
                # merge the counters the original discharge produced, so
                # the tables come out identical to a cold run
                if solver_stats is not None:
                    solver_stats.merge(SolverStats.from_dict(entry.solver_stats))
                if inclusion_stats is not None:
                    inclusion_stats.merge(InclusionStats.from_dict(entry.inclusion_stats))
                continue
            if self.store is not None:
                self.stats.store_misses += 1
            fresh.append((representative, digest, store_context))

        logger.debug(
            "batch %d: %d emitted, %d fresh (%d memo, %d store)",
            self.stats.batches,
            len(obligation_set),
            len(fresh),
            len(memoed_keys),
            len(stored_keys),
        )
        verdicts.update(
            self._discharge_and_record(
                fresh, solver_stats=solver_stats, inclusion_stats=inclusion_stats
            )
        )

        outcomes: dict[int, DischargeOutcome] = {}
        for representative, aliases in batch:
            included, counterexample, error = verdicts[representative.fingerprint()]
            key = representative.fingerprint()
            from_memo = key in memoed_keys
            if from_memo:
                self.stats.memo_hits += 1
            for obligation, deduped in [(representative, False)] + [
                (alias, True) for alias in aliases
            ]:
                outcomes[obligation.index] = DischargeOutcome(
                    obligation=obligation,
                    included=included,
                    counterexample=counterexample,
                    error=error,
                    from_memo=from_memo,
                    from_store=key in stored_keys,
                    deduped=deduped,
                )
        return outcomes

    def store_misses(self, obligation_set: ObligationSet) -> list[tuple[str, str, Obligation]]:
        """The deduped representatives neither the memo nor the store answers.

        Returns ``(env, digest, representative)`` in first-emission order:
        what a dispatch coordinator enqueues before it discharges anything.
        One batched prefetch, then local lookups; no counter moves and no
        memo entry is written, so the later :meth:`discharge_all` of the
        same set bills exactly what it would have billed anyway.
        """
        batch = obligation_set.deduped()
        self._prefetch(batch)
        misses = []
        for representative, _ in batch:
            if representative.fingerprint() in self._memo:
                continue
            digest = obligation_digest(representative)
            if self._stored(digest) is None:
                misses.append((self._env_fp, digest, representative))
        return misses

    def prefetch(self, obligation_sets: Sequence[ObligationSet]) -> None:
        """One batched fetch over several sets' deduped representatives.

        A dispatch coordinator calls it once per benchmark with every emitted
        method's set, so the per-set :meth:`store_misses` queries that follow
        cost no round-trip.
        """
        self._prefetch(
            [pair for obligation_set in obligation_sets for pair in obligation_set.deduped()]
        )

    def _prefetch(self, batch: Sequence[tuple[Obligation, list]]) -> None:
        """One batched fetch for a deduped batch.

        A no-op against a local store (or none); a single lookup RPC instead
        of per-obligation round-trips against a remote one.  Digests are
        memoised on the obligation, so the per-representative lookups that
        follow are free.
        """
        if self.store is not None:
            self.store.prefetch(
                self._env_fp,
                [obligation_digest(representative) for representative, _ in batch],
            )

    def _stored(self, digest: Optional[str]) -> Optional[StoreEntry]:
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
        self._discharge_and_record(
            [(obligation, obligation_digest(obligation), context) for obligation, context in leased]
        )

    def _discharge_and_record(
        self,
        fresh: Sequence[tuple[Obligation, Optional[str], Optional[StoreContext]]],
        *,
        solver_stats: Optional[SolverStats] = None,
        inclusion_stats: Optional[InclusionStats] = None,
    ) -> dict[tuple, tuple[bool, Optional[list[str]], Optional[str]]]:
        """Discharge ``(obligation, digest, context)`` triples; record verdicts.

        Returns fingerprint -> (included, counterexample, error).  Counters
        merge into the caller's tables when given; each verdict is memoised
        and, with a store and a context, written back under that context.
        """
        verdicts: dict[tuple, tuple[bool, Optional[list[str]], Optional[str]]] = {}
        # merging the results back is discharge work too: keep it inside a
        # phase span so the trace attributes it
        with trace.span("discharge.batch", cat="discharge", obligations=len(fresh)):
            results = discharge_group(
                [ob for ob, _, _ in fresh],
                self.operators,
                self.alphabet_memo,
                max_literals=self.max_literals,
                filter_unsat=self.filter_unsat_minterms,
            )
            if len(self._memo) + len(fresh) > self.max_memo_entries:
                self._memo.clear()
            for (representative, digest, store_context), result in zip(fresh, results):
                self.stats.obligations_discharged += 1
                if solver_stats is not None:
                    solver_stats.merge(SolverStats.from_dict(result["solver"]))
                if inclusion_stats is not None:
                    inclusion_stats.merge(InclusionStats.from_dict(result["inclusion"]))
                verdict = (result["included"], result["counterexample"], result["error"])
                verdicts[representative.fingerprint()] = verdict
                self._memo[representative.fingerprint()] = verdict
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
                            kind=representative.kind,
                            provenance=representative.provenance,
                            cost={
                                "wall": round(result.get("wall", 0.0), 6),
                                "queries": result["solver"].get("queries", 0),
                                "prod_states": result["inclusion"].get("prod_states", 0),
                            },
                        )
                    )

        return verdicts
