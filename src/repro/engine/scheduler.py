"""Scheduling and discharging proof obligations.

This is the middle stage of the decoupled pipeline:

1. **Emit** — :mod:`repro.typecheck.checker` walks the method body and emits
   :class:`~repro.engine.obligations.Obligation` values instead of deciding
   them inline;
2. **Schedule** — :class:`ObligationEngine` dedupes structurally-isomorphic
   obligations (hash-consed fingerprints) and consults a cross-method memo;
   the remainder is discharged in emission order;
3. **Discharge** — the residual obligations are grouped by alphabet key and
   each group's members are decided by transition-table walks over one
   shared construction (:func:`repro.sfa.batch.discharge_group`); the
   per-member ``SolverStats``/``InclusionStats`` are merged back into the
   caller's tables.

Determinism is a design invariant: every obligation is discharged
*hermetically* — its alphabet is built on a fresh solver (or replayed from
the memo's recorded bill) and its walk depends on nothing but the obligation
— which makes every counter a pure function of the obligation itself.
A dispatch worker (:mod:`repro.engine.worker`) that discharges a leased
subset therefore records exactly the counters a serial run would.
Cross-obligation sharing happens at the obligation level: the batch dedupe
and the cross-method memo answer repeated queries without re-discharge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..obs import trace
from ..obs.logs import get_logger
from ..obs.postmortem import dump_postmortem
from ..sfa.alphabet import AlphabetMemo, LiteralSets, collect_literals
from ..sfa.batch import discharge_group
from ..sfa.inclusion import InclusionStats
from ..sfa.signatures import OperatorRegistry
from ..smt.solver import SolverStats
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
    #: store misses reported to a dispatch coordinator's collect sink
    #: instead of being discharged here (``evaluate --distributed`` phase 1)
    dispatch_collected: int = 0
    #: representatives outside the ``only`` set, vacuously skipped
    dispatch_skipped: int = 0
    batches: int = 0


@dataclass(frozen=True)
class DischargeParams:
    """Everything the engine needs to discharge obligations."""

    operators: OperatorRegistry
    axioms: tuple = ()
    filter_unsat_minterms: bool = True
    max_literals: Optional[int] = None
    #: shared cross-obligation alphabet memo: hermetic constructions with a
    #: recorded counter bill, replayed identically on every hit, so every
    #: counter stays a pure function of the obligation.
    alphabet_memo: Optional[AlphabetMemo] = None


def _discharge_members(
    obligations: Sequence[Obligation],
    params: DischargeParams,
    literal_sets: Optional[LiteralSets] = None,
) -> list[dict]:
    """Discharge one alphabet-sharing group.

    Returns one plain result dict per member (verdict, witness, error,
    counter dicts, wall time).
    """
    memo = params.alphabet_memo
    if memo is None:
        memo = AlphabetMemo(axioms=params.axioms)
    if trace.enabled():
        # the digest is memoised on the frozen obligation and strictly
        # volatile here: it keys the span so the report correlates with
        # `repro store` entries, never the other way around
        group_span = trace.span(
            "discharge.group",
            cat="discharge",
            members=len(obligations),
            obligation_fp=obligation_digest(obligations[0]),
            kind=obligations[0].kind,
        )
    else:
        group_span = trace.span("discharge.group")
    try:
        with group_span:
            results = discharge_group(
                obligations,
                params.operators,
                memo,
                literal_sets=literal_sets,
                max_literals=params.max_literals,
                filter_unsat=params.filter_unsat_minterms,
            )
    except Exception as exc:  # unexpected: capture context, then propagate
        dump_postmortem(
            exc,
            obligation_fp=obligation_digest(obligations[0]),
            context={
                "kind": obligations[0].kind,
                "provenance": obligations[0].provenance,
                "members": [obligation_digest(ob) for ob in obligations],
            },
        )
        raise
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
        library: Optional[str] = None,
        only: Optional[frozenset] = None,
        collect: Optional[Callable[..., None]] = None,
    ) -> None:
        if collect is not None and store is None:
            raise ValueError("dispatch collection requires a store to key against")
        if alphabet_memo is None:
            # grouping IS the memo's content key; a standalone engine gets a
            # private memo (hermetic builds + recorded bills, exactly like the
            # checker-shared one)
            alphabet_memo = AlphabetMemo(axioms=tuple(axioms))
        self.params = DischargeParams(
            operators=operators,
            axioms=tuple(axioms),
            filter_unsat_minterms=filter_unsat_minterms,
            max_literals=max_literals,
            alphabet_memo=alphabet_memo,
        )
        self.store = store
        #: discharge only these obligation digests and vacuously skip the
        #: rest; the empty set is a spawned dispatch worker's warm-up walk
        self.only = only
        #: dispatch-coordinator mode: report each store miss to this sink —
        #: ``collect(env_fp, digest, cost_hint, estimate, obligation,
        #: store_context)`` — instead of discharging it; the obligation and
        #: context are what the coordinator ships to a worker
        self.collect = collect
        #: the semantic-environment key store entries are read/written under;
        #: the memo layers deliberately don't participate (they never change
        #: a counter)
        self._env_fp = (
            environment_fingerprint(
                operators,
                axioms,
                filter_unsat_minterms=filter_unsat_minterms,
                max_literals=max_literals,
                library=library,
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

        if self.store is not None:
            # one batched fetch for the whole batch: a no-op against a local
            # store, a single lookup RPC instead of per-obligation
            # round-trips against a remote one (digests are memoised on the
            # obligation, so the per-representative lookups below are free)
            self.store.prefetch(
                self._env_fp,
                [obligation_digest(representative) for representative, _ in batch],
            )

        #: this batch's verdicts: fingerprint -> (included, counterexample, error)
        verdicts: dict[tuple, tuple[bool, Optional[list[str]], Optional[str]]] = {}
        fresh: list[tuple[Obligation, Optional[str], Optional[StoreContext]]] = []
        memoed_keys: set[tuple] = set()
        stored_keys: set[tuple] = set()
        skipped_keys: set[tuple] = set()
        for representative, aliases in batch:
            self.stats.deduped_aliases += len(aliases)
            key = representative.fingerprint()
            cached = self._memo.get(key)
            if cached is not None:
                memoed_keys.add(key)
                verdicts[key] = cached
                continue
            digest = (
                obligation_digest(representative)
                if self.store is not None or self.only is not None
                else None
            )
            if self.store is not None:
                entry = self.store.lookup(self._env_fp, digest)
                # defensively treat error entries as misses (they are never
                # written by this code path, see below, but an older or
                # hand-edited store could contain them)
                if entry is not None and entry.error is None:
                    self.stats.store_hits += 1
                    stored_keys.add(key)
                    counterexample = (
                        list(entry.counterexample) if entry.counterexample else None
                    )
                    verdict = (entry.included, counterexample, entry.error)
                    verdicts[key] = verdict
                    self._memo[key] = verdict
                    # merge the counters the original discharge produced, so
                    # the tables come out identical to a cold run
                    if solver_stats is not None:
                        solver_stats.merge(SolverStats.from_dict(entry.solver_stats))
                    if inclusion_stats is not None:
                        inclusion_stats.merge(
                            InclusionStats.from_dict(entry.inclusion_stats)
                        )
                    continue
            if self.collect is not None:
                # coordinator collect pass: every store miss goes to the
                # dispatch sink (with the best cost signal available) and is
                # vacuously skipped (never memoised, never persisted) —
                # workers will discharge it, and this run's report is discarded
                self.stats.dispatch_collected += 1
                skipped_keys.add(key)
                verdicts[key] = (True, None, None)
                hint = self.store.cost_hint(digest)
                self.collect(
                    self._env_fp,
                    digest,
                    hint,
                    representative.cost_estimate(),
                    representative,
                    store_context,
                )
                continue
            if self.only is not None and digest not in self.only:
                # outside the ``only`` set: vacuous skip, never memoised,
                # never persisted
                self.stats.dispatch_skipped += 1
                skipped_keys.add(key)
                verdicts[key] = (True, None, None)
                continue
            if self.store is not None:
                self.stats.store_misses += 1
            fresh.append((representative, digest, store_context))

        logger.debug(
            "batch %d: %d emitted, %d fresh (%d memo, %d store, %d skipped)",
            self.stats.batches,
            len(obligation_set),
            len(fresh),
            len(memoed_keys),
            len(stored_keys),
            len(skipped_keys),
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
                    skipped=key in skipped_keys,
                    deduped=deduped,
                )
        return outcomes

    def discharge_leased(self, leased: Sequence[tuple[Obligation, StoreContext]]) -> None:
        """Discharge a dispatch lease's decoded obligations.

        Each verdict is recorded under the store context its item shipped
        with — the context the coordinator's collect pass saw when the
        obligation was emitted — so the entry is the one a serial run
        writes.  The items are known store misses (that is why they were
        queued), so nothing is looked up first; a stolen lease's
        re-discharge is filtered server-side by ``if_absent`` appends.
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
            results = self._discharge_grouped([ob for ob, _, _ in fresh])
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

    # ------------------------------------------------------------------
    # Grouped discharge
    # ------------------------------------------------------------------
    def _group_key(self, obligation: Obligation) -> tuple[tuple, LiteralSets]:
        """The obligation's alphabet-memo key, plus the literal sets it hashes.

        The literal sets ride along to the group's alphabet construction, so
        each obligation's literals are collected once per discharge.
        """
        params = self.params
        literal_sets = collect_literals([obligation.lhs, obligation.rhs], params.operators)
        key = params.alphabet_memo.key_of(
            list(obligation.hypotheses),
            literal_sets,
            max_literals=params.max_literals,
            filter_unsat=params.filter_unsat_minterms,
        )
        return key, literal_sets

    def _discharge_grouped(self, obligations: list[Obligation]) -> list[dict]:
        """Group fresh obligations by alphabet key; discharge group by group.

        Groups keep the batch's first-emission order, and the returned
        list is aligned with ``obligations``: one result dict per obligation,
        each a pure function of that obligation apart from wall-clock time.
        """
        if not obligations:
            return []
        with trace.span("schedule.group", cat="schedule", obligations=len(obligations)):
            groups: dict[tuple, tuple[LiteralSets, list[int]]] = {}
            for position, obligation in enumerate(obligations):
                key, literal_sets = self._group_key(obligation)
                groups.setdefault(key, (literal_sets, []))[1].append(position)
        logger.debug(
            "discharge: %d obligations in %d alphabet groups", len(obligations), len(groups)
        )
        results: list[Optional[dict]] = [None] * len(obligations)
        for literal_sets, members in groups.values():
            group_results = _discharge_members(
                [obligations[i] for i in members], self.params, literal_sets
            )
            for position, member_result in zip(members, group_results):
                results[position] = member_result
        return results
