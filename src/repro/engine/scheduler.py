"""Scheduling and discharging proof obligations (serially or in parallel).

This is the middle stage of the decoupled pipeline:

1. **Emit** — :mod:`repro.typecheck.checker` walks the method body and emits
   :class:`~repro.engine.obligations.Obligation` values instead of deciding
   them inline;
2. **Schedule** — :class:`ObligationEngine` dedupes structurally-isomorphic
   obligations (hash-consed fingerprints), consults a cross-method memo, and
   orders the remainder cheapest-first;
3. **Discharge** — the residual obligations are grouped by alphabet key and
   each group is decided by one transition-table walk
   (:func:`repro.sfa.batch.discharge_group`), either in-process or on a
   ``fork``-based process pool (``workers=N``); the per-member
   ``SolverStats``/``InclusionStats`` are merged back into the caller's
   tables.

Determinism is a design invariant: every obligation is discharged
*hermetically* — its alphabet is built on a fresh solver (or replayed from
the memo's recorded bill) and its walk depends on nothing but the obligation
— which makes every counter a pure function of the obligation itself.
``workers=4`` therefore produces byte-identical statistics tables to
``workers=1`` (wall-clock times aside), which the determinism suite asserts.
Cross-obligation sharing happens at the obligation level: the batch dedupe
and the cross-method memo answer repeated queries without re-discharge.

The pool uses the ``fork`` start method deliberately: terms and SFA formulas
are hash-consed with identity semantics, and forked children inherit the
parent's interned universe, so obligations cross the process boundary by
reference (a module-level snapshot taken just before the fork) while results
travel back as plain picklable dicts.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..obs import trace
from ..obs.logs import get_logger
from ..obs.postmortem import dump_postmortem
from ..sfa.alphabet import AlphabetMemo, LiteralSets, collect_literals
from ..sfa.batch import discharge_group
from ..sfa.derivatives import DerivativeCache
from ..sfa.inclusion import InclusionStats
from ..sfa.signatures import OperatorRegistry
from ..smt.solver import SolverStats
from ..statsutil import MergeableStats
from ..store.fingerprint import environment_fingerprint, obligation_digest, shard_of
from ..store.obligation_store import ObligationStore, StoreContext, StoreEntry
from .obligations import DischargeOutcome, Obligation, ObligationSet

#: The supported values of ``ObligationEngine(..., schedule=...)``:
#: ``auto`` picks the cost model with LPT under a pool and cheapest-first
#: serially; the explicit modes exist for ablations and the determinism suite.
SCHEDULE_MODES = ("auto", "syntactic", "cost", "lpt")

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
    #: representatives assigned to another shard (not discharged here)
    shard_skipped: int = 0
    #: store misses reported to a dispatch coordinator's collect sink
    #: instead of being discharged here (``evaluate --distributed`` phase 1)
    dispatch_collected: int = 0
    #: representatives outside a worker's leased ``only`` set (not ours)
    dispatch_skipped: int = 0
    #: representatives ordered by a recorded store cost (vs. the syntactic
    #: estimate fallback) — order is advisory, so this is bookkeeping only
    cost_hints_used: int = 0
    batches: int = 0
    parallel_batches: int = 0
    #: alphabet-sharing groups discharged set-at-a-time
    batch_groups: int = 0
    #: obligations those groups covered (every fresh one)
    batch_grouped_obligations: int = 0
    #: SMT queries the groups actually executed (one construction per group,
    #: zero on a memo hit) vs. what the deterministic tables bill (the
    #: recorded construction replayed into every member) — the coalescing win
    batch_queries_executed: int = 0
    batch_queries_billed: int = 0
    #: distinct AlphabetMemo keys forked workers reported building (their
    #: entries die with the fork; the keys come back as eager-build hints)
    worker_memo_keys: int = 0
    #: hinted constructions the parent pre-built before forking a later batch
    memo_eager_builds: int = 0


@dataclass(frozen=True)
class DischargeParams:
    """Everything a (possibly forked) worker needs to discharge obligations.

    Never pickled: obligations and params cross the pool boundary via the
    forked heap, only plain result dicts travel back.
    """

    operators: OperatorRegistry
    axioms: tuple = ()
    filter_unsat_minterms: bool = True
    max_literals: Optional[int] = None
    strategy: str = "guided"
    #: which SAT core answers the alphabet constructions' queries
    backend: str = "dpll"
    #: shared cross-obligation alphabet memo: hermetic constructions with a
    #: recorded counter bill, replayed identically on every hit.  Serially
    #: the engine's memo grows across batches; forked workers read it through
    #: copy-on-write and their additions die with them — either way every
    #: counter stays a pure function of the obligation.  Never pickled.
    alphabet_memo: Optional[AlphabetMemo] = None
    #: shared cross-obligation memo for derivative steps (pure reuse: it can
    #: change wall-clock time only, never a verdict or a counter)
    derivative_cache: Optional[DerivativeCache] = None


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _discharge_group_payload(
    obligations: Sequence[Obligation],
    params: DischargeParams,
    literal_sets: Optional[LiteralSets] = None,
) -> dict:
    """Discharge one alphabet-sharing group, in-process or on a forked worker.

    Either way the return value is a plain picklable dict: one result per
    member (verdict, witness, error, counter dicts, wall time), the group's
    query-coalescing record, and the memo keys this group built (the
    worker-reuse hints; empty without a shared memo, whose keys would mean
    nothing to the caller).
    """
    memo = params.alphabet_memo
    shared = memo is not None
    if memo is None:
        memo = AlphabetMemo(axioms=params.axioms, backend=params.backend)
    keys_before = len(memo.session_built_keys)
    spans_mark = trace.mark()
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
            results, record = discharge_group(
                obligations,
                params.operators,
                memo,
                literal_sets=literal_sets,
                max_literals=params.max_literals,
                filter_unsat=params.filter_unsat_minterms,
                strategy=params.strategy,
                derivative_cache=params.derivative_cache,
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
    payload = {
        "members": results,
        "group": record.as_dict(),
        "memo_keys": list(memo.session_built_keys[keys_before:]) if shared else [],
    }
    # spans ride home in the result dict exactly like the stats do: drained
    # here (a forked worker's buffer dies with it) and re-ingested by the
    # engine under this worker's pid
    worker_spans = trace.drain(spans_mark)
    if worker_spans:
        payload["spans"] = worker_spans
    return payload


#: Snapshot handed to forked workers: the groups (members plus their shared
#: literal sets) and the params.  Set immediately before the pool forks and
#: cleared right after; children address the hash-consed obligation objects
#: through the inherited heap.
_POOL_GROUPS: Optional[
    tuple[list[tuple[list[Obligation], LiteralSets]], DischargeParams]
] = None


def _discharge_group_index(index: int) -> dict:
    assert _POOL_GROUPS is not None, "worker invoked outside a group batch"
    groups, params = _POOL_GROUPS
    members, literal_sets = groups[index]
    return _discharge_group_payload(members, params, literal_sets)


class ObligationEngine:
    """Dedupe, order and discharge the obligations of one method at a time."""

    def __init__(
        self,
        operators: OperatorRegistry,
        axioms: Sequence = (),
        *,
        filter_unsat_minterms: bool = True,
        max_literals: Optional[int] = None,
        strategy: str = "guided",
        backend: str = "dpll",
        workers: int = 1,
        store: Optional[ObligationStore] = None,
        shard: Optional[tuple[int, int]] = None,
        schedule: str = "auto",
        alphabet_memo: Optional[AlphabetMemo] = None,
        derivative_cache: Optional[DerivativeCache] = None,
        library: Optional[str] = None,
        only: Optional[frozenset] = None,
        collect: Optional[Callable[[Optional[str], str, Optional[float], float], None]] = None,
    ) -> None:
        if schedule not in SCHEDULE_MODES:
            raise ValueError(
                f"unknown schedule mode {schedule!r}; expected one of {SCHEDULE_MODES}"
            )
        if collect is not None and store is None:
            raise ValueError("dispatch collection requires a store to key against")
        if alphabet_memo is None:
            # grouping IS the memo's content key; a standalone engine gets a
            # private memo (hermetic builds + recorded bills, exactly like the
            # checker-shared one)
            alphabet_memo = AlphabetMemo(axioms=tuple(axioms), backend=backend)
        self.params = DischargeParams(
            operators=operators,
            axioms=tuple(axioms),
            filter_unsat_minterms=filter_unsat_minterms,
            max_literals=max_literals,
            strategy=strategy,
            backend=backend,
            alphabet_memo=alphabet_memo,
            derivative_cache=derivative_cache,
        )
        self.workers = workers
        self.store = store
        self.schedule = schedule
        if shard is not None:
            index, count = shard
            if not (count >= 1 and 0 <= index < count):
                raise ValueError(f"invalid shard assignment {shard!r}")
        self.shard = shard
        #: dispatch-worker mode: discharge only these obligation digests and
        #: vacuously skip the rest (same contract as a shard slice, but the
        #: membership comes from a queue lease instead of a hash)
        self.only = only
        #: dispatch-coordinator mode: report each store miss to this sink —
        #: ``collect(env_fp, digest, cost_hint, estimate)`` — instead of
        #: discharging it; the report is discarded like a shard run's
        self.collect = collect
        #: the semantic-environment key store entries are read/written under;
        #: worker count, shard assignment, scheduling order and the memo
        #: layers deliberately don't participate (none changes a counter)
        self._env_fp = (
            environment_fingerprint(
                operators,
                axioms,
                filter_unsat_minterms=filter_unsat_minterms,
                max_literals=max_literals,
                strategy=strategy,
                backend=backend,
                library=library,
            )
            if store is not None
            else None
        )
        self.stats = EngineStats()
        #: per-group coalescing records of this engine's discharges:
        #: ``{members, built, queries_executed, queries_billed, ...}`` dicts
        #: in scheduling order (surfaced by ``repro bench`` and ``--json``)
        self.batch_group_log: list[dict] = []
        #: AlphabetMemo keys forked workers reported building; the parent
        #: pre-builds hinted keys before forking the next batch so the
        #: construction is inherited copy-on-write instead of re-run per fork
        self._eager_memo_hints: set[tuple] = set()
        #: cross-method memo: fingerprint -> (included, counterexample, error);
        #: bounded like every other cache in the pipeline
        self.max_memo_entries = 100_000
        self._memo: dict[tuple, tuple[bool, Optional[list[str]], Optional[str]]] = {}

    # ------------------------------------------------------------------
    def _schedule(self, obligation_set: ObligationSet):
        """Order the deduped batch under the configured scheduling policy.

        ``auto`` (the default) orders by *historical* discharge cost when the
        store has seen an obligation before — longest-processing-time-first
        under a process pool (cuts the makespan), cheapest-first serially
        (keeps first-failure latency low) — and falls back to the syntactic
        ``cost_estimate()`` for obligations no store entry has ever costed.
        Order is advisory: discharge is hermetic, so no policy can change a
        verdict or a deterministic table (locked in by the scheduling-order
        determinism suite).
        """
        mode = self.schedule
        longest_first = mode == "lpt" or (mode == "auto" and self.workers > 1)
        cost_of: Optional[Callable[[Obligation], Optional[float]]] = None
        if mode != "syntactic" and self.store is not None:
            store = self.store

            def cost_of(representative: Obligation) -> Optional[float]:
                hint = store.cost_hint(obligation_digest(representative))
                if hint is not None:
                    self.stats.cost_hints_used += 1
                return hint

        return obligation_set.schedule(cost_of=cost_of, longest_first=longest_first)

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
            scheduled = self._schedule(obligation_set)

        if self.store is not None:
            # one batched fetch for the whole batch: a no-op against a local
            # store, a single lookup RPC instead of per-obligation
            # round-trips against a remote one (digests are memoised on the
            # obligation, so the per-representative lookups below are free)
            self.store.prefetch(
                self._env_fp,
                [obligation_digest(representative) for representative, _ in scheduled],
            )

        #: this batch's verdicts: fingerprint -> (included, counterexample, error)
        verdicts: dict[tuple, tuple[bool, Optional[list[str]], Optional[str]]] = {}
        fresh: list[tuple[Obligation, Optional[str]]] = []
        memoed_keys: set[tuple] = set()
        stored_keys: set[tuple] = set()
        skipped_keys: set[tuple] = set()
        for representative, aliases in scheduled:
            self.stats.deduped_aliases += len(aliases)
            key = representative.fingerprint()
            cached = self._memo.get(key)
            if cached is not None:
                memoed_keys.add(key)
                verdicts[key] = cached
                continue
            digest = (
                obligation_digest(representative)
                if self.store is not None
                or self.shard is not None
                or self.only is not None
                or self.collect is not None
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
            if self.shard is not None:
                index, count = self.shard
                if shard_of(digest, count) != index:
                    # another shard owns this fingerprint: report a vacuous
                    # verdict (never memoised, never persisted) — shard runs
                    # exist to warm the store, their reports are discarded
                    self.stats.shard_skipped += 1
                    skipped_keys.add(key)
                    verdicts[key] = (True, None, None)
                    continue
            if self.collect is not None:
                # coordinator collect pass: every store miss goes to the
                # dispatch sink (with the best cost signal available) and is
                # vacuously skipped here — workers will discharge it, and
                # this run's report is discarded like a shard run's
                self.stats.dispatch_collected += 1
                skipped_keys.add(key)
                verdicts[key] = (True, None, None)
                hint = self.store.cost_hint(digest) if self.store is not None else None
                self.collect(
                    self._env_fp, digest, hint, representative.cost_estimate()
                )
                continue
            if self.only is not None and digest not in self.only:
                # dispatch-worker pass: this obligation belongs to another
                # lease — vacuous skip, exactly like a foreign shard slice
                self.stats.dispatch_skipped += 1
                skipped_keys.add(key)
                verdicts[key] = (True, None, None)
                continue
            if self.store is not None:
                self.stats.store_misses += 1
            fresh.append((representative, digest))

        logger.debug(
            "batch %d: %d emitted, %d fresh (%d memo, %d store, %d shard-skipped)",
            self.stats.batches,
            len(obligation_set),
            len(fresh),
            len(memoed_keys),
            len(stored_keys),
            len(skipped_keys),
        )
        # merging the results back is discharge work too: keep it inside a
        # phase span so the trace attributes it
        with trace.span("discharge.batch", cat="discharge", obligations=len(fresh)):
            results = self._discharge_grouped([ob for ob, _ in fresh])
            if len(self._memo) + len(fresh) > self.max_memo_entries:
                self._memo.clear()
            for (representative, digest), result in zip(fresh, results):
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

        outcomes: dict[int, DischargeOutcome] = {}
        for representative, aliases in scheduled:
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
            strategy=params.strategy,
        )
        return key, literal_sets

    def _prebuild_hinted(self, keyed_obligations) -> None:
        """Build worker-hinted alphabet constructions in the parent.

        Pure reuse: the memo's hermetic build + recorded bill means a member
        that would have built now replays the identical counters (only the
        volatile ``#Alph`` attribution moves), but the construction crosses
        the next fork copy-on-write instead of being re-run in every worker.
        """
        memo = self.params.alphabet_memo
        if not memo.enabled or not self._eager_memo_hints:
            return
        for key, obligation in keyed_obligations:
            if key in self._eager_memo_hints and key not in memo:
                memo.alphabets_for(
                    list(obligation.hypotheses),
                    [obligation.lhs, obligation.rhs],
                    self.params.operators,
                    max_literals=self.params.max_literals,
                    filter_unsat=self.params.filter_unsat_minterms,
                    strategy=self.params.strategy,
                )
                self.stats.memo_eager_builds += 1

    def _note_worker_keys(self, key_lists) -> None:
        for keys in key_lists:
            for key in keys:
                if key not in self._eager_memo_hints:
                    self._eager_memo_hints.add(key)
                    self.stats.worker_memo_keys += 1
        if len(self._eager_memo_hints) > 4096:
            self._eager_memo_hints.clear()

    def _discharge_grouped(self, obligations: list[Obligation]) -> list[dict]:
        """Group fresh obligations by alphabet key; discharge set-at-a-time.

        Groups keep the scheduler's first-occurrence order, and the returned
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
        ordered = list(groups.items())
        payloads = [
            ([obligations[i] for i in members], literal_sets)
            for _, (literal_sets, members) in ordered
        ]
        if len(payloads) > 1 and self.workers > 1 and _fork_available():
            self._prebuild_hinted(
                (key, members[0]) for (key, _), (members, _) in zip(ordered, payloads)
            )
            self.stats.parallel_batches += 1
            outs = self._discharge_groups_parallel(payloads)
            self._note_worker_keys(out.get("memo_keys", ()) for out in outs)
        else:
            outs = [
                _discharge_group_payload(members, self.params, literal_sets)
                for members, literal_sets in payloads
            ]
        for out in outs:
            trace.ingest(out.get("spans"))
        logger.debug(
            "discharge: %d obligations in %d alphabet groups", len(obligations), len(outs)
        )
        results: list[Optional[dict]] = [None] * len(obligations)
        for (_, (_, members)), out in zip(ordered, outs):
            for position, member_result in zip(members, out["members"]):
                results[position] = member_result
            record = out["group"]
            self.batch_group_log.append(record)
            self.stats.batch_groups += 1
            self.stats.batch_grouped_obligations += record["members"]
            self.stats.batch_queries_executed += record["queries_executed"]
            self.stats.batch_queries_billed += record["queries_billed"]
        return results

    def _discharge_groups_parallel(
        self, payloads: list[tuple[list[Obligation], LiteralSets]]
    ) -> list[dict]:
        global _POOL_GROUPS
        context = multiprocessing.get_context("fork")
        processes = min(self.workers, len(payloads))
        logger.debug("forking pool: %d workers for %d groups", processes, len(payloads))
        _POOL_GROUPS = (payloads, self.params)
        try:
            with trace.span(
                "discharge.pool", cat="discharge", workers=processes, groups=len(payloads)
            ):
                with context.Pool(processes=processes) as pool:
                    return pool.map(_discharge_group_index, range(len(payloads)))
        finally:
            _POOL_GROUPS = None
