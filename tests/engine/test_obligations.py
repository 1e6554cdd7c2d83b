"""Unit tests for the obligation IR and the dedupe/discharge engine."""

from dataclasses import dataclass

import pytest

from repro import smt
from repro.smt import sorts
from repro.engine import (
    EngineStats,
    Obligation,
    ObligationEngine,
    ObligationSet,
)
from repro.engine.scheduler import discharge_group
from repro.sfa import symbolic as S
from repro.sfa.signatures import OperatorRegistry
from repro.statsutil import MergeableStats
from repro.store.fingerprint import obligation_digest
from repro.store.obligation_store import ObligationStore, StoreContext


@pytest.fixture(scope="module")
def registry() -> OperatorRegistry:
    ops = OperatorRegistry()
    ops.declare("insert", [("x", sorts.ELEM)], sorts.UNIT)
    ops.declare("mem", [("x", sorts.ELEM)], smt.BOOL)
    return ops


def _invariant(registry):
    el = smt.var("eng_el", sorts.ELEM)
    ins = S.event_pinned(registry["insert"], [el])
    return el, S.globally(S.implies(ins, S.next_(S.not_(S.eventually(ins)))))


# ---------------------------------------------------------------------------
# The IR: emission, fingerprints, dedupe, discharge order
# ---------------------------------------------------------------------------


def test_emit_records_walk_order_and_provenance(registry):
    _, inv = _invariant(registry)
    obset = ObligationSet(method="insert")
    first = obset.emit("coverage", [], inv, S.any_trace())
    second = obset.emit(
        "postcondition", [], inv, inv, provenance="insert: leaf", failure_message="boom"
    )
    assert (first.index, second.index) == (0, 1)
    assert first.provenance == "insert: coverage"
    assert second.failure_message == "boom"
    with pytest.raises(ValueError):
        obset.emit("mystery", [], inv, inv)


def test_fingerprint_is_structural(registry):
    el, inv = _invariant(registry)
    hyp = smt.eq(el, el)
    obset = ObligationSet()
    a = obset.emit("coverage", [hyp], inv, S.any_trace())
    b = obset.emit("postcondition", [hyp], inv, S.any_trace())
    c = obset.emit("coverage", [], inv, S.any_trace())
    # same hypotheses + automata → same digest regardless of kind/index
    assert obligation_digest(a) == obligation_digest(b)
    assert obligation_digest(a) != obligation_digest(c)


def test_dedupe_groups_isomorphic_obligations(registry, tmp_path):
    _, inv = _invariant(registry)
    obset = ObligationSet()
    first = obset.emit("coverage", [], inv, S.any_trace())
    second = obset.emit("postcondition", [], inv, inv)
    obset.emit("postcondition", [], inv, S.any_trace())  # alias of the first
    engine = ObligationEngine(registry, store=ObligationStore(tmp_path))
    assert [digest for _, digest, _ in engine.store_misses(obset)] == [
        obligation_digest(first),
        obligation_digest(second),
    ]
    outcomes = engine.discharge_all(obset)
    assert sorted(outcomes) == [0, 1, 2]
    assert outcomes[2].included == outcomes[0].included
    assert engine.stats == EngineStats(
        obligations_emitted=3,
        obligations_discharged=2,
        deduped_aliases=1,
        store_misses=2,
        batches=1,
    )


def test_discharge_follows_emission_order(registry, tmp_path):
    _, inv = _invariant(registry)
    small = S.any_trace()
    obset = ObligationSet()
    expensive = obset.emit("postcondition", [], inv, inv)
    cheap = obset.emit("coverage", [], small, small)
    assert cheap.cost_estimate() < expensive.cost_estimate()
    store = ObligationStore(tmp_path)
    engine = ObligationEngine(registry, store=store)
    engine.discharge_all(
        obset,
        store_context=StoreContext(scope="t", method="m", spec_digest="s", library_digest="l"),
    )
    # the store records verdicts in the order they were discharged
    assert [entry.fp for entry in store] == [
        obligation_digest(expensive),
        obligation_digest(cheap),
    ]


# ---------------------------------------------------------------------------
# Hermetic discharge
# ---------------------------------------------------------------------------


def test_discharge_obligation_is_deterministic(registry):
    el, inv = _invariant(registry)
    effect = S.and_(S.event_pinned(registry["insert"], [el]), S.last())
    obligation = Obligation(
        kind="postcondition",
        hypotheses=(),
        lhs=S.concat(inv, effect),
        rhs=inv,
        provenance="unit",
        failure_message="not preserved",
        index=0,
    )
    first = discharge_group([obligation], registry, ())[0]
    second = discharge_group([obligation], registry, ())[0]
    assert first["included"] is second["included"] is False
    assert first["counterexample"] == second["counterexample"]
    assert first["counterexample"], "a readable witness trace is produced"
    assert all("insert" in step or "mem" in step for step in first["counterexample"])

    # hermetic: identical counters on every run (wall-clock aside)
    def counters(result):
        return {k: v for k, v in result.items() if not k.endswith("seconds")}

    assert counters(first["inclusion"]) == counters(second["inclusion"])
    assert counters(first["solver"]) == counters(second["solver"])


def test_engine_memo_and_alias_outcomes(registry):
    el, inv = _invariant(registry)
    engine = ObligationEngine(registry)
    obset = ObligationSet(method="m")
    obset.emit("postcondition", [], inv, inv)
    obset.emit("coverage", [], inv, inv)  # alias
    outcomes = engine.discharge_all(obset)
    assert outcomes[0].included and outcomes[1].included
    assert engine.stats.obligations_discharged == 1
    assert engine.stats.deduped_aliases == 1
    assert engine.stats.memo_hits == 0

    # a second batch with the same obligation is answered from the memo
    obset2 = ObligationSet(method="m2")
    obset2.emit("postcondition", [], inv, inv)
    obset2.emit("coverage", [], inv, inv)  # an alias of a memo hit
    outcomes2 = engine.discharge_all(obset2)
    assert outcomes2[0].included and outcomes2[1].included
    assert engine.stats.memo_hits == 1
    assert engine.stats.deduped_aliases == 2
    assert engine.stats.obligations_discharged == 1  # nothing re-discharged


def test_discharge_resource_errors_become_failures(registry):
    """A resource limit during discharge reports as a failed obligation."""
    _, inv = _invariant(registry)
    engine = ObligationEngine(registry, max_literals=0)
    obset = ObligationSet(method="m")
    obset.emit("postcondition", [], inv, inv, provenance="m: leaf")
    outcomes = engine.discharge_all(obset)
    assert outcomes[0].failed
    assert outcomes[0].error and "budget" in outcomes[0].error


def test_engine_merges_worker_stats_into_caller_tables(registry):
    from repro.sfa.inclusion import InclusionStats
    from repro.smt.solver import SolverStats

    el, inv = _invariant(registry)
    engine = ObligationEngine(registry)
    solver_stats = SolverStats()
    inclusion_stats = InclusionStats()
    obset = ObligationSet(method="m")
    obset.emit("postcondition", [], inv, inv)
    engine.discharge_all(
        obset, solver_stats=solver_stats, inclusion_stats=inclusion_stats
    )
    assert solver_stats.queries > 0
    assert inclusion_stats.fa_inclusion_checks == 1
    assert inclusion_stats.prod_states > 0


# ---------------------------------------------------------------------------
# The fields-driven stats mixin
# ---------------------------------------------------------------------------


@dataclass
class _Demo(MergeableStats):
    hits: int = 0
    misses: int = 0
    seconds: float = 0.0


def test_mergeable_stats_covers_every_field():
    a = _Demo(hits=1, misses=2, seconds=0.5)
    a.merge(_Demo(hits=10, misses=20, seconds=1.5))
    assert (a.hits, a.misses, a.seconds) == (11, 22, 2.0)

    snap = a.snapshot()
    a.hits += 5
    assert snap.hits == 11  # snapshots are independent copies
    assert a.since(snap) == _Demo(hits=5, misses=0, seconds=0.0)

    round_tripped = _Demo.from_dict(a.as_dict() | {"unknown": 99})
    assert round_tripped == a


def test_engine_stats_is_mergeable():
    stats = EngineStats(obligations_emitted=2, memo_hits=1)
    stats.merge(EngineStats(obligations_emitted=3, batches=1))
    assert stats.obligations_emitted == 5
    assert stats.memo_hits == 1
    assert stats.batches == 1


# ---------------------------------------------------------------------------
# Corpus-level bookkeeping
# ---------------------------------------------------------------------------

#: A cold fast run's engine counters per benchmark, against a fresh store, in
#: field order: emitted, discharged, deduped_aliases, memo_hits, store_hits,
#: store_misses, batches.  LazySet/KVStore's store hits are entries
#: Set/KVStore wrote moments earlier on the same library.
_COLD_ENGINE_COUNTERS = {
    "Set/KVStore": EngineStats(10, 9, 0, 1, 0, 9, 4),
    "Stack/KVStore": EngineStats(12, 11, 0, 1, 0, 11, 5),
    "LazySet/KVStore": EngineStats(12, 5, 0, 2, 5, 5, 4),
    "LazySet/Set": EngineStats(18, 11, 3, 4, 0, 11, 5),
    "DFA/Graph": EngineStats(16, 13, 0, 3, 0, 13, 6),
    "ConnectedGraph/Graph": EngineStats(16, 13, 0, 3, 0, 13, 5),
}


def _engine_counters(report):
    return {
        diagnostics["benchmark"]: EngineStats.from_dict(diagnostics["engine"])
        for diagnostics in report.diagnostics
    }


def test_fast_corpus_engine_bookkeeping(tmp_path):
    """Every benchmark's dedupe/memo/store counters on a cold and a warm run."""
    from repro.evaluation.runner import run_evaluation

    cold = run_evaluation(include_slow=False, store=ObligationStore(tmp_path))
    assert _engine_counters(cold) == _COLD_ENGINE_COUNTERS

    warm = run_evaluation(include_slow=False, store=ObligationStore(tmp_path))
    for key, stats in _engine_counters(warm).items():
        assert stats.obligations_discharged == 0, key
        assert (
            stats.store_hits + stats.memo_hits + stats.deduped_aliases
            == stats.obligations_emitted
        ), key
