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
from repro.sfa.alphabet import AlphabetMemo
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
    # same hypotheses + automata → same fingerprint regardless of kind/index
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_dedupe_groups_isomorphic_obligations(registry):
    _, inv = _invariant(registry)
    obset = ObligationSet()
    obset.emit("coverage", [], inv, S.any_trace())
    obset.emit("postcondition", [], inv, inv)
    obset.emit("postcondition", [], inv, S.any_trace())  # alias of the first
    groups = obset.deduped()
    assert len(groups) == 2
    representative, aliases = groups[0]
    assert representative.index == 0
    assert [alias.index for alias in aliases] == [2]


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


def test_emit_emptiness_targets_bot(registry):
    _, inv = _invariant(registry)
    obset = ObligationSet()
    obligation = obset.emit_emptiness([], inv)
    assert obligation.kind == "emptiness"
    assert obligation.rhs is S.BOT


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
    first = discharge_group([obligation], registry, AlphabetMemo())[0]
    second = discharge_group([obligation], registry, AlphabetMemo())[0]
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
    assert outcomes[1].deduped and not outcomes[0].deduped
    assert engine.stats.obligations_discharged == 1
    assert engine.stats.deduped_aliases == 1

    # a second batch with the same obligation is answered from the memo
    obset2 = ObligationSet(method="m2")
    obset2.emit("postcondition", [], inv, inv)
    outcomes2 = engine.discharge_all(obset2)
    assert outcomes2[0].included and outcomes2[0].from_memo
    assert engine.stats.memo_hits == 1
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
