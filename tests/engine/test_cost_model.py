"""The store-recorded cost model: cost persistence and the service's cost index,
which upgrades a queued item's syntactic estimate to a recorded wall time."""

import pytest

from repro import smt
from repro.smt import sorts
from repro.engine import ObligationEngine, ObligationSet
from repro.engine.dispatch import queue_item
from repro.sfa import symbolic as S
from repro.sfa.signatures import OperatorRegistry
from repro.store.fingerprint import obligation_digest
from repro.store.obligation_store import ObligationStore, StoreContext
from repro.store.service import StoreService


@pytest.fixture(scope="module")
def registry() -> OperatorRegistry:
    ops = OperatorRegistry()
    ops.declare("insert", [("x", sorts.ELEM)], sorts.UNIT)
    return ops


def _obligations(registry, count=4):
    """Obligations of visibly different syntactic size, emitted in order."""
    el = smt.var("cost_el", sorts.ELEM)
    ins = S.event_pinned(registry["insert"], [el])
    inv = S.globally(S.implies(ins, S.next_(S.not_(S.eventually(ins)))))
    obset = ObligationSet(method="cost")
    grown = inv
    for _ in range(count):
        obset.emit("postcondition", [], grown, inv)
        grown = S.and_(grown, S.next_(grown))  # strictly larger each time
    return obset


def _digests(obset):
    """The set's unique obligation digests."""
    return {obligation_digest(obligation) for obligation in obset}


def test_discharge_records_cost_into_the_store(registry, tmp_path):
    store = ObligationStore(tmp_path)
    engine = ObligationEngine(registry, store=store)
    obset = _obligations(registry, count=2)
    context = StoreContext(scope="t", method="m", spec_digest="s", library_digest="l")
    outcomes = engine.discharge_all(obset, store_context=context)
    assert all(outcome.included for outcome in outcomes.values())
    store.flush()

    for digest in _digests(obset):
        entry = next(e for e in store if e.fp == digest)
        assert entry.cost["wall"] >= 0.0
        assert entry.cost["queries"] >= 1
        assert "prod_states" in entry.cost


def _queued_costs(service, items):
    """``fp -> (cost, measured)`` of ``items`` as the service's queue holds them."""
    service.execute("enqueue", {"items": items})
    leased = service.execute("lease", {"count": len(items), "ttl": 30.0})["items"]
    return {item["fp"]: (item["cost"], item["measured"]) for item in leased}


def _recorded_walls(store, obset):
    return {entry.fp: entry.cost["wall"] for entry in store if entry.fp in _digests(obset)}


def test_cost_hint_crosses_environments(registry, tmp_path):
    """Costs recorded under one environment reach another one's dispatch:
    the service upgrades the coordinator's syntactic estimate."""
    store = ObligationStore(tmp_path)
    obset = _obligations(registry, count=2)
    context = StoreContext(scope="t", method="m", spec_digest="s", library_digest="l")
    default = ObligationEngine(registry, store=store)
    default.discharge_all(obset, store_context=context)
    store.flush()

    # a literal budget these obligations never reach: only the key differs
    other = ObligationEngine(registry, store=store, max_literals=25)
    items = [
        queue_item("t", env, digest, obligation, context)
        for env, digest, obligation in other.store_misses(_obligations(registry, count=2))
    ]
    assert other.stats.store_hits == other.stats.store_misses == 0, (
        "the misses query moves no counter"
    )
    walls = _recorded_walls(store, obset)
    assert sorted(item["fp"] for item in items) == sorted(walls), (
        "verdicts must not cross environments"
    )
    assert not any(item["measured"] for item in items), "the coordinator sends estimates"
    queued = _queued_costs(store.backend.service, items)
    assert queued == {fp: (wall, True) for fp, wall in walls.items()}, (
        "costs must cross environments"
    )


def test_cost_hints_survive_a_reload(registry, tmp_path):
    store = ObligationStore(tmp_path)
    obset = _obligations(registry, count=1)
    context = StoreContext(scope="t", method="m", spec_digest="s", library_digest="l")
    ObligationEngine(registry, store=store).discharge_all(obset, store_context=context)
    store.flush()
    obligation = obset.obligations[0]
    digest = obligation_digest(obligation)

    reloaded = StoreService(tmp_path)
    item = queue_item("t", "another-env", digest, obligation, context)
    assert _queued_costs(reloaded, [item]) == {
        digest: (_recorded_walls(store, obset)[digest], True)
    }
