"""The store-recorded cost model: cost persistence and its path to the queue."""

import pytest

from repro import smt
from repro.smt import sorts
from repro.engine import ObligationEngine, ObligationSet
from repro.sfa import symbolic as S
from repro.sfa.signatures import OperatorRegistry
from repro.store.fingerprint import obligation_digest
from repro.store.obligation_store import ObligationStore, StoreContext


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


def test_discharge_records_cost_into_the_store(registry, tmp_path):
    store = ObligationStore(tmp_path)
    engine = ObligationEngine(registry, store=store)
    obset = _obligations(registry, count=2)
    context = StoreContext(scope="t", method="m", spec_digest="s", library_digest="l")
    outcomes = engine.discharge_all(obset, store_context=context)
    assert all(outcome.included for outcome in outcomes.values())
    store.flush()

    for representative, _ in obset.deduped():
        digest = obligation_digest(representative)
        assert store.cost_hint(digest) is not None
        entry = next(e for e in store if e.fp == digest)
        assert entry.cost["wall"] >= 0.0
        assert entry.cost["queries"] >= 1
        assert "prod_states" in entry.cost


def test_cost_hint_crosses_environments(registry, tmp_path):
    """Costs recorded under one backend reach another backend's dispatch."""
    store = ObligationStore(tmp_path)
    obset = _obligations(registry, count=2)
    context = StoreContext(scope="t", method="m", spec_digest="s", library_digest="l")
    dpll = ObligationEngine(registry, store=store, backend="dpll")
    dpll.discharge_all(obset, store_context=context)
    store.flush()

    hints = {}
    cdcl = ObligationEngine(
        registry,
        store=store,
        backend="cdcl",
        collect=lambda env, digest, hint, estimate, obligation, context: hints.__setitem__(
            digest, hint
        ),
    )
    cdcl.discharge_all(_obligations(registry, count=2), store_context=context)
    assert cdcl.stats.store_hits == 0, "verdicts must not cross environments"
    digests = [obligation_digest(rep) for rep, _ in obset.deduped()]
    assert sorted(hints) == sorted(digests)
    for digest in digests:
        assert hints[digest] is not None, "costs must cross environments"
        assert hints[digest] == store.cost_hint(digest)


def test_cost_hints_survive_a_reload(registry, tmp_path):
    store = ObligationStore(tmp_path)
    obset = _obligations(registry, count=1)
    context = StoreContext(scope="t", method="m", spec_digest="s", library_digest="l")
    ObligationEngine(registry, store=store).discharge_all(obset, store_context=context)
    store.flush()
    digest = obligation_digest(obset.obligations[0])

    reloaded = ObligationStore(tmp_path)
    assert reloaded.cost_hint(digest) == store.cost_hint(digest)
