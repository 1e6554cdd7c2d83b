"""The store-recorded cost model: ordering policies and cost persistence."""

import pytest

from repro import smt
from repro.smt import sorts
from repro.engine import Obligation, ObligationEngine, ObligationSet
from repro.sfa import symbolic as S
from repro.sfa.signatures import OperatorRegistry
from repro.store.fingerprint import obligation_digest
from repro.store.obligation_store import ObligationStore, StoreContext
from repro.typecheck.checker import CheckerConfig


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


def test_schedule_syntactic_is_cheapest_first(registry):
    obset = _obligations(registry)
    order = [rep.index for rep, _ in obset.schedule()]
    assert order == [0, 1, 2, 3]  # size grows with emission index here


def test_schedule_with_costs_orders_by_recorded_history(registry):
    obset = _obligations(registry)
    costs = {0: 3.0, 1: 0.5, 3: 1.5}  # index 2 has no history

    def cost_of(rep):
        return costs.get(rep.index)

    cheapest = [rep.index for rep, _ in obset.schedule(cost_of=cost_of)]
    # measured costs ascending first, then the estimate fallback
    assert cheapest == [1, 3, 0, 2]

    lpt = [rep.index for rep, _ in obset.schedule(cost_of=cost_of, longest_first=True)]
    assert lpt == [0, 3, 1, 2]


def test_schedule_ties_break_by_emission_order(registry):
    obset = _obligations(registry, count=3)
    flat = [rep.index for rep, _ in obset.schedule(cost_of=lambda rep: 1.0)]
    assert flat == [0, 1, 2]
    flat_lpt = [
        rep.index
        for rep, _ in obset.schedule(cost_of=lambda rep: 1.0, longest_first=True)
    ]
    assert flat_lpt == [0, 1, 2]


def test_engine_rejects_unknown_schedule_mode(registry):
    with pytest.raises(ValueError):
        ObligationEngine(registry, schedule="chaotic")


def test_checker_config_rejects_unknown_schedule_mode():
    from repro.suite.registry import all_benchmarks

    bench = all_benchmarks(include_slow=False)[0]
    with pytest.raises(ValueError):
        bench.make_checker(CheckerConfig(schedule="chaotic"))


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
    """Costs recorded under one backend order a run under another."""
    store = ObligationStore(tmp_path)
    obset = _obligations(registry, count=2)
    context = StoreContext(scope="t", method="m", spec_digest="s", library_digest="l")
    dpll = ObligationEngine(registry, store=store, backend="dpll")
    dpll.discharge_all(obset, store_context=context)
    store.flush()

    cdcl = ObligationEngine(registry, store=store, backend="cdcl", schedule="auto")
    outcomes = cdcl.discharge_all(_obligations(registry, count=2), store_context=context)
    assert all(outcome.included for outcome in outcomes.values())
    assert cdcl.stats.store_hits == 0, "verdicts must not cross environments"
    assert cdcl.stats.cost_hints_used > 0, "costs must cross environments"


def test_cost_hints_survive_a_reload(registry, tmp_path):
    store = ObligationStore(tmp_path)
    obset = _obligations(registry, count=1)
    context = StoreContext(scope="t", method="m", spec_digest="s", library_digest="l")
    ObligationEngine(registry, store=store).discharge_all(obset, store_context=context)
    store.flush()
    digest = obligation_digest(obset.obligations[0])

    reloaded = ObligationStore(tmp_path)
    assert reloaded.cost_hint(digest) == store.cost_hint(digest)
