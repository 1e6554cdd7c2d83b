"""Cold-vs-warm determinism: the acceptance contract of the obligation store.

A warm run must (a) answer at least half of the emitted obligations straight
from the store — in fact it discharges *nothing* — and (b) produce
byte-identical deterministic Tables 1/3/4 to the cold run, because store
entries carry the exact per-obligation counters the original discharge
produced.  Editing one benchmark's spec must invalidate only that
benchmark's entries, observable through the ``--explain`` session counts.
"""

import dataclasses

import pytest

from repro.engine.dispatch import run_distributed_evaluation
from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.sfa import symbolic
from repro.store.backends import open_backend
from repro.store.obligation_store import ObligationStore
from repro.store.server import StoreHTTPServer, StoreService, serve_in_thread
from repro.suite.registry import benchmark_by_key
from repro.typecheck.checker import CheckerConfig


def _verdicts(report):
    return [
        (stats.adt, result.method, result.verified, result.error)
        for stats in report.adt_stats
        for result in stats.method_results
    ] + [
        (negative.benchmark, negative.variant, negative.rejected, negative.error)
        for negative in report.negative_results
    ]


@pytest.fixture(scope="module", params=("jsonl",))
def cold_and_warm(tmp_path_factory):
    """One cold and one warm run of the fast corpus against the same store.

    Parametrised on the store format, like ``store_path`` in conftest.
    """
    path = tmp_path_factory.mktemp("obligation-store") / "store"
    cold_store = ObligationStore(path)
    cold = run_evaluation(include_slow=False, store=cold_store)
    warm_store = ObligationStore(path)
    warm = run_evaluation(include_slow=False, store=warm_store)
    return cold, cold_store, warm, warm_store


def test_warm_run_answers_from_store(cold_and_warm):
    cold, cold_store, warm, warm_store = cold_and_warm
    cold_summary = cold_store.summary()
    assert cold_summary["misses"] > 0
    # benchmarks sharing a library (Set and LazySet on KVStore) emit identical
    # obligations, so even a cold corpus run hits entries written moments
    # earlier by a sibling benchmark — cross-benchmark reuse for free

    summary = warm_store.summary()
    assert summary["misses"] == 0, "a warm run of the same workload discharges nothing"
    assert summary["invalidated"] == 0
    assert summary["hits"] == cold_summary["hits"] + cold_summary["misses"], (
        "every obligation the cold run resolved is answered from the store"
    )

    # the acceptance bar: at least half of the *emitted* obligations are
    # answered by the store itself (the rest by batch dedupe / the memo)
    emitted = sum(r.stats.obligations for s in warm.adt_stats for r in s.method_results)
    store_answered = sum(
        r.stats.store_hits for s in warm.adt_stats for r in s.method_results
    )
    assert emitted > 0
    assert store_answered * 2 >= emitted, f"{store_answered}/{emitted} < 50%"


def test_cold_discharges_and_warm_replays(cold_and_warm):
    cold, _, warm, warm_store = cold_and_warm
    assert warm_store.summary()["hits"] > 0

    # a store hit replays the recorded counters of the original discharge,
    # alphabet builds included: the warm run enumerates nothing, yet bills
    # exactly the cold run's builds (the replay keeps warm tables identical)
    def alphabet_builds(report):
        return sum(
            r.stats.alphabet_builds for s in report.adt_stats for r in s.method_results
        )

    assert alphabet_builds(warm) == alphabet_builds(cold) > 0


def test_warm_tables_are_byte_identical(cold_and_warm):
    cold, _, warm, _ = cold_and_warm
    assert _verdicts(warm) == _verdicts(cold)
    for render in (table1, table3, table4):
        assert render(warm, deterministic=True) == render(cold, deterministic=True)
    # #Store itself is the one counter that legitimately differs: the warm
    # run answers strictly more obligations from the store (the cold run
    # already scores cross-benchmark hits for shared-library obligations)
    def store_answered(report):
        return sum(r.stats.store_hits for s in report.adt_stats for r in s.method_results)

    assert store_answered(warm) > store_answered(cold)
    first_cold_method = cold.adt_stats[0].method_results[0]
    assert first_cold_method.stats.store_hits == 0, (
        "nothing can precede the very first method of a cold run"
    )


def test_store_entries_carry_witness_traces(cold_and_warm):
    _, cold_store, _, _ = cold_and_warm
    rejected = [entry for entry in cold_store if not entry.included]
    assert rejected, "the negative variants must leave REJECTED entries behind"
    assert any(entry.counterexample for entry in rejected)
    assert all(entry.scope and entry.method and entry.spec for entry in cold_store)


def _with_edited_insert(bench):
    """``bench`` with insert's spec edited: the postcondition strengthened by
    a structurally new (if semantically redundant) conjunct — a genuinely
    different HAT."""
    edited_specs = dict(bench.specs)
    original = edited_specs["insert"]
    edited_specs["insert"] = dataclasses.replace(
        original,
        postcondition=symbolic.and_(original.postcondition, symbolic.any_trace()),
    )
    return dataclasses.replace(bench, specs=edited_specs)


@pytest.fixture(params=("jsonl", "served"))
def store_target(request, tmp_path):
    """A store directory and what a session opens it by: the directory
    itself, or the URL of a server wrapping it."""
    path = tmp_path / "store"
    if request.param == "jsonl":
        yield path, path
        return
    service = StoreService(path)
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        yield path, httpd.url
    service.close()


def test_spec_edit_invalidates_only_that_benchmark(store_target):
    """A session sends its invalidation keys in one deferred batch, yet each
    method's ``--explain`` counts come out per method — the edited method's
    drops, its siblings' zeros — through either transport."""
    directory, store_path = store_target
    store = ObligationStore(store_path)
    set_bench = benchmark_by_key("Set/KVStore")
    stack_bench = benchmark_by_key("Stack/KVStore")
    set_bench.verify_all(set_bench.make_checker(store=store))
    stack_bench.verify_all(stack_bench.make_checker(store=store))
    stack_entries = {entry.fp for entry in store.entries_for_scope("Stack/KVStore")}
    assert store.entries_for_scope("Set/KVStore") and stack_entries

    edited_bench = _with_edited_insert(set_bench)
    session = ObligationStore(store_path)
    edited_bench.verify_all(edited_bench.make_checker(store=session))
    explain = {(row["scope"], row["method"]): row for row in session.explain()}

    assert explain[("Set/KVStore", "insert")]["invalidated"] > 0
    assert explain[("Set/KVStore", "mem")]["invalidated"] == 0
    assert explain[("Set/KVStore", "empty")]["invalidated"] == 0
    # unchanged methods still warm-start; the edited one re-discharges
    assert explain[("Set/KVStore", "mem")]["hits"] > 0
    assert explain[("Set/KVStore", "insert")]["misses"] > 0

    # the other benchmark's entries were never touched
    assert {
        entry.fp
        for entry in open_backend(directory).load().entries.values()
        if entry.scope == "Stack/KVStore"
    } == stack_entries
    warm_stack = ObligationStore(store_path)
    stack_bench.verify_all(stack_bench.make_checker(store=warm_stack))
    assert warm_stack.summary()["misses"] == 0
    assert warm_stack.summary()["invalidated"] == 0


@pytest.fixture
def server(store_path):
    service = StoreService(store_path)
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        yield httpd
    service.close()


def _dispatch(benchmarks, store):
    return run_distributed_evaluation(
        store, benchmarks=benchmarks, local_workers=1, drain_timeout=300.0, poll=0.1
    )


# serial sessions through a server are test_spec_edit_invalidates_only_that_benchmark[served]
@pytest.mark.parametrize("mode", ("dispatch",))
def test_spec_edit_invalidates_only_that_method_through_a_server(server, mode):
    """The dispatch twin: a coordinator's session sends its invalidation
    keys in one deferred batch, yet each method's ``--explain`` counts come
    out as a serial session's — the edited method's drops, its siblings'
    zeros."""
    set_bench = benchmark_by_key("Set/KVStore")
    _dispatch([set_bench], ObligationStore(server.url))

    edited_bench = _with_edited_insert(set_bench)
    session = ObligationStore(server.url)
    report = _dispatch([edited_bench], session)
    assert report.all_verified
    explain = {(row["scope"], row["method"]): row for row in session.explain()}
    assert explain[("Set/KVStore", "insert")]["invalidated"] > 0
    assert explain[("Set/KVStore", "mem")]["invalidated"] == 0
    assert explain[("Set/KVStore", "empty")]["invalidated"] == 0
    assert explain[("Set/KVStore", "mem")]["hits"] > 0

    again = ObligationStore(server.url)
    _dispatch([edited_bench], again)
    assert again.summary()["invalidated"] == 0
    assert again.summary()["misses"] == 0


def test_store_respects_environment_fingerprint(store_path):
    """Entries recorded under one checker configuration never leak to another."""
    store = ObligationStore(store_path)
    bench = benchmark_by_key("Set/KVStore")
    bench.verify_all(bench.make_checker(CheckerConfig(), store=store))

    other = ObligationStore(store_path)
    bench.verify_all(bench.make_checker(CheckerConfig(max_literals=25), store=other))
    assert other.summary()["hits"] == 0, "a different literal budget is a different world"
    assert other.summary()["misses"] > 0

    # while the original configuration still warm-starts
    again = ObligationStore(store_path)
    bench.verify_all(bench.make_checker(CheckerConfig(), store=again))
    assert again.summary()["misses"] == 0
