"""Distributed discharge end-to-end: coordinator + server + pulling workers.

The determinism acceptance test pins that the dynamic lease-queue
partition never changes a table, and the fault-injection suite proves the
lease protocol's claims: a worker killed mid-lease loses no obligations and
duplicates no records, and a coordinator killed mid-drain resumes from the
store (completed work stays warm).

Everything runs in one process tree: the store server on a loopback
thread, local workers forked exactly as ``--local-workers`` does — plus one
*spawned* fleet, because a fresh interpreter (a real ``repro worker``
process) shares none of the coordinator's interned state and is the only
way to regression-test the worker's warmup walk.
"""

import multiprocessing
import os
import time
from types import SimpleNamespace

import pytest

from repro.engine import worker as worker_module
from repro.engine.dispatch import (
    DispatchError,
    _await_drain,
    queue_item,
    run_distributed_evaluation,
)
from repro.engine.scheduler import ObligationEngine
from repro.engine.worker import ENV_WORKER_CRASH, run_worker
from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import report_json, table1, table3, table4
from repro.store.obligation_store import ObligationStore
from repro.store.remote import RemoteStoreBackend
from repro.store.server import StoreHTTPServer, StoreService, serve_in_thread
from repro.suite.registry import all_benchmarks, benchmark_by_key
from repro.typecheck.checker import Checker


@pytest.fixture
def server(store_path):
    service = StoreService(store_path)
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        yield httpd
    service.close()


def _subset():
    return [benchmark_by_key("Set/KVStore"), benchmark_by_key("Stack/KVStore")]


def _verdicts(report):
    return [
        (stats.adt, result.method, result.verified, result.error)
        for stats in report.adt_stats
        for result in stats.method_results
    ] + [
        (negative.benchmark, negative.variant, negative.rejected)
        for negative in report.negative_results
    ]


def _collect_and_enqueue(store, benchmarks, dispatch):
    """The coordinator's phase 1, by hand: emit, query the misses, enqueue."""
    items = []
    for benchmark in benchmarks:
        checker = benchmark.make_checker(store=store)
        for definition, spec in benchmark.checks():
            pending = checker.emit_method(definition, spec, benchmark.specs)
            for env, digest, obligation in checker.obligation_engine.store_misses(
                pending.obligations
            ):
                items.append(
                    queue_item(benchmark.key, env, digest, obligation, pending.store_context)
                )
    store.backend.enqueue(items, dispatch)
    return items


# -- determinism -------------------------------------------------------------------


def test_distributed_run_matches_serial_byte_identical(server):
    serial = run_evaluation(_subset())

    store = ObligationStore(server.url)
    report = run_distributed_evaluation(
        store,
        benchmarks=_subset(),
        local_workers=2,
        batch=4,
        ttl=30.0,
        drain_timeout=300.0,
        poll=0.1,
    )

    assert _verdicts(report) == _verdicts(serial)
    for render in (table1, table3, table4):
        assert render(report, deterministic=True) == render(serial, deterministic=True)

    dispatch = report.dispatch
    assert dispatch is not None
    assert dispatch["cold_obligations"] > 0
    # the coordinator dedupes its misses on (env, fp); on a fresh queue every
    # one is a new item
    assert dispatch["enqueued"] + dispatch["requeued"] == dispatch["cold_obligations"]
    assert dispatch["queue"]["completed"] == dispatch["enqueued"], (
        "the fleet, not the coordinator, discharged every cold obligation"
    )
    # the provenance rides into the JSON report for postmortems
    assert report_json(report)["dispatch"]["dispatch"] == dispatch["dispatch"]


def test_a_cold_dispatch_walks_each_method_once(server, monkeypatch):
    """The coordinator emits every method and negative variant exactly once
    and finishes them from the store; it never runs the serial
    ``check_method`` (a walk plus a discharge) on top."""
    emitted, checked = [], []
    emit_method, check_method = Checker.emit_method, Checker.check_method

    def counting_emit(self, definition, spec, module_specs=None):
        emitted.append((self.store_scope, definition.name))
        return emit_method(self, definition, spec, module_specs)

    def counting_check(self, *args, **kwargs):
        checked.append(args)
        return check_method(self, *args, **kwargs)

    monkeypatch.setattr(Checker, "emit_method", counting_emit)
    monkeypatch.setattr(Checker, "check_method", counting_check)
    benchmarks = _subset()
    report = run_distributed_evaluation(
        ObligationStore(server.url), benchmarks=benchmarks, local_workers=1,
        drain_timeout=300.0, poll=0.1,
    )
    assert report.dispatch["queue"]["completed"] == report.dispatch["enqueued"] > 0
    assert sorted(emitted) == sorted(
        (benchmark.key, name)
        for benchmark in benchmarks
        for name in [*benchmark.specs, *benchmark.negative_variants]
    ), "one walk per method and negative variant"
    assert checked == [], "the coordinator never re-walks a method"


# -- the coordinator's RPC budget ----------------------------------------------------


def _op_counts(backend):
    """The server's per-op request counts (its ``stats`` op excluded)."""
    ops = backend.stats()["ops"]
    return {op: record["count"] for op, record in ops.items() if op != "stats"}


@pytest.fixture(scope="module")
def cold_then_warm_dispatch(tmp_path_factory):
    """A cold and then a warm dispatch of the fast corpus against one
    in-process server, with the server's op counts after each."""
    service = StoreService(tmp_path_factory.mktemp("rpc-budget") / "store")
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        runs = []
        before: dict = {}
        for _ in ("cold", "warm"):
            store = ObligationStore(httpd.url)
            report = run_distributed_evaluation(
                store, include_slow=False, local_workers=2, drain_timeout=300.0, poll=0.1,
            )
            rpcs = store.backend.rpc_calls
            after = _op_counts(store.backend)
            delta = {op: count - before.get(op, 0) for op, count in after.items()}
            runs.append((report, store, rpcs, {op: n for op, n in delta.items() if n}))
            before = after
    service.close()
    return runs


def test_a_cold_dispatch_sends_one_invalidate(cold_then_warm_dispatch):
    (report, store, _, ops), _ = cold_then_warm_dispatch
    benchmarks = len(all_benchmarks(include_slow=False))
    assert report.dispatch["cold_obligations"] > 0
    assert report.all_verified and report.all_negatives_rejected
    assert ops["invalidate"] == 1, "every method's key rides one batched invalidate"
    # one prefetch per benchmark, one post-drain refetch per environment
    assert ops["lookup"] <= 2 * benchmarks, ops
    assert store.summary()["misses"] == 0, "the refetch found every enqueued key"


def test_a_warm_dispatch_costs_one_lookup_per_benchmark(cold_then_warm_dispatch):
    (cold, _, _, _), (warm, store, rpcs, ops) = cold_then_warm_dispatch
    benchmarks = len(all_benchmarks(include_slow=False))
    assert warm.dispatch["cold_obligations"] == 0
    assert ops["invalidate"] == 1
    assert ops["lookup"] <= benchmarks, ops
    assert rpcs <= 8, f"{rpcs} coordinator RPCs for a warm dispatch: {ops}"
    assert store.summary()["misses"] == 0
    for render in (table1, table3, table4):
        assert render(warm, deterministic=True) == render(cold, deterministic=True)


def test_fresh_process_workers_match_serial_byte_identical(server):
    """Spawned workers (fresh interpreters, like real ``repro worker``
    processes) must reproduce serial solver-effort columns on the full fast
    corpus.  Forked workers inherit the coordinator's interned terms and SFA
    compile cache, which is exactly what steers #SAT/#Confl — only a spawn
    exercises the warmup walk that a fresh process needs to match serial."""
    serial = run_evaluation(include_slow=False)

    context = multiprocessing.get_context("spawn")
    workers = [
        context.Process(
            target=run_worker,
            args=(server.url,),
            kwargs={"batch": 4, "ttl": 30.0, "idle_timeout": 30.0},
        )
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    try:
        store = ObligationStore(server.url)
        report = run_distributed_evaluation(
            store,
            include_slow=False,
            local_workers=0,
            batch=4,
            ttl=30.0,
            drain_timeout=300.0,
            poll=0.1,
        )
    finally:
        for worker in workers:
            worker.join(timeout=120)
            if worker.is_alive():  # pragma: no cover - defensive cleanup
                worker.terminate()

    assert _verdicts(report) == _verdicts(serial)
    for render in (table1, table3, table4):
        assert render(report, deterministic=True) == render(serial, deterministic=True)
    assert report.dispatch["queue"]["completed"] == report.dispatch["enqueued"], (
        "the spawned fleet, not the coordinator, discharged every cold obligation"
    )


def test_distributed_requires_a_store_server(store_path):
    with pytest.raises(ValueError, match="server"):
        run_distributed_evaluation(ObligationStore(store_path))


# -- fault injection ---------------------------------------------------------------


def _crashing_worker(url):
    run_worker(url, batch=4, ttl=1.0, idle_timeout=2.0)


def test_a_worker_killed_mid_lease_loses_nothing(server, monkeypatch):
    """The dead worker's lease expires, its items are stolen, and the store
    ends with exactly one record per obligation — zero lost, zero doubled."""
    bench = [benchmark_by_key("Set/KVStore")]
    store = ObligationStore(server.url)
    items = _collect_and_enqueue(store, bench, "d-crash")
    # the hand-rolled phase 1 reports a digest once per method that emits
    # it; the queue holds unique (env, fp)
    unique = {(item["env"], item["fp"]) for item in items}
    assert unique
    store.backend.close()  # no socket across fork

    monkeypatch.setenv(ENV_WORKER_CRASH, "lease")
    context = multiprocessing.get_context("fork")
    doomed = context.Process(target=_crashing_worker, args=(server.url,))
    doomed.start()
    doomed.join(timeout=60)
    assert doomed.exitcode == 9, "the fault hook must fire after the first lease"
    monkeypatch.delenv(ENV_WORKER_CRASH)

    # the doomed worker died holding a lease on the most expensive items;
    # the healthy worker's lease waits server-side until that lease's 1s
    # ttl passes, then steals and finishes them — no sleep needed here
    stats = run_worker(server.url, batch=4, ttl=10.0, idle_timeout=10.0)
    assert stats.items == len(unique), "every obligation ran on the healthy worker"

    status = server.service.queue.status()
    assert status["remaining"] == 0
    assert status["counters"]["reclaimed"] >= 1, "stealing actually happened"
    assert status["counters"]["completed"] == len(unique)

    state = server.service.backend.load()
    assert state.skipped == 0
    recorded = {(entry.env, entry.fp) for entry in state.entries.values()}
    assert recorded == unique
    assert len(state.entries) == len(unique), "one record per obligation, exactly"


def test_a_lease_lost_between_benchmark_groups_is_abandoned(server, store_path, monkeypatch):
    """The first group outlives the lease: the renewal before the second
    group is refused, so the worker abandons the batch without completing
    it, and a thief lands each verdict exactly once."""
    store = ObligationStore(server.url)
    items = _collect_and_enqueue(store, _subset(), "d-abandon")
    unique = {(item["env"], item["fp"]) for item in items}
    assert len({item["bench"] for item in items}) == 2

    # one clock offset for the worker and the server's queue: discharging
    # the first group moves both past the lease's deadline
    offset = [0.0]
    monkeypatch.setattr(
        worker_module, "time", SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0])
    )
    server.service.queue_clock = lambda: time.monotonic() + offset[0]
    discharge = ObligationEngine.discharge_leased

    def outliving_the_lease(self, leased):
        discharge(self, leased)
        offset[0] += 100.0

    monkeypatch.setattr(ObligationEngine, "discharge_leased", outliving_the_lease)
    completed = []
    complete = RemoteStoreBackend.complete

    def recording_complete(self, lease_id, keys):
        completed.append(lease_id)
        return complete(self, lease_id, keys)

    monkeypatch.setattr(RemoteStoreBackend, "complete", recording_complete)

    stats = run_worker(
        server.url, batch=len(unique), ttl=10.0, max_batches=1, warm_process=False
    )
    assert stats.items == len(unique)
    assert stats.abandoned == 1
    assert 0 < stats.discharged < len(unique), "only the first group ran"
    assert completed == [], "an abandoned batch is never completed"

    monkeypatch.setattr(ObligationEngine, "discharge_leased", discharge)
    thief = run_worker(
        server.url, batch=len(unique), ttl=30.0, idle_timeout=5.0, warm_process=False
    )
    assert thief.abandoned == 0
    assert thief.completed == len(unique)
    assert server.service.queue.status()["remaining"] == 0

    # the abandoned group's verdicts were flushed first; the thief's
    # if_absent appends skip them, so the log holds one line per obligation
    lines = (store_path / "entries.jsonl").read_text().splitlines()
    assert len(lines) == len(unique)
    state = server.service.backend.load()
    assert {(entry.env, entry.fp) for entry in state.entries.values()} == unique


def test_a_coordinator_killed_mid_drain_resumes_from_the_store(server):
    """Re-dispatch after a partial drain: completed items are warm hits, only
    the remainder is re-enqueued, and the tables still match serial."""
    benchmarks = _subset()
    serial = run_evaluation(benchmarks)

    first_session = ObligationStore(server.url)
    items = _collect_and_enqueue(first_session, benchmarks, "d-doomed")
    # one bounded worker makes partial progress before the coordinator "dies"
    partial = run_worker(server.url, batch=4, ttl=30.0, max_batches=1)
    assert 0 < partial.items < len(items)
    del first_session  # the dead coordinator's session state is gone

    # the re-dispatch: a fresh session recomputes the misses from the store
    store = ObligationStore(server.url)
    report = run_distributed_evaluation(
        store,
        benchmarks=benchmarks,
        local_workers=1,
        batch=4,
        ttl=30.0,
        drain_timeout=300.0,
        poll=0.1,
    )
    assert 0 < report.dispatch["cold_obligations"] < len(items), (
        "completed obligations are warm hits — only the remainder re-dispatches"
    )
    # the first dispatch's still-queued items are re-tagged, not duplicated
    assert report.dispatch["enqueued"] == 0
    assert _verdicts(report) == _verdicts(serial)
    for render in (table1, table3, table4):
        assert render(report, deterministic=True) == render(serial, deterministic=True)
    assert server.service.queue.status()["remaining"] == 0


class _LastCompleteRacesTheStatus:
    """A stub queue whose waiting ``queue_status`` still sees one item, while
    the no-wait re-query after the fleet exits sees ``remaining_after``."""

    def __init__(self, remaining_after):
        self.remaining_after = remaining_after
        self.waits = []

    def queue_status(self, dispatch, *, wait=0.0):
        self.waits.append(wait)
        return {"remaining": 1 if wait else self.remaining_after}


class _ExitedWorker:
    exitcode = 0


def test_workers_exiting_on_the_last_complete_are_not_a_dead_fleet():
    """Workers exit right after the last ``complete``; when that lands after
    the coordinator's status reply, the re-query sees the drain."""
    backend = _LastCompleteRacesTheStatus(remaining_after=0)
    status = _await_drain(
        backend, "d1", 1, [_ExitedWorker(), _ExitedWorker()],
        drain_timeout=60.0, poll=0.1,
    )
    assert status["remaining"] == 0
    assert backend.waits == [0.1, 0.0], "one waiting status, one fresh re-query"


def test_a_fleet_that_exits_with_work_outstanding_is_reported():
    backend = _LastCompleteRacesTheStatus(remaining_after=1)
    with pytest.raises(DispatchError, match="all 2 local workers exited with 1"):
        _await_drain(
            backend, "d1", 1, [_ExitedWorker(), _ExitedWorker()],
            drain_timeout=60.0, poll=0.1,
        )


def test_drain_timeout_surfaces_as_dispatch_error(server):
    """No workers, a queued item, a tiny timeout: the coordinator reports
    the stall instead of spinning forever (completed work stays durable)."""
    store = ObligationStore(server.url)
    with pytest.raises(DispatchError, match="re-dispatch to resume"):
        run_distributed_evaluation(
            store,
            benchmarks=[benchmark_by_key("Set/KVStore")],
            local_workers=0,
            drain_timeout=0.5,
            poll=0.05,
        )
