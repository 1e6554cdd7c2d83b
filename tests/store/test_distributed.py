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
from dataclasses import replace

import pytest

from repro.engine.dispatch import DispatchError, _await_drain, run_distributed_evaluation
from repro.engine.worker import ENV_WORKER_CRASH, run_worker
from repro.evaluation.runner import run_benchmark, run_evaluation
from repro.evaluation.tables import report_json, table1, table3, table4
from repro.store.obligation_store import ObligationStore
from repro.store.server import StoreHTTPServer, StoreService, serve_in_thread
from repro.suite.registry import benchmark_by_key
from repro.typecheck.checker import CheckerConfig


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
    """The coordinator's phase 1, by hand: report misses, enqueue them."""
    items = []
    for benchmark in benchmarks:
        def sink(env, digest, hint, estimate, _bench=benchmark.key):
            items.append({
                "env": env or "",
                "fp": digest,
                "bench": _bench,
                "cost": hint if hint is not None else float(estimate),
                "measured": hint is not None,
            })
        config = replace(CheckerConfig(), collect_sink=sink)
        run_benchmark(benchmark, config=config, store=store)
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
    # collect reports miss *occurrences* (a digest emitted twice is reported
    # twice — skipped obligations are never memoised); the server dedupes
    assert dispatch["enqueued"] + dispatch["requeued"] == dispatch["cold_obligations"]
    assert dispatch["queue"]["completed"] == dispatch["enqueued"], (
        "the fleet, not the coordinator, discharged every cold obligation"
    )
    # the provenance rides into the JSON report for postmortems
    assert report_json(report)["dispatch"]["dispatch"] == dispatch["dispatch"]


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
    # the collect walk reports occurrences; the queue holds unique (env, fp)
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
