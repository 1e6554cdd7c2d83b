"""Multiprocess stress: N writer processes hammer one store; nothing is lost.

The acceptance suite of the concurrency work:

* eight forked writers append distinct and overlapping entries, compact and
  commit runs against a single store path — afterwards every entry is
  present and intact (zero torn/skipped records) and the run log holds one
  record per writer under distinct sequence numbers;
* real engine runs in concurrent processes (each discharging one disjoint
  ``only_digests`` slice of the fast corpus straight into the shared main
  log) leave a store a warm re-run answers with **zero** misses, producing
  deterministic tables byte-identical to a serial run's.
"""

import multiprocessing

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.store.obligation_store import ObligationStore, StoreEntry
from repro.typecheck.checker import CheckerConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the stress suite forks writer processes",
)

WRITERS = 8
DISTINCT = 20
SHARED = 10


def _entry(env, fp):
    return StoreEntry(
        env=env,
        fp=fp,
        included=True,
        solver_stats={"queries": 1},
        inclusion_stats={"fa_inclusion_checks": 1},
        scope="Set/KVStore",
        method="insert",
        spec="s1",
        library="l1",
        kind="postcondition",
        provenance="insert: postcondition",
    )


def _synthetic_writer(path, index, barrier):
    store = ObligationStore(path)
    barrier.wait()  # maximise contention: every writer starts at once
    for i in range(DISTINCT):
        store.record(_entry(f"env-{index}", f"w{index}-{i}"))
        if i % 5 == 4:
            store.flush()
    # overlapping keys: identical content (content-addressed), so any
    # interleaving of the writers must converge on the same bytes
    for i in range(SHARED):
        store.record(_entry("shared", f"common-{i}"))
    store.flush()
    if index % 2 == 0:
        store.compact()  # rewriters racing the appenders
    store.commit_run()
    store.backend.close()


def _run_forked(target, argslists):
    context = multiprocessing.get_context("fork")
    processes = [context.Process(target=target, args=args) for args in argslists]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    assert all(process.exitcode == 0 for process in processes), (
        f"writer exit codes: {[p.exitcode for p in processes]}"
    )
    return context


def test_eight_writers_lose_nothing(store_path):
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(WRITERS)
    _run_forked(
        _synthetic_writer, [(store_path, index, barrier) for index in range(WRITERS)]
    )

    merged = ObligationStore(store_path)
    expected = {
        (f"env-{w}", f"w{w}-{i}") for w in range(WRITERS) for i in range(DISTINCT)
    } | {("shared", f"common-{i}") for i in range(SHARED)}
    assert {entry.key for entry in merged} == expected, "no write may be lost"
    assert merged.summary()["skipped"] == 0, "no record may be torn"
    assert [r["run"] for r in merged._runs] == list(range(1, WRITERS + 1)), (
        "every writer's run record survives under its own sequence number"
    )


def _cold_digests(scratch_path):
    """Every fast-corpus obligation digest, via a collect pass (nothing discharged)."""
    digests = set()
    config = CheckerConfig(
        collect_sink=lambda env, fp, hint, estimate, obligation, context: digests.add(fp)
    )
    run_evaluation(include_slow=False, config=config, store=ObligationStore(scratch_path))
    return sorted(digests)


def _engine_writer(path, owned, barrier):
    store = ObligationStore(path)
    barrier.wait()
    # only_digests: the full deterministic emit walk, but discharge (and
    # record) only this slice — the per-obligation counters are exactly a
    # serial run's, while the *writes* race on the shared main log
    config = CheckerConfig(only_digests=frozenset(owned))
    run_evaluation(include_slow=False, config=config, store=store)
    store.flush()
    store.commit_run()
    store.backend.close()


def test_concurrent_engine_writers_yield_a_clean_warm_store(store_path, tmp_path):
    writers = 3
    digests = _cold_digests(tmp_path / "collect")
    assert len(digests) >= writers, "every writer must own a slice"
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(writers)
    _run_forked(
        _engine_writer,
        [(store_path, digests[index::writers], barrier) for index in range(writers)],
    )

    serial = run_evaluation(include_slow=False)
    warm_store = ObligationStore(store_path)
    warm = run_evaluation(include_slow=False, store=warm_store)
    summary = warm_store.summary()
    assert summary["misses"] == 0, "the racing writers must have lost nothing"
    assert summary["skipped"] == 0, "and torn nothing"
    for render in (table1, table3, table4):
        assert render(warm, deterministic=True) == render(serial, deterministic=True), (
            "a store populated by racing writers must warm byte-identical tables"
        )
