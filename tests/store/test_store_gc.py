"""Store garbage collection: expire entries unreferenced by the last N runs.

GC is a space reclaim, never a correctness event: content addressing already
guarantees stale entries cannot be *hit*, so the only thing to prove is that
the sweep keeps everything the last N committed runs referenced — a warm
re-run of those exact workloads must still answer entirely from the store —
while dropping what nothing recent touched.
"""

import json

import pytest

from repro.evaluation.runner import run_benchmark
from repro.store.obligation_store import ObligationStore, StoreEntry
from repro.suite.registry import all_benchmarks


def _fast(index):
    return all_benchmarks(include_slow=False)[index]


def _run(bench, store):
    stats, negatives = run_benchmark(bench, store=store)
    assert stats.all_verified and all(n.rejected for n in negatives)
    store.flush()
    store.commit_run()


def _store_counts(store):
    hits = sum(c.hits for c in store.session.values())
    misses = sum(c.misses for c in store.session.values())
    return hits, misses


def test_gc_keeps_everything_the_last_runs_touched(store_path):
    """After ``gc(keep_last=2)``, the last two runs still warm-hit fully."""
    store = ObligationStore(store_path)
    _run(_fast(0), store)  # run 1
    _run(_fast(1), store)  # run 2
    _run(_fast(2), store)  # run 3

    gc_store = ObligationStore(store_path)
    before = len(gc_store)
    dropped = gc_store.gc(keep_last=2)
    assert dropped > 0, "run 1's unshared entries should expire"
    assert len(gc_store) == before - dropped

    # the workloads of the two kept runs replay with zero misses
    warm = ObligationStore(store_path)
    _run(_fast(1), warm)
    _run(_fast(2), warm)
    hits, misses = _store_counts(warm)
    assert hits > 0 and misses == 0, (
        "a GC'd store must still answer everything the kept runs touched"
    )

    # the expired workload re-discharges (misses), then warm-hits again
    recold = ObligationStore(store_path)
    _run(_fast(0), recold)
    _, misses = _store_counts(recold)
    assert misses > 0


def test_gc_counts_warm_hits_as_references(store_path):
    """An entry a recent run merely *read* survives the sweep."""
    store = ObligationStore(store_path)
    _run(_fast(0), store)  # run 1: writes benchmark 0
    _run(_fast(1), store)  # run 2: writes benchmark 1

    rereader = ObligationStore(store_path)
    _run(_fast(0), rereader)  # run 3: only *hits* benchmark 0's entries

    gc_store = ObligationStore(store_path)
    gc_store.gc(keep_last=1)  # keep run 3 only — which touched benchmark 0

    warm = ObligationStore(store_path)
    _run(_fast(0), warm)
    hits, misses = _store_counts(warm)
    assert hits > 0 and misses == 0


def test_gc_drops_orphan_entries_no_run_references(store_path):
    store = ObligationStore(store_path)
    _run(_fast(0), store)
    orphan = StoreEntry(env="deadenv", fp="deadfp", included=True)
    store.record(orphan)
    store.flush()  # recorded but part of the *current* (uncommitted) session

    fresh = ObligationStore(store_path)
    assert fresh.lookup("deadenv", "deadfp") is not None
    # the orphan was never referenced by a *committed* run
    dropped = ObligationStore(store_path).gc(keep_last=1)
    assert dropped >= 1
    assert ObligationStore(store_path).lookup("deadenv", "deadfp") is None


def test_gc_of_uncommitted_session_commits_it_first(store_path):
    store = ObligationStore(store_path)
    stats, _ = run_benchmark(_fast(0), store=store)
    assert stats.all_verified
    store.flush()  # deliberately no commit_run
    dropped = store.gc(keep_last=1)
    assert dropped == 0, "the in-flight session's entries must survive its own GC"
    warm = ObligationStore(store_path)
    _run(_fast(0), warm)
    _, misses = _store_counts(warm)
    assert misses == 0


def test_run_log_is_persisted(store_path):
    store = ObligationStore(store_path)
    _run(_fast(0), store)
    records = ObligationStore(store_path)._runs
    assert len(records) == 1 and records[0]["run"] == 1
    assert records[0]["touched"], "the run must list the entries it referenced"
    runs_path = store_path / "runs.jsonl"
    assert runs_path.exists()
    on_disk = [json.loads(line) for line in runs_path.read_text().splitlines()]
    assert on_disk == records

    again = ObligationStore(store_path)
    _run(_fast(0), again)
    records = ObligationStore(store_path)._runs
    assert [record["run"] for record in records] == [1, 2]


def test_empty_session_records_no_run(store_path):
    store = ObligationStore(store_path)
    assert store.commit_run() == 0
    assert ObligationStore(store_path)._runs == []
    assert not (store_path / "runs.jsonl").exists()


def test_malformed_run_records_are_tolerated(tmp_path):
    """A hand-edited/torn run log must never crash later sessions."""
    store = ObligationStore(tmp_path)
    _run(_fast(0), store)
    runs_path = tmp_path / "runs.jsonl"
    runs_path.write_text(
        runs_path.read_text()
        + 'not json\n{"touched": []}\n{"run": "three", "touched": []}\n[1]\n'
    )
    reloaded = ObligationStore(tmp_path)
    assert [record["run"] for record in reloaded._runs] == [1]
    _run(_fast(0), reloaded)  # commit_run must not crash on the survivors
    records = [json.loads(line) for line in runs_path.read_text().splitlines()]
    assert [record["run"] for record in records] == [1, 2]


def test_gc_validates_keep_last(store_path):
    store = ObligationStore(store_path)
    with pytest.raises(ValueError):
        store.gc(keep_last=0)
