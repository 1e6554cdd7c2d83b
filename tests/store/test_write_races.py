"""Deterministic regressions for the concurrent-writer races.

Each test interleaves two *store handles* on one path inside a single
process: the handle that rewrites holds a stale open-time snapshot — exactly
the state a concurrent writer process would see.  Before the fix, the
rewriting handle silently dropped entries appended after its load (the lost
rewrite), or reused a run sequence number and overwrote the other session's
run record.
"""

from repro.store.backends import open_backend
from repro.store.obligation_store import ObligationStore, StoreEntry


def _entry(fp, *, env="env1", spec="s1", method="insert"):
    return StoreEntry(
        env=env,
        fp=fp,
        included=True,
        solver_stats={"queries": 1},
        scope="Set/KVStore",
        method=method,
        spec=spec,
        library="l1",
    )


def _stored_fps(path):
    return {entry.fp for entry in open_backend(path).load().entries.values()}


def test_interleaved_flushes_lose_no_batches(store_path):
    a = ObligationStore(store_path)
    b = ObligationStore(store_path)
    a.record(_entry("a1"))
    b.record(_entry("b1"))
    a.flush()
    b.flush()
    a.record(_entry("a2"))
    b.record(_entry("b2"))
    b.flush()
    a.flush()
    assert _stored_fps(store_path) == {"a1", "b1", "a2", "b2"}


def test_compact_preserves_entries_appended_after_load(store_path):
    appender = ObligationStore(store_path)
    compactor = ObligationStore(store_path)  # open-time snapshot: empty
    appender.record(_entry("appended-later"))
    appender.flush()
    compactor.record(_entry("compactor-own"))
    compactor.compact()  # must re-read under the lock, not trust its snapshot

    assert _stored_fps(store_path) == {"appended-later", "compactor-own"}


def test_invalidation_preserves_entries_appended_after_load(store_path):
    invalidator = ObligationStore(store_path)
    invalidator.record(_entry("stale", spec="old-spec"))
    invalidator.flush()
    other = ObligationStore(store_path)
    other.record(_entry("fresh-foreign", method="mem", spec="m1"))
    other.flush()  # appended after the invalidator's load

    invalidator.invalidate_stale("Set/KVStore", "insert", "new-spec", "l1")
    invalidator.flush()  # the queued key goes out with the next write
    assert invalidator.session[("Set/KVStore", "insert")].invalidated == 1
    assert _stored_fps(store_path) == {"fresh-foreign"}


def test_concurrent_commits_get_distinct_run_sequences(store_path):
    a = ObligationStore(store_path)
    b = ObligationStore(store_path)  # both open on an empty run log
    a.record(_entry("a-entry"))
    a.commit_run()
    b.record(_entry("b-entry"))
    b.commit_run()  # must not reuse sequence 1 or overwrite a's record

    runs = open_backend(store_path).load().runs
    assert [record["run"] for record in runs] == [1, 2]
    assert any(key.endswith(":a-entry") for key in runs[0]["touched"])
    assert any(key.endswith(":b-entry") for key in runs[1]["touched"])


def test_gc_spares_entries_a_concurrent_run_just_committed(store_path):
    first = ObligationStore(store_path)
    first.record(_entry("old"))
    first.commit_run()  # run 1 references "old"
    sweeper = ObligationStore(store_path)  # snapshot: run 1 is the latest
    late = ObligationStore(store_path)
    late.record(_entry("brand-new"))
    late.commit_run()  # run 2, committed after the sweeper's load

    dropped = sweeper.gc(keep_last=1)
    # the sweep recomputes the reference set from the re-read run log: run 2
    # is now the last run, so "brand-new" survives and "old" is the victim
    assert dropped == 1
    assert _stored_fps(store_path) == {"brand-new"}
