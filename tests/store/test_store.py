"""Unit tests for the on-disk obligation store: layout, reload, invalidation."""

import json

from repro.engine import scheduler
from repro.engine.obligations import ObligationSet
from repro.engine.scheduler import ObligationEngine
from repro.sfa import symbolic
from repro.store.fingerprint import obligation_digest
from repro.store.obligation_store import (
    SCHEMA_VERSION,
    ObligationStore,
    StoreContext,
    StoreEntry,
)
from repro.suite.registry import benchmark_by_key


def _entry(fp: str, *, scope="Set/KVStore", method="insert", spec="s1", lib="l1", included=True):
    return StoreEntry(
        env="env1",
        fp=fp,
        included=included,
        counterexample=None if included else ["put(a)", "put(a)"],
        error=None,
        solver_stats={"queries": 3, "cache_hits": 1},
        inclusion_stats={"fa_inclusion_checks": 1},
        scope=scope,
        method=method,
        spec=spec,
        library=lib,
        kind="postcondition",
        provenance=f"{method}: postcondition",
    )


def test_record_flush_reload_roundtrip(store_path):
    store = ObligationStore(store_path)
    store.record(_entry("fp1"))
    store.record(_entry("fp2", included=False))
    assert store.lookup("env1", "fp1") is not None
    store.flush()

    reloaded = ObligationStore(store_path)
    assert len(reloaded) == 2
    entry = reloaded.lookup("env1", "fp2")
    assert entry is not None and not entry.included
    assert entry.counterexample == ["put(a)", "put(a)"]
    assert entry.solver_stats == {"queries": 3, "cache_hits": 1}
    assert entry.scope == "Set/KVStore" and entry.kind == "postcondition"
    assert reloaded.lookup("env2", "fp1") is None, "environment key must isolate"


def test_last_write_wins(store_path):
    store = ObligationStore(store_path)
    store.record(_entry("fp1", spec="old"))
    store.flush()
    store.record(_entry("fp1", spec="new"))
    store.flush()

    reloaded = ObligationStore(store_path)
    assert len(reloaded) == 1
    assert reloaded.lookup("env1", "fp1").spec == "new"


def test_corrupt_lines_are_tolerated_and_counted(tmp_path):
    # a killed writer can leave torn/garbage lines behind
    store = ObligationStore(tmp_path / "store")
    store.record(_entry("fp1"))
    store.flush()
    entries_file = tmp_path / "store" / "entries.jsonl"
    with entries_file.open("ab") as handle:
        handle.write(b"{not json at all\n")
        handle.write(b'{"json": "but not an entry"}\n')
        handle.write(b'["not", "even", "a", "dict"]\n')
        handle.write(b"\xff\xfe invalid utf-8\n")
        handle.write(b'{"env": "env1", "fp": "torn", "inc": tr')  # torn final write

    reloaded = ObligationStore(tmp_path / "store")
    assert len(reloaded) == 1
    assert reloaded.lookup("env1", "fp1").spec == "s1"
    assert reloaded.summary()["skipped"] == 5, "corrupt lines are counted, not fatal"


def test_schema_mismatch_discards_old_entries(store_path):
    store = ObligationStore(store_path)
    store.record(_entry("fp1"))
    store.flush()
    (store_path / "meta.json").write_text(json.dumps({"schema": "some-other-version"}) + "\n")

    reloaded = ObligationStore(store_path)
    assert len(reloaded) == 0
    meta = json.loads((store_path / "meta.json").read_text())
    assert meta["schema"] == SCHEMA_VERSION
    # the wipe restamps the schema: the store is immediately usable again
    reloaded.record(_entry("fp2"))
    reloaded.flush()
    assert len(ObligationStore(store_path)) == 1


def test_resource_limit_errors_are_never_persisted(store_path, monkeypatch):
    """Error outcomes depend on the warm-solver snapshot (run shape), so they
    must be re-discharged every run instead of being replayed from the store."""
    library = benchmark_by_key("Set/KVStore").library
    store = ObligationStore(store_path)
    context = StoreContext(
        scope="Set/KVStore", method="insert", spec_digest="s", library_digest="l"
    )

    def exploding_discharge(obligations, *args, **kwargs):
        result = {
            "included": False,
            "counterexample": None,
            "error": "minterm budget exceeded",
            "inclusion": {},
            "solver": {},
        }
        return [dict(result) for _ in obligations]

    monkeypatch.setattr(scheduler, "discharge_group", exploding_discharge)
    engine = ObligationEngine(library.operators, store=store)
    obligations = ObligationSet(method="insert")
    obligations.emit("postcondition", [], symbolic.any_trace(), symbolic.TOP)
    outcomes = engine.discharge_all(obligations, store_context=context)
    assert outcomes[0].error == "minterm budget exceeded"
    assert len(store) == 0, "a budget failure must not become a permanent verdict"
    assert engine.stats.store_misses == 1

    # and a pre-existing error entry (older store) is treated as a miss
    digest = obligation_digest(obligations.obligations[0])
    store.record(
        StoreEntry(
            env=engine._env_fp,
            fp=digest,
            included=False,
            error="stale budget failure",
            scope="Set/KVStore",
            method="insert",
            spec="s",
            library="l",
        )
    )
    fresh_engine = ObligationEngine(library.operators, store=store)
    fresh_outcomes = fresh_engine.discharge_all(obligations, store_context=context)
    assert fresh_engine.stats.store_hits == 0
    assert fresh_outcomes[0].error == "minterm budget exceeded"  # re-discharged


def test_invalidation_is_dependency_scoped(store_path):
    store = ObligationStore(store_path)
    store.record(_entry("set-insert", scope="Set/KVStore", method="insert", spec="s1"))
    store.record(_entry("set-mem", scope="Set/KVStore", method="mem", spec="m1"))
    store.record(_entry("stack-push", scope="Stack/KVStore", method="push", spec="p1"))
    store.flush()

    # unchanged spec/library: nothing dropped
    assert store.invalidate_stale("Set/KVStore", "insert", "s1", "l1") == 0

    # an edit of Set's insert spec drops exactly that method's entries
    assert store.invalidate_stale("Set/KVStore", "insert", "s1-edited", "l1") == 1
    assert store.lookup("env1", "set-insert") is None
    assert store.lookup("env1", "set-mem") is not None
    assert store.lookup("env1", "stack-push") is not None

    # a library change drops the whole scope, other scopes stay
    assert store.invalidate_stale("Set/KVStore", "mem", "m1", "l2") == 1
    assert store.lookup("env1", "set-mem") is None
    assert store.lookup("env1", "stack-push") is not None

    # invalidation rewrites the log: a reload agrees
    reloaded = ObligationStore(store_path)
    assert {entry.fp for entry in reloaded} == {"stack-push"}


def test_session_bookkeeping_backs_explain(tmp_path):
    store = ObligationStore(tmp_path / "store")
    store.note_method("Set/KVStore", "insert", hits=2, misses=1, invalidated=3)
    store.note_method("Set/KVStore", "insert", hits=1)
    store.note_method("Set/KVStore", "mem", misses=4)
    assert store.summary() == {
        "entries": 0,
        "hits": 3,
        "misses": 5,
        "invalidated": 3,
        "skipped": 0,
    }
    assert store.explain() == [
        {"scope": "Set/KVStore", "method": "insert", "hits": 3, "misses": 1, "invalidated": 3},
        {"scope": "Set/KVStore", "method": "mem", "hits": 0, "misses": 4, "invalidated": 0},
    ]
