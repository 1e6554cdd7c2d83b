"""Store isolation across checker environments.

The environment fingerprint includes every knob that steers the alphabet
transformation, so verdicts (and the recorded per-obligation counters)
discharged under one environment must be invisible to a run under another:
zero warm hits, no entry overwritten — the two environments populate
disjoint key spaces in the same store.  The literal budget is the axis used
here: the fast corpus never reaches 24 literals, so a budget of 25 changes
the environment key and nothing else.
"""

from repro.store.fingerprint import environment_fingerprint
from repro.store.obligation_store import ObligationStore
from repro.suite.registry import benchmark_by_key
from repro.typecheck.checker import CheckerConfig

#: an environment that differs from the default only in its key
OTHER = CheckerConfig(max_literals=25)


def _verify_with(store, config):
    bench = benchmark_by_key("Set/KVStore")
    checker = bench.make_checker(config, store=store)
    stats = bench.verify_all(checker)
    assert stats.all_verified
    return stats


def test_environment_fingerprint_separates_literal_budgets():
    bench = benchmark_by_key("Set/KVStore")
    fps = {
        environment_fingerprint(
            bench.library.operators, bench.library.axioms, max_literals=config.max_literals
        )
        for config in (CheckerConfig(), OTHER)
    }
    assert len(fps) == 2


def test_warm_store_from_other_environment_is_invisible(store_path):
    path = store_path

    # a cold run under the default environment populates the store
    warm_store = ObligationStore(path)
    _verify_with(warm_store, CheckerConfig())
    warm_store.flush()
    default_summary = ObligationStore(path).summary()
    assert default_summary["entries"] > 0

    default_entries = {
        entry.key: entry.to_json() for entry in ObligationStore(path)
    }

    # a run under the other environment: zero hits, nothing overwritten
    other_store = ObligationStore(path)
    other_stats = _verify_with(other_store, OTHER)
    other_store.flush()
    summary = other_store.summary()
    assert summary["hits"] == 0, "verdicts must never cross environments"
    assert summary["misses"] > 0

    reloaded = {entry.key: entry.to_json() for entry in ObligationStore(path)}
    for key, payload in default_entries.items():
        assert reloaded[key] == payload, "default entries must survive byte for byte"
    assert len(reloaded) > len(default_entries), (
        "the other run records its own entries under its own environment key"
    )
    assert sum(r.stats.store_hits for r in other_stats.method_results) == 0

    # and the warm start *within* the other environment still works
    warm_other = ObligationStore(path)
    _verify_with(warm_other, OTHER)
    assert warm_other.summary()["misses"] == 0
    assert warm_other.summary()["hits"] > 0
