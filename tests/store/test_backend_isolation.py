"""Store isolation across solver backends.

The environment fingerprint includes the backend id, so verdicts (and, more
importantly, the recorded per-obligation #SAT/#Confl counters) discharged
under one backend must be invisible to a run under another: zero warm hits,
no entry overwritten — the two backends populate disjoint key spaces in the
same store file.
"""

from repro.store.fingerprint import environment_fingerprint
from repro.store.obligation_store import ObligationStore
from repro.suite.registry import benchmark_by_key
from repro.typecheck.checker import CheckerConfig


def _verify_with(store, backend):
    bench = benchmark_by_key("Set/KVStore")
    checker = bench.make_checker(CheckerConfig(backend=backend), store=store)
    stats = bench.verify_all(checker)
    assert stats.all_verified
    return stats


def test_environment_fingerprint_separates_backends():
    bench = benchmark_by_key("Set/KVStore")
    fps = {
        backend: environment_fingerprint(
            bench.library.operators, bench.library.axioms, backend=backend
        )
        for backend in ("dpll", "cdcl")
    }
    assert len(set(fps.values())) == 2


def test_warm_store_from_other_backend_is_invisible(store_path):
    path = store_path

    # cold run under dpll populates the store
    warm_store = ObligationStore(path)
    _verify_with(warm_store, "dpll")
    warm_store.flush()
    dpll_summary = ObligationStore(path).summary()
    assert dpll_summary["entries"] > 0

    dpll_entries = {
        entry.key: entry.to_json() for entry in ObligationStore(path)
    }

    # a cdcl run against the same store: zero hits, nothing overwritten
    cdcl_store = ObligationStore(path)
    cdcl_stats = _verify_with(cdcl_store, "cdcl")
    cdcl_store.flush()
    summary = cdcl_store.summary()
    assert summary["hits"] == 0, "a cdcl run must not hit dpll-recorded entries"
    assert summary["misses"] > 0

    reloaded = {entry.key: entry.to_json() for entry in ObligationStore(path)}
    for key, payload in dpll_entries.items():
        assert reloaded[key] == payload, "dpll entries must survive byte for byte"
    assert len(reloaded) > len(dpll_entries), (
        "the cdcl run records its own entries under its own environment key"
    )
    assert sum(r.stats.store_hits for r in cdcl_stats.method_results) == 0

    # and the warm start *within* the cdcl environment still works
    warm_cdcl = ObligationStore(path)
    _verify_with(warm_cdcl, "cdcl")
    assert warm_cdcl.summary()["misses"] == 0
    assert warm_cdcl.summary()["hits"] > 0
