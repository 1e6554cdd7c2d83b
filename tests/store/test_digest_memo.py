"""Identity-memoised spec/library digests (one checker run digests once)."""

from repro.store import fingerprint as fp
from repro.suite.registry import all_benchmarks


def _bench():
    return all_benchmarks(include_slow=False)[0]


def test_spec_digest_is_memoised_per_object():
    bench = _bench()
    spec = next(iter(bench.specs.values()))
    first = fp.spec_digest(spec)
    assert fp._SPEC_DIGEST_MEMO[id(spec)][1] == first
    # poison the cached value: a second call must come from the memo
    fp._SPEC_DIGEST_MEMO[id(spec)] = (spec, "sentinel")
    try:
        assert fp.spec_digest(spec) == "sentinel"
    finally:
        del fp._SPEC_DIGEST_MEMO[id(spec)]
    assert fp.spec_digest(spec) == first


def test_spec_digest_distinguishes_distinct_objects():
    bench = _bench()
    digests = {fp.spec_digest(spec) for spec in bench.specs.values()}
    assert len(digests) == len(bench.specs)


def test_library_digest_is_memoised_per_identity():
    bench = _bench()
    operators, axioms = bench.library.operators, bench.library.axioms
    first = fp.library_digest(operators, axioms, bench.library.constants)
    key = (id(operators), id(axioms))
    assert fp._LIBRARY_DIGEST_MEMO[key][3] == first
    fp._LIBRARY_DIGEST_MEMO[key] = (
        operators,
        axioms,
        fp._LIBRARY_DIGEST_MEMO[key][2],
        "sentinel",
    )
    try:
        assert fp.library_digest(operators, axioms, bench.library.constants) == "sentinel"
    finally:
        del fp._LIBRARY_DIGEST_MEMO[key]
    assert fp.library_digest(operators, axioms, bench.library.constants) == first


def test_library_digest_notices_constant_changes_despite_identity():
    """The identity memo must not mask a *content* change in the constants."""
    from repro import smt
    from repro.smt.sorts import ELEM

    bench = _bench()
    operators, axioms = bench.library.operators, bench.library.axioms
    base = fp.library_digest(operators, axioms, {})
    changed = fp.library_digest(
        operators, axioms, {"c0": smt.var("digest_memo_c0", ELEM)}
    )
    assert base != changed
    assert fp.library_digest(operators, axioms, {}) == base


def test_checker_env_fingerprint_matches_direct_engine_construction(tmp_path):
    """The checker and a bare engine must key the same store namespace.

    Regression guard: the checker's dependency-index digest includes the
    constant table, the environment fingerprint never has — wiring the
    former into the latter would silently cold-start every existing store
    for constant-bearing libraries and split the namespace between the two
    construction paths.
    """
    from repro.engine import ObligationEngine
    from repro.store.obligation_store import ObligationStore
    from repro.typecheck.checker import CheckerConfig

    bench = next(b for b in all_benchmarks() if b.library.constants)
    store = ObligationStore(tmp_path)
    checker = bench.make_checker(CheckerConfig(), store=store)
    direct = ObligationEngine(
        bench.library.operators,
        bench.library.axioms,
        max_literals=checker.config.max_literals,
        store=store,
    )
    assert checker.obligation_engine._env_fp == direct._env_fp

