"""Worker-built alphabet keys travel back to the parent as eager-build hints.

A forked worker's :class:`AlphabetMemo` entries die with it — only the *keys*
of what it built are picklable.  Workers report those keys in their result
dicts; the parent records them (``EngineStats.worker_memo_keys``) and, before
forking a later batch, pre-builds any hinted construction it is missing
(``memo_eager_builds``) so the pool inherits it copy-on-write instead of
re-running it in every child.  Hints are pure reuse: the memo's recorded
bills keep every deterministic counter byte-identical either way, which the
cross-worker determinism suite locks in.
"""

import pickle

from repro import smt
from repro.smt import sorts
from repro.sfa import symbolic as S
from repro.sfa.alphabet import AlphabetMemo
from repro.sfa.signatures import OperatorRegistry
from repro.engine.obligations import Obligation
from repro.engine.scheduler import DischargeParams, ObligationEngine, _discharge_group_payload
from repro.suite.set_kvstore import set_kvstore
from repro.typecheck.checker import CheckerConfig


def _toy_obligation() -> tuple[OperatorRegistry, Obligation]:
    registry = OperatorRegistry()
    registry.declare("put", [("x", sorts.ELEM)], sorts.UNIT)
    signature = next(iter(registry))
    formal = next(f for f in signature.formals if f.sort is sorts.ELEM)
    predicate = smt.declare("hint_p", [sorts.ELEM], smt.BOOL, method_predicate=True)
    lhs = S.event(signature, smt.apply(predicate, formal))
    rhs = S.event(signature, smt.TRUE)
    obligation = Obligation(
        kind="test",
        hypotheses=(),
        lhs=lhs,
        rhs=rhs,
        provenance="toy",
        failure_message="inclusion failed",
        index=0,
    )
    return registry, obligation


def test_worker_reported_keys_become_eager_builds():
    registry, obligation = _toy_obligation()
    engine = ObligationEngine(registry)
    memo = engine.params.alphabet_memo
    key, _ = engine._group_key(obligation)
    assert key not in memo

    # harvest a (simulated) worker result's memo_keys
    engine._note_worker_keys([[key]])
    assert engine.stats.worker_memo_keys == 1
    # the same key again is not re-counted
    engine._note_worker_keys([[key]])
    assert engine.stats.worker_memo_keys == 1

    # the hinted construction is built once in the parent, then held
    engine._prebuild_hinted([(key, obligation)])
    assert engine.stats.memo_eager_builds == 1
    assert key in memo
    engine._prebuild_hinted([(key, obligation)])
    assert engine.stats.memo_eager_builds == 1


def test_unhinted_keys_are_not_prebuilt():
    registry, obligation = _toy_obligation()
    engine = ObligationEngine(registry)
    key, _ = engine._group_key(obligation)
    engine._prebuild_hinted([(key, obligation)])
    assert engine.stats.memo_eager_builds == 0
    assert key not in engine.params.alphabet_memo


def test_discharge_obligation_reports_built_memo_keys():
    """A cold discharge reports the keys it built — picklable, so they can
    cross the pool boundary — and a replayed one reports none."""
    registry, obligation = _toy_obligation()
    params = DischargeParams(operators=registry, alphabet_memo=AlphabetMemo())
    first = _discharge_group_payload([obligation], params)
    assert first["members"][0]["included"]
    assert first["memo_keys"], "a cold discharge must report its built keys"
    assert pickle.loads(pickle.dumps(first["memo_keys"])) == first["memo_keys"]

    second = _discharge_group_payload([obligation], params)
    assert second["members"][0]["included"]
    assert second["memo_keys"] == []


def test_memo_keys_absent_without_a_shared_memo():
    registry, obligation = _toy_obligation()
    params = DischargeParams(operators=registry)
    result = _discharge_group_payload([obligation], params)
    assert result["members"][0]["included"]
    assert result["memo_keys"] == []


def test_batch_pool_matches_serial_byte_identical():
    """Grouped discharge under a 4-way pool harvests worker keys and still
    reproduces the serial counter tables exactly."""
    bench = set_kvstore()
    serial_checker = bench.make_checker(CheckerConfig(workers=1))
    serial_stats = bench.verify_all(serial_checker)
    pool_checker = bench.make_checker(CheckerConfig(workers=4))
    pool_stats = bench.verify_all(pool_checker)

    assert [r.stats.counter_row() for r in pool_stats.method_results] == [
        r.stats.counter_row() for r in serial_stats.method_results
    ]
    assert [(r.method, r.verified, r.error) for r in pool_stats.method_results] == [
        (r.method, r.verified, r.error) for r in serial_stats.method_results
    ]
    engine = pool_checker.obligation_engine
    assert engine.stats.batch_groups > 0
    assert engine.stats.batch_grouped_obligations >= engine.stats.batch_groups
