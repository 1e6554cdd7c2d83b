"""Determinism of parallel discharge: ``workers=N`` must not change results.

Every obligation is discharged hermetically (fresh solver + checker), so all
statistics counters are pure functions of the obligation set.  The tables
produced with a 4-way process pool must therefore be byte-identical to the
serial ones — wall-clock columns aside, which vary run to run even serially.
"""

import pytest

from repro.suite.registry import all_benchmarks
from repro.suite.set_kvstore import set_kvstore
from repro.typecheck.checker import CheckerConfig


def _counter_tables(bench, workers: int, backend: str = "dpll"):
    checker = bench.make_checker(CheckerConfig(workers=workers, backend=backend))
    stats = bench.verify_all(checker)
    rows = [result.stats.counter_row() for result in stats.method_results]
    verdicts = [
        (result.method, result.verified, result.error)
        for result in stats.method_results
    ]
    return rows, verdicts, checker


def test_workers4_matches_workers1_byte_identical():
    bench = set_kvstore()
    serial_rows, serial_verdicts, _ = _counter_tables(bench, workers=1)
    parallel_rows, parallel_verdicts, checker = _counter_tables(bench, workers=4)
    assert checker.obligation_engine.stats.parallel_batches > 0, (
        "the pool must actually have been exercised"
    )
    assert parallel_rows == serial_rows
    assert parallel_verdicts == serial_verdicts


def test_workers4_matches_workers1_under_cdcl():
    """Hermetic discharge keeps counters worker-independent per backend —
    including the backend-sensitive ones (#SAT/#Confl), which are pure in
    (backend, obligation)."""
    bench = set_kvstore()
    serial_rows, serial_verdicts, _ = _counter_tables(bench, workers=1, backend="cdcl")
    parallel_rows, parallel_verdicts, checker = _counter_tables(
        bench, workers=4, backend="cdcl"
    )
    assert checker.obligation_engine.stats.parallel_batches > 0
    assert parallel_rows == serial_rows
    assert parallel_verdicts == serial_verdicts


@pytest.mark.parametrize(
    "key", [bench.key for bench in all_benchmarks(include_slow=False)]
)
def test_workers2_matches_workers1_across_fast_corpus(key):
    bench = next(b for b in all_benchmarks(include_slow=False) if b.key == key)
    serial_rows, serial_verdicts, _ = _counter_tables(bench, workers=1)
    parallel_rows, parallel_verdicts, _ = _counter_tables(bench, workers=2)
    assert parallel_rows == serial_rows
    assert parallel_verdicts == serial_verdicts


def test_negative_variant_errors_are_worker_independent():
    bench = set_kvstore()
    errors = {}
    for workers in (1, 4):
        checker = bench.make_checker(CheckerConfig(workers=workers))
        result = bench.verify_negative_variant("insert_bad", checker)
        assert not result.verified
        errors[workers] = result.error
    assert errors[1] == errors[4]
    assert "counterexample trace:" in errors[1]


def test_pool_falls_back_to_serial_without_fork(monkeypatch):
    from repro.engine import scheduler

    monkeypatch.setattr(scheduler, "_fork_available", lambda: False)
    bench = set_kvstore()
    rows, verdicts, checker = _counter_tables(bench, workers=4)
    assert checker.obligation_engine.stats.parallel_batches == 0
    serial_rows, serial_verdicts, _ = _counter_tables(bench, workers=1)
    assert rows == serial_rows and verdicts == serial_verdicts
