"""The store-op budget of a serial corpus run, on either transport.

A serial ``run_evaluation`` emits every method before it reads the store,
so the methods' invalidation keys ride one batched ``invalidate`` and each
benchmark's reads one batched ``lookup`` — the same budget a dispatch
coordinator keeps.  A local store path and a served URL run the same
session code against the same service ops, so both legs read the counts
from the service's ``stats`` op.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation.runner import run_evaluation
from repro.store.obligation_store import ObligationStore
from repro.store.server import StoreHTTPServer, StoreService, serve_in_thread
from repro.suite.registry import all_benchmarks

SRC = Path(__file__).resolve().parents[2] / "src"


def _op_counts(store):
    """The service's per-op request counts (its ``stats`` op excluded)."""
    ops = store.backend.stats()["ops"]
    return {op: record["count"] for op, record in ops.items() if op != "stats"}


def _cold_then_warm(open_path):
    """Run the fast corpus cold and then warm, each in a fresh session; the
    ops each run sent after its session opened."""
    runs = []
    for _ in ("cold", "warm"):
        store = ObligationStore(open_path)
        before = _op_counts(store)
        report = run_evaluation(include_slow=False, store=store)
        after = _op_counts(store)
        delta = {op: count - before.get(op, 0) for op, count in after.items()}
        runs.append((report, store, {op: n for op, n in delta.items() if n}))
    return runs


@pytest.fixture(scope="module", params=("jsonl", "served"))
def cold_and_warm_ops(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("op-budget") / "store"
    if request.param == "jsonl":
        return _cold_then_warm(path)
    service = StoreService(path)
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        runs = _cold_then_warm(httpd.url)
    service.close()
    return runs


def test_a_cold_serial_run_sends_one_invalidate(cold_and_warm_ops):
    (report, store, ops), _ = cold_and_warm_ops
    assert report.all_verified and report.all_negatives_rejected
    assert store.summary()["misses"] > 0
    assert ops["invalidate"] == 1, f"every method's key rides one invalidate: {ops}"


def test_a_warm_serial_run_costs_one_lookup_per_benchmark(cold_and_warm_ops):
    _, (warm, store, ops) = cold_and_warm_ops
    benchmarks = len(all_benchmarks(include_slow=False))
    assert store.summary()["misses"] == 0
    assert ops["invalidate"] == 1, ops
    assert ops["lookup"] <= benchmarks, ops
    assert "append" not in ops, "a warm run writes no entry"
    assert warm.all_verified and warm.all_negatives_rejected


def test_opening_a_local_store_never_imports_the_http_server(tmp_path):
    """A local path runs the service in-process: the serving stack stays
    unimported (checked in a fresh interpreter, whose imports are its own)."""
    probe = (
        "import sys\n"
        "from repro.store.obligation_store import ObligationStore\n"
        f"store = ObligationStore({str(tmp_path / 'store')!r})\n"
        "store.lookup('env', 'fp')\n"
        "store.commit_run()\n"
        "print('http.server' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
