"""The store-op budget of a serial corpus run, on either transport.

A serial ``run_evaluation`` emits every method before it reads the store,
so the methods' invalidation keys ride one batched ``invalidate`` and each
benchmark's reads one batched ``lookup`` — the same budget a dispatch
coordinator keeps.  A local store path and a served URL run the same
session code against the same service ops, so both legs read the counts
from the service's ``stats`` op.  ``check BENCH`` runs the same phases
for one benchmark, so it too sends one ``invalidate`` per run.

A local session and the local commands load no networking or fleet code;
the import budget is pinned in fresh interpreters, next to a positive
control showing a URL store does load the HTTP transport.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation.runner import run_evaluation
from repro.store.backends import SCHEMA_VERSION
from repro.store.obligation_store import ObligationStore
from repro.store.server import StoreHTTPServer, StoreService, serve_in_thread
from repro.suite.registry import all_benchmarks, benchmark_by_key

SRC = Path(__file__).resolve().parents[2] / "src"

#: what a local session and the local commands never load: the HTTP and
#: socket stack, the fork machinery, and the store's transport/serving and
#: the fleet's modules (a name also covers its submodules)
NETWORK_AND_FLEET = (
    "http.client",
    "http.server",
    "ssl",
    "email",
    "socket",
    "uuid",
    "multiprocessing",
    "repro.store.remote",
    "repro.store.server",
    "repro.engine.dispatch",
    "repro.engine.worker",
    "repro.engine.codec",
)


def _op_counts(store):
    """The service's per-op request counts (its ``stats`` op excluded)."""
    ops = store.backend.stats()["ops"]
    return {op: record["count"] for op, record in ops.items() if op != "stats"}


def _run_fresh(probe):
    """Run ``probe`` in a fresh interpreter, whose imports are its own;
    returns its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def _evaluate_fast(store):
    return run_evaluation(include_slow=False, store=store)


def _cold_then_warm(open_path, run):
    """``run(store)`` cold and then warm, each in a fresh session; its
    result, the session and the ops it sent after the session opened."""
    runs = []
    for _ in ("cold", "warm"):
        store = ObligationStore(open_path)
        before = _op_counts(store)
        result = run(store)
        after = _op_counts(store)
        delta = {op: count - before.get(op, 0) for op, count in after.items()}
        runs.append((result, store, {op: n for op, n in delta.items() if n}))
    return runs


def _on_either_transport(kind, path, run):
    """``run(open_path)`` against a local store path or a served URL."""
    if kind == "jsonl":
        return run(path)
    service = StoreService(path)
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        result = run(httpd.url)
    service.close()
    return result


@pytest.fixture(scope="module", params=("jsonl", "served"))
def cold_and_warm_ops(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("op-budget") / "store"
    return _on_either_transport(
        request.param, path, lambda open_path: _cold_then_warm(open_path, _evaluate_fast)
    )


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


def _check_twice(open_path):
    """``check Set/KVStore`` cold then warm (:func:`_cold_then_warm`)."""
    bench = benchmark_by_key("Set/KVStore")
    return _cold_then_warm(open_path, lambda store: bench.verify_all(bench.make_checker(store=store)))


@pytest.mark.parametrize("kind", ("jsonl", "served"))
def test_checking_a_benchmark_sends_one_invalidate(kind, tmp_path):
    """``check BENCH`` emits every method before it reads the store, so its
    three methods' keys ride one ``invalidate`` per session."""
    runs = _on_either_transport(kind, tmp_path / "store", _check_twice)
    for run, (stats, _, ops) in zip(("cold", "warm"), runs):
        assert stats.all_verified, run
        assert ops["invalidate"] == 1, f"{run}: {ops}"
        assert ops["lookup"] == 1, f"{run}: one batched lookup per benchmark: {ops}"


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
    assert _run_fresh(probe).strip() == "False"


def test_local_runs_never_load_the_network_stack_or_the_fleet(tmp_path):
    """Cold and warm ``run_evaluation`` on a local store, then the local
    ``evaluate``, ``check``, ``table`` and ``store gc`` commands: none loads
    networking, fork or fleet code — only ``store serve``/``stats``,
    ``dispatch`` and ``worker`` need it."""
    probe = f"""
import contextlib, io, json, sys
from repro.cli import main
from repro.evaluation.runner import run_evaluation
from repro.store.obligation_store import ObligationStore

FORBIDDEN = {NETWORK_AND_FLEET!r}
path = {str(tmp_path / "store")!r}

def loaded():
    return sorted(
        name for name in sys.modules
        if any(name == root or name.startswith(root + ".") for root in FORBIDDEN)
    )

steps = {{"import": loaded()}}
for run in ("cold", "warm"):
    store = ObligationStore(path)
    report = run_evaluation(include_slow=False, store=store)
    store.commit_run()
    assert report.all_verified and report.all_negatives_rejected, run
    steps[f"run_evaluation {{run}}"] = loaded()
for argv in (
    ["evaluate", "--fast", "--store", path],
    ["check", "Set/KVStore", "--store", path],
    ["table", "2"],
    ["store", "gc", "--keep-last", "2", "--store", path],
):
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    assert status == 0, argv
    steps[" ".join(argv[:2])] = loaded()
print(json.dumps(steps))
"""
    steps = json.loads(_run_fresh(probe))
    assert len(steps) == 7
    assert {step: mods for step, mods in steps.items() if mods} == {}


def test_opening_a_url_store_loads_the_http_transport(tmp_path):
    """The positive control: an ``http://`` store does load the transport
    (and only at open), and its handshake reaches the server."""
    service = StoreService(tmp_path / "store")
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        probe = (
            "import json, sys\n"
            "from repro.store.obligation_store import ObligationStore\n"
            "modules = ('repro.store.remote', 'http.client')\n"
            "before = [name in sys.modules for name in modules]\n"
            f"store = ObligationStore({httpd.url!r})\n"
            "after = [name in sys.modules for name in modules]\n"
            "schema = store.backend.handshake()['schema']\n"
            "print(json.dumps([before, after, store.is_remote, schema]))\n"
        )
        before, after, is_remote, schema = json.loads(_run_fresh(probe))
    handshakes = service.execute("stats", {})["ops"]["handshake"]["count"]
    service.close()
    assert before == [False, False], "importing the session loads no transport"
    assert after == [True, True], "a URL store loads the HTTP transport"
    assert is_remote and schema == SCHEMA_VERSION
    assert handshakes == 1
