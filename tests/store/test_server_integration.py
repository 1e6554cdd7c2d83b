"""The served store under real load: concurrent clients and full engine runs.

The acceptance suite of the shared-cache service:

* eight concurrent client *processes* hammer one serve instance with
  distinct and overlapping writes — afterwards every entry is present and
  intact (zero skipped records) and the run log holds one record per client
  under distinct sequence numbers;
* a cold engine run against ``--store http://…`` warms the shared store such
  that a second run records **zero** misses and renders deterministic
  Tables 1/3/4 byte-identical to a plain local-backend run's;
* the CLI round-trips: ``store serve`` + ``evaluate --store URL`` as real
  subprocesses, including the clean-shutdown path.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.evaluation.runner import run_evaluation
from repro.evaluation.tables import table1, table3, table4
from repro.store.backends import open_backend
from repro.store.obligation_store import ObligationStore, StoreEntry
from repro.store.server import StoreHTTPServer, StoreService, serve_in_thread

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the integration suite forks client processes",
)

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

CLIENTS = 8
DISTINCT = 20
SHARED = 10


@pytest.fixture
def served(store_path):
    service = StoreService(store_path)
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        yield httpd.url
    service.close()


def _entry(env, fp):
    return StoreEntry(
        env=env,
        fp=fp,
        included=True,
        solver_stats={"queries": 1},
        inclusion_stats={"fa_inclusion_checks": 1},
        scope="Set/KVStore",
        method="insert",
        spec="s1",
        library="l1",
        kind="postcondition",
        provenance="insert: postcondition",
    )


def _client(url, index, barrier):
    store = ObligationStore(url)
    barrier.wait()  # maximise contention: every client fires at once
    for i in range(DISTINCT):
        store.record(_entry(f"env-{index}", f"c{index}-{i}"))
        if i % 5 == 4:
            store.flush()
    # overlapping keys: identical content, so any interleaving converges
    for i in range(SHARED):
        store.record(_entry("shared", f"common-{i}"))
    store.flush()
    if index % 2 == 0:
        store.compact()  # rewriters racing the appenders, server-side
    store.commit_run()


def test_eight_concurrent_clients_lose_nothing(served, store_path):
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(CLIENTS)
    processes = [
        context.Process(target=_client, args=(served, index, barrier))
        for index in range(CLIENTS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join()
    assert all(process.exitcode == 0 for process in processes), (
        f"client exit codes: {[p.exitcode for p in processes]}"
    )

    backend = open_backend(store_path)
    try:
        state = backend.load(wipe_mismatch=False)
    finally:
        backend.close()
    expected = {
        (f"env-{c}", f"c{c}-{i}") for c in range(CLIENTS) for i in range(DISTINCT)
    } | {("shared", f"common-{i}") for i in range(SHARED)}
    assert set(state.entries) == expected, "no write may be lost"
    assert state.skipped == 0, "no record may be torn"
    assert [r["run"] for r in state.runs] == list(range(1, CLIENTS + 1)), (
        "every client's run record survives under its own sequence number"
    )


def test_remote_engine_runs_warm_to_byte_identical_tables(served, store_path):
    cold_store = ObligationStore(served)
    run_evaluation(include_slow=False, store=cold_store)
    assert cold_store.summary()["misses"] > 0

    warm_store = ObligationStore(served)
    warm = run_evaluation(include_slow=False, store=warm_store)
    summary = warm_store.summary()
    assert summary["misses"] == 0, "the server answers the whole warm workload"
    assert summary["invalidated"] == 0
    assert summary["skipped"] == 0

    # against the backend files directly, not through the server: the wire
    # must not have altered a byte that matters
    local = run_evaluation(include_slow=False, store=ObligationStore(store_path))
    for render in (table1, table3, table4):
        assert render(warm, deterministic=True) == render(local, deterministic=True), (
            "a served store must warm byte-identical deterministic tables"
        )


def test_remote_store_invalidation_and_gc_round_trip(served):
    """The maintenance surface works end to end against a live server."""
    store = ObligationStore(served)
    run_evaluation(include_slow=False, store=store)
    total = len(store)
    assert total > 0
    assert store.gc(keep_last=1) == 0, "everything is referenced by the run just committed"
    assert len(store) == total


def _cli(args, env=None):
    merged = dict(os.environ)
    merged["PYTHONPATH"] = REPO_SRC + os.pathsep + merged.get("PYTHONPATH", "")
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=merged,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_serve_and_evaluate_round_trip(store_path, tmp_path):
    ready = tmp_path / "ready"
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "store", "serve",
            "--store", str(store_path), "--port", "0", "--ready-file", str(ready),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not (ready.exists() and ready.read_text().strip()):
            assert time.monotonic() < deadline, "server never became ready"
            assert server.poll() is None, "server died at startup"
            time.sleep(0.02)
        url = ready.read_text().strip()

        cold = _cli(["evaluate", "--fast", "--store", url, "--json"])
        assert cold.returncode == 0, cold.stderr
        warm = _cli(["evaluate", "--fast", "--store", url, "--json"])
        assert warm.returncode == 0, warm.stderr
        cold_payload, warm_payload = json.loads(cold.stdout), json.loads(warm.stdout)
        assert warm_payload["store"]["summary"]["misses"] == 0
        assert warm_payload["store"]["summary"]["skipped"] == 0
        assert (
            warm_payload["tables_deterministic"] == cold_payload["tables_deterministic"]
        )
    finally:
        server.send_signal(signal.SIGTERM)
        output, _ = server.communicate(timeout=15)
    assert server.returncode == 0, f"clean shutdown expected, got: {output}"
    assert "store server stopped" in output


def test_cli_rejects_a_dead_server_with_a_diagnosis():
    result = _cli(
        ["evaluate", "--fast", "--store", "http://127.0.0.1:9", "--json"],
        env={
            "REPRO_STORE_RPC_RETRIES": "2",
            "REPRO_STORE_RPC_TIMEOUT": "0.2",
            "REPRO_STORE_RPC_BACKOFF": "0.01",
        },
    )
    assert result.returncode == 2
    assert "error:" in result.stderr and "unreachable" in result.stderr
