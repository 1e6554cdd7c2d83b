"""The store service over real sockets: every protocol op.

An in-process :class:`StoreHTTPServer` wraps a local store directory and a
real :class:`RemoteStoreBackend` talks to it over the loopback, so these tests
cover exactly the bytes that cross the wire in production — plus the
hand-rolled HTTP corners (404/400, GET, non-JSON bodies) and server-side
idempotency replay.
"""

import http.client
import json
import socket
import time

import pytest

from repro.store.backends import SCHEMA_VERSION, StoreEntry, open_backend
from repro.store.client import RemoteStoreError
from repro.store.obligation_store import ObligationStore
from repro.store.remote import RemoteStoreBackend
from repro.store.server import StoreHTTPServer, StoreService, serve_in_thread


@pytest.fixture
def server(store_path):
    service = StoreService(store_path)
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        yield httpd
    service.close()


@pytest.fixture
def client(server):
    return RemoteStoreBackend(server.url)


def _entry(fp, env="env1", **overrides):
    fields = dict(
        env=env,
        fp=fp,
        included=True,
        solver_stats={"queries": 2},
        inclusion_stats={"fa_inclusion_checks": 1},
        scope="Set/KVStore",
        method="insert",
        spec="s1",
        library="l1",
        kind="postcondition",
        provenance="insert: postcondition",
        cost={"wall": 0.5},
    )
    fields.update(overrides)
    return StoreEntry(**fields)


def _raw(server, method, path, body=None):
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
    try:
        conn.request(
            method,
            path,
            body=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


# -- the operations ----------------------------------------------------------------


def test_handshake_reports_the_wrapped_store(server, client):
    info = client.handshake()
    assert info["schema"] == SCHEMA_VERSION
    assert info["backend"] == "jsonl"
    assert info["entries"] == 0 and info["runs"] == 0 and info["skipped"] == 0
    # and GET works for humans with curl
    status, payload = _raw(server, "GET", "/handshake")
    assert status == 200 and payload["backend"] == "jsonl"


def test_append_then_lookup_roundtrips_entries(client):
    original = _entry("f1")
    client.append_entries([original, _entry("f2", included=False)])
    found = client.lookup("env1", ["f1", "missing", "f2"])
    assert {e.fp for e in found} == {"f1", "f2"}
    echoed = next(e for e in found if e.fp == "f1")
    assert echoed.to_json() == original.to_json(), "the wire is lossless"
    assert client.entries_total == 2
    assert client.lookup("other-env", ["f1"]) == [], (
        "environment fingerprints partition the remote store too"
    )


def test_appends_are_durable_not_just_cached(server, client, store_path):
    client.append_entries([_entry("f1")])
    behind = open_backend(store_path)
    try:
        state = behind.load(wipe_mismatch=False)
    finally:
        behind.close()
    assert ("env1", "f1") in state.entries, "the backend is written before the ack"


def test_cost_hints_cover_the_whole_store(client):
    """The service's cost index covers every entry it holds: a recorded wall
    time, under any environment, outranks the estimate a coordinator sends;
    an obligation with no recorded cost keeps the estimate."""
    client.append_entries([_entry("f1", cost={"wall": 0.5}), _entry("f2", cost={})])
    client.enqueue(
        [{"env": "env2", "fp": fp, "bench": "b", "cost": 7.0} for fp in ("f1", "f2")]
    )
    items = {item["fp"]: item for item in client.lease(2, 30.0)["items"]}
    assert (items["f1"]["cost"], items["f1"]["measured"]) == (0.5, True)
    assert (items["f2"]["cost"], items["f2"]["measured"]) == (7.0, False)


def test_commit_run_and_gc_share_the_local_semantics(client):
    client.append_entries([_entry("f1"), _entry("f2")])
    assert client.commit_run(["env1:f1"]) == 1
    assert client.commit_run(["env1:f1", "env1:f2"]) == 2
    assert client.commit_run([]) == 0, "an empty session records no run"
    # keep the last run only: f1 and f2 are both referenced there
    assert client.gc(1) == 0
    # a run referencing only f1, then keep-last 1 → f2 is swept
    assert client.commit_run(["env1:f1"]) == 3
    assert client.gc(1) == 1
    assert {e.fp for e in client.lookup("env1", ["f1", "f2"])} == {"f1"}


def test_invalidate_drops_exactly_the_stale_scope(client):
    client.append_entries(
        [
            _entry("f1", spec="old"),
            _entry("f2", method="other-method", spec="irrelevant"),
            _entry("f3", scope="Stack/KVStore", spec="old"),
        ]
    )
    dropped = client.invalidate([("Set/KVStore", "insert", "new-spec", "l1")])
    assert dropped == [1]
    assert {e.fp for e in client.lookup("env1", ["f1", "f2", "f3"])} == {"f2", "f3"}


def test_a_batched_invalidate_credits_each_entry_to_its_first_key(client):
    """One RPC, one locked pass: keys apply in order, so an entry two keys
    condemn counts once, for the first — what sequential calls report."""
    client.append_entries(
        [
            _entry("f1", spec="old"),
            _entry("f2", method="mem", spec="m1"),
            _entry("f3", scope="Stack/KVStore", spec="old"),
        ]
    )
    # a library edit condemns the whole Set scope under its first key
    dropped = client.invalidate(
        [
            ("Set/KVStore", "mem", "m1", "l2"),
            ("Set/KVStore", "insert", "new-spec", "l2"),
            ("Stack/KVStore", "insert", "old", "l1"),
        ]
    )
    assert dropped == [2, 0, 0]
    assert {e.fp for e in client.lookup("env1", ["f1", "f2", "f3"])} == {"f3"}
    assert client.stats()["ops"]["invalidate"]["count"] == 1
    assert client.invalidate([]) == [], "an empty batch costs no round trip"
    assert client.stats()["ops"]["invalidate"]["count"] == 1


def test_the_single_key_invalidate_form_is_rejected(client):
    with pytest.raises(RemoteStoreError, match="400"):
        client._call(
            "invalidate",
            {"scope": "Set/KVStore", "method": "insert", "spec": "s", "library": "l1"},
        )
    with pytest.raises(RemoteStoreError, match="400"):
        client._call("invalidate", {"keys": [["Set/KVStore", "insert"]]})


def test_a_remote_session_queues_invalidations_until_its_next_read(server, client):
    """``invalidate_stale`` sends nothing; the queue goes out as one RPC
    ahead of the session's next fetch, and the store credits each method's
    session counts from the reply."""
    client.append_entries([_entry("f1", spec="old"), _entry("f2", method="mem", spec="m1")])
    session = ObligationStore(server.url)
    session.invalidate_stale("Set/KVStore", "insert", "new-spec", "l1")
    session.invalidate_stale("Set/KVStore", "mem", "m1", "l1")
    session.invalidate_stale("Set/KVStore", "insert", "new-spec", "l1")  # a repeat
    assert "invalidate" not in client.stats()["ops"], "queued, not sent"
    assert [row["invalidated"] for row in session.explain()] == [0, 0]

    session.prefetch("env1", ["f1", "f2"])
    assert client.stats()["ops"]["invalidate"]["count"] == 1
    assert session.lookup("env1", "f1") is None, "the stale entry was gone before the fetch"
    assert session.lookup("env1", "f2") is not None
    assert [(row["method"], row["invalidated"]) for row in session.explain()] == [
        ("insert", 1),
        ("mem", 0),
    ]
    session.flush()
    assert client.stats()["ops"]["invalidate"]["count"] == 1, "the queue went out once"


def test_a_noop_invalidate_reads_but_never_rewrites(client, store_path, monkeypatch):
    """Every session sends its queued invalidation keys as one batch before
    its first read; with nothing stale the server must adopt the state it
    read under the lock without rewriting the log."""
    from repro.store import backends

    client.append_entries([_entry("f1", method="other-method")])
    behind = open_backend(store_path)
    try:
        behind.append_entries([_entry("sneaked")])  # an out-of-band writer
    finally:
        behind.close()

    rewrites = []
    atomic_write = backends._atomic_write

    def counting_write(path, data):
        rewrites.append(path)
        atomic_write(path, data)

    monkeypatch.setattr(backends, "_atomic_write", counting_write)

    assert client.invalidate([("Set/KVStore", "insert", "s1", "l1")]) == [0]
    assert rewrites == [], "a no-op invalidation rewrote the entry log"
    assert [e.fp for e in client.lookup("env1", ["sneaked"])] == ["sneaked"], (
        "the locked read must still adopt out-of-band writes"
    )
    # a genuinely stale scope still pays exactly the rewrite it needs
    assert client.invalidate([("Set/KVStore", "insert", "s2", "l1")]) == [1]
    assert rewrites


def test_compact_keeps_the_entries(client):
    client.append_entries([_entry("f1")])
    client.compact()
    assert [e.fp for e in client.lookup("env1", ["f1"])] == ["f1"]


def test_the_server_self_heals_from_out_of_band_writes(server, client, store_path):
    """A rewrite op re-adopts whatever the backend re-read under its lock."""
    behind = open_backend(store_path)
    try:
        behind.append_entries([_entry("sneaked")])
    finally:
        behind.close()
    assert client.lookup("env1", ["sneaked"]) == [], "the cache is stale on purpose"
    client.compact()  # any read-modify-rewrite resynchronises
    assert [e.fp for e in client.lookup("env1", ["sneaked"])] == ["sneaked"]


# -- idempotency replay ------------------------------------------------------------


def test_a_replayed_write_is_applied_once(server, client):
    """Same key, same op → the recorded response, not a second application."""
    key = "test-key-1"
    first = server.service.execute(
        "commit_run", {"touched": ["env1:f1"], "key": key}
    )
    replay = server.service.execute(
        "commit_run", {"touched": ["env1:f1"], "key": key}
    )
    assert replay == first
    fresh = server.service.execute("commit_run", {"touched": ["env1:f1"], "key": "k2"})
    assert fresh["run"] == first["run"] + 1, "exactly one run slipped in between"


def test_idempotency_keys_are_bounded_per_client(server, monkeypatch):
    monkeypatch.setattr("repro.store.service._MAX_IDEMPOTENCY_KEYS_PER_CLIENT", 4)
    for index in range(8):
        server.service.execute(
            "append", {"entries": [], "key": f"k{index}", "client": "c1"}
        )
    bucket = server.service._seen["c1"]
    assert len(bucket) == 4
    assert "k7" in bucket and "k0" not in bucket


def test_client_buckets_are_bounded_lru(server, monkeypatch):
    monkeypatch.setattr("repro.store.service._MAX_IDEMPOTENCY_CLIENTS", 3)
    for index in range(5):
        server.service.execute(
            "append", {"entries": [], "key": "k", "client": f"c{index}"}
        )
    assert set(server.service._seen) == {"c2", "c3", "c4"}
    # touching a bucket refreshes it: c2 survives the next new client, c3 goes
    server.service.execute("append", {"entries": [], "key": "k", "client": "c2"})
    server.service.execute("append", {"entries": [], "key": "k", "client": "c9"})
    assert "c2" in server.service._seen and "c3" not in server.service._seen


# -- protocol corners --------------------------------------------------------------


def test_unknown_operations_get_404(server):
    status, payload = _raw(server, "POST", "/definitely-not-an-op", b"{}")
    assert status == 404 and "unknown" in payload["error"]
    status, _ = _raw(server, "GET", "/lookup")
    assert status == 404, "only the handshake is GET-able"


def test_malformed_requests_get_400(server):
    status, payload = _raw(server, "POST", "/lookup", b"this is not json")
    assert status == 400 and "JSON" in payload["error"]
    status, _ = _raw(server, "POST", "/lookup", b"[1, 2]")
    assert status == 400
    # a well-formed body failing validation is still the client's fault
    status, payload = _raw(server, "POST", "/lookup", json.dumps({"env": 5, "fps": []}).encode())
    assert status == 400
    status, payload = _raw(server, "POST", "/gc", json.dumps({"keep_last": 0}).encode())
    assert status == 400 and "keep_last" in payload["error"]
    status, _ = _raw(server, "POST", "/append", json.dumps({"entries": [{"bogus": 1}]}).encode())
    assert status == 400, "an undecodable entry must not 500 (and must not be retried)"


def test_client_surfaces_validation_errors_without_retry(client):
    with pytest.raises(RemoteStoreError, match="keep_last"):
        client.gc(0)


# -- service construction ----------------------------------------------------------


def test_the_service_refuses_to_wrap_a_remote_url():
    with pytest.raises(ValueError, match="remote"):
        StoreService("http://127.0.0.1:1")


def test_the_facade_end_to_end(server):
    """ObligationStore against the URL behaves like the local facade."""
    cold = ObligationStore(server.url)
    assert cold.lookup("env1", "f1") is None
    cold.record(_entry("f1"))
    cold.flush()
    assert cold.commit_run() == 1

    warm = ObligationStore(server.url)
    warm.prefetch("env1", ["f1"])
    hit = warm.lookup("env1", "f1")
    assert hit is not None and hit.cost == {"wall": 0.5}
    assert len(warm) == 1 and warm.summary()["entries"] == 1


# -- the in-thread serving loop ----------------------------------------------------


def test_serve_in_thread_stops_promptly_and_releases_the_port(store_path):
    service = StoreService(store_path)
    httpd = StoreHTTPServer(("127.0.0.1", 0), service)
    address = httpd.server_address[:2]
    with serve_in_thread(httpd):
        client = RemoteStoreBackend(httpd.url)
        assert client.handshake()["schema"] == SCHEMA_VERSION
        started = time.monotonic()
    elapsed = time.monotonic() - started
    client.close()
    service.close()
    assert elapsed < 0.25, f"leaving serve_in_thread took {elapsed:.3f}s"
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=1).close()
