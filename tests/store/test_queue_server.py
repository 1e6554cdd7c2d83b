"""The queue protocol and keep-alive transport over real sockets.

Same shape as ``test_store_server.py`` — an in-process
:class:`StoreHTTPServer` over each local backend, a real
:class:`RemoteStoreBackend` on the loopback — but focused on what PR 10
added: the lease queue ops, ``/stats``, idempotent lease replay, the
per-client replay-cache isolation that makes a slow client's retry safe,
the persistent keep-alive connection (reuse, transparent reconnect,
fork identity), and the long-polls (``wait``) that end a drain without
sleeping.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.store import service as service_mod
from repro.store.backends import StoreEntry
from repro.store.client import RemoteStoreError
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
    backend = RemoteStoreBackend(server.url)
    yield backend
    backend.close()


@pytest.fixture
def clock(server):
    """Replace the server's queue clock with a hand-cranked one."""

    class Clock:
        now = 1000.0

        def __call__(self):
            return self.now

        def advance(self, seconds):
            self.now += seconds

    clock = Clock()
    server.service.queue_clock = clock
    return clock


@pytest.fixture
def waiter(server):
    """Run a long-poll on its own client (one connection per thread)."""
    backend = RemoteStoreBackend(server.url)
    pool = ThreadPoolExecutor(max_workers=1)

    def start(call):
        """Submit ``call``; return once it blocks server-side (or is done)."""
        started = time.monotonic()
        future = pool.submit(lambda: (call(backend), time.monotonic() - started))
        deadline = started + 10.0
        while not server.service._lock._waiters and not future.done():
            assert time.monotonic() < deadline, "the long-poll never started waiting"
            time.sleep(0.001)
        return future

    yield start
    pool.shutdown(wait=True)
    backend.close()


def _items(*fps, env="e", bench="Set/KVStore", cost=1.0, measured=False):
    return [
        {"env": env, "fp": fp, "bench": bench, "cost": cost, "measured": measured}
        for fp in fps
    ]


def _entry(fp, env="env1", wall=None):
    return StoreEntry(
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
        cost={"wall": wall} if wall is not None else {},
    )


# -- the queue over the wire -------------------------------------------------------


def test_enqueue_lease_complete_roundtrip(client, clock):
    items = _items("f1", "f2")
    items[0]["payload"] = '{"obligation":{},"context":{}}'
    response = client.enqueue(items, "d1")
    assert response["enqueued"] == 2 and response["queued"] == 2

    grant = client.lease(8, 30.0, worker="w1")
    assert grant["lease"] is not None
    assert {item["fp"]: item["payload"] for item in grant["items"]} == {
        "f1": items[0]["payload"],  # passed through unparsed
        "f2": None,
    }
    assert client.queue_status("d1") == {
        **client.queue_status("d1"),
        "remaining": 2,
        "leased": 2,
    }

    done = client.complete(grant["lease"], [f"e:{item['fp']}" for item in grant["items"]])
    assert done["completed"] == 2 and done["queued"] == 0
    assert client.queue_status("d1")["remaining"] == 0


def test_the_servers_cost_index_outranks_the_clients_estimate(client, clock):
    # the store has already measured f-slow under *another* environment;
    # the coordinator only knows a (low) syntactic estimate for it
    client.append_entries([_entry("f-slow", env="other-env", wall=3.5)])
    client.enqueue(
        _items("f-slow", cost=0.1) + _items("f-cheap", cost=50.0), "d1"
    )
    grant = client.lease(2, 30.0)
    first = grant["items"][0]
    assert first["fp"] == "f-slow"
    assert first["measured"] and first["cost"] == 3.5, (
        "a recorded wall time is the LPT signal, whatever the client sent"
    )


def test_an_expired_lease_is_stolen_by_the_next_worker(client, clock):
    client.enqueue(_items("f1"), "d1")
    dead = client.lease(1, 5.0, worker="doomed")
    assert dead["items"]

    clock.advance(4.9)
    assert client.lease(1, 5.0, worker="thief")["lease"] is None

    clock.advance(0.2)  # past the deadline
    stolen = client.lease(1, 5.0, worker="thief")
    assert stolen["reclaimed"] == 1
    assert stolen["items"][0]["fp"] == "f1"
    assert stolen["items"][0]["attempts"] == 2


def test_extend_is_skew_proof_and_refuses_dead_leases(client, clock):
    client.enqueue(_items("f1"), "d1")
    grant = client.lease(1, 10.0)

    # the wire carries only the relative ttl — the worker's wall clock (be
    # it hours ahead or behind) never reaches the deadline computation
    clock.advance(8.0)
    assert client.extend(grant["lease"], 10.0) is True
    clock.advance(8.0)  # 16s after lease, but only 8s after the extend
    assert client.lease(1, 10.0)["lease"] is None, "renewed lease still shields"

    clock.advance(2.1)
    assert client.extend(grant["lease"], 10.0) is False, (
        "an expired lease cannot be revived; the worker must abandon the batch"
    )


def test_lease_replay_returns_the_original_grant(server, client, clock):
    """A retried lease RPC must not burn a second lease (idempotent replay)."""
    client.enqueue(_items("f1", "f2"), "d1")
    payload = {"count": 2, "ttl": 30.0, "key": "k-lease", "client": "c1"}
    first = server.service.execute("lease", dict(payload))
    replay = server.service.execute("lease", dict(payload))
    assert replay == first, "the cached grant is replayed verbatim"
    assert server.service.queue.counters["leases_issued"] == 1


def test_queue_ops_reject_malformed_payloads_without_retry(client):
    with pytest.raises(RemoteStoreError, match="items"):
        client._call("enqueue", {"items": "not-a-list"}, idempotent=True)
    with pytest.raises(RemoteStoreError, match="bench"):
        client.enqueue([{"env": "e", "fp": "f"}], "d1")  # missing bench
    with pytest.raises(RemoteStoreError, match="payload"):
        client.enqueue([dict(_items("f")[0], payload={"not": "text"})], "d1")
    with pytest.raises(RemoteStoreError, match="count"):
        client._call("lease", {"count": "many", "ttl": 1.0}, idempotent=True)
    with pytest.raises(RemoteStoreError, match="lease"):
        client._call("complete", {"lease": 7, "keys": []}, idempotent=True)


# -- long-polls: the drain ends on events, not on sleeps ----------------------------


def test_a_waiting_lease_is_granted_as_soon_as_work_is_enqueued(client, waiter):
    pending = waiter(lambda backend: backend.lease(1, 30.0, worker="w", wait=4.0))
    client.enqueue(_items("f1"), "d1")
    grant, elapsed = pending.result(timeout=10)
    assert grant["items"][0]["fp"] == "f1"
    assert elapsed < 2.0, "the enqueue woke the lease well before its wait"


def test_a_waiting_lease_reports_drained_when_the_last_item_completes(client, waiter):
    client.enqueue(_items("f1"), "d1")
    held = client.lease(1, 30.0, worker="busy")
    # nothing grantable, but the queue holds an item: the lease waits on it
    pending = waiter(lambda backend: backend.lease(1, 30.0, worker="idle", wait=4.0))
    client.complete(held["lease"], ["e:f1"])
    reply, elapsed = pending.result(timeout=10)
    assert reply["lease"] is None and reply["drained"] is True
    assert reply["queued"] == 0
    assert elapsed < 2.0
    # a worker that has done work knows the queue held items: an empty
    # queue answers ``drained`` at once instead of waiting out its budget
    started = time.monotonic()
    assert client.lease(1, 30.0, wait=4.0, held=True)["drained"] is True
    assert time.monotonic() - started < 2.0


def test_a_waiting_lease_steals_an_expired_lease_at_its_deadline(client, waiter):
    client.enqueue(_items("f1"), "d1")
    assert client.lease(1, 0.5, worker="doomed")["items"]
    stolen, elapsed = waiter(
        lambda backend: backend.lease(1, 30.0, worker="thief", wait=4.0)
    ).result(timeout=10)
    assert stolen["reclaimed"] == 1
    assert stolen["items"][0]["attempts"] == 2
    assert elapsed < 2.0, "woken by the doomed lease's deadline, not the wait"


def test_queue_status_wait_returns_when_the_dispatch_drains(client, waiter):
    client.enqueue(_items("f1"), "d1")
    grant = client.lease(1, 30.0)
    pending = waiter(lambda backend: backend.queue_status("d1", wait=4.0))
    client.complete(grant["lease"], ["e:f1"])
    status, elapsed = pending.result(timeout=10)
    assert status["remaining"] == 0
    assert elapsed < 2.0


def test_waits_are_bounded_in_wall_time_under_a_hand_cranked_clock(client, clock):
    client.enqueue(_items("f1"), "d1")
    assert client.lease(1, 5.0, worker="holder")["items"]
    # the queue clock never moves, so the lease never expires: only the
    # monotonic wall-clock bound can end these waits
    for call in (
        lambda: client.lease(1, 5.0, worker="w", wait=0.2),
        lambda: client.queue_status("d1", wait=0.2),
    ):
        started = time.monotonic()
        reply = call()
        assert 0.15 <= time.monotonic() - started < 2.0
        assert not reply.get("items") and not reply.get("drained")


def test_the_rpc_timeout_caps_a_long_poll(client):
    client.timeout = 1.0
    started = time.monotonic()
    reply = client.lease(1, 30.0, wait=30.0)
    assert reply["lease"] is None
    # clamped to half the socket timeout: the reply beats the timeout, so
    # the call never times out into a retry
    assert 0.4 <= time.monotonic() - started < 1.0


def test_a_waiting_fleet_drains_every_item_exactly_once(server, client):
    """More pullers than cores, thread switches forced often: every item is
    completed once, none is lost, and every waiting puller sees the drain."""
    keys = [f"e:f{index}" for index in range(60)]
    pullers = 6

    def pull(name):
        backend = RemoteStoreBackend(server.url)
        done = []
        try:
            while True:
                grant = backend.lease(2, 30.0, worker=name, wait=5.0, held=bool(done))
                if grant["drained"]:
                    return done
                assert grant["lease"], "a puller went idle with work outstanding"
                batch = [f"e:{item['fp']}" for item in grant["items"]]
                reply = backend.complete(grant["lease"], batch)
                done += batch
                if reply["queued"] == 0:
                    return done
        finally:
            backend.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=pullers) as pool:
            futures = [pool.submit(pull, f"w{index}") for index in range(pullers)]
            # the whole fleet waits server-side before the work arrives: a
            # puller whose first lease came after the drain would never have
            # seen the queue hold items, and so could not be told it drained
            deadline = time.monotonic() + 10.0
            while len(server.service._lock._waiters) < pullers:
                assert time.monotonic() < deadline, "the pullers never parked"
                time.sleep(0.001)
            client.enqueue(_items(*(key[2:] for key in keys)), "d1")
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(key for done in results for key in done) == sorted(keys)
    counters = server.service.queue.counters
    assert counters["completed"] == len(keys) and counters["stale_completes"] == 0


def test_time_blocked_in_a_long_poll_is_not_op_latency(client):
    client.lease(1, 30.0, wait=0.3)
    lease = client.stats()["ops"]["lease"]
    assert lease["seconds"] < 0.1, "waiting is not server work"
    assert 0.25 <= lease["waited"] < 1.5


# -- /stats ------------------------------------------------------------------------


def test_stats_snapshot_covers_entries_ops_lookup_and_queue(client, clock):
    client.append_entries([_entry("f1")])
    client.lookup("env1", ["f1", "f-missing"])
    client.enqueue(_items("q1"), "d1")
    client.lease(1, 30.0)

    stats = client.stats()
    assert stats["entries"] == 1
    assert stats["lookup"] == {"requested": 2, "found": 1}
    assert stats["queue"]["counters"]["enqueued"] == 1
    assert stats["queue"]["counters"]["leases_issued"] == 1
    assert stats["ops"]["append"]["count"] == 1
    assert stats["ops"]["append"]["replays"] == 0
    assert stats["uptime_seconds"] >= 0
    assert stats["idempotency_clients"] >= 1


# -- per-client idempotency: the double-apply regression ---------------------------


def test_a_flooding_client_cannot_evict_a_slow_clients_retry(server, client, monkeypatch):
    """Regression: the replay cache evicts per client, so another client's
    key flood can never push a slow client's pending write out of the cache
    and turn its retry into a double-apply."""
    monkeypatch.setattr(service_mod, "_MAX_IDEMPOTENCY_KEYS_PER_CLIENT", 4)
    service = server.service

    # the slow client commits a run... and its ack is lost in the network
    slow = {"touched": ["e:f1"], "key": "k-slow", "client": "slow"}
    first = service.execute("commit_run", dict(slow))

    # meanwhile a busy client floods far more writes than the (tiny) cap
    for index in range(12):
        service.execute(
            "commit_run",
            {"touched": [f"e:g{index}"], "key": f"k-busy-{index}", "client": "busy"},
        )

    # the slow client finally retries: under the old *global* cap its key
    # would have been evicted and the run appended a second time
    replay = service.execute("commit_run", dict(slow))
    assert replay == first, "the retry must replay, not re-apply"
    runs = service.backend.load().runs
    assert sum(1 for run in runs if run.get("touched") == ["e:f1"]) == 1


def test_append_if_absent_filters_existing_keys(client):
    client.append_entries([_entry("f1", wall=1.0)])
    client.append_if_absent = True
    # a worker whose lease was stolen re-appends the same (env, fp): the
    # server filters it — first write wins, no duplicate record
    client.append_entries([_entry("f1", wall=99.0), _entry("f2")])
    assert client.stats()["entries"] == 2
    [kept] = client.lookup("env1", ["f1"])
    assert kept.cost == {"wall": 1.0}


# -- keep-alive transport ----------------------------------------------------------


def test_the_connection_is_reused_across_rpcs(client):
    client.handshake()
    client.lookup("e", ["f"])
    client.queue_status()
    assert client.rpc_calls == 3
    assert client.rpc_reused == 2, "one connect, then keep-alive reuse"


def test_a_dead_kept_alive_socket_reconnects_transparently(client):
    client.handshake()
    assert client._conn is not None
    # the server (or a middlebox) dropped the idle connection under us
    client._conn.sock.close()
    assert client.lookup("e", ["f"]) == []  # one silent reconnect, no error
    assert client._conn is not None


def test_fork_regenerates_the_client_identity(client, monkeypatch):
    client.handshake()
    parent_id, parent_conn = client._client_id, client._conn
    assert parent_conn is not None

    # simulate the fork: same object, new pid
    monkeypatch.setattr("repro.store.remote.os.getpid", lambda: client._client_pid + 1)
    client.lookup("e", ["f"])
    assert client._client_id != parent_id, (
        "per-client idempotency buckets must never collide across fork"
    )
    assert client._conn is not parent_conn, "the parent's socket is abandoned"
