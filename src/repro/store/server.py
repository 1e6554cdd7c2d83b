"""``repro store serve`` — a shared obligation-cache service over HTTP.

A :class:`StoreService` wraps a local store directory and executes the
store-level operations a :class:`~repro.store.remote.RemoteStoreBackend`
client sends — batched lookup, batched append, ``compact``, ``commit_run``,
``gc``, batched ``invalidate`` — each under the wrapped backend's existing
lock, so a CI fleet (or many watch sessions) on different machines hit one
warm cache with exactly the local store's concurrency guarantees.  An
``invalidate`` carries a list of ``(scope, method, spec, library)`` keys and
costs one locked read for the whole list.

Design notes:

* The service keeps the store state in memory (loaded once at startup,
  maintained through its own writes) so lookups cost no disk I/O; mutating
  operations go to the backend *first* — durably, fsynced —
  and only then update the cache, so a crash at any point loses nothing
  that was acknowledged.  Read-modify-rewrite operations re-adopt the state
  the backend re-read under its exclusive lock, which also self-heals the
  cache if a local process wrote to the files behind the server's back.
* Writes carry client idempotency keys; the service remembers recent keys
  (with their responses) and replays the response instead of re-applying the
  write, so a client retrying a request whose *response* was lost cannot
  double-apply.  Keys are remembered **per client** (the client id travels
  in the payload): one client flooding writes can only evict its *own* old
  keys, never another — slower — client's in-flight retry window.  The key
  cache is in-memory: after a server restart a replayed append merely
  re-appends identical content (the last line per key wins), and a replayed
  ``commit_run`` appends a fresh run record — both harmless.
* The service also owns the :class:`~repro.store.queue.WorkQueue` behind
  distributed discharge (``enqueue``/``lease``/``complete``/``extend``/
  ``queue_status``).  The queue is in-memory only — durability lives in the
  store itself: a coordinator re-dispatch recomputes the remaining work from
  the store, so completed obligations are never redone after a crash.
* Completion is event-driven, not polled.  ``lease`` and ``queue_status``
  take a ``wait`` in seconds and block server-side on the op condition
  until their answer changes: a waiting ``lease`` returns as soon as an item
  can be granted (after an ``enqueue``, or when the earliest live lease's
  deadline passes and its items become stealable), or with ``drained:
  true`` once a queue it saw holding items is empty; a waiting
  ``queue_status`` returns as soon as its dispatch has nothing remaining.
  ``enqueue`` and ``complete`` wake the waiters.  Wait deadlines run on
  ``time.monotonic()``, never on the swappable :attr:`queue_clock`, so a
  hand-cranked test clock can never hang a wait.  Time spent blocked is
  reported per op as ``waited``, apart from the op's own ``seconds``.
* All operations serialise on one lock (the condition's, deliberately
  non-reentrant; a waiting op releases it while blocked).  HTTP handling
  itself is threaded (:class:`ThreadingHTTPServer`), so slow clients and
  long-polls never block the accept loop, only the store critical section
  is serial.  Responses advertise HTTP/1.1 keep-alive, so a pulling
  worker's small queue RPCs reuse one TCP connection instead of paying a
  connect each.

``REPRO_STORE_SERVE_CRASH`` is a fault-injection hook for the crash-recovery
suite: set to ``"<op>:before"`` or ``"<op>:after"`` it hard-kills the server
process (``os._exit``) immediately before or after that operation persists,
exercising the client's retry/idempotency path deterministically.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Optional

from ..obs.logs import get_logger
from .backends import SCHEMA_VERSION, LoadedState, StoreEntry, open_backend
from .obligation_store import (
    append_run_record,
    check_keep_last,
    stale_entry_keys,
    sweep_unreferenced,
)
from .queue import QueueItem, WorkQueue

logger = get_logger("store")

SERVER_NAME = "pymarple-store-serve/1"

#: how many recent idempotency keys (and their responses) the service holds
#: *per client* — eviction is per-client, so one chatty client can never
#: evict another client's retry window into a double-apply
_MAX_IDEMPOTENCY_KEYS_PER_CLIENT = 1024
#: how many distinct clients' key caches the service holds (LRU beyond that)
_MAX_IDEMPOTENCY_CLIENTS = 64

#: fault-injection hook for the crash-recovery tests (see module docstring)
ENV_SERVE_CRASH = "REPRO_STORE_SERVE_CRASH"

#: how often a :func:`serve_in_thread` loop checks for shutdown, i.e. the
#: longest ``shutdown()`` waits (``serve_forever``'s own default is 0.5 s)
_SERVE_POLL_SECONDS = 0.05


class UnknownOperation(Exception):
    """The request path names no protocol operation."""


def _wait_of(payload: dict) -> float:
    """The seconds a long-poll op may block (absent = 0, answer at once)."""
    wait = payload.get("wait", 0)
    if isinstance(wait, bool) or not isinstance(wait, (int, float)):
        raise ValueError("'wait' must be a number of seconds")
    return max(0.0, float(wait))


class StoreService:
    """Owns the wrapped backend, the in-memory state and the op lock."""

    def __init__(self, path) -> None:
        self.backend = open_backend(path)
        if not getattr(self.backend, "supports_update", True):
            raise ValueError(
                f"cannot serve {str(path)!r}: it is itself a remote store "
                "URL; serve the local store the server should wrap"
            )
        #: the op lock, as a condition so long-polls can wait on it; plain
        #: ``Lock`` underneath because every op takes it and nothing re-enters
        self._lock = threading.Condition(threading.Lock())
        #: per handler thread: seconds the current op spent blocked on the
        #: condition, kept out of its ``seconds`` in the op stats
        self._blocked = threading.local()
        state = self.backend.load(wipe_mismatch=True)
        self._entries = state.entries
        self._runs = state.runs
        self.skipped = state.skipped
        #: client id -> (idempotency key -> replayed response), both LRU
        self._seen: OrderedDict[str, OrderedDict[str, dict]] = OrderedDict()
        self._crash = os.environ.get(ENV_SERVE_CRASH, "")
        #: the work queue behind distributed discharge (in-memory only;
        #: durability is the store's job — see the module docstring)
        self.queue = WorkQueue()
        #: the queue's clock — monotonic so wall-clock steps can't expire or
        #: immortalise leases; overridable by the fault-injection tests
        self.queue_clock = time.monotonic
        #: per-op request counts and latency sums plus the lookup hit rate,
        #: served by the ``stats`` op (``repro store stats URL``)
        self._op_stats: dict[str, dict] = {}
        self._lookup_requested = 0
        self._lookup_found = 0
        self._started = time.time()

    # -- plumbing -----------------------------------------------------------------
    def _maybe_crash(self, op: str, when: str) -> None:
        if self._crash == f"{op}:{when}":  # pragma: no cover - exits the process
            logger.warning("fault injection: crashing %s %s", when, op)
            os._exit(3)

    def _adopt(self, state: LoadedState) -> None:
        self._entries = state.entries
        self._runs = state.runs

    def _client_keys(self, client: str) -> OrderedDict[str, dict]:
        bucket = self._seen.get(client)
        if bucket is None:
            bucket = self._seen[client] = OrderedDict()
            while len(self._seen) > _MAX_IDEMPOTENCY_CLIENTS:
                self._seen.popitem(last=False)
        else:
            self._seen.move_to_end(client)
        return bucket

    def _note_op(
        self, op: str, seconds: float, *, waited: float = 0.0, replayed: bool = False
    ) -> None:
        record = self._op_stats.setdefault(
            op, {"count": 0, "seconds": 0.0, "waited": 0.0, "replays": 0}
        )
        if replayed:
            record["replays"] += 1
        else:
            record["count"] += 1
            record["seconds"] += seconds
            record["waited"] += waited

    def _block(self, timeout: float) -> None:
        """Wait on the op condition for at most ``timeout`` seconds.

        The op lock is released while blocked, so other ops (the
        ``enqueue``/``complete`` that end the wait among them) proceed.
        """
        started = time.perf_counter()
        self._lock.wait(timeout)
        self._blocked.seconds += time.perf_counter() - started

    def execute(self, op: str, payload: dict) -> dict:
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise UnknownOperation(f"unknown store operation {op!r}")
        with self._lock:
            key = payload.get("key")
            client = payload.get("client")
            seen = self._client_keys(client if isinstance(client, str) else "")
            if isinstance(key, str) and key in seen:
                seen.move_to_end(key)
                self._note_op(op, 0.0, replayed=True)
                logger.debug("replaying idempotent %s (key %s)", op, key)
                return seen[key]
            self._maybe_crash(op, "before")
            self._blocked.seconds = 0.0
            started = time.perf_counter()
            result = handler(payload)
            elapsed = time.perf_counter() - started
            waited = self._blocked.seconds
            self._note_op(op, elapsed - waited, waited=waited)
            self._maybe_crash(op, "after")
            if isinstance(key, str) and key:
                seen[key] = result
                while len(seen) > _MAX_IDEMPOTENCY_KEYS_PER_CLIENT:
                    seen.popitem(last=False)
            return result

    def close(self) -> None:
        self.backend.close()

    # -- protocol operations ------------------------------------------------------
    def op_handshake(self, _payload: dict) -> dict:
        return {
            "server": SERVER_NAME,
            "schema": SCHEMA_VERSION,
            "backend": self.backend.name,
            "path": str(self.backend.path),
            "entries": len(self._entries),
            "runs": len(self._runs),
            "skipped": self.skipped,
        }

    def op_lookup(self, payload: dict) -> dict:
        env = payload["env"]
        fps = payload["fps"]
        if not isinstance(env, str) or not isinstance(fps, list):
            raise ValueError("lookup needs an 'env' string and an 'fps' list")
        found = []
        for fp in fps:
            entry = self._entries.get((env, fp))
            if entry is not None:
                found.append(entry.to_record())
        self._lookup_requested += len(fps)
        self._lookup_found += len(found)
        return {"found": found, "entries": len(self._entries)}

    def op_cost_hints(self, _payload: dict) -> dict:
        costs: dict[str, float] = {}
        for entry in self._entries.values():
            wall = entry.wall_cost
            if wall is not None:
                costs[entry.fp] = wall
        return {"costs": costs, "entries": len(self._entries)}

    def op_append(self, payload: dict) -> dict:
        records = payload["entries"]
        if not isinstance(records, list):
            raise ValueError("append needs an 'entries' list")
        batch = [StoreEntry.from_record(record) for record in records]
        skipped_existing = 0
        if payload.get("if_absent"):
            # queue workers write with if_absent: a worker whose lease was
            # stolen (and re-discharged elsewhere) must not land a second
            # copy of the verdict in the append log
            fresh = [entry for entry in batch if entry.key not in self._entries]
            skipped_existing = len(batch) - len(fresh)
            batch = fresh
        if batch:
            self.backend.append_entries(batch)
        for entry in batch:
            self._entries[entry.key] = entry
        logger.debug("appended %d entries for a remote client", len(batch))
        return {
            "appended": len(batch),
            "skipped_existing": skipped_existing,
            "entries": len(self._entries),
        }

    def op_compact(self, _payload: dict) -> dict:
        state = self.backend.update(lambda entries, runs: (entries, runs), runs=False)
        self._entries = state.entries
        return {"entries": len(self._entries)}

    def op_invalidate(self, payload: dict) -> dict:
        keys = payload["keys"]
        if not isinstance(keys, list) or not all(
            isinstance(key, list) and len(key) == 4 and all(isinstance(part, str) for part in key)
            for key in keys
        ):
            raise ValueError("invalidate needs a 'keys' list of [scope, method, spec, library]")
        dropped: list[int] = []

        def drop_stale(entries, runs):
            # keys apply in order, so each stale entry is credited to the
            # first key that condemns it — the counts sequential calls give
            for key in keys:
                stale = stale_entry_keys(entries, *key)
                dropped.append(len(stale))
                for stale_key in stale:
                    del entries[stale_key]
            if not any(dropped):
                # the common (warm, unedited) case: adopt the state read
                # under the lock, but rewrite nothing
                return None
            return entries, runs

        state = self.backend.update(drop_stale, runs=False)
        self._entries = state.entries
        return {"dropped": dropped, "entries": len(self._entries)}

    def op_commit_run(self, payload: dict) -> dict:
        touched = payload["touched"]
        if not isinstance(touched, list) or not all(
            isinstance(item, str) for item in touched
        ):
            raise ValueError("commit_run needs a 'touched' list of strings")
        if not touched:
            return {"run": 0, "entries": len(self._entries)}
        sequence = 0

        def append_run(entries, runs):
            nonlocal sequence
            runs, sequence = append_run_record(runs, touched)
            return entries, runs

        state = self.backend.update(append_run, entries=False)
        self._runs = state.runs
        return {"run": sequence, "entries": len(self._entries)}

    def op_gc(self, payload: dict) -> dict:
        keep_last = payload["keep_last"]
        check_keep_last(keep_last)
        dropped = 0

        def sweep(entries, runs):
            nonlocal dropped
            entries, kept_runs, stale = sweep_unreferenced(entries, runs, keep_last)
            dropped = len(stale)
            return entries, kept_runs

        self._adopt(self.backend.update(sweep))
        return {"dropped": dropped, "entries": len(self._entries)}

    # -- the work queue (distributed discharge) -----------------------------------
    def _queue_item(self, record: dict) -> QueueItem:
        env, fp, bench = record.get("env"), record.get("fp"), record.get("bench")
        if not (isinstance(env, str) and isinstance(fp, str) and isinstance(bench, str)):
            raise ValueError("queue items need 'env', 'fp' and 'bench' strings")
        payload = record.get("payload")
        if payload is not None and not isinstance(payload, str):
            raise ValueError("a queue item's 'payload' must be a string")
        cost = record.get("cost")
        measured = bool(record.get("measured"))
        # the store's own cost index outranks whatever the coordinator sent:
        # a recorded wall time (under any environment) is the LPT signal
        hint = self._entries.get((env, fp))
        wall = hint.wall_cost if hint is not None else None
        if wall is None:
            wall = self._wall_cost_of(fp)
        if wall is not None:
            cost, measured = wall, True
        return QueueItem(
            env=env,
            fp=fp,
            bench=bench,
            cost=float(cost) if isinstance(cost, (int, float)) else 0.0,
            measured=measured,
            payload=payload,
        )

    def _wall_cost_of(self, fp: str) -> Optional[float]:
        # env-free, exactly like ObligationStore.cost_hint: a measurement
        # from another environment is still a fine scheduling hint
        for entry in self._entries.values():
            if entry.fp == fp and entry.wall_cost is not None:
                return entry.wall_cost
        return None

    def op_enqueue(self, payload: dict) -> dict:
        records = payload["items"]
        if not isinstance(records, list):
            raise ValueError("enqueue needs an 'items' list")
        dispatch = payload.get("dispatch")
        if dispatch is not None and not isinstance(dispatch, str):
            raise ValueError("'dispatch' must be a string tag")
        items = [self._queue_item(record) for record in records]
        added, requeued = self.queue.enqueue(items, dispatch=dispatch)
        self._lock.notify_all()
        logger.debug("enqueued %d items (%d requeued) for dispatch %s", added, requeued, dispatch)
        return {"enqueued": added, "requeued": requeued, "queued": len(self.queue)}

    def op_lease(self, payload: dict) -> dict:
        count = payload.get("count", 1)
        ttl = payload.get("ttl", 30.0)
        if not isinstance(count, int) or not isinstance(ttl, (int, float)):
            raise ValueError("lease needs an integer 'count' and a numeric 'ttl'")
        worker = payload.get("worker")
        worker = worker if isinstance(worker, str) else ""
        until = time.monotonic() + _wait_of(payload)
        # ``held``: the caller has already seen this queue hold items, so
        # finding it empty means it drained (a worker that has done work)
        held = bool(payload.get("held"))
        reclaimed = 0
        while True:
            now = self.queue_clock()
            lease, items, stolen = self.queue.lease(count, float(ttl), now, worker=worker)
            reclaimed += stolen
            if lease is not None:
                break
            if len(self.queue):
                held = True
            elif held:
                break
            left = until - time.monotonic()
            if left <= 0:
                break
            # every expired lease was just reclaimed, so the earliest live
            # deadline is in the future: wake then to steal its items
            expiry = self.queue.next_deadline()
            self._block(left if expiry is None else min(left, expiry - now))
        return {
            "lease": lease.id if lease is not None else None,
            "items": [item.to_record() for item in items],
            "reclaimed": reclaimed,
            "queued": len(self.queue),
            "drained": lease is None and held and not len(self.queue),
        }

    def op_complete(self, payload: dict) -> dict:
        lease_id = payload.get("lease")
        keys = payload.get("keys")
        if not isinstance(lease_id, str) or not isinstance(keys, list):
            raise ValueError("complete needs a 'lease' id and a 'keys' list")
        completed, stale = self.queue.complete(lease_id, [str(key) for key in keys])
        self._lock.notify_all()
        return {"completed": completed, "stale": stale, "queued": len(self.queue)}

    def op_extend(self, payload: dict) -> dict:
        lease_id = payload.get("lease")
        ttl = payload.get("ttl")
        if not isinstance(lease_id, str) or not isinstance(ttl, (int, float)):
            raise ValueError("extend needs a 'lease' id and a numeric 'ttl'")
        # the deadline is computed against the *server's* clock — a client
        # with a skewed clock sends only the relative ttl, so skew is inert
        ok = self.queue.extend(lease_id, float(ttl), self.queue_clock())
        return {"ok": ok}

    def op_queue_status(self, payload: dict) -> dict:
        dispatch = payload.get("dispatch")
        if dispatch is not None and not isinstance(dispatch, str):
            raise ValueError("'dispatch' must be a string tag")
        until = time.monotonic() + _wait_of(payload)
        while True:
            status = self.queue.status(dispatch, now=self.queue_clock())
            left = until - time.monotonic()
            if status["remaining"] == 0 or left <= 0:
                return status
            self._block(left)

    # -- metrics ------------------------------------------------------------------
    def op_stats(self, _payload: dict) -> dict:
        ops = {
            op: {
                "count": record["count"],
                "seconds": round(record["seconds"], 6),
                "waited": round(record["waited"], 6),
                "replays": record["replays"],
            }
            for op, record in sorted(self._op_stats.items())
        }
        return {
            "uptime_seconds": round(time.time() - self._started, 3),
            "entries": len(self._entries),
            "runs": len(self._runs),
            "ops": ops,
            "lookup": {
                "requested": self._lookup_requested,
                "found": self._lookup_found,
            },
            "queue": self.queue.status(),
            "idempotency_clients": len(self._seen),
        }


class _StoreRequestHandler(BaseHTTPRequestHandler):
    server_version = SERVER_NAME
    #: HTTP/1.1 so keep-alive works: clients reuse one connection per
    #: process instead of paying a TCP connect per RPC (every reply already
    #: carries an exact Content-Length)
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a reply goes out as two small writes (header block, then
    #: body); on a kept-alive connection Nagle would hold the second write
    #: until the client's delayed ACK (~40ms per RPC — dwarfing the op itself)
    disable_nagle_algorithm = True

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, op: str, payload: dict) -> None:
        try:
            result = self.server.service.execute(op, payload)
        except UnknownOperation as exc:
            self._reply(404, {"error": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            # malformed requests and validation failures are the client's
            # fault and must not be retried
            detail = str(exc) or type(exc).__name__
            self._reply(400, {"error": detail})
        except Exception as exc:  # pragma: no cover - defensive 5xx surface
            logger.warning("store op %s failed: %s", op, exc)
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply(200, result)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        op = self.path.strip("/")
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "request body is not JSON"})
            return
        if not isinstance(payload, dict):
            self._reply(400, {"error": "request body must be a JSON object"})
            return
        self._dispatch(op, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        # the one curl-able endpoint: identity without a POST body
        if self.path.strip("/") == "handshake":
            self._dispatch("handshake", {})
        else:
            self._reply(404, {"error": "POST JSON to /<operation>"})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("http %s", format % args)


class StoreHTTPServer(ThreadingHTTPServer):
    """The serving loop: threaded HTTP in front of one :class:`StoreService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: StoreService) -> None:
        super().__init__(address, _StoreRequestHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", "::", ""):
            host = "127.0.0.1"
        return f"http://{host}:{port}"


@contextmanager
def serve_in_thread(server: StoreHTTPServer) -> Iterator[StoreHTTPServer]:
    """Serve ``server`` on a daemon thread for the ``with`` body.

    On exit the loop is shut down (within one poll interval), its thread
    joined and the listening socket closed, so the port refuses connections
    once the block is left.  The wrapped :class:`StoreService` stays open:
    whoever made it closes it.
    """
    loop = threading.Thread(
        target=server.serve_forever, args=(_SERVE_POLL_SECONDS,), daemon=True
    )
    loop.start()
    try:
        yield server
    finally:
        server.shutdown()
        loop.join()
        server.server_close()
