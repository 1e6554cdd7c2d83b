"""The store service: the one implementation of the obligation store's ops.

A :class:`StoreService` owns a local store directory (a
:class:`~repro.store.backends.JsonlStoreBackend`), its state in memory and
one op lock, and executes the store-level operations — ``handshake``,
batched ``lookup``, batched ``append``, batched ``invalidate``,
``compact``, ``commit_run``, ``gc`` — plus the work queue behind
distributed discharge and the ``stats`` metrics.  Each read-modify-rewrite
exists once, as an ``op_*`` method running under the backend's exclusive
lock.  Clients drive it through one of two transports that speak the same
ops (:class:`~repro.store.remote.StoreClient`):

* :class:`LocalStoreClient` — a local store path: the service in-process,
  called directly;
* :class:`~repro.store.remote.RemoteStoreBackend` — the URL of a
  ``repro store serve`` instance (:mod:`repro.store.server`, which wraps a
  service behind JSON-over-HTTP).

This module does not import :mod:`http.server`: opening a local store never
pays for the serving stack.

Design notes:

* The service keeps the store state in memory (loaded once at open,
  maintained through its own writes) so lookups cost no disk I/O; mutating
  operations go to the backend *first* — durably, fsynced — and only then
  update the cache, so a crash at any point loses nothing that was
  acknowledged.  Read-modify-rewrite operations adopt the state the backend
  re-read under its exclusive lock, so entries another process appended
  behind the service's back survive the rewrite and heal the cache.
* An ``invalidate`` carries a list of ``(scope, method, spec, library)``
  keys and costs one locked read for the whole list; with nothing stale it
  rewrites nothing.
* The service keeps an ``fp -> wall seconds`` cost index beside the
  entries, filled from every state it loads or re-reads and on append, and
  never pruned (a dropped verdict's measured cost is still a fine queue
  hint, under any environment).  ``enqueue`` upgrades an item's syntactic
  estimate from it in O(1).
* Writes may carry client idempotency keys; the service remembers recent
  keys (with their responses) and replays the response instead of
  re-applying the write, so a client retrying a request whose *response*
  was lost cannot double-apply.  Keys are remembered **per client** (the
  client id travels in the payload): one client flooding writes can only
  evict its *own* old keys.  The key cache is in-memory: after a restart a
  replayed append merely re-appends identical content (the last line per
  key wins), and a replayed ``commit_run`` appends a fresh run record.
* The :class:`~repro.store.queue.WorkQueue` is in-memory only — durability
  lives in the store itself: a coordinator re-dispatch recomputes the
  remaining work from the store, so completed obligations are never redone
  after a crash.
* Completion is event-driven, not polled.  ``lease`` and ``queue_status``
  take a ``wait`` in seconds and block on the op condition until their
  answer changes: a waiting ``lease`` returns as soon as an item can be
  granted (after an ``enqueue``, or when the earliest live lease's deadline
  passes and its items become stealable), or with ``drained: true`` once a
  queue it saw holding items is empty; a waiting ``queue_status`` returns as
  soon as its dispatch has nothing remaining.  ``enqueue`` and ``complete``
  wake the waiters.  Wait deadlines run on ``time.monotonic()``, never on
  the swappable :attr:`StoreService.queue_clock`, so a hand-cranked test
  clock can never hang a wait.  Time spent blocked is reported per op as
  ``waited``, apart from the op's own ``seconds``.
* All operations serialise on one lock (the condition's, deliberately
  non-reentrant; a waiting op releases it while blocked).

``REPRO_STORE_SERVE_CRASH`` is a fault-injection hook for the crash-recovery
suite: set to ``"<op>:before"`` or ``"<op>:after"`` it hard-kills the process
(``os._exit``) immediately before or after that operation persists,
exercising a remote client's retry/idempotency path deterministically.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict

from ..obs.logs import get_logger
from .backends import SCHEMA_VERSION, JsonlStoreBackend, LoadedState, StoreEntry, is_store_url
from .queue import QueueItem, WorkQueue
from .remote import StoreClient

logger = get_logger("store")

SERVER_NAME = "pymarple-store-serve/1"

#: the run log is trimmed to this many most-recent records on commit
_MAX_RUN_RECORDS = 256

#: how many recent idempotency keys (and their responses) the service holds
#: *per client* — eviction is per-client, so one chatty client can never
#: evict another client's retry window into a double-apply
_MAX_IDEMPOTENCY_KEYS_PER_CLIENT = 1024
#: how many distinct clients' key caches the service holds (LRU beyond that)
_MAX_IDEMPOTENCY_CLIENTS = 64

#: fault-injection hook for the crash-recovery tests (see module docstring)
ENV_SERVE_CRASH = "REPRO_STORE_SERVE_CRASH"


class UnknownOperation(Exception):
    """The request names no protocol operation."""


def stale_entry_keys(
    entries: dict[tuple[str, str], StoreEntry],
    scope: str,
    method: str,
    spec_digest: str,
    library_digest: str,
) -> list[tuple[str, str]]:
    """Keys a spec/library edit invalidates: every entry of ``scope`` whose
    library digest changed, and ``method``'s entries whose spec changed."""
    return [
        key
        for key, entry in entries.items()
        if entry.scope == scope
        and (
            entry.library != library_digest
            or (entry.method == method and entry.spec != spec_digest)
        )
    ]


def check_keep_last(keep_last: object) -> None:
    """Reject a ``gc`` window that would keep no run."""
    if not isinstance(keep_last, int) or keep_last < 1:
        raise ValueError("gc requires keep_last >= 1")


def _wait_of(payload: dict) -> float:
    """The seconds a long-poll op may block (absent = 0, answer at once)."""
    wait = payload.get("wait", 0)
    if isinstance(wait, bool) or not isinstance(wait, (int, float)):
        raise ValueError("'wait' must be a number of seconds")
    return max(0.0, float(wait))


class StoreService:
    """Owns the wrapped backend, the in-memory state and the op lock."""

    def __init__(self, path) -> None:
        if is_store_url(path):
            raise ValueError(
                f"cannot serve {str(path)!r}: it is itself a remote store "
                "URL; serve the local store the server should wrap"
            )
        self.backend = JsonlStoreBackend(path)
        #: the op lock, as a condition so long-polls can wait on it; plain
        #: ``Lock`` underneath because every op takes it and nothing re-enters
        self._lock = threading.Condition(threading.Lock())
        #: per handler thread: seconds the current op spent blocked on the
        #: condition, kept out of its ``seconds`` in the op stats
        self._blocked = threading.local()
        #: obligation fp -> recorded wall cost (env-free, never pruned)
        self._walls: dict[str, float] = {}
        state = self.backend.load(wipe_mismatch=True)
        self._adopt(state)
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

    def _index_walls(self, entries) -> None:
        for entry in entries:
            wall = entry.wall_cost
            if wall is not None:
                self._walls[entry.fp] = wall

    def _adopt(self, state: LoadedState, *, runs: bool = True) -> None:
        """Take over a state the backend (re-)read; ``runs=False`` keeps the
        run log, for rewrites that never read it."""
        self._entries = state.entries
        self._index_walls(self._entries.values())
        if runs:
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
        self._index_walls(batch)
        logger.debug("appended %d entries", len(batch))
        return {
            "appended": len(batch),
            "skipped_existing": skipped_existing,
            "entries": len(self._entries),
        }

    def op_compact(self, _payload: dict) -> dict:
        state = self.backend.update(lambda entries, runs: (entries, runs), runs=False)
        self._adopt(state, runs=False)
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

        self._adopt(self.backend.update(drop_stale, runs=False), runs=False)
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
            # the sequence number and the trim are computed against the log
            # as re-read under the lock: concurrent commits never collide
            nonlocal sequence
            sequence = (runs[-1]["run"] + 1) if runs else 1
            runs.append({"run": sequence, "touched": list(touched)})
            return entries, runs[-_MAX_RUN_RECORDS:]

        self._runs = self.backend.update(append_run, entries=False).runs
        return {"run": sequence, "entries": len(self._entries)}

    def op_gc(self, payload: dict) -> dict:
        keep_last = payload["keep_last"]
        check_keep_last(keep_last)
        dropped = 0

        def sweep(entries, runs):
            # an entry survives iff one of the last keep_last runs touched it
            nonlocal dropped
            kept_runs = runs[-keep_last:]
            referenced: set[tuple[str, str]] = set()
            for record in kept_runs:
                for key in record["touched"]:
                    env, _, fp = key.partition(":")
                    referenced.add((env, fp))
            stale = [key for key in entries if key not in referenced]
            for key in stale:
                del entries[key]
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
        # the store's cost index outranks whatever the coordinator sent: a
        # recorded wall time (under any environment) is the LPT signal
        wall = self._walls.get(fp)
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


class LocalStoreClient(StoreClient):
    """A local store directory's client: its :class:`StoreService`, called
    in-process — the ops of a remote session without HTTP or retries."""

    name = "local"

    def __init__(self, path) -> None:
        super().__init__()
        self.service = StoreService(path)
        self.path = self.service.backend.path

    def _call(self, op: str, payload: dict, *, idempotent: bool = False) -> dict:
        # nothing is ever retried in-process, so no idempotency key is needed
        return self._note_total(self.service.execute(op, payload))

    def close(self) -> None:
        self.service.close()
