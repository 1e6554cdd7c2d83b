"""The store's HTTP transport: the client of ``repro store serve``.

:class:`RemoteStoreBackend` is a :class:`~repro.store.client.StoreClient`
whose transport is JSON posted to a ``repro store serve`` instance
(:mod:`repro.store.server`), which executes each op under the wrapped
store's lock, so ``--store http://host:port`` works everywhere a path does.
It is what :class:`~repro.store.obligation_store.ObligationStore` and
:func:`~repro.store.backends.open_backend` open for an ``http://``/
``https://`` store path, and the only module of the store that imports
:mod:`http.client`: a local store path never loads it.  Beyond the store
ops it speaks the work-queue ops behind ``repro dispatch`` and
``repro worker``, which need a server.

The remote transport's reliability model:

* every call reuses **one persistent keep-alive connection per process**
  (dropped and re-established transparently: a stale socket — the server
  restarted, an idle timeout fired — costs one immediate reconnect, never a
  failed call; a fork is detected by pid and the inherited socket is
  abandoned, so parent and child never interleave bytes on one connection),
  with a socket timeout per request (``REPRO_STORE_RPC_TIMEOUT``, seconds);
  the long-poll ops (``lease`` and ``queue_status`` with a ``wait``) clamp
  their server-side wait to half of it, so a wait never reads as a dead
  server;
* connection errors and 5xx responses are retried with bounded exponential
  backoff (``REPRO_STORE_RPC_RETRIES`` attempts starting at
  ``REPRO_STORE_RPC_BACKOFF`` seconds, doubling, capped at 2 s);
* writes (``append``, ``commit_run``, ``gc``, ``invalidate``, ``compact``,
  the queue ops) carry an idempotency key, generated once per logical call
  and resent verbatim on retry, so a write whose response was lost to a
  crash or a dropped connection is applied exactly once by the server; the
  payload also carries this client's identity, so the server's replay cache
  evicts per client and a slow client's retry window survives chatty peers;
* 4xx responses are never retried — they surface immediately as
  :class:`~repro.store.client.RemoteStoreError`;
* every call runs inside a ``store.rpc`` trace span whose ``op``/``status``/
  ``attempts``/``reused_conn`` args feed ``repro trace report``.
"""

from __future__ import annotations

import http.client
import json
import os
import time
import urllib.parse
import uuid
from typing import Optional, Sequence

from ..obs import trace
from ..obs.logs import get_logger
from .client import RemoteStoreError, StoreClient

logger = get_logger("store")

#: socket timeout per RPC, seconds
ENV_RPC_TIMEOUT = "REPRO_STORE_RPC_TIMEOUT"
#: total attempts per RPC (first try included)
ENV_RPC_RETRIES = "REPRO_STORE_RPC_RETRIES"
#: initial backoff delay, seconds (doubles per retry, capped at 2 s)
ENV_RPC_BACKOFF = "REPRO_STORE_RPC_BACKOFF"

_DEFAULT_TIMEOUT = 10.0
_DEFAULT_RETRIES = 5
_DEFAULT_BACKOFF = 0.05
_BACKOFF_CAP = 2.0


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    try:
        return float(raw) if raw else default
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


class RemoteStoreBackend(StoreClient):
    """Client for a ``repro store serve`` instance; one RPC per operation."""

    name = "remote"

    def __init__(self, url: str) -> None:
        super().__init__()
        self.path = str(url).rstrip("/")
        parts = urllib.parse.urlsplit(self.path)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(f"remote store URL {url!r} is not http(s)://host[:port]")
        self._scheme = parts.scheme
        self._netloc = parts.netloc
        self._base = parts.path.rstrip("/")
        self.timeout = _env_float(ENV_RPC_TIMEOUT, _DEFAULT_TIMEOUT)
        self.retries = max(1, _env_int(ENV_RPC_RETRIES, _DEFAULT_RETRIES))
        self.backoff = _env_float(ENV_RPC_BACKOFF, _DEFAULT_BACKOFF)
        #: the one persistent keep-alive connection this process holds, and
        #: the pid that owns it (a forked child must not reuse the parent's
        #: socket — it would interleave two processes' bytes on one stream)
        self._conn: Optional[http.client.HTTPConnection] = None
        self._conn_pid: Optional[int] = None
        #: identity sent with idempotent writes (the server's replay cache
        #: evicts per client); regenerated after fork with the connection
        self._client_id = uuid.uuid4().hex
        self._client_pid = os.getpid()
        #: session transport counters (reuse rate backs the keep-alive tests)
        self.rpc_calls = 0
        self.rpc_reused = 0

    # -- transport ----------------------------------------------------------------
    def _ensure_identity(self) -> None:
        """Detect a fork: abandon the inherited socket, take a new client id.

        The inherited socket fd is a dup of the parent's — closing our copy
        cannot disturb the parent, but *using* it would interleave two
        processes' bytes on one stream.  The fresh client id keeps the
        server's per-client replay cache from conflating the two processes.
        """
        pid = os.getpid()
        if pid != self._client_pid:
            # closing our dup'd fd releases it without sending a FIN while
            # the parent still holds the connection
            self._drop_connection()
            self._client_id = uuid.uuid4().hex
            self._client_pid = pid

    def _acquire_connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """The process's persistent connection; ``(conn, reused)``."""
        self._ensure_identity()
        if self._conn is not None:
            return self._conn, True
        conn_cls = (
            http.client.HTTPSConnection
            if self._scheme == "https"
            else http.client.HTTPConnection
        )
        self._conn = conn_cls(self._netloc, timeout=self.timeout)
        self._conn_pid = os.getpid()
        return self._conn, False

    def _drop_connection(self) -> None:
        conn, self._conn, self._conn_pid = self._conn, None, None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _post(self, op: str, body: bytes) -> tuple[int, dict, bool]:
        """One request over the keep-alive connection; reconnects once.

        A reused connection can be stale (server restart, idle close) — the
        failure shows up as a connection error on the *first* byte, so one
        immediate retry on a fresh connection is transparent and safe: writes
        carry idempotency keys, so even a request that was applied before the
        response was lost cannot double-apply when resent.
        """
        for attempt in (0, 1):
            conn, reused = self._acquire_connection()
            try:
                conn.request(
                    "POST",
                    f"{self._base}/{op}",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                raw = response.read()
                status = response.status
                if response.will_close:
                    self._drop_connection()
                break
            except (OSError, http.client.HTTPException):
                self._drop_connection()
                if reused and attempt == 0:
                    continue
                raise
        self.rpc_calls += 1
        if reused:
            self.rpc_reused += 1
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            payload = {}
        if not isinstance(payload, dict):
            payload = {}
        return status, payload, reused

    def _call(
        self, op: str, payload: dict, *, idempotent: bool = False
    ) -> dict:
        """One RPC: timeout per attempt, bounded backoff on 5xx/connection loss.

        ``idempotent=True`` stamps a fresh idempotency key into the payload;
        the same key is resent on every retry, so the server applies the
        write once even when a response (not the write) was what got lost.
        """
        self._ensure_identity()  # the client id stamped below must be ours
        if idempotent:
            payload = {**payload, "key": uuid.uuid4().hex, "client": self._client_id}
        body = json.dumps(payload).encode("utf-8")
        delay = self.backoff
        last_error: Optional[BaseException] = None
        with trace.span("store.rpc", cat="store", op=op) as rpc_span:
            for attempt in range(1, self.retries + 1):
                if attempt > 1:
                    time.sleep(delay)
                    delay = min(delay * 2, _BACKOFF_CAP)
                try:
                    status, data, reused = self._post(op, body)
                except (OSError, http.client.HTTPException) as exc:
                    last_error = exc
                    logger.debug(
                        "store rpc %s attempt %d/%d failed: %s",
                        op, attempt, self.retries, exc,
                    )
                    continue
                rpc_span.set(status=status, attempts=attempt, reused_conn=reused)
                if status >= 500:
                    last_error = RemoteStoreError(
                        f"{op} failed with server error {status}: "
                        f"{data.get('error', '')}"
                    )
                    continue
                if status != 200:
                    raise RemoteStoreError(
                        f"store server rejected {op} ({status}): "
                        f"{data.get('error', 'no detail')}"
                    )
                return self._note_total(data)
            rpc_span.set(status=0, attempts=self.retries)
        raise RemoteStoreError(
            f"store server {self.path} unreachable for {op} after "
            f"{self.retries} attempts ({last_error})"
        )

    # -- work-queue operations ----------------------------------------------------
    def enqueue(self, items: Sequence[dict], dispatch: Optional[str] = None) -> dict:
        """Offer obligation records to the store's work queue."""
        return self._call(
            "enqueue",
            {"items": list(items), "dispatch": dispatch},
            idempotent=True,
        )

    def lease(
        self, count: int, ttl: float, *, worker: str = "", wait: float = 0.0,
        held: bool = False,
    ) -> dict:
        """Claim up to ``count`` pending items under a ``ttl``-second lease.

        Returns the server's response: ``lease`` (id or None), ``items``
        (cost-ordered records), ``reclaimed``, ``queued`` and ``drained``.
        With ``wait`` > 0 an empty queue is waited on server-side (clamped,
        see :meth:`_long_poll`) until an item can be
        granted, the queue drains, or ``wait`` elapses.  ``held`` says the
        caller has already seen the queue hold items, so an empty queue
        answers ``drained`` at once.  Leasing is idempotent on retry: the
        replay cache returns the original grant, so a lost response cannot
        strand items under a phantom lease.
        """
        return self._call(
            "lease",
            {
                "count": count,
                "ttl": ttl,
                "worker": worker,
                "wait": self._long_poll(wait),
                "held": held,
            },
            idempotent=True,
        )

    def complete(self, lease_id: str, keys: Sequence[str]) -> dict:
        """Acknowledge discharged items; call only after verdicts are durable."""
        return self._call(
            "complete",
            {"lease": lease_id, "keys": list(keys)},
            idempotent=True,
        )

    def extend(self, lease_id: str, ttl: float) -> bool:
        """Renew a lease (server-relative deadline); False = lease lost."""
        data = self._call(
            "extend", {"lease": lease_id, "ttl": ttl}, idempotent=True
        )
        return bool(data.get("ok"))

    def queue_status(self, dispatch: Optional[str] = None, *, wait: float = 0.0) -> dict:
        """Pending/leased/remaining counts; with ``wait`` > 0 the server
        answers as soon as nothing remains, else after ``wait`` (clamped)."""
        return self._call(
            "queue_status", {"dispatch": dispatch, "wait": self._long_poll(wait)}
        )

    def _long_poll(self, wait: float) -> float:
        """Clamp a server-side ``wait`` to half the socket timeout, so a
        long-poll always answers before the client gives up and retries."""
        return max(0.0, min(float(wait), self.timeout / 2))

    def close(self) -> None:
        """Drop the keep-alive connection (call before ``os.fork``)."""
        self._drop_connection()
