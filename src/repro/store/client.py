"""The store client: the ops a session drives, whatever the transport.

:class:`StoreClient` speaks the store-level operations of
:class:`~repro.store.service.StoreService` — ``handshake``, batched
``lookup``, batched ``append``, batched ``invalidate`` (a list of
``(scope, method, spec, library)`` keys, which a session queues and sends
before its next read or write), ``compact``, ``commit_run``, ``gc`` and
``stats`` — and leaves the transport to ``_call``:

* :class:`~repro.store.service.LocalStoreClient` calls a local store's
  service in-process;
* :class:`~repro.store.remote.RemoteStoreBackend` posts JSON to a
  ``repro store serve`` instance over HTTP, with retries.

This module imports no networking, so a local session never loads the HTTP
transport: :class:`~repro.store.obligation_store.ObligationStore` imports
:mod:`repro.store.remote` only when it is given an ``http(s)://`` URL.

At open time the client performs a handshake and verifies the store's
schema tag matches its own :data:`~repro.store.backends.SCHEMA_VERSION` —
entries of another layout version must be rejected at the door, exactly as a
local open would discard them.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .backends import SCHEMA_VERSION, StoreEntry


class RemoteStoreError(ConnectionError):
    """A store op failed for good: retries exhausted, the server said no,
    or the store speaks another schema."""


class StoreClient:
    """The store ops a session drives; ``_call`` is the transport."""

    def __init__(self) -> None:
        #: the store's entry count as of the last response that carried one
        self.entries_total = 0
        self._identity: Optional[dict] = None
        #: queue-worker mode: stamp ``if_absent`` on appends so a worker
        #: whose lease was stolen can never land a duplicate verdict record
        self.append_if_absent = False

    def _call(self, op: str, payload: dict, *, idempotent: bool = False) -> dict:
        raise NotImplementedError

    def _note_total(self, data: dict) -> dict:
        total = data.get("entries")
        if isinstance(total, int):
            self.entries_total = total
        return data

    # -- handshake ----------------------------------------------------------------
    def handshake(self) -> dict:
        """Fetch (once) and verify the store's identity record."""
        if self._identity is not None:
            return self._identity
        info = self._call("handshake", {})
        schema = info.get("schema")
        if schema != SCHEMA_VERSION:
            raise RemoteStoreError(
                f"store server {self.path} speaks schema {schema!r}, this "
                f"client needs {SCHEMA_VERSION!r}; upgrade one side"
            )
        self._identity = info
        return info

    # -- the store operations -----------------------------------------------------
    def lookup(self, env: str, fps: Sequence[str]) -> list[StoreEntry]:
        """Batched lookup; returns only the entries the store holds."""
        if not fps:
            return []
        data = self._call("lookup", {"env": env, "fps": list(fps)})
        entries = []
        for record in data.get("found", []):
            try:
                entries.append(StoreEntry.from_record(record))
            except (ValueError, KeyError, TypeError):
                continue
        return entries

    def append_entries(self, entries: Sequence[StoreEntry]) -> None:
        if not entries:
            return
        self._call(
            "append",
            {
                "entries": [entry.to_record() for entry in entries],
                "if_absent": self.append_if_absent,
            },
            idempotent=True,
        )

    def compact(self) -> None:
        self._call("compact", {}, idempotent=True)

    def invalidate(self, keys: Sequence[Sequence[str]]) -> list[int]:
        """Drop what each ``(scope, method, spec, library)`` key condemns.

        One op and one locked pass for the whole batch; returns the per-key
        dropped counts, each stale entry credited to the first key that
        condemns it (what sequential calls would report).
        """
        if not keys:
            return []
        data = self._call(
            "invalidate", {"keys": [list(key) for key in keys]}, idempotent=True
        )
        return [int(count) for count in data.get("dropped", [])]

    def commit_run(self, touched: Sequence[str]) -> int:
        data = self._call("commit_run", {"touched": list(touched)}, idempotent=True)
        return int(data.get("run", 0))

    def gc(self, keep_last: int) -> int:
        data = self._call("gc", {"keep_last": keep_last}, idempotent=True)
        return int(data.get("dropped", 0))

    def stats(self) -> dict:
        """The store's per-op counters, lookup hit-rate and queue state."""
        return self._call("stats", {})
