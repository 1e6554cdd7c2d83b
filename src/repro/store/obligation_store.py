"""The persistent obligation store: verdicts + witnesses + discharge stats.

An :class:`ObligationStore` maps
(:func:`~repro.store.fingerprint.environment_fingerprint`,
:func:`~repro.store.fingerprint.obligation_digest`) keys to discharged
obligations: besides the verdict (included / counterexample trace /
resource-limit error) each entry carries the per-obligation
``SolverStats``/``InclusionStats`` counter dicts, so a warm run merges
*exactly* the numbers a cold discharge would have produced — this is what
makes warm tables byte-identical to cold ones — plus a dependency record
(benchmark scope, method, spec digest, library digest) for targeted
invalidation and an advisory cost record for the dispatch queue.

An :class:`ObligationStore` is one *session* against a
:class:`~repro.store.service.StoreService`, the one implementation of the
store's operations; the store path only picks the transport:

* a local path (a directory: ``meta.json``, append-only ``entries.jsonl``
  where the last line per key wins, ``runs.jsonl``) opens a service
  in-process (:class:`~repro.store.service.LocalStoreClient`);
* an ``http://``/``https://`` URL talks to ``repro store serve``
  (:class:`~repro.store.remote.RemoteStoreBackend`).

Both clients subclass :class:`~repro.store.client.StoreClient`.  The HTTP
transport module is imported only when a URL is opened, so a local session
loads no networking code.

Either way the session mirrors only the entries it fetched or wrote, and
every read-modify-rewrite (:meth:`compact`, invalidation, :meth:`commit_run`,
:meth:`gc`) runs in the service under the store's exclusive lock, against
the on-disk state re-read there — so the store is safe under concurrent
writer processes: appends never interleave partial entries, and entries
another process appended since this session opened are never silently
dropped.  Corrupt or torn records (a killed writer's partial line) are
skipped and counted — see ``summary()["skipped"]`` — never fatal.

Invalidation is dependency-tracked: when a method is about to be verified,
:meth:`invalidate_stale` drops exactly the entries whose recorded spec or
library digest no longer matches — entries of other benchmarks (and of this
benchmark's unchanged methods) are untouched.  A session queues its keys
and sends them as one batched ``invalidate`` before its next read or write,
so a run that emits every method first pays one locked re-read, not one
per method.  Content addressing already guarantees a *changed* obligation
can never hit a stale verdict; invalidation keeps the store from
accumulating unreachable entries and makes the ``--explain`` counts
meaningful.

One caveat is inherited from the checker's shared state: per-obligation
discharge counters are hermetic, but a method's inline counters and
memo hits depend on which methods the checker walked before it.
Re-running the *same* command against a store is therefore byte-identical;
mixing differently-shaped runs (``check --method`` vs ``evaluate``) can
shift cache-hit counters between columns — never verdicts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

from ..obs import trace
from ..obs.logs import get_logger
from ..statsutil import StatsTable
from .backends import SCHEMA_VERSION, StoreEntry, is_store_url
from .service import LocalStoreClient, check_keep_last, stale_entry_keys

__all__ = [
    "SCHEMA_VERSION",
    "MethodStoreCounts",
    "ObligationStore",
    "StoreContext",
    "StoreEntry",
    "check_keep_last",
]

logger = get_logger("store")


@dataclass(frozen=True)
class StoreContext:
    """The dependency record attached to entries written during one method."""

    scope: str
    method: str
    spec_digest: str
    library_digest: str


class MethodStoreCounts(StatsTable):
    """Per-method session counters backing ``--explain``."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0


class ObligationStore:
    """A session against a content-addressed, dependency-indexed verdict store."""

    def __init__(self, path: os.PathLike | str) -> None:
        if is_store_url(path):
            from .remote import RemoteStoreBackend  # the HTTP transport, URLs only

            self.backend = RemoteStoreBackend(str(path))
        else:
            self.backend = LocalStoreClient(path)
        self.path = self.backend.path
        #: the session's mirror: the entries it fetched or wrote
        self._entries: dict[tuple[str, str], StoreEntry] = {}
        self._pending: list[StoreEntry] = []
        #: per-(scope, method) session counters, in first-check order
        self.session: dict[tuple[str, str], MethodStoreCounts] = {}
        #: (env, fp) keys referenced (hit or written) since the last
        #: :meth:`commit_run` — the session bookkeeping behind store GC
        self._touched: dict[tuple[str, str], None] = {}
        #: ``(env, fp)`` keys a lookup already asked the store for, found or
        #: not; a key in here but not in ``_entries`` is a *known* miss and
        #: costs no further op
        self._checked: set[tuple[str, str]] = set()
        #: ``(scope, method, spec, library)`` keys this session already
        #: queued; the store drops their stale entries once, and this
        #: session writes only current ones
        self._invalidated: set[tuple[str, str, str, str]] = set()
        #: queued keys not yet sent: they go out as one ``invalidate`` op
        #: before the session's next read or write
        self._invalidation_queue: list[tuple[str, str, str, str]] = []
        with trace.span("store.load", cat="store", backend=self.backend.name):
            info = self.backend.handshake()
        #: corrupt/torn persisted records the store skipped while loading
        self.skipped_records = int(info.get("skipped", 0))
        if self.skipped_records:
            logger.warning(
                "skipped %d corrupt/torn store record(s) while loading %s",
                self.skipped_records,
                self.path,
            )

    @property
    def is_remote(self) -> bool:
        """Whether this session talks to a ``repro store serve`` instance —
        its one difference from a local session is the transport."""
        return is_store_url(self.path)

    # -- the read/write surface ----------------------------------------------------
    def lookup(self, env: str, fp: str) -> Optional[StoreEntry]:
        with trace.span("store.lookup", cat="store", fp=fp) as lookup_span:
            entry = self._entries.get((env, fp))
            if entry is None and (env, fp) not in self._checked:
                # unbatched fallback (one op per unseen key); the engine's
                # :meth:`prefetch` is the batched fast path
                self._fetch(env, [fp])
                entry = self._entries.get((env, fp))
            lookup_span.set(hit=entry is not None)
        if entry is not None:
            self._touched[entry.key] = None
        return entry

    def prefetch(self, env: str, fps: list[str]) -> None:
        """Batch-fetch a discharge batch's keys ahead of per-obligation lookups.

        One batched ``lookup`` op instead of one per key; keys the store
        does not hold are remembered as known misses.
        """
        missing = [
            fp
            for fp in dict.fromkeys(fps)
            if (env, fp) not in self._entries and (env, fp) not in self._checked
        ]
        if missing:
            self._fetch(env, missing)

    def _fetch(self, env: str, fps: list[str]) -> None:
        self._send_invalidations()
        for entry in self.backend.lookup(env, fps):
            self._entries[entry.key] = entry
        self._checked.update((env, fp) for fp in fps)

    def refetch(self, env: str, fps: list[str]) -> None:
        """Re-fetch known misses another process was expected to fill.

        A prefetch that came back empty is remembered so later lookups cost
        no op — but a dispatch coordinator *expects* its fleet to fill
        exactly the keys it enqueued, so after the drain it re-fetches
        those, in one batched ``lookup`` per environment.
        """
        self._checked.difference_update((env, fp) for fp in fps)
        self.prefetch(env, fps)

    def record(self, entry: StoreEntry) -> None:
        self._entries[entry.key] = entry
        self._pending.append(entry)
        self._touched[entry.key] = None

    def flush(self) -> None:
        """Send queued invalidations, then append pending entries.

        The store appends the pre-joined batch under an exclusive lock, so
        concurrent flushes can interleave batches but never the bytes of one
        entry.
        """
        self._send_invalidations()
        if not self._pending:
            return
        logger.debug("flushing %d pending store entries to %s", len(self._pending), self.path)
        with trace.span("store.flush", cat="store", entries=len(self._pending)):
            self.backend.append_entries(self._pending)
        self._pending.clear()

    def compact(self) -> None:
        """Rewrite the log with exactly the live entries (drops dead lines).

        This session's writes are appended first; the store then rewrites
        the state it re-reads under the exclusive lock, so entries appended
        by a concurrent process survive the compaction.
        """
        self.flush()
        self.backend.compact()

    # -- dependency-tracked invalidation -------------------------------------------
    def invalidate_stale(
        self, scope: str, method: str, spec_digest: str, library_digest: str
    ) -> None:
        """Drop exactly the entries invalidated by a spec or library edit.

        An entry of ``scope`` dies when the benchmark's library digest changed
        (every method's obligations sat on its axioms and alphabets) or when
        it belongs to ``method`` and that method's spec digest changed.
        Entries of other scopes are never touched.

        The session retires the stale part of its mirror at once and queues
        the ``(scope, method, spec, library)`` key; the queue goes out as one
        ``invalidate`` op before the session's next read or write
        (:meth:`lookup`, :meth:`prefetch`, :meth:`flush`, :meth:`commit_run`,
        :meth:`compact`, :meth:`gc`), so stale entries are gone from the
        store before anything is fetched.  The dropped counts are credited to
        ``session[(scope, method)].invalidated`` when the reply arrives.  A
        repeated key (the negative variants of a method) has nothing left to
        drop and is not queued again.
        """
        # registers the method in first-check order, whatever it drops
        self.note_method(scope, method)
        sent = (scope, method, spec_digest, library_digest)
        if sent in self._invalidated:
            return
        self._invalidated.add(sent)
        self._invalidation_queue.append(sent)
        # a dropped key is a *known* miss from here on; an unflushed stale
        # write must not reach the store after the batch
        dead = set(stale_entry_keys(self._entries, scope, method, spec_digest, library_digest))
        for key in dead:
            del self._entries[key]
        self._checked |= dead
        self._pending = [entry for entry in self._pending if entry.key not in dead]

    def _send_invalidations(self) -> None:
        """Send the queued invalidation keys as one batched op.

        The store credits each stale entry to the first key that condemns
        it — the counts sequential calls would report — and so does the
        session.  A failed op leaves the queue intact for the next attempt.
        """
        if not self._invalidation_queue:
            return
        keys = self._invalidation_queue
        with trace.span("store.invalidate", cat="store", keys=len(keys)):
            dropped = self.backend.invalidate(keys)
        self._invalidation_queue = []
        for (scope, method, _, _), count in zip(keys, dropped):
            self.note_method(scope, method, invalidated=count)
        logger.debug("invalidated %d stale entries for %d keys", sum(dropped), len(keys))

    # -- session bookkeeping (--explain) -------------------------------------------
    def note_method(
        self, scope: str, method: str, *, hits: int = 0, misses: int = 0, invalidated: int = 0
    ) -> None:
        counts = self.session.setdefault((scope, method), MethodStoreCounts())
        counts.hits += hits
        counts.misses += misses
        counts.invalidated += invalidated

    def summary(self) -> dict[str, int]:
        return {
            "entries": len(self),
            "hits": sum(c.hits for c in self.session.values()),
            "misses": sum(c.misses for c in self.session.values()),
            "invalidated": sum(c.invalidated for c in self.session.values()),
            "skipped": self.skipped_records,
        }

    def explain(self) -> list[dict[str, object]]:
        """Per-method hit/miss/invalidated counts, in first-check order."""
        return [
            {
                "scope": scope,
                "method": method,
                "hits": counts.hits,
                "misses": counts.misses,
                "invalidated": counts.invalidated,
            }
            for (scope, method), counts in self.session.items()
        ]

    # -- run bookkeeping and garbage collection --------------------------------------
    def commit_run(self) -> int:
        """Close the current session as one *run* in the persistent run log.

        Appends the set of entry keys this session referenced (store hits and
        fresh writes alike) to the run log — the reference trail :meth:`gc`
        keeps entries alive by.  The store assigns the sequence number
        against the log as re-read under its lock, so two processes
        committing concurrently get distinct sequence numbers and neither
        overwrites the other's record.  Returns the number of keys recorded;
        a session that touched nothing records no run.
        """
        self.flush()
        if not self._touched:
            return 0
        touched = sorted(f"{env}:{fp}" for env, fp in self._touched)
        logger.debug("committing run: %d touched entries", len(touched))
        with trace.span("store.commit_run", cat="store", touched=len(touched)):
            self.backend.commit_run(touched)
        self._touched.clear()
        return len(touched)

    def gc(self, keep_last: int) -> int:
        """Expire entries unreferenced by the last ``keep_last`` runs.

        Content addressing already guarantees stale entries can never be
        *hit*; GC is about space — spec edits, renamed methods and abandoned
        experiments leave verdicts nothing will ever look up again.  An entry
        survives iff one of the last ``keep_last`` committed runs referenced
        it (hit it or wrote it), so everything those runs warm-started from
        still warm-starts after the sweep.  The store computes the reference
        set and the victims from the state re-read under its lock — entries
        and runs a concurrent process committed meanwhile are part of the
        sweep, never casualties of a stale snapshot.  Returns the number of
        entries dropped; older run records are dropped from the log too.
        """
        check_keep_last(keep_last)
        # an uncommitted session counts as the most recent run
        self.commit_run()
        dropped = self.backend.gc(keep_last)
        # the session cannot know which mirrored entries survived the
        # sweep; forget the mirror and re-fetch lazily
        self._entries.clear()
        self._checked.clear()
        return dropped

    # -- misc ------------------------------------------------------------------------
    def __len__(self) -> int:
        # the store's count, as of the most recent reply carrying one
        return self.backend.entries_total

    def __iter__(self) -> Iterator[StoreEntry]:
        # the mirror: the entries fetched or written this session, not the
        # store's full state
        return iter(self._entries.values())

    def entries_for_scope(self, scope: str) -> list[StoreEntry]:
        return [entry for entry in self._entries.values() if entry.scope == scope]
