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

Persistence is delegated to a :mod:`~repro.store.backends` backend picked
from the store path:

* a local path is a **directory** (``meta.json``, append-only
  ``entries.jsonl`` where the last line per key wins, ``runs.jsonl``),
  hardened with an advisory ``flock`` per write and atomic fsynced
  rewrites;
* an ``http://``/``https://`` URL is the **remote** backend, a client for
  ``repro store serve``: the session mirrors only the entries it
  batch-fetched or wrote, and every read-modify-rewrite operation below runs
  *server-side* under the wrapped backend's lock — ``update(fn)`` closures
  cannot cross the wire, so the wire speaks store-level operations instead
  (see :mod:`repro.store.remote` and :mod:`repro.store.server`).

Either way the store is safe under concurrent writer processes: appends can
never interleave partial entries, and the read-modify-rewrite operations
(:meth:`compact`, :meth:`invalidate_stale`, :meth:`commit_run`, :meth:`gc`)
re-read the on-disk state under an exclusive lock before rewriting, so
entries appended by another process since :meth:`_load` are never silently
dropped.  Corrupt or torn records (a killed writer's partial
line) are skipped and counted — see ``summary()["skipped"]`` — never fatal.

Invalidation is dependency-tracked: when a method is about to be verified,
:meth:`invalidate_stale` drops exactly the entries whose recorded spec or
library digest no longer matches — entries of other benchmarks (and of this
benchmark's unchanged methods) are untouched.  Content addressing already
guarantees a *changed* obligation can never hit a stale verdict; invalidation
keeps the store from accumulating unreachable entries and makes the
``--explain`` counts meaningful.

One caveat is inherited from the engine's cross-method memo: per-obligation
counters are pure functions of (inline-solver warm snapshot, obligation), and
the warm snapshot depends on which methods were emitted before the obligation
first needed discharging.  Re-running the *same* command against a store is
therefore byte-identical; mixing differently-shaped runs (``check --method``
vs ``evaluate``) can shift cache-hit counters between columns — never
verdicts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

from ..obs import trace
from ..obs.logs import get_logger
from .backends import (
    SCHEMA_VERSION,
    LoadedState,
    StoreEntry,
    open_backend,
)

#: the run log is trimmed to this many most-recent records on commit
_MAX_RUN_RECORDS = 256

logger = get_logger("store")


# ---------------------------------------------------------------------------
# The pure halves of the read-modify-rewrite operations.  Factored out so the
# local store and the ``repro store serve`` service run the *same* logic —
# one executes it in-process under the backend lock, the other server-side
# on a client's behalf.
# ---------------------------------------------------------------------------


def stale_entry_keys(
    entries: dict[tuple[str, str], StoreEntry],
    scope: str,
    method: str,
    spec_digest: str,
    library_digest: str,
) -> list[tuple[str, str]]:
    """Keys invalidated by a spec/library edit (see :meth:`invalidate_stale`)."""
    return [
        key
        for key, entry in entries.items()
        if entry.scope == scope
        and (
            entry.library != library_digest
            or (entry.method == method and entry.spec != spec_digest)
        )
    ]


def append_run_record(runs: list[dict], touched: list[str]) -> tuple[list[dict], int]:
    """Append one run record, trimmed; returns ``(runs, sequence number)``."""
    sequence = (runs[-1]["run"] + 1) if runs else 1
    runs.append({"run": sequence, "touched": list(touched)})
    del runs[:-_MAX_RUN_RECORDS]
    return runs, sequence


def check_keep_last(keep_last: object) -> None:
    """Reject a ``gc`` window that would keep no run (see :meth:`gc`)."""
    if not isinstance(keep_last, int) or keep_last < 1:
        raise ValueError("gc requires keep_last >= 1")


def sweep_unreferenced(
    entries: dict[tuple[str, str], StoreEntry], runs: list[dict], keep_last: int
) -> tuple[dict[tuple[str, str], StoreEntry], list[dict], list[tuple[str, str]]]:
    """Drop entries unreferenced by the last ``keep_last`` runs (see :meth:`gc`).

    Returns ``(surviving entries, kept runs, dropped keys)``.
    """
    kept_runs = runs[-keep_last:]
    referenced: set[tuple[str, str]] = set()
    for record in kept_runs:
        for key in record["touched"]:
            env, _, fp = key.partition(":")
            referenced.add((env, fp))
    stale = [key for key in entries if key not in referenced]
    for key in stale:
        del entries[key]
    return entries, kept_runs, stale


@dataclass(frozen=True)
class StoreContext:
    """The dependency record attached to entries written during one method."""

    scope: str
    method: str
    spec_digest: str
    library_digest: str


@dataclass
class MethodStoreCounts:
    """Per-method session counters backing ``--explain``."""

    hits: int = 0
    misses: int = 0
    invalidated: int = 0


class ObligationStore:
    """A content-addressed, dependency-indexed verdict store on disk."""

    def __init__(self, path: os.PathLike | str) -> None:
        self.backend = open_backend(path)
        self.path = self.backend.path
        self._entries: dict[tuple[str, str], StoreEntry] = {}
        self._pending: list[StoreEntry] = []
        #: every entry recorded through this session (never cleared by a
        #: flush): what a locked rewrite merges over the re-read disk state,
        #: so our writes survive a concurrent compaction and vice versa
        self._session_writes: dict[tuple[str, str], StoreEntry] = {}
        #: per-(scope, method) session counters, in first-check order
        self.session: dict[tuple[str, str], MethodStoreCounts] = {}
        #: corrupt/torn persisted records skipped (never fatal) while loading
        #: the store in this session
        self.skipped_records = 0
        #: obligation fp -> recorded wall cost (advisory, env-free): built
        #: from every loaded/recorded entry and deliberately *not* pruned by
        #: invalidation — a stale verdict's cost is still a fine queue-order hint
        self._cost_index: dict[str, float] = {}
        #: (env, fp) keys referenced (hit or written) since the last
        #: :meth:`commit_run` — the session bookkeeping behind store GC
        self._touched: dict[tuple[str, str], None] = {}
        #: the persisted run log: one ``{"run": n, "touched": [...]}`` per run
        self._runs: list[dict] = []
        #: remote mode only — ``(env, fp)`` keys a batched lookup already
        #: checked against the server, found or not; a key in here but not in
        #: ``_entries`` is a *known* miss and costs no further round-trip
        self._remote_checked: set[tuple[str, str]] = set()
        #: remote mode only — ``(scope, method, spec, library)`` keys this
        #: session already invalidated server-side; the server dropped their
        #: stale entries then, and this session writes only current ones
        self._invalidated: set[tuple[str, str, str, str]] = set()
        self._load()

    @property
    def is_remote(self) -> bool:
        """Whether this session talks to a ``repro store serve`` instance.

        A remote session mirrors only the entries it fetched or wrote;
        read-modify-rewrite operations run server-side, under the wrapped
        backend's lock, because ``update(fn)`` closures cannot cross the wire.
        """
        return not getattr(self.backend, "supports_update", True)

    # -- loading -----------------------------------------------------------------
    def _load(self) -> None:
        if self.is_remote:
            # no wholesale load: handshake (verifying the schema tag), then the
            # advisory cost index a dispatch collect pass hands the queue
            with trace.span("store.load", cat="store", backend=self.backend.name):
                info = self.backend.handshake()
                self._cost_index.update(self.backend.cost_hints())
            self.skipped_records += int(info.get("skipped", 0))
            return
        with trace.span("store.load", cat="store", backend=self.backend.name):
            state = self.backend.load()
        self._adopt(state)

    def _adopt(self, state: LoadedState) -> None:
        self._entries = state.entries
        self._runs = state.runs
        if state.skipped:
            logger.warning(
                "skipped %d corrupt/torn store record(s) while loading %s",
                state.skipped,
                self.path,
            )
        self.skipped_records += state.skipped
        for entry in self._entries.values():
            self._note_cost(entry)

    def _note_cost(self, entry: StoreEntry) -> None:
        wall = entry.wall_cost
        if wall is not None:
            self._cost_index[entry.fp] = wall

    # -- the read/write surface ----------------------------------------------------
    def lookup(self, env: str, fp: str) -> Optional[StoreEntry]:
        with trace.span("store.lookup", cat="store", fp=fp) as lookup_span:
            entry = self._entries.get((env, fp))
            if (
                entry is None
                and self.is_remote
                and (env, fp) not in self._remote_checked
            ):
                # unbatched fallback (one fetch per unseen key); the engine's
                # :meth:`prefetch` is the batched fast path
                fetched = self.backend.lookup(env, [fp])
                self._remote_checked.add((env, fp))
                if fetched:
                    entry = fetched[0]
                    self._entries[entry.key] = entry
                    self._note_cost(entry)
            lookup_span.set(hit=entry is not None)
        if entry is not None:
            self._touched[entry.key] = None
        return entry

    def prefetch(self, env: str, fps: list[str]) -> None:
        """Batch-fetch a discharge batch's keys ahead of per-obligation lookups.

        A no-op for local stores (every entry is already in memory); against a
        remote store this turns N round-trips into one batched ``lookup`` RPC.
        Keys the server does not hold are remembered as known misses.
        """
        if not self.is_remote:
            return
        missing = [
            fp
            for fp in dict.fromkeys(fps)
            if (env, fp) not in self._entries and (env, fp) not in self._remote_checked
        ]
        if not missing:
            return
        for entry in self.backend.lookup(env, missing):
            self._entries[entry.key] = entry
            self._note_cost(entry)
        self._remote_checked.update((env, fp) for fp in missing)

    def forget_remote_misses(self) -> None:
        """Drop the session's known-miss cache (remote sessions only).

        A prefetch that came back empty is remembered so later lookups cost
        no round-trip — but a dispatch coordinator *expects* other processes
        to fill those keys between its collect and report phases, so it
        forgets the misses before the warm pass re-fetches them.
        """
        self._remote_checked.clear()

    def record(self, entry: StoreEntry) -> None:
        self._entries[entry.key] = entry
        self._pending.append(entry)
        self._session_writes[entry.key] = entry
        self._touched[entry.key] = None
        self._note_cost(entry)

    def cost_hint(self, fp: str) -> Optional[float]:
        """The last recorded wall cost for an obligation fingerprint, if any.

        Deliberately environment-free: verdicts must never cross environments
        (a run under another literal budget cannot replay these counters), but
        a *measurement* of how long the obligation took to discharge is a fine
        queue-order hint under any budget — which is exactly when cold obligations have
        history (the same-environment case would have been a store hit).
        """
        return self._cost_index.get(fp)

    def flush(self) -> None:
        """Append pending entries to the log.

        The backend appends the pre-joined batch under an exclusive lock, so
        concurrent flushes can interleave batches but never the bytes of one
        entry.
        """
        if not self._pending:
            return
        logger.debug("flushing %d pending store entries to %s", len(self._pending), self.path)
        with trace.span("store.flush", cat="store", entries=len(self._pending)):
            self.backend.append_entries(self._pending)
        self._pending.clear()

    def compact(self) -> None:
        """Rewrite the log with exactly the live entries (drops dead lines).

        Runs as a locked read-modify-rewrite: the on-disk state is re-read
        under the exclusive lock and this session's writes merged over it, so
        entries appended by a concurrent process since :meth:`_load` survive
        the compaction instead of being lost to a stale snapshot.
        """
        if self.is_remote:
            # the server compacts under its own lock; our writes must be
            # durably appended first so the rewrite sees them
            self.flush()
            self.backend.compact()
            return

        def merge_session(entries, runs):
            entries.update(self._session_writes)
            return entries, runs

        self._adopt(self.backend.update(merge_session, runs=False))
        self._pending.clear()

    # -- dependency-tracked invalidation -------------------------------------------
    def invalidate_stale(
        self, scope: str, method: str, spec_digest: str, library_digest: str
    ) -> int:
        """Drop exactly the entries invalidated by a spec or library edit.

        An entry of ``scope`` dies when the benchmark's library digest changed
        (every method's obligations sat on its axioms and alphabets) or when
        it belongs to ``method`` and that method's spec digest changed.
        Entries of other scopes are never touched.  A remote session sends
        each ``(scope, method, spec, library)`` key to the server once: a
        repeat (the negative variants of a method, a dispatch's assembly
        pass) has nothing left to drop and returns 0 without a round-trip.
        """
        sent = (scope, method, spec_digest, library_digest)
        if sent in self._invalidated:
            return 0
        local_stale = stale_entry_keys(
            self._entries, scope, method, spec_digest, library_digest
        )
        if not self.is_remote and not local_stale:
            # a local session whose view has nothing stale skips the locked
            # rewrite — the overwhelmingly common (warm, unedited) case
            return 0

        if self.is_remote:
            # the server drops stale entries under its lock; flush first so
            # this session's (never-stale: they carry the current digests)
            # writes are not raced by the rewrite, then retire the mirror's
            # stale view — a dropped key is a *known* miss from here on
            self.flush()
            with trace.span("store.invalidate", cat="store"):
                dropped = self.backend.invalidate(
                    scope, method, spec_digest, library_digest
                )
            self._invalidated.add(sent)
            for key in local_stale:
                del self._entries[key]
                self._session_writes.pop(key, None)
                self._remote_checked.add(key)
            logger.debug(
                "invalidated %d stale entries for %s.%s (remote)", dropped, scope, method
            )
            return dropped

        dropped = 0

        def drop_stale(entries, runs):
            nonlocal dropped
            entries.update(self._session_writes)
            stale = stale_entry_keys(entries, scope, method, spec_digest, library_digest)
            dropped = len(stale)
            for key in stale:
                del entries[key]
                # an invalidated session write must not be resurrected by a
                # later rewrite's session merge
                self._session_writes.pop(key, None)
            return entries, runs

        with trace.span("store.invalidate", cat="store"):
            self._adopt(self.backend.update(drop_stale, runs=False))
        self._pending.clear()
        logger.debug("invalidated %d stale entries for %s.%s", dropped, scope, method)
        return dropped

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
        keeps entries alive by.  The sequence number and the trim are
        computed against the log as re-read under the exclusive lock, so two
        processes committing concurrently get distinct sequence numbers and
        neither overwrites the other's record.  Returns the number of keys
        recorded; a session that touched nothing records no run.
        """
        if not self._touched:
            self._touched.clear()
            return 0
        self.flush()
        touched = sorted(f"{env}:{fp}" for env, fp in self._touched)
        logger.debug("committing run: %d touched entries", len(touched))

        if self.is_remote:
            # the server assigns the sequence number under its lock;
            # the idempotency key on the RPC keeps a retried commit from
            # recording the run twice
            with trace.span("store.commit_run", cat="store", touched=len(touched)):
                self.backend.commit_run(touched)
            self._touched.clear()
            return len(touched)

        def append_run(entries, runs):
            runs, _ = append_run_record(runs, touched)
            return entries, runs

        with trace.span("store.commit_run", cat="store", touched=len(touched)):
            state = self.backend.update(append_run, entries=False)
        self._runs = state.runs
        self._touched.clear()
        return len(touched)

    def gc(self, keep_last: int) -> int:
        """Expire entries unreferenced by the last ``keep_last`` runs.

        Content addressing already guarantees stale entries can never be
        *hit*; GC is about space — spec edits, renamed methods and abandoned
        experiments leave verdicts nothing will ever look up again.  An entry
        survives iff one of the last ``keep_last`` committed runs referenced
        it (hit it or wrote it), so everything those runs warm-started from
        still warm-starts after the sweep.  The reference set and the victims
        are computed from the state re-read under the exclusive lock —
        entries and runs a concurrent process committed meanwhile are part of
        the sweep, never casualties of a stale snapshot.  Returns the number
        of entries dropped; older run records are dropped from the log too.
        """
        check_keep_last(keep_last)
        if self._touched:
            # an uncommitted session counts as the most recent run
            self.commit_run()
        if self.is_remote:
            dropped = self.backend.gc(keep_last)
            # the client cannot know which mirrored entries survived the
            # server-side sweep; forget the mirror and re-fetch lazily
            self._entries.clear()
            self._remote_checked.clear()
            self._session_writes.clear()
            self._pending.clear()
            return dropped
        dropped = 0

        def sweep(entries, runs):
            nonlocal dropped
            entries.update(self._session_writes)
            entries, kept_runs, stale = sweep_unreferenced(entries, runs, keep_last)
            dropped = len(stale)
            for key in stale:
                self._session_writes.pop(key, None)
            return entries, kept_runs

        self._adopt(self.backend.update(sweep))
        self._pending.clear()
        return dropped

    # -- misc ------------------------------------------------------------------------
    def __len__(self) -> int:
        if self.is_remote:
            # the server's count, as of the most recent response carrying one
            return self.backend.entries_total
        return len(self._entries)

    def __iter__(self) -> Iterator[StoreEntry]:
        # remote sessions iterate their mirror: the entries fetched or
        # written this session, not the server's full state
        return iter(self._entries.values())

    def entries_for_scope(self, scope: str) -> list[StoreEntry]:
        return [entry for entry in self._entries.values() if entry.scope == scope]
