"""The lease-based work queue behind distributed obligation discharge.

A :class:`WorkQueue` holds obligations a coordinator wants discharged —
each item is a ``(env, fp)`` store key plus the benchmark that emits it, an
advisory cost and an opaque payload text (the obligation itself, encoded
by :mod:`repro.engine.codec`, and the store context its verdict is recorded
under) — and hands them to pulling workers under *leases*:

* :meth:`lease` reclaims every expired lease first (a dead or straggling
  worker's items go back to pending — work stealing needs no extra
  machinery), then issues the ``count`` most expensive pending items.
  Measured costs (the store service's cost index) sort before syntactic
  estimates, both longest-first: LPT applied *at dequeue time*, so the
  straggler obligation is always in flight while cheap ones fill the gaps
  — a static hash partition would pin it to one worker.
* :meth:`complete` removes items by key no matter who currently holds
  them, and is idempotent: completing an already-removed key is a no-op,
  completing under a stale (stolen) lease merely counts as ``stale``.
  Durability is the *store's* job — a worker completes only after its
  verdicts are durably appended, so losing the in-memory queue loses no
  work a re-dispatch cannot recompute from the store.
* :meth:`extend` renews a live lease's deadline **relative to the
  server's clock** (``deadline = now + ttl``): a worker with a skewed
  clock can never push its deadline into the past or the far future,
  because client time never enters the computation.

Every method takes ``now`` explicitly — the queue owns no clock, which is
what makes lease expiry, stealing and skew unit-testable without sleeping.
Dispatch tags (:meth:`status`) let a coordinator poll the drain of exactly
its own enqueue wave while other tenants share the queue.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..record import Record


def item_key(env: str, fp: str) -> str:
    """The wire spelling of a queue item's identity (also the store key)."""
    return f"{env}:{fp}"


class QueueItem(Record):
    """One obligation awaiting discharge."""

    __slots__ = (
        "env", "fp", "bench", "cost", "measured", "leased_by", "attempts", "dispatches", "payload",
    )

    def __init__(
        self,
        env: str,
        fp: str,
        bench: str,
        cost: float = 0.0,
        measured: bool = False,
        leased_by: Optional[str] = None,
        attempts: int = 0,
        dispatches: Optional[set] = None,
        payload: Optional[str] = None,
    ) -> None:
        self.env = env
        self.fp = fp
        #: registry key of the benchmark that emitted the obligation: its
        #: operator registry resolves the payload's event signatures
        self.bench = bench
        #: advisory discharge cost: seconds when ``measured``, else the
        #: syntactic estimate — :meth:`WorkQueue.lease` sorts measured items
        #: before estimated ones, each population longest-first
        self.cost = cost
        self.measured = measured
        #: id of the lease currently holding this item, if any
        self.leased_by = leased_by
        #: how many times this item has been leased (> 1 means it was stolen)
        self.attempts = attempts
        #: enqueue-wave tags; :meth:`WorkQueue.status` filters by them
        self.dispatches = set() if dispatches is None else dispatches
        #: the encoded obligation and its store context as JSON text, passed
        #: through to the leasing worker unparsed (``None``: the worker cannot
        #: discharge the item and completes it, leaving it to the coordinator)
        self.payload = payload

    @property
    def key(self) -> str:
        return item_key(self.env, self.fp)

    def to_record(self) -> dict:
        return {
            "env": self.env,
            "fp": self.fp,
            "bench": self.bench,
            "cost": self.cost,
            "measured": self.measured,
            "attempts": self.attempts,
            "payload": self.payload,
        }


class Lease(Record):
    """One worker's claim on a batch of items, valid until ``deadline``."""

    __slots__ = ("id", "worker", "deadline", "keys")

    def __init__(self, id: str, worker: str, deadline: float, keys: set) -> None:
        self.id = id
        self.worker = worker
        self.deadline = deadline
        self.keys = keys


class WorkQueue:
    """Pure in-memory lease queue; all timing flows in through ``now``."""

    def __init__(self) -> None:
        self._items: dict[str, QueueItem] = {}
        self._leases: dict[str, Lease] = {}
        self._sequence = 0
        self.counters = {
            "enqueued": 0,
            "requeued": 0,
            "leases_issued": 0,
            "completed": 0,
            "stale_completes": 0,
            "reclaimed": 0,
            "extended": 0,
            "extend_rejected": 0,
        }

    # -- enqueue ------------------------------------------------------------------
    def enqueue(
        self,
        items: Sequence[QueueItem],
        *,
        dispatch: Optional[str] = None,
    ) -> tuple[int, int]:
        """Add items, deduplicating on ``(env, fp)``; returns ``(new, requeued)``.

        Re-enqueueing a known key never duplicates it and never disturbs an
        active lease; it re-tags the item with the new dispatch so the
        re-dispatching coordinator's drain poll counts it, and adopts a
        better (measured over estimated) cost if one arrived.
        """
        added = requeued = 0
        for item in items:
            existing = self._items.get(item.key)
            if existing is None:
                if dispatch:
                    item.dispatches.add(dispatch)
                self._items[item.key] = item
                added += 1
            else:
                if dispatch:
                    existing.dispatches.add(dispatch)
                if item.measured and not existing.measured:
                    existing.cost, existing.measured = item.cost, True
                requeued += 1
        self.counters["enqueued"] += added
        self.counters["requeued"] += requeued
        return added, requeued

    # -- lease / steal ------------------------------------------------------------
    def _reclaim(self, now: float) -> int:
        """Return every expired lease's items to pending (work stealing)."""
        expired = [lease for lease in self._leases.values() if lease.deadline <= now]
        reclaimed = 0
        for lease in expired:
            for key in lease.keys:
                item = self._items.get(key)
                if item is not None and item.leased_by == lease.id:
                    item.leased_by = None
                    reclaimed += 1
            del self._leases[lease.id]
        self.counters["reclaimed"] += reclaimed
        return reclaimed

    def lease(
        self, count: int, ttl: float, now: float, *, worker: str = ""
    ) -> tuple[Optional[Lease], list[QueueItem], int]:
        """Issue up to ``count`` pending items, most expensive first.

        Returns ``(lease, items, reclaimed)``; the lease is ``None`` when
        nothing is pending.  ``reclaimed`` counts items stolen back from
        expired leases during this call (they are immediately eligible).
        """
        if count < 1:
            raise ValueError("lease requires count >= 1")
        if ttl <= 0:
            raise ValueError("lease requires ttl > 0")
        reclaimed = self._reclaim(now)
        pending = [item for item in self._items.values() if item.leased_by is None]
        # LPT at dequeue: measured costs first (informative), both longest-
        # first; the fp tiebreak keeps the order deterministic for tests
        pending.sort(key=lambda item: (0 if item.measured else 1, -item.cost, item.fp))
        taken = pending[:count]
        if not taken:
            return None, [], reclaimed
        self._sequence += 1
        lease = Lease(
            id=f"L{self._sequence}",
            worker=worker,
            deadline=now + ttl,
            keys={item.key for item in taken},
        )
        for item in taken:
            item.leased_by = lease.id
            item.attempts += 1
        self._leases[lease.id] = lease
        self.counters["leases_issued"] += 1
        return lease, taken, reclaimed

    # -- complete -----------------------------------------------------------------
    def complete(self, lease_id: str, keys: Sequence[str]) -> tuple[int, int]:
        """Remove items by key; idempotent.  Returns ``(completed, stale)``.

        ``stale`` counts keys completed under a lease that no longer owns
        them (expired and re-issued to another worker).  The item is removed
        either way: the completing worker only calls this after its verdict
        is durable in the store, and the usurping worker's own writes are
        ``if_absent``-filtered server-side, so neither loses nor duplicates
        a record.  Unknown leases and already-removed keys are no-ops.
        """
        completed = stale = 0
        for key in keys:
            item = self._items.pop(key, None)
            if item is None:
                continue
            completed += 1
            if item.leased_by != lease_id:
                stale += 1
            owner = self._leases.get(item.leased_by) if item.leased_by else None
            if owner is not None:
                owner.keys.discard(key)
                if not owner.keys:
                    del self._leases[owner.id]
        lease = self._leases.get(lease_id)
        if lease is not None:
            lease.keys.difference_update(keys)
            if not lease.keys:
                del self._leases[lease_id]
        self.counters["completed"] += completed
        self.counters["stale_completes"] += stale
        return completed, stale

    # -- extend -------------------------------------------------------------------
    def extend(self, lease_id: str, ttl: float, now: float) -> bool:
        """Renew a live lease to ``now + ttl`` (server-relative; skew-proof).

        Returns ``False`` for an unknown, expired or reclaimed lease — the
        worker must abandon the batch, its items already belong to someone
        else (or will, at the next :meth:`lease`).
        """
        if ttl <= 0:
            raise ValueError("extend requires ttl > 0")
        lease = self._leases.get(lease_id)
        if lease is None or lease.deadline <= now:
            self.counters["extend_rejected"] += 1
            return False
        lease.deadline = now + ttl
        self.counters["extended"] += 1
        return True

    # -- introspection ------------------------------------------------------------
    def next_deadline(self) -> Optional[float]:
        """The earliest live lease's deadline (``None`` when nothing is leased).

        Once ``now`` passes it, :meth:`lease` reclaims that lease's items —
        the moment a worker waiting for work should look again.
        """
        return min((lease.deadline for lease in self._leases.values()), default=None)

    def status(self, dispatch: Optional[str] = None, *, now: Optional[float] = None) -> dict:
        """Pending/leased/remaining counts, optionally for one dispatch tag.

        When ``now`` is given, expired leases are reclaimed first so the
        reported ``leased`` count never includes dead workers' claims.
        """
        if now is not None:
            self._reclaim(now)
        items = [
            item
            for item in self._items.values()
            if dispatch is None or dispatch in item.dispatches
        ]
        leased = sum(1 for item in items if item.leased_by is not None)
        return {
            "pending": len(items) - leased,
            "leased": leased,
            "remaining": len(items),
            "leases": len(self._leases),
            "counters": dict(self.counters),
        }

    def __len__(self) -> int:
        return len(self._items)
