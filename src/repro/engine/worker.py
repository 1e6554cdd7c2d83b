"""The pull-based discharge worker behind ``repro worker --store URL``.

A worker is a long-lived loop against a ``repro store serve`` instance:

1. **lease** a batch of queue items (cost-ordered by the server — LPT at
   dequeue).  Each item carries its obligation, encoded by
   :mod:`repro.engine.codec`, and the store context its verdict belongs
   under.  An empty queue is waited on *server-side*: the ``lease`` RPC
   blocks until an item can be granted (a fresh enqueue, or an expired
   lease whose items it steals), or until the queue drains;
2. **decode** the items against their benchmark's operator registry — the
   obligation itself crosses the wire, so no benchmark is re-walked;
3. **discharge** them, grouped by benchmark, through that benchmark's
   ordinary :class:`~repro.engine.scheduler.ObligationEngine` (built once
   per worker process, so the environment fingerprint is the serial
   run's) and record each verdict under its shipped context
   — appends carry ``if_absent``, so a worker whose lease was stolen and
   re-discharged elsewhere can never land a duplicate verdict record;
4. **complete** the lease only after the verdicts are durably flushed (one
   flush per lease) — a worker killed at any earlier point merely lets its
   lease expire, and the items are re-issued to a live worker (work
   stealing).

An item the worker cannot decode — an unknown benchmark, a missing payload,
an unknown codec version or signature — is completed without discharge; the
coordinator's finish step then finds it missing from the store and
discharges it locally, so an older worker can never wedge the drain.

The worker exits as soon as the queue drains — a ``complete`` reply reports
nothing ``queued``, or a waiting ``lease`` reports ``drained`` — or after
``idle_timeout`` seconds with nothing leased.  A fleet disbands without a
shutdown broadcast and without sleeping through a tail of empty polls.

Determinism rides on hermetic discharge: per-obligation counters are a
pure function of (process walk prefix, obligation).  The
solver-effort columns (#SAT/#Confl) are steered by process-global,
append-only state (term and formula interning), which the serial
runner populates by walking benchmarks in registry order — so a worker must
hold that walk's interned state before discharging anything, or an
obligation discharged in a fresh process records slightly different effort
counters than serial did.  Forked local workers inherit the coordinator's
emit walk through fork, and decoding re-interns to the very nodes it
emitted; a fresh ``repro worker`` process replays the walk via
:func:`_warm_process_state` (an emit-only walk — nothing discharged, nothing
stored, ~tens of milliseconds on the fast corpus).  The coordinator's finish
step then reads every verdict back and produces byte-identical tables.

``REPRO_WORKER_CRASH=lease`` is the fault-injection hook: the worker
hard-kills itself (``os._exit``) immediately after its first successful
lease — items claimed, nothing discharged, nothing completed — which is how
the suite proves a dead worker loses no obligations.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from typing import Optional

from ..obs import trace
from ..obs.logs import get_logger
from ..statsutil import MergeableStats
from ..store.backends import is_store_url
from ..store.obligation_store import ObligationStore
from ..suite.benchmark import AdtBenchmark
from ..suite.registry import all_benchmarks
from ..typecheck.checker import CheckerConfig
from .codec import CodecError, decode_payload
from .scheduler import ObligationEngine

logger = get_logger("worker")


def _warm_process_state(config: CheckerConfig, check_negative_variants: bool) -> None:
    """Replay the suite's emit walk so effort counters match serial runs.

    Term and formula interning are process-global and
    append-only; an obligation's recorded #SAT/#Confl depend on the walk
    prefix that populated them.  Walking the registry's fast rows in order
    (the slow rows sit at the registry tail, so this stays a true prefix of
    any serial run) puts a fresh process in the same state a serial
    evaluation is in when each benchmark discharges.  The walk only emits:
    nothing is discharged, no store is attached, nothing persists but the
    interned state itself.
    """
    for benchmark in all_benchmarks(include_slow=False):
        checker = benchmark.make_checker(config)
        for definition, spec in benchmark.checks(check_negative_variants):
            checker.emit_method(definition, spec, benchmark.specs)

#: fault-injection hook (see module docstring)
ENV_WORKER_CRASH = "REPRO_WORKER_CRASH"


class WorkerStats(MergeableStats):
    """What one worker session did (printed by ``repro worker``)."""

    leases: int = 0
    items: int = 0
    #: leased obligations decoded and discharged here
    discharged: int = 0
    #: leased items naming a benchmark this build doesn't know — completed
    #: anyway (the coordinator's finish step discharges them locally) so
    #: an older worker can never wedge the drain
    unknown_benchmarks: int = 0
    #: leased items of a known benchmark whose payload is missing or cannot
    #: be decoded (codec version, unknown signature) — completed the same way
    undecodable: int = 0
    completed: int = 0
    #: batches dropped because an ``extend`` was refused (lease stolen)
    abandoned: int = 0
    #: empty lease replies that did not report a drain (each waited out
    #: its share of the idle budget)
    idle_polls: int = 0


def run_worker(
    store_url: str,
    *,
    config: Optional[CheckerConfig] = None,
    batch: int = 8,
    ttl: float = 30.0,
    idle_timeout: float = 1.0,
    max_batches: Optional[int] = None,
    worker_id: Optional[str] = None,
    check_negative_variants: bool = True,
    warm_process: bool = True,
) -> WorkerStats:
    """Lease, discharge and complete until the queue drains.

    The loop ends when a reply says the queue drained, or when
    ``idle_timeout`` seconds pass with nothing leased (a worker started
    before any enqueue waits that long for work) — a fleet drains and exits
    without a shutdown broadcast.  The worker's ``config`` must describe the
    same semantic environment as the coordinator's (minterm filtering,
    literal budget); a mismatch is not an error — the verdicts land under the
    worker's own environment key and the coordinator's finish step simply
    discharges its misses locally.

    ``warm_process`` replays the registry walk before the first lease (see
    :func:`_warm_process_state`); pass ``False`` only for workers forked
    from a coordinator that has already walked the suite in this process.

    A batch spanning several benchmarks is discharged group by group.
    Before each group after the first the worker renews its lease, but only
    once the lease is at least ``ttl/2`` old, its age measured from just
    before the ``lease`` (or last ``extend``) request was sent: a younger
    lease cannot have expired server-side, so renewing it is a wasted round
    trip.  A refused renewal means the lease was stolen; the worker abandons
    the rest of the batch without completing it.
    """
    config = config or CheckerConfig()
    worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"
    if not is_store_url(store_url):
        raise ValueError(f"repro worker needs a store *server* URL, got {store_url!r}")
    store = ObligationStore(store_url)
    backend = store.backend
    backend.append_if_absent = True
    crash_after_lease = os.environ.get(ENV_WORKER_CRASH, "") == "lease"
    stats = WorkerStats()
    #: one engine per benchmark, built on first lease and kept for the
    #: process's life (the serial run's environment key and verdict memo)
    engines: dict[str, ObligationEngine] = {}
    #: the registry indexed by key, built on the first leased item and kept
    #: for the process's life (one factory call per benchmark, not per lookup)
    registry: dict[str, AdtBenchmark] = {}
    logger.info("worker %s pulling from %s (batch=%d ttl=%.1fs)", worker_id, store_url, batch, ttl)
    if warm_process:
        with trace.span("worker.warmup", cat="run", worker=worker_id):
            _warm_process_state(config, check_negative_variants)
    idle_since = time.monotonic()
    with trace.span("worker.loop", cat="run", worker=worker_id, store=store_url):
        while True:
            if max_batches is not None and stats.leases >= max_batches:
                break
            idle_left = idle_since + idle_timeout - time.monotonic()
            # the lease's age is measured from before the request went out,
            # so it never undercounts the server's view of it
            renewed_at = time.monotonic()
            with trace.span("queue.lease", cat="store", worker=worker_id) as lease_span:
                # ``held`` once this worker has done work: an empty queue
                # then means the fleet drained it, so the reply comes at once
                grant = backend.lease(
                    batch, ttl, worker=worker_id, wait=max(0.0, idle_left),
                    held=stats.leases > 0,
                )
                lease_id = grant.get("lease")
                items = grant.get("items", [])
                lease_span.set(
                    lease=lease_id, items=len(items), reclaimed=grant.get("reclaimed", 0)
                )
            if not lease_id:
                if grant.get("drained"):
                    break
                stats.idle_polls += 1
                if time.monotonic() - idle_since >= idle_timeout:
                    break
                continue
            stats.leases += 1
            stats.items += len(items)
            if crash_after_lease:  # pragma: no cover - exits the process
                logger.warning("fault injection: worker dying holding lease %s", lease_id)
                os._exit(9)
            # split the batch by benchmark: each benchmark's engine
            # discharges its decoded obligations one by one, in lease order
            by_bench: dict[str, list[dict]] = {}
            for item in items:
                by_bench.setdefault(item["bench"], []).append(item)
            abandoned = False
            for position, bench_key in enumerate(sorted(by_bench)):
                if position > 0 and time.monotonic() - renewed_at >= ttl / 2:
                    renewed_at = time.monotonic()
                    if not backend.extend(lease_id, ttl):
                        # the lease expired and was stolen mid-batch: the rest
                        # of the batch belongs to someone else now — walk away
                        logger.warning("lease %s lost mid-batch; abandoning", lease_id)
                        stats.abandoned += 1
                        abandoned = True
                        break
                engine = engines.get(bench_key)
                if engine is None:
                    if not registry:
                        registry.update((b.key, b) for b in all_benchmarks())
                    benchmark = registry.get(bench_key)
                    if benchmark is None:
                        stats.unknown_benchmarks += len(by_bench[bench_key])
                        logger.warning("leased unknown benchmark %r; completing anyway", bench_key)
                        continue
                    engine = benchmark.make_checker(config, store=store).obligation_engine
                    engines[bench_key] = engine
                leased = []
                for item in by_bench[bench_key]:
                    try:
                        leased.append(decode_payload(item.get("payload"), engine.operators))
                    except CodecError as exc:
                        stats.undecodable += 1
                        logger.warning(
                            "cannot decode leased item %s (%s); completing anyway", item["fp"], exc
                        )
                engine.discharge_leased(leased)
                stats.discharged += len(leased)
            idle_since = time.monotonic()
            if abandoned:
                continue
            # durability before acknowledgement: flush the verdicts, then
            # complete — a crash between the two merely re-issues items whose
            # verdicts are already in the store (a warm no-op for the thief)
            store.flush()
            done = backend.complete(lease_id, [f"{item['env']}:{item['fp']}" for item in items])
            stats.completed += done.get("completed", 0)
            if done.get("queued") == 0:
                break
    store.flush()
    store.commit_run()
    backend.close()
    logger.info(
        "worker %s done: %d leases, %d items, %d completed",
        worker_id, stats.leases, stats.items, stats.completed,
    )
    return stats
