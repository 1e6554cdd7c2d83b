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
   per worker process, so the environment fingerprint and the alphabet memo
   are the serial run's) and record each verdict under its shipped context
   — appends carry ``if_absent``, so a worker whose lease was stolen and
   re-discharged elsewhere can never land a duplicate verdict record;
4. **complete** the lease only after the verdicts are durably flushed (one
   flush per lease) — a worker killed at any earlier point merely lets its
   lease expire, and the items are re-issued to a live worker (work
   stealing).

An item the worker cannot decode — an unknown benchmark, a missing payload,
an unknown codec version or signature — is completed without discharge; the
coordinator's assembly pass then discharges it locally, so an older worker
can never wedge the drain.

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
collect-phase walk through fork, and decoding re-interns to the very nodes
it emitted; a fresh ``repro worker`` process replays the walk via
:func:`_warm_process_state` (a vacuous ``only_digests=frozenset()`` walk —
nothing discharged, nothing stored, ~tens of milliseconds on the fast
corpus).  The coordinator's assembly pass then reads every verdict back and
produces byte-identical tables.

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
from dataclasses import dataclass, replace
from typing import Optional

from ..obs import trace
from ..obs.logs import get_logger
from ..evaluation.runner import run_benchmark
from ..statsutil import MergeableStats
from ..store.obligation_store import ObligationStore
from ..suite.registry import all_benchmarks, benchmark_by_key
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
    evaluation is in when each benchmark discharges.  ``only_digests`` of
    the empty set makes the walk vacuous: every obligation is skipped, no
    store is attached, nothing persists but the interned state itself.
    """
    warm_config = replace(config, only_digests=frozenset(), collect_sink=None)
    for benchmark in all_benchmarks(include_slow=False):
        run_benchmark(
            benchmark,
            config=warm_config,
            check_negative_variants=check_negative_variants,
            store=None,
        )

#: fault-injection hook (see module docstring)
ENV_WORKER_CRASH = "REPRO_WORKER_CRASH"


@dataclass
class WorkerStats(MergeableStats):
    """What one worker session did (printed by ``repro worker``)."""

    leases: int = 0
    items: int = 0
    #: leased obligations decoded and discharged here
    discharged: int = 0
    #: leased items naming a benchmark this build doesn't know — completed
    #: anyway (the coordinator's assembly pass discharges them locally) so
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
    worker's own environment key and the coordinator's assembly pass simply
    discharges its misses locally.

    ``warm_process`` replays the registry walk before the first lease (see
    :func:`_warm_process_state`); pass ``False`` only for workers forked
    from a coordinator that has already walked the suite in this process.
    """
    config = config or CheckerConfig()
    worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"
    store = ObligationStore(store_url)
    if not store.is_remote:
        raise ValueError(f"repro worker needs a store *server* URL, got {store_url!r}")
    backend = store.backend
    backend.append_if_absent = True
    crash_after_lease = os.environ.get(ENV_WORKER_CRASH, "") == "lease"
    stats = WorkerStats()
    #: one engine per benchmark, built on first lease and kept for the
    #: process's life (the serial run's environment key and alphabet memo)
    engines: dict[str, ObligationEngine] = {}
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
            # group the batch by benchmark: each benchmark's engine
            # discharges its decoded obligations in one grouped pass
            by_bench: dict[str, list[dict]] = {}
            for item in items:
                by_bench.setdefault(item["bench"], []).append(item)
            abandoned = False
            for position, bench_key in enumerate(sorted(by_bench)):
                if position > 0 and not backend.extend(lease_id, ttl):
                    # the lease expired and was stolen mid-batch: the rest of
                    # the batch belongs to someone else now — walk away
                    logger.warning("lease %s lost mid-batch; abandoning", lease_id)
                    stats.abandoned += 1
                    abandoned = True
                    break
                engine = engines.get(bench_key)
                if engine is None:
                    try:
                        benchmark = benchmark_by_key(bench_key)
                    except KeyError:
                        stats.unknown_benchmarks += len(by_bench[bench_key])
                        logger.warning("leased unknown benchmark %r; completing anyway", bench_key)
                        continue
                    engine = benchmark.make_checker(config, store=store).obligation_engine
                    engines[bench_key] = engine
                leased = []
                for item in by_bench[bench_key]:
                    try:
                        leased.append(decode_payload(item.get("payload"), engine.params.operators))
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
