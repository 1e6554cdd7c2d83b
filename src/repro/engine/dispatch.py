"""The distributed-discharge coordinator (``repro dispatch``).

A serial run's two phases with a worker fleet between them; the partition
of the cold obligations is decided *dynamically* by the store server's
lease queue:

1. **Emit + enqueue** — the serial emit phase
   (:func:`~repro.evaluation.runner.emit_benchmarks`: every method and
   negative variant walked once, the queued invalidation keys sent as one
   ``invalidate`` RPC, one batched ``lookup`` per benchmark), then
   :meth:`~repro.engine.scheduler.ObligationEngine.store_misses` per method,
   which costs no further round trip.  The misses are deduped on their
   ``(env, fp)`` store key, keeping the first emission (the one a serial
   run records), and enqueued on the server tagged with a fresh dispatch
   id, each with its syntactic cost estimate (the server upgrades it to the
   store's recorded wall time when it has one).  Each queue item ships the
   obligation itself, encoded by :mod:`repro.engine.codec`, plus the store
   context it was emitted under; pulling workers lease items
   highest-cost-first, decode and discharge them, and write verdicts back
   through the store — no worker re-walks a benchmark.
2. **Drain + finish** — wait on the queue until this dispatch's items are
   gone (``queue_status`` with a ``wait``: the server answers the moment the
   last item completes, so the drain costs no sleep quantum), re-fetch the
   enqueued keys, one batched lookup per environment
   (:meth:`~repro.store.obligation_store.ObligationStore.refetch`), then run
   the serial finish phase (:func:`~repro.evaluation.runner.finish_benchmarks`),
   so every lookup hits the session's mirror and anything a worker could
   not decode (or hit a budget on) is discharged locally.  The tables come
   out byte-identical to a serial cold run, because every recorded
   discharge counter is a pure function of its obligation, whichever worker
   discharged it.  The workers exit on the same drain, so joining them
   costs no idle tail either.

Durability is the store's: if the coordinator dies mid-drain, a re-dispatch
recomputes the remaining misses from the store — completed obligations are
warm hits, never redone — and the new enqueue wave re-tags whatever is still
pending, so the drain wait converges on exactly the outstanding work.

``local_workers=N`` forks N in-process workers for the single-box case
(``repro dispatch --local-workers 2``); a fleet on other machines just runs
``repro worker --store URL`` against the same server.
"""

from __future__ import annotations

import multiprocessing
import time
import uuid
from typing import Optional, Sequence

from ..evaluation.runner import EvaluationReport, emit_benchmarks, finish_benchmarks
from ..obs import trace
from ..obs.logs import get_logger
from ..store.obligation_store import ObligationStore, StoreContext
from ..suite.benchmark import AdtBenchmark
from ..suite.registry import all_benchmarks
from ..typecheck.checker import CheckerConfig
from .codec import lease_payload
from .obligations import Obligation
from .worker import run_worker

logger = get_logger("dispatch")

#: queue items per enqueue RPC
_ENQUEUE_CHUNK = 256


class DispatchError(RuntimeError):
    """The distributed run cannot make progress (drain timeout, dead fleet)."""


def queue_item(bench: str, env: str, digest: str, obligation: Obligation,
               context: StoreContext) -> dict:
    """The queue item for one store miss: its key, syntactic cost estimate
    (the server upgrades it to a recorded wall time when it has one) and
    payload."""
    return {
        "env": env,
        "fp": digest,
        "bench": bench,
        "cost": float(obligation.cost_estimate()),
        "measured": False,
        "payload": lease_payload(obligation, context),
    }


def _local_worker(store_url: str, config: CheckerConfig, batch: int, ttl: float,
                  check_negative_variants: bool) -> None:
    """One forked local worker (module-level so the fork target pickles)."""
    run_worker(
        store_url,
        config=config,
        batch=batch,
        ttl=ttl,
        check_negative_variants=check_negative_variants,
        # fork inherits the coordinator's emit walk: the interned state is
        # already the serial prefix, no warmup replay needed
        warm_process=False,
    )


def _await_drain(backend, dispatch_id: str, outstanding: int, processes: Sequence, *,
                 drain_timeout: float, poll: float) -> dict:
    """Block until ``dispatch_id`` has nothing remaining; returns that status.

    Each ``queue_status`` waits server-side for up to ``poll`` seconds, so
    ``poll`` only bounds how often ``drain_timeout`` and the liveness of the
    local worker ``processes`` are re-checked.
    """
    started = time.perf_counter()
    while True:
        status = backend.queue_status(dispatch_id, wait=poll)
        if status.get("remaining", 0) == 0:
            return status
        if time.perf_counter() - started > drain_timeout:
            raise DispatchError(
                f"dispatch {dispatch_id} did not drain within "
                f"{drain_timeout:.0f}s ({status.get('remaining')} of "
                f"{outstanding} obligations outstanding); completed "
                "work is durable — re-dispatch to resume"
            )
        if processes and all(p.exitcode is not None for p in processes):
            # workers exit on the last complete, which can land after the
            # status above: only a fresh status tells a dead fleet apart
            # from a drained queue
            status = backend.queue_status(dispatch_id)
            if status.get("remaining", 0) == 0:
                return status
            raise DispatchError(
                f"all {len(processes)} local workers exited with "
                f"{status.get('remaining')} obligations outstanding"
            )


def run_distributed_evaluation(
    store: ObligationStore,
    *,
    benchmarks: Optional[Sequence[AdtBenchmark]] = None,
    include_slow: bool = True,
    config: Optional[CheckerConfig] = None,
    check_negative_variants: bool = True,
    local_workers: int = 0,
    batch: int = 8,
    ttl: float = 30.0,
    drain_timeout: float = 600.0,
    poll: float = 0.2,
) -> EvaluationReport:
    """Verify the corpus with its cold obligations pulled by a worker fleet."""
    if store is None or not store.is_remote:
        raise ValueError(
            "distributed evaluation coordinates through a store *server*; "
            "pass --store http://host:port of a `repro store serve` instance"
        )
    config = config or CheckerConfig()
    if benchmarks is None:
        benchmarks = all_benchmarks(include_slow=include_slow)
    benchmarks = list(benchmarks)
    backend = store.backend
    dispatch_id = uuid.uuid4().hex
    started = time.perf_counter()

    # -- phase 1: emit every method once, enqueue the store's misses ---------
    #: (env, fp) -> the queue item of its first emission
    misses: dict[tuple[str, str], dict] = {}
    with trace.span("dispatch.emit", cat="run", dispatch=dispatch_id, benchmarks=len(benchmarks)):
        emitted = emit_benchmarks(benchmarks, config, check_negative_variants, store)
        for benchmark, checker, pending in emitted:
            for method in pending:
                for env, digest, obligation in checker.obligation_engine.store_misses(
                    method.obligations
                ):
                    if (env, digest) not in misses:
                        misses[env, digest] = queue_item(
                            benchmark.key, env, digest, obligation, method.store_context
                        )
    items = list(misses.values())
    # the server dedupes on (env, fp) too: ``requeued`` counts the items an
    # earlier dispatch wave still holds
    enqueued = requeued = 0
    for start in range(0, len(items), _ENQUEUE_CHUNK):
        response = backend.enqueue(items[start:start + _ENQUEUE_CHUNK], dispatch_id)
        enqueued += response.get("enqueued", 0)
        requeued += response.get("requeued", 0)
    logger.info(
        "dispatch %s: %d cold obligations enqueued (%d already queued)",
        dispatch_id, enqueued, requeued,
    )

    # -- phase 1b: optional local worker fleet ------------------------------
    processes: list = []
    if local_workers > 0 and items:
        store.flush()
        # a keep-alive socket must not cross fork(); the children (and the
        # parent, lazily) reconnect
        backend.close()
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(
                target=_local_worker,
                args=(store.path, config, batch, ttl, check_negative_variants),
            )
            for _ in range(local_workers)
        ]
        for process in processes:
            process.start()

    # -- phase 2: drain, then finish every method from the store ------------
    wait_started = time.perf_counter()
    status: dict = {}
    try:
        with trace.span("dispatch.drain", cat="run", dispatch=dispatch_id, items=len(items)):
            if items:
                status = _await_drain(
                    backend, dispatch_id, len(items), processes,
                    drain_timeout=drain_timeout, poll=poll,
                )
    finally:
        for process in processes:
            process.join(timeout=max(ttl, 30.0))
            if process.is_alive():  # pragma: no cover - defensive cleanup
                process.terminate()
                process.join()
    drain_seconds = time.perf_counter() - wait_started

    # the misses query cached the enqueued keys as known misses; the fleet
    # has since written them — re-fetch them, one batched lookup per env
    enqueued_fps: dict[str, list[str]] = {}
    for env, digest in misses:
        enqueued_fps.setdefault(env, []).append(digest)
    for env, fps in enqueued_fps.items():
        store.refetch(env, fps)
    report = EvaluationReport()
    with trace.span("dispatch.finish", cat="run", dispatch=dispatch_id):
        finish_benchmarks(emitted, report)
    report.total_time_seconds = time.perf_counter() - started
    report.dispatch = {
        "dispatch": dispatch_id,
        "cold_obligations": len(items),
        "enqueued": enqueued,
        "requeued": requeued,
        "local_workers": local_workers,
        "drain_seconds": round(drain_seconds, 3),
        "total_seconds": round(time.perf_counter() - started, 3),
        "queue": status.get("counters", {}),
    }
    return report
