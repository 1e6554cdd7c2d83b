"""The distributed-discharge coordinator (``repro dispatch`` / ``evaluate --distributed``).

Two phases, mirroring the sharded runner's warm/report split — but with the
partition decided *dynamically* by the store server's lease queue instead of
statically by fingerprint hash:

1. **Collect + enqueue** — run the full emit walk with the engine in
   ``collect_sink`` mode: every store miss is reported to the coordinator
   (with the best cost signal available — the store's measured wall cost,
   else the syntactic estimate) and vacuously skipped.  The misses are
   enqueued on the server tagged with a fresh dispatch id; pulling workers
   lease them highest-cost-first and write verdicts back through the store.
2. **Drain + warm report** — wait on the queue until this dispatch's items
   are gone (``queue_status`` with a ``wait``: the server answers the moment
   the last item completes, so the drain costs no sleep quantum), then
   re-run the evaluation warm: every obligation answers from the store, and
   the tables come out byte-identical to a serial cold run (the
   ``--shards`` determinism argument, now across machines).  The workers
   exit on the same drain, so joining them costs no idle tail either.

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
from dataclasses import replace
from typing import Optional, Sequence

from ..evaluation.runner import EvaluationReport, run_benchmark, run_evaluation
from ..obs import trace
from ..obs.logs import get_logger
from ..store.obligation_store import ObligationStore
from ..suite.benchmark import AdtBenchmark
from ..suite.registry import all_benchmarks
from ..typecheck.checker import CheckerConfig
from .worker import run_worker

logger = get_logger("dispatch")

#: queue items per enqueue RPC
_ENQUEUE_CHUNK = 256


class DispatchError(RuntimeError):
    """The distributed run cannot make progress (drain timeout, dead fleet)."""


def _local_worker(store_url: str, config: CheckerConfig, batch: int, ttl: float,
                  check_negative_variants: bool) -> None:
    """One forked local worker (module-level so the fork target pickles)."""
    run_worker(
        store_url,
        config=config,
        batch=batch,
        ttl=ttl,
        check_negative_variants=check_negative_variants,
        # fork inherits the coordinator's collect-phase walk: the interned
        # state is already the serial prefix, no warmup replay needed
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

    # -- phase 1: collect the cold obligations, enqueue them ----------------
    items: list[dict] = []
    with trace.span("dispatch.collect", cat="run", dispatch=dispatch_id, benchmarks=len(benchmarks)):
        for benchmark in benchmarks:
            pending: list[dict] = []

            def sink(env: Optional[str], digest: str, hint: Optional[float],
                     estimate: float, _bench: str = benchmark.key) -> None:
                pending.append({
                    "env": env or "",
                    "fp": digest,
                    "bench": _bench,
                    "cost": hint if hint is not None else float(estimate),
                    "measured": hint is not None,
                })
            collect_config = replace(
                config, collect_sink=sink, workers=1, shard=None, only_digests=None
            )
            run_benchmark(
                benchmark,
                config=collect_config,
                check_negative_variants=check_negative_variants,
                store=store,
            )
            items.extend(pending)
    # the collect walk writes nothing, but the session may hold prefetch
    # bookkeeping; fresh dedupe happens server-side on (env, fp)
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
        # neither an open sqlite handle nor a keep-alive socket may cross
        # fork(); the children (and the parent, lazily) reconnect
        backend.close()
        worker_config = replace(config, collect_sink=None, only_digests=None, workers=1)
        context = multiprocessing.get_context("fork")
        processes = [
            context.Process(
                target=_local_worker,
                args=(store.path, worker_config, batch, ttl, check_negative_variants),
            )
            for _ in range(local_workers)
        ]
        for process in processes:
            process.start()

    # -- phase 2: drain, then the warm deterministic report -----------------
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

    # the collect walk cached this session's misses as known-misses; the
    # fleet has since written them — re-fetch on the warm pass
    store.forget_remote_misses()
    report = run_evaluation(
        benchmarks,
        include_slow=include_slow,
        config=replace(config, collect_sink=None, only_digests=None),
        check_negative_variants=check_negative_variants,
        store=store,
    )
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
