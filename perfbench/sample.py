"""One benchmark sample phase in a fresh interpreter.

    python3 perfbench/sample.py --workload fast --phase cold \
        --store DIR --t0 MONOTONIC [--trace] [--workers-dir DIR]

Phases: ``cold`` (empty store) and ``warm`` (the store a cold phase
filled).  ``--t0`` is the parent's
``time.monotonic()`` just before it started this interpreter, so
``setup_s`` covers interpreter start, imports, benchmark construction and
store open (plus the store server's start for ``dispatch``).

Prints one JSON object on its last stdout line.  Run with ``PYTHONPATH``
pointing at the checker's ``src`` directory; ``run.py`` does this.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

#: FileSystem/KVStore methods measured by the ``filesystem`` workload
FILESYSTEM_METHODS = ("init", "exists_path")
FILESYSTEM_KEY = "FileSystem/KVStore"
#: forked local workers of the ``dispatch`` workload
DISPATCH_WORKERS = 2


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("fast", "filesystem", "dispatch"))
    parser.add_argument("--phase", required=True, choices=("cold", "warm"))
    parser.add_argument("--store", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workers-dir", default=None)
    return parser.parse_args(argv)


def _worker_wrapper(tracer, workers_dir: Path):
    """Wrap ``run_worker`` as ``dispatch`` calls it: a forked worker starts
    from a clean tracer and ships its accumulators back through a file."""

    def probe(tracer_, args, kwargs):
        tracer_.reset()
        started = tracer_.clock()

        def after(stats):
            finished = tracer_.clock()
            last = tracer_.marks.get("worker.last_complete", started)
            record = {
                "pid": os.getpid(),
                "trace": tracer_.snapshot(),
                "stats": stats.as_dict(),
                "last_complete": last,
                "idle_tail_s": finished - last,
            }
            path = workers_dir / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps(record))

        return after

    tracer.wrap("repro.engine.dispatch.run_worker", "worker.run", "worker.runs", probe)


def _filesystem_report(benchmarks, config, store):
    """Verify the chosen methods, one checker per benchmark, the way
    ``AdtBenchmark.verify_all`` does for all of them."""
    from repro.evaluation.runner import EvaluationReport
    from repro.typecheck.stats import AdtStats

    report = EvaluationReport()
    for benchmark in benchmarks:
        checker = benchmark.make_checker(config, store=store)
        stats = AdtStats(
            adt=benchmark.adt,
            library=benchmark.library_name,
            num_methods=len(FILESYSTEM_METHODS),
            num_ghosts=benchmark.num_ghosts,
            invariant_size=benchmark.invariant_size,
        )
        for method in FILESYSTEM_METHODS:
            result = benchmark.verify_method(method, checker)
            stats.method_results.append(result)
            stats.total_time_seconds += result.stats.total_time_seconds
            stats.all_verified = stats.all_verified and result.verified
        report.adt_stats.append(stats)
    return report


def _verdicts(report) -> dict:
    """Every positive method must verify, every negative variant be rejected."""
    mismatches = []
    attempted = 0
    for stats in report.adt_stats:
        for result in stats.method_results:
            attempted += 1
            if not result.verified:
                mismatches.append(f"{stats.adt}/{stats.library}.{result.method}: {result.error}")
    for negative in report.negative_results:
        attempted += 1
        if not negative.rejected:
            mismatches.append(f"{negative.benchmark}.{negative.variant}: not rejected")
    return {"attempted": attempted, "failed": len(mismatches), "mismatches": mismatches}


def _report_counts(report) -> dict:
    totals = {"engine.obligations": 0, "smt.sat_queries_billed": 0, "smt.conflicts": 0,
              "sfa.prod_states": 0}
    for stats in report.adt_stats:
        for result in stats.method_results:
            totals["engine.obligations"] += result.stats.obligations
            totals["smt.sat_queries_billed"] += result.stats.smt_queries
            totals["smt.conflicts"] += result.stats.sat_conflicts
            totals["sfa.prod_states"] += result.stats.prod_states
    return totals


def main(argv=None) -> int:
    args = _parse(argv if argv is not None else sys.argv[1:])
    tracer = None
    missing: list[str] = []
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import layers
        from tracer import Tracer

        tracer = Tracer(clock=time.monotonic)
        missing = layers.install(tracer)
        if args.workload == "dispatch":
            _worker_wrapper(tracer, Path(args.workers_dir))

    from repro.evaluation.runner import run_evaluation
    from repro.evaluation.tables import render_all, table1, table3, table4
    from repro.store.obligation_store import ObligationStore
    from repro.suite.registry import all_benchmarks
    from repro.typecheck.checker import CheckerConfig

    config = CheckerConfig()
    if args.workload == "filesystem":
        benchmarks = [b for b in all_benchmarks() if b.key == FILESYSTEM_KEY]
    else:
        benchmarks = all_benchmarks(include_slow=False)

    server = loop = service = None
    if args.workload == "dispatch":
        import threading

        from repro.store.server import StoreHTTPServer, StoreService

        service = StoreService(args.store)
        server = StoreHTTPServer(("127.0.0.1", 0), service)
        loop = threading.Thread(target=server.serve_forever, daemon=True)
        loop.start()
        store = ObligationStore(server.url)
    else:
        store = ObligationStore(args.store)
    ready = time.monotonic()
    out: dict = {"setup_s": ready - args.t0}
    setup_trace = tracer.snapshot() if tracer is not None else None

    try:
        if tracer is not None:
            tracer.reset()
        started = time.monotonic()
        if args.workload == "dispatch":
            from repro.engine.dispatch import run_distributed_evaluation

            report = run_distributed_evaluation(
                store, benchmarks=benchmarks, config=config, local_workers=DISPATCH_WORKERS
            )
        elif args.workload == "filesystem":
            report = _filesystem_report(benchmarks, config, store)
        else:
            report = run_evaluation(benchmarks, config=config, store=store)
        store.flush()
        store.commit_run()
        render_all(report)  # what `repro evaluate` prints
        finished = time.monotonic()
        if tracer is not None:
            tracer.close_all()
            tracer.enabled = False
        out["phase_s"] = finished - started
        out["config"] = dataclasses.asdict(config)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["verdicts"] = _verdicts(report)
        out["counts"] = _report_counts(report)
        out["tables"] = "\n".join(
            table(report, deterministic=True) for table in (table1, table3, table4)
        )
        dispatch: dict = {}
        if report.dispatch is not None:
            dispatch["enqueued"] = report.dispatch.get("enqueued", 0)
            dispatch["reclaimed"] = report.dispatch.get("queue", {}).get("reclaimed", 0)
        if tracer is not None:
            out["trace"] = tracer.snapshot()
            out["setup_trace"] = setup_trace
            out["missing_targets"] = missing
            if store.is_remote:
                ops = store.backend.stats().get("ops", {})
                dispatch["server_op_s"] = sum(op.get("seconds", 0.0) for op in ops.values())
            if args.workers_dir:
                dispatch["workers"] = [
                    json.loads(path.read_text())
                    for path in sorted(Path(args.workers_dir).glob("worker-*.json"))
                ]
        out["dispatch"] = dispatch
    finally:
        if server is not None:
            server.shutdown()
            loop.join()
            server.server_close()
            service.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
