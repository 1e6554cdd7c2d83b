"""pymarple — the command-line interface of the reproduction.

Usage::

    pymarple list                       # list the benchmark corpus
    pymarple check Set/KVStore          # verify one ADT/library row
    pymarple check Set/KVStore --method insert
    pymarple evaluate [--fast]          # run the whole evaluation (Table 1 data)
    pymarple table 1|2|3|4 [--fast]     # print a specific paper table

Leaf inclusions have one decider, the interned transition-table walk of
:mod:`repro.sfa.batch`, over alphabets found by solver-guided enumeration;
there is no mode flag for either.  Serial discharge follows emission order
with the cross-obligation alphabet memo always on; neither is a knob, and
every query goes to the one DPLL SAT core.  Going wide is
``dispatch --local-workers N`` (or ``repro worker`` processes) over a
``store serve`` instance's lease queue.  Incremental verification is enabled
by naming a store with ``--store PATH``: discharged obligations are persisted
to it and answered from it on later runs; ``--explain`` prints the
per-method hit/miss/invalidated counts, and ``--json`` emits a
machine-readable report for CI trend tracking.  A store path is either a
directory of JSON-lines logs or the ``http://host:port`` URL of a
``pymarple store serve`` instance, which exposes a local store directory to
a fleet of clients over JSON-HTTP; both run the same store operations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .engine.dispatch import DispatchError
from .evaluation import render_all, report_json, run_evaluation, table1, table2, table3, table4
from .obs import trace as obs_trace
from .obs.logs import configure_logging
from .store.backends import is_store_url
from .store.obligation_store import ObligationStore, check_keep_last
from .store.remote import RemoteStoreError
from .suite.registry import all_benchmarks, benchmark_by_key

#: The store ``store gc``/``store serve`` use when ``--store`` is not given.
DEFAULT_STORE_PATH = ".pymarple-store"

#: retired spellings -> the one that replaced them (each exits 2 naming it)
_RETIRED_COMMANDS = {"verify": "check"}


# ---------------------------------------------------------------------------
# Shared flag groups
# ---------------------------------------------------------------------------


def _at_least(minimum, convert=int):
    """An argparse ``type`` for a numeric flag: no smaller than ``minimum``.

    argparse reports the rejection under the flag's name and exits 2 while
    parsing, before any trace is read or any evaluation runs.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}"
            ) from None
        if not value >= minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """An argparse ``type`` for a duration that must be positive (the twin of
    :func:`_at_least` for a strict bound)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "write a structured span trace of the run to PATH: .jsonl → the "
            "native JSONL schema, anything else → Chrome trace-event JSON "
            "loadable in Perfetto (default: REPRO_TRACE)"
        ),
    )
    group.add_argument(
        "--log-level",
        metavar="LEVEL",
        help=(
            "emit repro.* logger breadcrumbs at LEVEL (debug, info, warning, "
            "...) on stderr, tagged with the innermost open trace span "
            "(default: REPRO_LOG_LEVEL, or silent)"
        ),
    )


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("incremental verification")
    # the retired spelling of `--store .pymarple-store`: exits 2 naming it
    group.add_argument("--incremental", action="store_true", help=argparse.SUPPRESS)
    group.add_argument(
        "--store",
        metavar="PATH",
        help=(
            "answer obligations from a persistent store: a directory, or the "
            "http://host:port URL of a `store serve` instance"
        ),
    )
    group.add_argument(
        "--explain",
        action="store_true",
        help="print per-method store hit/miss/invalidated counts",
    )


def _open_store(args: argparse.Namespace) -> Optional[ObligationStore]:
    if getattr(args, "incremental", False):
        print(
            f"error: `--incremental` is gone; use `--store {DEFAULT_STORE_PATH}`",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if not getattr(args, "store", None):
        return None
    try:
        return ObligationStore(args.store)
    except ValueError as exc:
        # e.g. a plain file where the store directory should be: diagnose,
        # don't traceback
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _finish_store(store: Optional[ObligationStore]) -> None:
    """Close the session: flush pending entries and log the run's references.

    The run log is what ``store gc --keep-last N`` keeps entries alive by —
    every CLI invocation that touched the store counts as one run.
    """
    if store is not None:
        store.flush()
        store.commit_run()


def _note_trace_counters(caches: dict, store: Optional[ObligationStore] = None) -> None:
    """Stash run-level cache totals on the active tracer, if any.

    They land in the trace file's trailing ``counters`` record, which is
    what ``repro trace report`` prints its cache-rate block from.  A store
    session also contributes the store's ``stats`` snapshot (per-op counts,
    lookup hit rate, queue counters) under the ``store`` key.
    """
    tracer = obs_trace.active()
    if tracer is None:
        return
    counters: dict = {"caches": caches}
    if store is not None:
        try:
            counters["store"] = store.backend.stats()
        except RemoteStoreError:
            pass  # metrics are best-effort; never fail the run over them
    tracer.counters = counters


def _print_store_report(store: ObligationStore, explain: bool) -> None:
    summary = store.summary()
    skipped = (
        f", {summary['skipped']} corrupt records skipped" if summary["skipped"] else ""
    )
    print(
        f"\nstore: {summary['entries']} entries, {summary['hits']} hits, "
        f"{summary['misses']} misses, {summary['invalidated']} invalidated{skipped}"
    )
    if explain:
        for row in store.explain():
            print(
                f"  {row['scope']}.{row['method']}: hits={row['hits']} "
                f"misses={row['misses']} invalidated={row['invalidated']}"
            )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_list(_: argparse.Namespace) -> int:
    for benchmark in all_benchmarks():
        marker = " (slow)" if benchmark.slow else ""
        print(f"{benchmark.key:>28}  —  {benchmark.invariant_description}{marker}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        benchmark = benchmark_by_key(args.benchmark)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    store = _open_store(args)
    checker = benchmark.make_checker(store=store)
    if args.method:
        if args.method not in benchmark.specs:
            known = ", ".join(benchmark.specs)
            print(
                f"error: {benchmark.key} has no method {args.method!r}; known: {known}",
                file=sys.stderr,
            )
            return 2
        result = benchmark.verify_method(args.method, checker)
        status = "VERIFIED" if result.verified else f"REJECTED: {result.error}"
        print(f"{benchmark.key}.{args.method}: {status}")
        print(f"  {result.stats.as_row()}")
        _note_trace_counters(checker.run_diagnostics()["caches"], store)
        _finish_store(store)
        if store is not None:
            _print_store_report(store, args.explain)
        return 0 if result.verified else 1
    stats = benchmark.verify_all(checker)
    for result in stats.method_results:
        status = "ok" if result.verified else f"FAILED ({result.error})"
        print(f"  {result.method:>20}: {status}")
    print(f"{benchmark.key}: all verified = {stats.all_verified}")
    _note_trace_counters(checker.run_diagnostics()["caches"], store)
    _finish_store(store)
    if store is not None:
        _print_store_report(store, args.explain)
    return 0 if stats.all_verified else 1


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dispatch = args.command == "dispatch"
    if getattr(args, "distributed", False):
        print(
            "error: `evaluate --distributed` is gone; use `pymarple dispatch`",
            file=sys.stderr,
        )
        return 2
    if dispatch and not args.store:
        print(
            "error: distributed evaluation needs --store http://host:port "
            "(a `repro store serve` instance)",
            file=sys.stderr,
        )
        return 2
    store = _open_store(args)
    if dispatch:
        from .engine.dispatch import run_distributed_evaluation

        try:
            report = run_distributed_evaluation(
                store,
                include_slow=not args.fast,
                local_workers=args.local_workers,
                ttl=args.lease_ttl,
                drain_timeout=args.drain_timeout,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        report = run_evaluation(include_slow=not args.fast, store=store)
    _note_trace_counters(report.cache_totals(), store)
    _finish_store(store)
    ok = report.all_verified and report.all_negatives_rejected
    if args.json:
        print(json.dumps(report_json(report, store=store), indent=2, sort_keys=True))
        return 0 if ok else 1
    print(render_all(report))
    print(f"\ntotal wall-clock time: {report.total_time_seconds:.1f} s")
    print(f"all positive benchmarks verified: {report.all_verified}")
    print(f"all negative variants rejected:  {report.all_negatives_rejected}")
    if store is not None:
        _print_store_report(store, args.explain)
    return 0 if ok else 1


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == 2:
        if args.json:
            from .evaluation.tables import table2_rows

            print(json.dumps(table2_rows(), indent=2, sort_keys=True))
        else:
            print(table2())
        return 0
    store = _open_store(args)
    report = run_evaluation(include_slow=not args.fast, store=store)
    _note_trace_counters(report.cache_totals(), store)
    _finish_store(store)
    if args.json:
        from .evaluation.tables import TABLE3_ADTS, TABLE4_ADTS

        payload = report_json(report, store=store)
        if args.number == 1:
            rows = payload["adts"]
        else:
            adts = TABLE3_ADTS if args.number == 3 else TABLE4_ADTS
            rows = [row for row in payload["per_method"] if row["Datatype"] in adts]
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    renderer = {1: table1, 3: table3, 4: table4}[args.number]
    print(renderer(report))
    if store is not None:
        _print_store_report(store, args.explain)
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from .obs.report import analyze_trace, render_report
    from .obs.trace import read_trace

    try:
        data = read_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.path!r}: {exc}", file=sys.stderr)
        return 2
    print(render_report(data, top=args.top))
    if args.min_coverage is not None:
        coverage = analyze_trace(data)["coverage"]
        if coverage < args.min_coverage:
            print(
                f"error: attributed coverage {coverage:.1%} is below the "
                f"required {args.min_coverage:.1%}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_trace_validate(args: argparse.Namespace) -> int:
    from .obs.schema import validate_trace_file

    errors = validate_trace_file(args.path)
    if errors:
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"{args.path}: valid trace (schema {obs_trace.TRACE_SCHEMA})")
    return 0


def _cmd_trace_overhead(args: argparse.Namespace) -> int:
    """Measure tracer overhead: traced vs untraced cold fast-corpus evaluate.

    Best-of-N on each side so scheduler noise doesn't read as tracer cost;
    exit 1 when the relative overhead exceeds the tolerance — the CI
    trace-smoke gate.
    """
    # one unmeasured warmup so import/JIT-ish first-run costs hit neither side
    run_evaluation(include_slow=False)
    best: dict[str, float] = {}
    for label, traced in (("untraced", False), ("traced", True)):
        walls = []
        for _ in range(args.runs):
            if traced:
                obs_trace.install(obs_trace.Tracer())
            try:
                started = time.perf_counter()
                run_evaluation(include_slow=False)
                walls.append(time.perf_counter() - started)
            finally:
                if traced:
                    obs_trace.uninstall()
        best[label] = min(walls)
    overhead = best["traced"] / best["untraced"] - 1.0
    print(f"untraced cold evaluate (best of {args.runs}): {best['untraced']:.3f}s")
    print(f"traced   cold evaluate (best of {args.runs}): {best['traced']:.3f}s")
    print(f"tracer overhead: {overhead:+.1%} (tolerance {args.tolerance:.0%})")
    return 0 if overhead <= args.tolerance else 1


def _cmd_store_gc(args: argparse.Namespace) -> int:
    path = args.store or DEFAULT_STORE_PATH
    try:
        # both checks come before the open, which would create a missing
        # store just to sweep it
        check_keep_last(args.keep_last)
        if not is_store_url(path) and not os.path.exists(path):
            raise ValueError(f"no store at {path!r}")
        store = ObligationStore(path)
        dropped = store.gc(args.keep_last)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"store gc: dropped {dropped} entr{'y' if dropped == 1 else 'ies'}, "
        f"{len(store)} kept (referenced by the last {args.keep_last} runs)"
    )
    return 0


def _cmd_store_serve(args: argparse.Namespace) -> int:
    """Run the long-lived shared-cache service in the foreground.

    Binds, optionally writes the bound URL to ``--ready-file`` (the robust
    "server is up" signal for scripts — with ``--port 0`` the kernel picks
    the port), then serves until SIGINT/SIGTERM and shuts down cleanly.
    """
    import signal
    import threading
    from pathlib import Path

    from .store.server import StoreHTTPServer, StoreService, serve_in_thread

    try:
        service = StoreService(args.store or DEFAULT_STORE_PATH)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        server = StoreHTTPServer((args.host, args.port), service)
    except OSError as exc:
        service.close()
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    identity = service.op_handshake({})
    if args.ready_file:
        Path(args.ready_file).write_text(server.url + "\n")
    print(
        f"serving {identity['backend']} store {identity['path']} at "
        f"{server.url} ({identity['entries']} entries)",
        flush=True,
    )
    if identity["skipped"]:
        print(
            f"warning: skipped {identity['skipped']} corrupt record(s) at load",
            file=sys.stderr,
        )
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    with serve_in_thread(server):
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
    service.close()
    print("store server stopped", flush=True)
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    """Print a store server's ``/stats`` snapshot (metrics-layer slice)."""
    from .store.remote import RemoteStoreBackend

    try:
        backend = RemoteStoreBackend(args.url)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        backend.handshake()
        stats = backend.stats()
    except RemoteStoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        backend.close()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    lookup = stats.get("lookup", {})
    requested = lookup.get("requested", 0)
    found = lookup.get("found", 0)
    rate = f"{found / requested:.1%}" if requested else "n/a"
    print(f"store server {args.url}")
    print(
        f"  uptime {stats.get('uptime_seconds', 0):.0f}s, "
        f"{stats.get('entries', 0)} entries, {stats.get('runs', 0)} runs, "
        f"{stats.get('idempotency_clients', 0)} known clients"
    )
    print(f"  lookup hit rate: {rate} ({found}/{requested})")
    queue = stats.get("queue", {})
    print(
        f"  queue: {queue.get('pending', 0)} pending, {queue.get('leased', 0)} "
        f"leased, {queue.get('leases', 0)} active leases"
    )
    for counter, value in sorted(queue.get("counters", {}).items()):
        print(f"    {counter}: {value}")
    ops = stats.get("ops", {})
    if ops:
        print("  per-op (count / replays / seconds / waited):")
        for op, record in sorted(ops.items()):
            print(
                f"    {op:>14}: {record.get('count', 0):>6} / "
                f"{record.get('replays', 0):>4} / {record.get('seconds', 0.0):.3f}s / "
                f"{record.get('waited', 0.0):.3f}s"
            )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one pull-based discharge worker against a store server."""
    from .engine.worker import run_worker

    try:
        stats = run_worker(
            args.store,
            batch=args.batch,
            ttl=args.ttl,
            idle_timeout=args.idle_timeout,
            max_batches=args.max_batches,
            worker_id=args.worker_id,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"worker done: {stats.leases} leases, {stats.items} items, "
        f"{stats.completed} completed, {stats.discharged} discharged"
        + (f", {stats.abandoned} abandoned" if stats.abandoned else "")
        + (f", {stats.unknown_benchmarks} unknown" if stats.unknown_benchmarks else "")
        + (f", {stats.undecodable} undecodable" if stats.undecodable else "")
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pymarple",
        description="Verify representation invariants with Hoare Automata Types",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark corpus").set_defaults(func=_cmd_list)

    check = sub.add_parser("check", help="verify one ADT/library benchmark")
    check.add_argument("benchmark", help="benchmark key, e.g. Set/KVStore")
    check.add_argument("--method", help="verify a single method only")
    _add_store_flags(check)
    _add_obs_flags(check)
    check.set_defaults(func=_cmd_check)

    evaluate = sub.add_parser("evaluate", help="run the full evaluation")
    evaluate.add_argument("--fast", action="store_true", help="skip the slow benchmarks")
    # the retired spelling of `dispatch`: exits 2 with a pointer to it
    evaluate.add_argument("--distributed", action="store_true", help=argparse.SUPPRESS)
    evaluate.add_argument("--json", action="store_true", help="emit a machine-readable report")
    _add_store_flags(evaluate)
    _add_obs_flags(evaluate)
    evaluate.set_defaults(func=_cmd_evaluate)

    dispatch = sub.add_parser(
        "dispatch",
        help="distributed evaluation: enqueue obligations for `repro worker` pullers",
    )
    dispatch.add_argument("--fast", action="store_true", help="skip the slow benchmarks")
    dispatch.add_argument("--json", action="store_true", help="emit a machine-readable report")
    group = dispatch.add_argument_group("distributed discharge")
    group.add_argument(
        "--local-workers",
        type=_at_least(0),
        default=0,
        metavar="N",
        help="also fork N pull-based workers locally (0 = external fleet only)",
    )
    group.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=30.0,
        metavar="SEC",
        help="lease deadline workers run under; expired leases are re-issued (default: 30)",
    )
    group.add_argument(
        "--drain-timeout",
        type=_positive_float,
        default=600.0,
        metavar="SEC",
        help="give up (exit 2) if the queue hasn't drained in SEC; work done stays durable",
    )
    _add_store_flags(dispatch)
    _add_obs_flags(dispatch)
    dispatch.set_defaults(func=_cmd_evaluate)

    worker = sub.add_parser(
        "worker",
        help="pull-based discharge worker: lease, discharge, complete until drained",
    )
    worker.add_argument(
        "--store",
        required=True,
        metavar="URL",
        help="http://host:port of the `store serve` instance owning the queue",
    )
    worker.add_argument(
        "--batch", type=_at_least(1), default=8, metavar="N",
        help="items per lease (default: 8)",
    )
    worker.add_argument(
        "--ttl", type=_positive_float, default=30.0, metavar="SEC",
        help="lease deadline; extended between benchmarks (default: 30)",
    )
    worker.add_argument(
        "--idle-timeout", type=_at_least(0.0, float), default=1.0, metavar="SEC",
        help="exit after SEC seconds with nothing leased; the worker also "
        "exits as soon as the queue drains (default: 1.0)",
    )
    worker.add_argument(
        "--max-batches", type=_at_least(1), default=None, metavar="N",
        help="stop after N leases (default: run until drained)",
    )
    worker.add_argument(
        "--worker-id", metavar="ID",
        help="stable identity reported in leases/spans (default: host:pid:rand)",
    )
    _add_obs_flags(worker)
    worker.set_defaults(func=_cmd_worker)

    store = sub.add_parser("store", help="manage a persistent obligation store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    gc = store_sub.add_parser(
        "gc", help="expire entries unreferenced by the last N runs"
    )
    gc.add_argument(
        "--keep-last",
        type=int,
        required=True,
        metavar="N",
        help="runs whose referenced entries survive the sweep",
    )
    gc.add_argument(
        "--store",
        metavar="PATH",
        help=(
            "store directory, or the http://host:port URL of a `store serve` "
            f"instance (default: {DEFAULT_STORE_PATH}); a missing path is an error"
        ),
    )
    gc.set_defaults(func=_cmd_store_gc)
    serve = store_sub.add_parser(
        "serve",
        help="serve a local store over HTTP for --store http://host:port clients",
    )
    serve.add_argument(
        "--store",
        metavar="PATH",
        help=f"local store directory to serve (default: {DEFAULT_STORE_PATH})",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1; use 0.0.0.0 for a fleet)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="port to bind; 0 lets the kernel pick one (default: 8642)",
    )
    serve.add_argument(
        "--ready-file",
        metavar="PATH",
        help="write the bound URL here once serving — the up-signal for scripts",
    )
    serve.set_defaults(func=_cmd_store_serve)
    stats = store_sub.add_parser(
        "stats",
        help="print a store server's per-op counts, lookup hit rate and queue state",
    )
    stats.add_argument("url", help="http://host:port of the `store serve` instance")
    stats.add_argument("--json", action="store_true", help="emit the raw stats JSON")
    stats.set_defaults(func=_cmd_store_stats)

    table = sub.add_parser("table", help="print one of the paper's tables")
    table.add_argument("number", type=int, choices=(1, 2, 3, 4))
    table.add_argument("--fast", action="store_true", help="skip the slow benchmarks")
    table.add_argument("--json", action="store_true", help="emit the rows as JSON")
    _add_store_flags(table)
    _add_obs_flags(table)
    table.set_defaults(func=_cmd_table)

    tracecmd = sub.add_parser("trace", help="inspect, validate and gate trace files")
    trace_sub = tracecmd.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report",
        help="phase breakdown, slowest obligations and cache rates of a trace",
    )
    trace_report.add_argument("path", help="trace file (.jsonl or Chrome trace-event JSON)")
    trace_report.add_argument(
        "--top",
        type=_at_least(1),
        default=10,
        metavar="N",
        help="slowest obligations to list, keyed by store fingerprint (default: 10)",
    )
    trace_report.add_argument(
        "--min-coverage",
        type=float,
        default=None,
        metavar="F",
        help="exit 1 unless attributed spans cover at least this fraction of wall time",
    )
    trace_report.set_defaults(func=_cmd_trace_report)
    trace_validate = trace_sub.add_parser(
        "validate", help="check a trace file against the span schema"
    )
    trace_validate.add_argument("path", help="trace file (.jsonl or Chrome trace-event JSON)")
    trace_validate.set_defaults(func=_cmd_trace_validate)
    trace_overhead = trace_sub.add_parser(
        "overhead",
        help="measure tracer overhead (traced vs untraced cold fast-corpus evaluate)",
    )
    trace_overhead.add_argument(
        "--runs",
        type=_at_least(1),
        default=3,
        metavar="N",
        help="timing runs per side; the best run on each side is compared (default: 3)",
    )
    trace_overhead.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        metavar="F",
        help="allowed relative traced-vs-untraced overhead (default: 0.10)",
    )
    trace_overhead.set_defaults(func=_cmd_trace_overhead)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _RETIRED_COMMANDS:
        print(
            f"error: `{argv[0]}` is gone; use `pymarple {_RETIRED_COMMANDS[argv[0]]}`",
            file=sys.stderr,
        )
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        configure_logging(getattr(args, "log_level", None))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace_path = getattr(args, "trace", None) or os.environ.get(obs_trace.ENV_TRACE)
    try:
        if trace_path:
            with obs_trace.session(trace_path, meta={"command": args.command}):
                status = args.func(args)
            print(f"trace written to {trace_path}", file=sys.stderr)
            return status
        return args.func(args)
    except (RemoteStoreError, DispatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
