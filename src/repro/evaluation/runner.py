"""The experiment runner: verify the corpus and collect the paper's statistics."""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..obs import trace
from ..record import Record
from ..suite.benchmark import AdtBenchmark
from ..suite.registry import all_benchmarks
from ..typecheck.checker import Checker, CheckerConfig, PendingMethod
from ..typecheck.stats import AdtStats, MethodResult


class NegativeResult(Record):
    """Outcome of checking a known-incorrect variant (must *not* verify)."""

    __slots__ = ("benchmark", "variant", "rejected", "error")

    def __init__(self, benchmark: str, variant: str, rejected: bool, error: Optional[str]) -> None:
        self.benchmark = benchmark
        self.variant = variant
        self.rejected = rejected
        self.error = error


class EvaluationReport(Record):
    """Everything needed to regenerate Tables 1–4."""

    __slots__ = ("adt_stats", "negative_results", "total_time_seconds", "diagnostics", "dispatch")

    def __init__(
        self,
        adt_stats: Optional[list[AdtStats]] = None,
        negative_results: Optional[list[NegativeResult]] = None,
        total_time_seconds: float = 0.0,
        diagnostics: Optional[list[dict]] = None,
        dispatch: Optional[dict] = None,
    ) -> None:
        self.adt_stats = [] if adt_stats is None else adt_stats
        self.negative_results = [] if negative_results is None else negative_results
        self.total_time_seconds = total_time_seconds
        #: per-benchmark run diagnostics (:meth:`Checker.run_diagnostics`):
        #: the engine's counters
        self.diagnostics = [] if diagnostics is None else diagnostics
        #: set by the distributed coordinator: dispatch id, enqueue counts,
        #: drain timing and the server's queue counters (None for local runs)
        self.dispatch = dispatch

    @property
    def all_verified(self) -> bool:
        return all(stats.all_verified for stats in self.adt_stats)

    @property
    def all_negatives_rejected(self) -> bool:
        return all(result.rejected for result in self.negative_results)

    def per_method_rows(self) -> list[dict[str, object]]:
        rows: list[dict[str, object]] = []
        for stats in self.adt_stats:
            for result in stats.method_results:
                row = {
                    "Datatype": stats.adt,
                    "Library": stats.library,
                    "#Ghost": stats.num_ghosts,
                    "sI": stats.invariant_size,
                    "verified": result.verified,
                }
                row.update(result.stats.as_row())
                row.update(result.stats.work_counters())
                rows.append(row)
        return rows


def run_benchmark(
    benchmark: AdtBenchmark,
    *,
    config: Optional[CheckerConfig] = None,
    check_negative_variants: bool = True,
    store=None,
) -> tuple[AdtStats, list[NegativeResult]]:
    """Verify one ADT/library row plus its known-bad variants.

    ``store`` is an optional :class:`repro.store.ObligationStore`: discharged
    obligations are written back to it and later runs answer from it.
    """
    report = EvaluationReport()
    finish_benchmarks(
        emit_benchmarks([benchmark], config, check_negative_variants, store), report
    )
    return report.adt_stats[0], report.negative_results


def emit_benchmarks(
    benchmarks: Sequence[AdtBenchmark],
    config: Optional[CheckerConfig],
    check_negative_variants: bool,
    store,
) -> list[tuple[AdtBenchmark, Checker, list[PendingMethod]]]:
    """The emit phase: walk every method and negative variant, then read the store.

    Every method of every benchmark is emitted before the store is read, so
    the methods' queued invalidation keys go out as one ``invalidate`` op
    ahead of the first fetch; then each benchmark's obligation digests are
    fetched in one batched ``lookup``
    (:meth:`~repro.engine.scheduler.ObligationEngine.prefetch`).  Returns
    ``(benchmark, checker, pending methods in check order)`` per benchmark.
    """
    emitted = []
    for benchmark in benchmarks:
        with trace.span("benchmark", cat="benchmark", benchmark=benchmark.key, phase="emit"):
            checker = benchmark.make_checker(config, store=store)
            pending = [
                checker.emit_method(definition, spec, benchmark.specs)
                for definition, spec in benchmark.checks(check_negative_variants)
            ]
        emitted.append((benchmark, checker, pending))
    for _, checker, pending in emitted:
        checker.obligation_engine.prefetch([method.obligations for method in pending])
    return emitted


def finish_benchmarks(
    emitted: list[tuple[AdtBenchmark, Checker, list[PendingMethod]]],
    report: EvaluationReport,
) -> None:
    """The finish phase: decide every pending method in emit order.

    Each method goes through the one discharge step (memo → store →
    discharge, :meth:`~repro.typecheck.checker.Checker.finish_method`);
    rows, negative results and run diagnostics land in ``report``.
    ``emitted`` is consumed: each benchmark's checker is released once it
    is finished, so finished checkers' caches do not pile up.
    """
    while emitted:
        benchmark, checker, pending = emitted.pop(0)
        with trace.span("benchmark", cat="benchmark", benchmark=benchmark.key, phase="finish"):
            results = [checker.finish_method(method) for method in pending]
        stats, negatives = benchmark_results(benchmark, results)
        report.adt_stats.append(stats)
        report.negative_results.extend(negatives)
        report.diagnostics.append({"benchmark": benchmark.key, **checker.run_diagnostics()})


def benchmark_results(
    benchmark: AdtBenchmark, results: Sequence[MethodResult]
) -> tuple[AdtStats, list[NegativeResult]]:
    """Split the results of ``benchmark.checks()`` into its row and its variants."""
    methods = len(benchmark.specs)
    negatives = [
        NegativeResult(
            benchmark=benchmark.key,
            variant=variant,
            rejected=not result.verified,
            error=result.error,
        )
        for variant, result in zip(benchmark.negative_variants, results[methods:])
    ]
    return benchmark.adt_stats(results[:methods]), negatives


def run_evaluation(
    benchmarks: Optional[Sequence[AdtBenchmark]] = None,
    *,
    include_slow: bool = True,
    config: Optional[CheckerConfig] = None,
    check_negative_variants: bool = True,
    store=None,
) -> EvaluationReport:
    """Verify the whole corpus, mirroring the experiments behind Table 1.

    Every method is emitted first and then finished in emit order
    (:func:`emit_benchmarks`, :func:`finish_benchmarks`), the same two
    phases a dispatch coordinator runs around its worker fleet.
    """
    if benchmarks is None:
        benchmarks = all_benchmarks(include_slow=include_slow)
    benchmarks = list(benchmarks)
    report = EvaluationReport()
    start = time.perf_counter()
    with trace.span("evaluate", cat="run", benchmarks=len(benchmarks)):
        finish_benchmarks(
            emit_benchmarks(benchmarks, config, check_negative_variants, store), report
        )
    report.total_time_seconds = time.perf_counter() - start
    return report
