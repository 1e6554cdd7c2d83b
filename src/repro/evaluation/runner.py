"""The experiment runner: verify the corpus and collect the paper's statistics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..obs import trace
from ..suite.benchmark import AdtBenchmark
from ..suite.registry import all_benchmarks
from ..typecheck.checker import Checker, CheckerConfig, PendingMethod
from ..typecheck.stats import AdtStats, MethodResult


@dataclass
class NegativeResult:
    """Outcome of checking a known-incorrect variant (must *not* verify)."""

    benchmark: str
    variant: str
    rejected: bool
    error: Optional[str]


@dataclass
class EvaluationReport:
    """Everything needed to regenerate Tables 1–4."""

    adt_stats: list[AdtStats] = field(default_factory=list)
    negative_results: list[NegativeResult] = field(default_factory=list)
    total_time_seconds: float = 0.0
    #: per-benchmark run diagnostics (:meth:`Checker.run_diagnostics`):
    #: alphabet-memo counts and the engine's counters
    diagnostics: list[dict] = field(default_factory=list)
    #: set by the distributed coordinator: dispatch id, enqueue counts,
    #: drain timing and the server's queue counters (None for local runs)
    dispatch: Optional[dict] = None

    @property
    def all_verified(self) -> bool:
        return all(stats.all_verified for stats in self.adt_stats)

    @property
    def all_negatives_rejected(self) -> bool:
        return all(result.rejected for result in self.negative_results)

    def cache_totals(self) -> dict[str, int]:
        """Summed cache counters across the corpus (``evaluate --json``'s ``caches``)."""
        totals: dict[str, int] = {}
        for diagnostic in self.diagnostics:
            for key, value in diagnostic.get("caches", {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals

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
                rows.append(row)
        return rows


def run_benchmark(
    benchmark: AdtBenchmark,
    *,
    config: Optional[CheckerConfig] = None,
    check_negative_variants: bool = True,
    store=None,
    diagnostics_sink: Optional[list] = None,
) -> tuple[AdtStats, list[NegativeResult]]:
    """Verify one ADT/library row plus its known-bad variants.

    ``store`` is an optional :class:`repro.store.ObligationStore`: discharged
    obligations are written back to it and later runs answer from it.
    ``diagnostics_sink``, when given, receives the checker's run diagnostics
    (alphabet-memo counts, engine counters) once the benchmark is done.
    """
    report = EvaluationReport()
    finish_benchmarks(
        emit_benchmarks([benchmark], config, check_negative_variants, store), report
    )
    if diagnostics_sink is not None:
        diagnostics_sink.extend(report.diagnostics)
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
    ahead of the first fetch; then each benchmark's deduped obligations are
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
