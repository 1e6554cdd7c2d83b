"""The experiment runner: verify the corpus and collect the paper's statistics."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..obs import trace
from ..suite.benchmark import AdtBenchmark
from ..suite.registry import all_benchmarks
from ..typecheck.checker import CheckerConfig
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
    with trace.span("benchmark", cat="benchmark", benchmark=benchmark.key):
        checker = benchmark.make_checker(config, store=store)
        stats = benchmark.verify_all(checker)
        negatives: list[NegativeResult] = []
        if check_negative_variants:
            for variant in benchmark.negative_variants:
                result = benchmark.verify_negative_variant(variant, checker)
                negatives.append(
                    NegativeResult(
                        benchmark=benchmark.key,
                        variant=variant,
                        rejected=not result.verified,
                        error=result.error,
                    )
                )
    if diagnostics_sink is not None:
        diagnostics_sink.append({"benchmark": benchmark.key, **checker.run_diagnostics()})
    return stats, negatives


def run_evaluation(
    benchmarks: Optional[Sequence[AdtBenchmark]] = None,
    *,
    include_slow: bool = True,
    config: Optional[CheckerConfig] = None,
    check_negative_variants: bool = True,
    store=None,
) -> EvaluationReport:
    """Verify the whole corpus, mirroring the experiments behind Table 1."""
    if benchmarks is None:
        benchmarks = all_benchmarks(include_slow=include_slow)
    benchmarks = list(benchmarks)
    report = EvaluationReport()
    start = time.perf_counter()
    with trace.span("evaluate", cat="run", benchmarks=len(benchmarks)):
        for benchmark in benchmarks:
            stats, negatives = run_benchmark(
                benchmark,
                config=config,
                check_negative_variants=check_negative_variants,
                store=store,
                diagnostics_sink=report.diagnostics,
            )
            report.adt_stats.append(stats)
            report.negative_results.extend(negatives)
    report.total_time_seconds = time.perf_counter() - start
    return report
