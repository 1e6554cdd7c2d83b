"""Formatters that render the evaluation results in the layout of Tables 1–4."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..suite.benchmark import AdtBenchmark
from ..suite.registry import all_benchmarks
from .runner import EvaluationReport


def _render(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    out = [line(headers), "-+-".join("-" * w for w in widths)]
    out.extend(line(row) for row in rows)
    return "\n".join(out)


TABLE1_COLUMNS = [
    "ADT",
    "Library",
    "#Method",
    "#Ghost",
    "sI",
    "ttotal (s)",
    "#Branch",
    "#App",
    "#Obl",
    "#SAT",
    "#SATcache",
    "#Confl",
    "#FA⊆",
    "#Alph",
    "#Prod",
    "#Store",
    "avg. sFA",
    "tSAT (s)",
    "tFA⊆ (s)",
    "verified",
]


def _is_volatile_column(column: str) -> bool:
    """Columns that legitimately differ between byte-identical runs.

    Wall-clock columns vary run to run even serially, and ``#Store`` reads 0
    on a cold run and >0 on a warm one by design; every other column is a
    deterministic function of the obligation set and must match exactly.
    The single source of truth is :attr:`MethodStats.VOLATILE_COLUMNS`; the
    ``(s)`` suffix rule additionally covers the ADT-level time columns
    (``ttotal (s)``, ``tFA⊆ (s)``) that only exist in Table 1.
    """
    from ..typecheck.stats import MethodStats

    return column in MethodStats.VOLATILE_COLUMNS or column.endswith("(s)")


def _deterministic(columns: Sequence[str]) -> list[str]:
    return [column for column in columns if not _is_volatile_column(column)]


def table1(
    report: EvaluationReport,
    *,
    deterministic: bool = False,
) -> str:
    """Table 1: per-ADT summary plus the most complex method's statistics.

    ``deterministic=True`` drops the volatile columns, yielding a rendering
    that must be byte-identical across cold/warm/dispatched runs.
    """
    columns = _deterministic(TABLE1_COLUMNS) if deterministic else TABLE1_COLUMNS
    rows = []
    for stats in report.adt_stats:
        row = stats.as_row()
        rows.append([row.get(column, "") for column in columns])
    return _render(columns, rows)


TABLE2_COLUMNS = ["Client ADT", "Underlying Library", "Representation invariant / policy"]


def table2_rows(benchmarks: Optional[Sequence[AdtBenchmark]] = None) -> list[dict[str, str]]:
    """Table 2's rows as dicts (shared by the text renderer and ``--json``)."""
    if benchmarks is None:
        benchmarks = all_benchmarks()
    return [
        dict(
            zip(
                TABLE2_COLUMNS,
                (benchmark.adt, benchmark.library_name, benchmark.invariant_description),
            )
        )
        for benchmark in benchmarks
    ]


def table2(benchmarks: Optional[Sequence[AdtBenchmark]] = None) -> str:
    """Table 2: the representation invariants of the corpus (descriptive)."""
    rows = [
        [row[column] for column in TABLE2_COLUMNS] for row in table2_rows(benchmarks)
    ]
    return _render(TABLE2_COLUMNS, rows)


TABLE34_COLUMNS = [
    "Datatype",
    "Library",
    "#Ghost",
    "sI",
    "Method",
    "#Branch",
    "#App",
    "#Obl",
    "#SAT",
    "#SATcache",
    "#Confl",
    "#Inc",
    "#Alph",
    "#Prod",
    "#Store",
    "avg. sFA",
    "tSAT (s)",
    "tInc (s)",
    "verified",
]

#: The split of ADTs between the paper's Table 3 and Table 4.
TABLE3_ADTS = ("Stack", "Set", "MinSet", "LazySet")
TABLE4_ADTS = ("FileSystem", "DFA", "ConnectedGraph")


def _per_method_table(
    report: EvaluationReport,
    adts: Sequence[str],
    deterministic: bool = False,
) -> str:
    columns = _deterministic(TABLE34_COLUMNS) if deterministic else TABLE34_COLUMNS
    rows = []
    for row in report.per_method_rows():
        if row["Datatype"] not in adts:
            continue
        rows.append([row.get(column, "") for column in columns])
    return _render(columns, rows)


def table3(
    report: EvaluationReport,
    *,
    deterministic: bool = False,
) -> str:
    """Table 3: per-method details for the first half of the corpus."""
    return _per_method_table(report, TABLE3_ADTS, deterministic)


def table4(
    report: EvaluationReport,
    *,
    deterministic: bool = False,
) -> str:
    """Table 4: per-method details for the second half of the corpus."""
    return _per_method_table(report, TABLE4_ADTS, deterministic)


def negatives_table(report: EvaluationReport) -> str:
    """Rejection results for the known-incorrect variants (Example 2.1 etc.)."""
    headers = ["Benchmark", "Variant", "Rejected"]
    rows = [
        [result.benchmark, result.variant, result.rejected]
        for result in report.negative_results
    ]
    return _render(headers, rows)


def report_json(report: EvaluationReport, store=None) -> dict:
    """A machine-readable report (``--json``) for CI trend tracking.

    Contains the raw per-ADT and per-method rows (every column, times
    included), the negative-variant outcomes, and the *deterministic*
    renderings of Tables 1/3/4 — the strings CI compares byte-for-byte
    between cold and warm runs.  When a store session is passed, its
    summary and per-method hit/miss/invalidated counts are included.
    """
    payload: dict[str, object] = {
        "schema": 1,
        "all_verified": report.all_verified,
        "all_negatives_rejected": report.all_negatives_rejected,
        "total_time_seconds": report.total_time_seconds,
        "adts": [stats.as_row() for stats in report.adt_stats],
        "per_method": report.per_method_rows(),
        "negatives": [
            {
                "benchmark": result.benchmark,
                "variant": result.variant,
                "rejected": result.rejected,
                "error": result.error,
            }
            for result in report.negative_results
        ],
        "tables_deterministic": {
            "table1": table1(report, deterministic=True),
            "table3": table3(report, deterministic=True),
            "table4": table4(report, deterministic=True),
        },
    }
    if store is not None:
        payload["store"] = {"summary": store.summary(), "methods": store.explain()}
    if report.dispatch is not None:
        payload["dispatch"] = report.dispatch
    return payload


def render_all(report: EvaluationReport) -> str:
    sections = [
        ("Table 1 — per-ADT summary", table1(report)),
        ("Table 2 — representation invariants", table2()),
        ("Table 3 — per-method details (Stack/Set/MinSet/LazySet)", table3(report)),
        ("Table 4 — per-method details (FileSystem/DFA/ConnectedGraph)", table4(report)),
        ("Known-incorrect variants", negatives_table(report)),
    ]
    blocks = []
    for title, body in sections:
        blocks.append(f"== {title} ==\n{body}")
    return "\n\n".join(blocks)
