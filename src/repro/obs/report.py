"""Trace analysis: phase breakdown, slowest obligations, store-server counters.

Backs ``repro trace report``.  Works over the normalised trace dict
returned by :func:`repro.obs.trace.read_trace`, so both on-disk formats
feed the same analysis.

Self-time attribution: each span's *self time* is its duration minus the
summed durations of its direct children (resolved per process, since
every pipeline process is single-threaded; cross-fork roots attach to
the parent-process span they inherited at fork).  Phase totals sum self
time per category, so nested solver spans inside a discharge span count
as solver time, not twice.  Coverage — the acceptance metric — is the
fraction of the main process's wall time attributed to non-structural
spans: ``1 - structural_self_time / wall``.
"""

from __future__ import annotations

from typing import Optional

from .trace import PHASE_CATEGORIES, STRUCTURAL_CATEGORIES


def analyze_trace(data: dict, *, top: int = 10) -> dict:
    """Aggregate a normalised trace into report-ready numbers."""
    spans = [s for s in data.get("spans", []) if isinstance(s, dict)]
    meta = data.get("meta") or {}
    root_pid = meta.get("pid")
    if root_pid is None and spans:
        root_pid = spans[0].get("pid")

    index: dict[tuple, dict] = {}
    for record in spans:
        key = (record.get("pid"), record.get("id"))
        if None not in key:
            index[key] = record

    # Resolve each span's parent: same-pid id first, then the main process
    # (a forked worker's outermost span points at the parent-process span
    # that was open at fork time).
    child_time: dict[tuple, float] = {}
    resolved_parent: dict[tuple, Optional[tuple]] = {}
    for record in spans:
        key = (record.get("pid"), record.get("id"))
        parent_id = record.get("parent")
        parent_key: Optional[tuple] = None
        if parent_id is not None:
            if (record.get("pid"), parent_id) in index:
                parent_key = (record.get("pid"), parent_id)
            elif (root_pid, parent_id) in index:
                parent_key = (root_pid, parent_id)
        resolved_parent[key] = parent_key
        if parent_key is not None:
            child_time[parent_key] = child_time.get(parent_key, 0.0) + float(
                record.get("dur", 0.0)
            )

    # Self time, clamped: children in other processes run in parallel, so their
    # summed durations may legitimately exceed the parent's duration.
    self_time: dict[tuple, float] = {}
    for record in spans:
        key = (record.get("pid"), record.get("id"))
        self_time[key] = max(0.0, float(record.get("dur", 0.0)) - child_time.get(key, 0.0))

    phases: dict[str, dict] = {}
    structural_self_root = 0.0
    wall = 0.0
    workers: dict[int, float] = {}
    for record in spans:
        key = (record.get("pid"), record.get("id"))
        cat = record.get("cat") or record.get("name") or "other"
        bucket = cat if cat in PHASE_CATEGORIES or cat in STRUCTURAL_CATEGORIES else "other"
        entry = phases.setdefault(bucket, {"cat": bucket, "self": 0.0, "count": 0})
        entry["self"] += self_time[key]
        entry["count"] += 1
        pid = record.get("pid")
        if pid == root_pid:
            if resolved_parent.get(key) is None:
                wall += float(record.get("dur", 0.0))
            if cat in STRUCTURAL_CATEGORIES:
                structural_self_root += self_time[key]
        else:
            workers[pid] = workers.get(pid, 0.0) + self_time[key]

    # Everything under a root span that is not structural self time is
    # attributed work — including spans whose self time was eaten by their
    # (parallel, cross-pid) worker children.
    coverage = (1.0 - structural_self_root / wall) if wall > 0 else 0.0

    ordered: list[dict] = []
    for cat in (*PHASE_CATEGORIES, "other", *STRUCTURAL_CATEGORIES):
        if cat in phases:
            entry = phases[cat]
            entry["frac"] = (entry["self"] / wall) if wall > 0 else 0.0
            ordered.append(entry)

    slowest = sorted(
        (
            {
                "fingerprint": record["args"]["obligation_fp"],
                "dur": float(record.get("dur", 0.0)),
                "name": record.get("name"),
                "pid": record.get("pid"),
                "kind": record.get("args", {}).get("kind"),
            }
            for record in spans
            if record.get("args") and "obligation_fp" in record["args"]
        ),
        key=lambda row: row["dur"],
        reverse=True,
    )[: max(0, top)]

    return {
        "wall": wall,
        "coverage": coverage,
        "structural_self": structural_self_root,
        "phases": ordered,
        "workers": dict(sorted(workers.items())),
        "slowest": slowest,
        "counters": data.get("counters"),
        "span_count": len(spans),
        "root_pid": root_pid,
    }


def render_report(data: dict, *, top: int = 10) -> str:
    """Human-readable phase/slowest/store report for ``repro trace report``."""
    summary = analyze_trace(data, top=top)
    lines: list[str] = []
    wall = summary["wall"]
    lines.append(
        f"trace: {summary['span_count']} spans, root pid {summary['root_pid']}, "
        f"wall {wall:.3f}s, attributed coverage {summary['coverage']:.1%}"
    )
    if summary["workers"]:
        worker_bits = ", ".join(
            f"{pid}: {seconds:.3f}s" for pid, seconds in summary["workers"].items()
        )
        lines.append(f"worker self-time ({len(summary['workers'])} pids): {worker_bits}")

    lines.append("")
    lines.append("phase breakdown (self time):")
    lines.append(f"  {'phase':<10} {'self(s)':>9} {'% wall':>7} {'spans':>7}")
    for entry in summary["phases"]:
        lines.append(
            f"  {entry['cat']:<10} {entry['self']:>9.3f} {entry['frac']:>6.1%} "
            f"{entry['count']:>7}"
        )

    lines.append("")
    if summary["slowest"]:
        lines.append(f"slowest obligations (top {len(summary['slowest'])}, by span duration):")
        for row in summary["slowest"]:
            kind = f" kind={row['kind']}" if row.get("kind") else ""
            lines.append(
                f"  {row['dur'] * 1e3:>8.2f} ms  {row['fingerprint']}{kind} "
                f"[{row['name']} pid {row['pid']}]"
            )
    else:
        lines.append("slowest obligations: none recorded (warm run or tracing off)")

    counters = summary.get("counters") or {}
    store = counters.get("store") if isinstance(counters, dict) else None
    if isinstance(store, dict):
        # the server-side `/stats` snapshot a remote-store run folds in
        lines.append("")
        lines.append("store server:")
        lookup = store.get("lookup") or {}
        requested = lookup.get("requested", 0)
        found = lookup.get("found", 0)
        lines.append(
            f"  lookup hit rate: "
            f"{(found / requested) if requested else 0.0:.1%} "
            f"({found} found / {requested} requested)"
        )
        queue = store.get("queue") or {}
        queue_counters = queue.get("counters") or {}
        if any(queue_counters.values()):
            lines.append(
                f"  queue: {queue_counters.get('enqueued', 0)} enqueued, "
                f"{queue_counters.get('leases_issued', 0)} leases, "
                f"{queue_counters.get('completed', 0)} completed, "
                f"{queue_counters.get('reclaimed', 0)} reclaimed (stolen)"
            )
        ops = store.get("ops") or {}
        for op in sorted(ops):
            record = ops[op]
            lines.append(
                f"  op {op}: {record.get('count', 0)} calls, "
                f"{record.get('replays', 0)} replays, "
                f"{record.get('seconds', 0.0):.3f}s"
            )
    return "\n".join(lines)
