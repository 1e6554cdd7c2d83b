"""Trace analysis: self-time attribution, coverage, slowest obligations."""

from repro.obs.report import analyze_trace, render_report


def _span(id, pid, name, cat, ts, dur, parent=None, args=None):
    record = {"id": id, "pid": pid, "name": name, "cat": cat, "ts": ts, "dur": dur}
    if parent is not None:
        record["parent"] = parent
    if args is not None:
        record["args"] = args
    return record


def _trace(spans, counters=None):
    return {"meta": {"schema": 1, "pid": 100}, "spans": spans, "counters": counters}


def test_self_time_subtracts_direct_children_and_buckets_by_category():
    spans = [
        _span(1, 100, "evaluate", "run", 0.0, 10.0),
        _span(2, 100, "discharge", "discharge", 1.0, 6.0, parent=1),
        _span(3, 100, "solver.check", "solver", 2.0, 2.0, parent=2),
    ]
    summary = analyze_trace(_trace(spans))
    assert summary["wall"] == 10.0  # only the root span counts toward wall
    by_cat = {entry["cat"]: entry for entry in summary["phases"]}
    assert by_cat["run"]["self"] == 4.0  # 10 - 6
    assert by_cat["discharge"]["self"] == 4.0  # 6 - 2
    assert by_cat["solver"]["self"] == 2.0
    # run is structural; discharge + solver are attributed
    assert summary["structural_self"] == 4.0
    assert summary["coverage"] == (4.0 + 2.0) / 10.0


def test_parallel_children_clamp_self_time_at_zero():
    spans = [
        _span(1, 100, "discharge.pool", "discharge", 0.0, 2.0),
        _span(2, 100, "a", "discharge", 0.0, 1.5, parent=1),
        _span(3, 100, "b", "discharge", 0.0, 1.5, parent=1),
    ]
    summary = analyze_trace(_trace(spans))
    by_cat = {entry["cat"]: entry for entry in summary["phases"]}
    # 2.0 - 3.0 of child time clamps to 0, never negative
    assert by_cat["discharge"]["self"] == 0.0 + 1.5 + 1.5


def test_worker_root_resolves_parent_into_the_main_process():
    spans = [
        _span(1, 100, "discharge.pool", "discharge", 0.0, 4.0),
        # a forked worker inherited the counter, so its id collides with the
        # pool span's id in another pid; its parent must resolve to pid 100
        _span(2, 200, "discharge", "discharge", 0.5, 3.0, parent=1),
    ]
    summary = analyze_trace(_trace(spans))
    assert summary["workers"] == {200: 3.0}
    by_cat = {entry["cat"]: entry for entry in summary["phases"]}
    # the worker's time was charged to the pool span as child time
    assert by_cat["discharge"]["self"] == (4.0 - 3.0) + 3.0


def test_slowest_obligations_sorted_by_duration_keyed_by_fingerprint():
    spans = [
        _span(1, 100, "evaluate", "run", 0.0, 10.0),
        _span(2, 100, "discharge", "discharge", 0.0, 1.0, parent=1,
              args={"obligation_fp": "aa", "kind": "postcondition"}),
        _span(3, 100, "discharge", "discharge", 1.0, 3.0, parent=1,
              args={"obligation_fp": "bb", "kind": "coverage"}),
        _span(4, 100, "discharge", "discharge", 4.0, 2.0, parent=1,
              args={"obligation_fp": "cc", "kind": "postcondition"}),
    ]
    summary = analyze_trace(_trace(spans), top=2)
    assert [row["fingerprint"] for row in summary["slowest"]] == ["bb", "cc"]
    assert summary["slowest"][0]["kind"] == "coverage"


def test_render_report_includes_phases_slowest_and_store_counters():
    spans = [
        _span(1, 100, "evaluate", "run", 0.0, 2.0),
        _span(2, 100, "discharge", "discharge", 0.0, 1.0, parent=1,
              args={"obligation_fp": "deadbeef"}),
    ]
    counters = {"store": {"lookup": {"requested": 4, "found": 2}}}
    text = render_report(_trace(spans, counters=counters))
    assert "attributed coverage 50.0%" in text
    assert "discharge" in text and "deadbeef" in text
    assert "lookup hit rate: 50.0% (2 found / 4 requested)" in text


def test_empty_trace_reports_zero_coverage_not_a_crash():
    summary = analyze_trace({"meta": {"pid": 1}, "spans": [], "counters": None})
    assert summary["wall"] == 0.0 and summary["coverage"] == 0.0
    assert "none recorded" in render_report({"meta": {"pid": 1}, "spans": []})
