"""Unit coverage for the span tracer: recording, buffering, and both formats."""

import json

import pytest

from repro.obs import trace
from repro.obs.schema import validate_spans, validate_trace, validate_trace_file
from repro.obs.trace import (
    TRACE_SCHEMA,
    Tracer,
    read_trace,
    write_trace,
    _NULL_SPAN,
)


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    """Every test starts and ends with tracing off."""
    trace.uninstall()
    yield
    trace.uninstall()


# -- the no-op default -------------------------------------------------------------


def test_disabled_module_span_is_the_shared_null_singleton():
    assert not trace.enabled()
    span = trace.span("anything", cat="discharge", key="value")
    assert span is _NULL_SPAN
    with span as inner:
        inner.set(late="attribute")  # must be a no-op, not an error
    assert trace.current_span() is None
    assert trace.open_spans() == []


# -- recording ---------------------------------------------------------------------


def test_nested_spans_record_parents_and_durations():
    tracer = trace.install(Tracer())
    with trace.span("outer", cat="run"):
        with trace.span("inner", cat="discharge", fp="abc") as inner:
            inner.set(hit=True)
    trace.uninstall()

    inner_rec, outer_rec = tracer.spans  # children complete (append) first
    assert inner_rec["name"] == "inner"
    assert inner_rec["parent"] == outer_rec["id"]
    assert "parent" not in outer_rec
    assert inner_rec["args"] == {"fp": "abc", "hit": True}
    assert 0 <= inner_rec["ts"] <= inner_rec["ts"] + inner_rec["dur"]
    assert outer_rec["dur"] >= inner_rec["dur"]
    assert validate_spans(tracer.spans) == []


def test_span_ids_are_unique_and_open_stack_tracks_nesting():
    tracer = trace.install(Tracer())
    with trace.span("a"):
        with trace.span("b"):
            open_names = [record["name"] for record in trace.open_spans()]
            assert open_names == ["a", "b"]
            assert trace.current_span()["name"] == "b"
    ids = [record["id"] for record in tracer.spans]
    assert len(ids) == len(set(ids))


def test_exception_inside_span_still_closes_it():
    tracer = trace.install(Tracer())
    with pytest.raises(RuntimeError):
        with trace.span("doomed"):
            raise RuntimeError("boom")
    assert [record["name"] for record in tracer.spans] == ["doomed"]
    assert tracer.open_spans() == []


# -- export / import ---------------------------------------------------------------


def _record_some_spans(meta=None):
    tracer = Tracer(meta=meta)
    trace.install(tracer)
    with trace.span("evaluate", cat="run"):
        with trace.span("discharge", cat="discharge", obligation_fp="deadbeef"):
            pass
    trace.uninstall()
    tracer.counters = {"caches": {"alphabet_memo_builds": 7}}
    return tracer


@pytest.mark.parametrize("suffix", (".jsonl", ".json"))
def test_write_read_round_trip(tmp_path, suffix):
    tracer = _record_some_spans(meta={"command": "evaluate"})
    path = tmp_path / f"trace{suffix}"
    write_trace(tracer, str(path))

    assert validate_trace_file(str(path)) == []
    data = read_trace(str(path))
    assert validate_trace(data) == []
    assert data["meta"]["schema"] == TRACE_SCHEMA
    assert data["meta"]["pid"] == tracer.pid
    assert data["meta"]["command"] == "evaluate"
    assert data["counters"] == {"caches": {"alphabet_memo_builds": 7}}

    names = [span["name"] for span in data["spans"]]
    assert names == ["discharge", "evaluate"]
    child, root = data["spans"]
    assert child["parent"] == root["id"]
    assert child["args"]["obligation_fp"] == "deadbeef"
    # timestamps survive the round trip to at least microsecond precision
    assert child["ts"] == pytest.approx(tracer.spans[0]["ts"], abs=1e-5)
    assert child["dur"] == pytest.approx(tracer.spans[0]["dur"], abs=1e-5)


def test_chrome_export_is_perfetto_shaped(tmp_path):
    tracer = _record_some_spans()
    path = tmp_path / "trace.json"
    write_trace(tracer, str(path))

    payload = json.loads(path.read_text())
    assert "traceEvents" in payload
    events = payload["traceEvents"]
    metas = [event for event in events if event["ph"] == "M"]
    assert any(event["args"]["name"] == "pymarple" for event in metas)
    slices = [event for event in events if event["ph"] == "X"]
    assert len(slices) == 2
    for event in slices:
        assert set(event) >= {"ph", "pid", "tid", "name", "cat", "ts", "dur", "args"}
        assert event["ts"] >= 0 and event["dur"] >= 0  # microseconds
    assert payload["otherData"]["meta"]["schema"] == TRACE_SCHEMA


def test_session_installs_uninstalls_and_writes(tmp_path):
    path = tmp_path / "session.jsonl"
    with trace.session(str(path), meta={"command": "test"}) as tracer:
        assert trace.active() is tracer
        with trace.span("work"):
            pass
    assert not trace.enabled()
    data = read_trace(str(path))
    assert [span["name"] for span in data["spans"]] == ["work"]


# -- schema validation catches broken traces ---------------------------------------


def test_validator_flags_missing_fields_duplicates_and_dangling_parents():
    good = {"id": 1, "pid": 10, "name": "a", "cat": "run", "ts": 0.0, "dur": 1.0}
    assert validate_spans([good]) == []

    missing = dict(good)
    del missing["dur"]
    assert any("dur" in error for error in validate_spans([missing]))

    negative = dict(good, dur=-1.0)
    assert any(">= 0" in error for error in validate_spans([negative]))

    duplicate = [good, dict(good)]
    assert any("duplicate" in error for error in validate_spans(duplicate))

    dangling = [good, dict(good, id=2, parent=99)]
    assert any("parent" in error for error in validate_spans(dangling))


def test_validate_trace_rejects_wrong_schema_and_empty_spans():
    base = {"meta": {"schema": TRACE_SCHEMA, "pid": 1}, "spans": [], "counters": None}
    assert any("no spans" in error for error in validate_trace(base))
    wrong = dict(base, meta={"schema": 99, "pid": 1})
    assert any("schema" in error for error in validate_trace(wrong))
