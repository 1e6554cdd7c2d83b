"""Postmortem capture: unexpected discharge failures dump context, then raise."""

import json

import pytest

from repro.obs import trace
from repro.obs.postmortem import ENV_POSTMORTEM, dump_postmortem
from repro.sfa.batch import TransitionTable
from repro.sfa.derivatives import CompilationError
from repro.suite.registry import all_benchmarks
from repro.typecheck.checker import CheckerConfig


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    trace.uninstall()
    yield
    trace.uninstall()


# -- the writer itself -------------------------------------------------------------


def test_dump_writes_exception_spans_and_context(tmp_path):
    target = tmp_path / "pm.json"
    tracer = trace.install(trace.Tracer())
    with trace.span("discharge", cat="discharge"):
        with trace.span("solver.check", cat="solver"):
            pass  # one completed span
        try:
            raise RuntimeError("kaboom")
        except RuntimeError as exc:
            written = dump_postmortem(
                exc,
                obligation_fp="cafebabe",
                context={"kind": "postcondition"},
                path=str(target),
            )
            still_open = tracer.open_spans()
    assert written == str(target)
    assert [span["name"] for span in still_open] == ["discharge"]
    payload = json.loads(target.read_text())
    assert payload["exception"]["type"] == "RuntimeError"
    assert payload["exception"]["message"] == "kaboom"
    assert any("kaboom" in line for line in payload["exception"]["traceback"])
    assert payload["obligation_fp"] == "cafebabe"
    assert payload["context"] == {"kind": "postcondition"}
    assert [span["name"] for span in payload["open_spans"]] == ["discharge"]
    assert any(span["name"] == "solver.check" for span in payload["recent_spans"])


def test_dump_without_a_tracer_still_writes(tmp_path):
    target = tmp_path / "pm.json"
    try:
        raise ValueError("no tracer around")
    except ValueError as exc:
        assert dump_postmortem(exc, path=str(target)) == str(target)
    payload = json.loads(target.read_text())
    assert payload["open_spans"] == [] and payload["recent_spans"] == []


def test_dump_failure_is_swallowed(tmp_path):
    bad_path = tmp_path / "no-such-dir" / "pm.json"
    try:
        raise RuntimeError("x")
    except RuntimeError as exc:
        assert dump_postmortem(exc, path=str(bad_path)) is None


# -- the engine integration --------------------------------------------------------


def test_unexpected_discharge_error_dumps_then_propagates(tmp_path, monkeypatch):
    target = tmp_path / "crash.json"
    monkeypatch.setenv(ENV_POSTMORTEM, str(target))

    def explode(self, state):
        raise RuntimeError("simulated walk bug")

    monkeypatch.setattr(TransitionTable, "row", explode)
    bench = all_benchmarks(include_slow=False)[0]
    checker = bench.make_checker(CheckerConfig())
    with pytest.raises(RuntimeError, match="simulated walk bug"):
        bench.verify_all(checker)

    payload = json.loads(target.read_text())
    assert payload["exception"]["type"] == "RuntimeError"
    assert payload["obligation_fp"], "the in-flight obligation must be identified"
    assert payload["context"]["kind"]
    # one obligation per discharge: the dump names it alone, no member list
    assert set(payload["context"]) == {"kind", "provenance"}


def test_expected_solver_error_reports_failure_without_a_dump(tmp_path, monkeypatch):
    target = tmp_path / "crash.json"
    monkeypatch.setenv(ENV_POSTMORTEM, str(target))

    def refuse(self, state):
        raise CompilationError("expected, reportable failure")

    monkeypatch.setattr(TransitionTable, "row", refuse)
    bench = all_benchmarks(include_slow=False)[0]
    checker = bench.make_checker(CheckerConfig())
    stats = bench.verify_all(checker)  # must not raise
    assert not stats.all_verified
    assert not target.exists(), "expected error families never trigger a postmortem"
