"""CLI surface of the observability layer: --trace, --log-level, repro trace."""

import json

import pytest

from repro.cli import main as cli_main
from repro.obs import trace
from repro.obs.trace import ENV_TRACE, read_trace


@pytest.fixture(autouse=True)
def clean_obs_state(monkeypatch):
    monkeypatch.delenv(ENV_TRACE, raising=False)
    monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
    trace.uninstall()
    yield
    trace.uninstall()


def _trace_a_run(tmp_path, name="run.json"):
    path = tmp_path / name
    assert cli_main(["check", "Set/KVStore", "--trace", str(path)]) == 0
    return path


# -- producing traces --------------------------------------------------------------


def test_evaluate_trace_writes_a_loadable_chrome_trace(tmp_path, capsys):
    path = tmp_path / "eval.json"
    assert cli_main(["evaluate", "--fast", "--trace", str(path)]) == 0
    assert f"trace written to {path}" in capsys.readouterr().err
    payload = json.loads(path.read_text())
    assert payload["traceEvents"], "Chrome trace-event export must contain events"
    data = read_trace(str(path))
    assert data["meta"]["command"] == "evaluate"
    assert data["counters"]["caches"]  # cache totals ride along for the report
    assert any(span["cat"] == "discharge" for span in data["spans"])


def test_trace_env_var_is_the_flag_fallback(tmp_path, monkeypatch, capsys):
    path = tmp_path / "env.jsonl"
    monkeypatch.setenv(ENV_TRACE, str(path))
    assert cli_main(["check", "Set/KVStore", "--method", "mem"]) == 0
    capsys.readouterr()
    assert path.exists()
    assert read_trace(str(path))["spans"]


def test_untraced_runs_write_nothing_and_leave_no_tracer(tmp_path, capsys):
    assert cli_main(["check", "Set/KVStore", "--method", "mem"]) == 0
    capsys.readouterr()
    assert not list(tmp_path.iterdir())
    assert not trace.enabled()


# -- consuming traces --------------------------------------------------------------


def test_trace_validate_and_report_round_trip(tmp_path, capsys):
    path = _trace_a_run(tmp_path)
    capsys.readouterr()

    assert cli_main(["trace", "validate", str(path)]) == 0
    assert "valid trace" in capsys.readouterr().out

    assert cli_main(["trace", "report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "phase breakdown" in out and "discharge" in out
    assert "cache rates" in out


def test_trace_report_min_coverage_gate(tmp_path, capsys):
    path = _trace_a_run(tmp_path)
    capsys.readouterr()
    assert cli_main(["trace", "report", str(path), "--min-coverage", "0.95"]) == 0
    capsys.readouterr()
    assert cli_main(["trace", "report", str(path), "--min-coverage", "1.01"]) == 1
    assert "below the required" in capsys.readouterr().err


def test_trace_subcommands_reject_garbage_files(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["trace", "report", str(missing)]) == 2
    capsys.readouterr()
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json\n")
    assert cli_main(["trace", "validate", str(garbage)]) == 1
    assert "unreadable" in capsys.readouterr().err


# -- logging and --json ------------------------------------------------------------


def test_log_level_emits_breadcrumbs_on_stderr(capsys):
    assert cli_main(["check", "Set/KVStore", "--method", "mem", "--log-level", "debug"]) == 0
    err = capsys.readouterr().err
    assert "repro.engine" in err or "repro.checker" in err


def test_unknown_log_level_exits_two(capsys):
    assert cli_main(["check", "Set/KVStore", "--log-level", "chatty"]) == 2
    assert "unknown log level" in capsys.readouterr().err


def test_evaluate_json_exposes_cache_totals(capsys):
    assert cli_main(["evaluate", "--fast", "--json"]) == 0
    caches = json.loads(capsys.readouterr().out)["caches"]
    assert set(caches) == {
        "alphabet_memo_builds",
        "alphabet_memo_replays",
        "alphabet_memo_evictions",
    }
    assert caches["alphabet_memo_builds"] > 0
