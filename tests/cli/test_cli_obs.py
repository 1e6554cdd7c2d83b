"""CLI surface of the observability layer: --trace, --log-level, repro trace."""

import json
import os
import subprocess
import sys

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
    store = tmp_path / "store"
    assert cli_main(["evaluate", "--fast", "--store", str(store), "--trace", str(path)]) == 0
    assert f"trace written to {path}" in capsys.readouterr().err
    payload = json.loads(path.read_text())
    assert payload["traceEvents"], "Chrome trace-event export must contain events"
    data = read_trace(str(path))
    assert data["meta"]["command"] == "evaluate"
    # the store's op counts ride along for the report
    assert data["counters"]["store"]["ops"]["lookup"]["count"] > 0
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
    assert "slowest obligations" in out and "cache rates" not in out


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


def test_evaluate_json_carries_tables_and_verdicts_only(capsys):
    """A store-less ``evaluate --json`` holds the tables and verdicts, and no
    run-level reuse block."""
    assert cli_main(["evaluate", "--fast", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "adts",
        "all_negatives_rejected",
        "all_verified",
        "negatives",
        "per_method",
        "schema",
        "tables_deterministic",
        "total_time_seconds",
    }
    assert payload["all_verified"] and payload["all_negatives_rejected"]


def test_printing_into_a_reader_that_closes_early_exits_quietly(tmp_path):
    # a report longer than a pipe's buffer: the reader takes the first line
    # and closes while the writer is still printing (``| head -1``)
    path = tmp_path / "wide.json"
    with trace.session(str(path)):
        for index in range(3_000):
            with trace.span("discharge", cat="engine", obligation_fp=f"{index:064x}"):
                pass
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "trace", "report", str(path), "--top", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"trace: 3000 spans")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.wait(timeout=60)
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr
    assert stderr == ""
