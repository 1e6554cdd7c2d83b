"""CLI coverage for the performance surface: ``bench``, ``store gc``,
``--schedule`` and ``--no-memo``."""

import json

import pytest

from repro.cli import main as cli_main


# -- bench -------------------------------------------------------------------------


def test_bench_quick_writes_payload_and_exits_zero(capsys, tmp_path):
    out_path = tmp_path / "bench.json"
    assert cli_main(["bench", "--quick", "--output", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "cold:" in printed and "warm:" in printed
    payload = json.loads(out_path.read_text())
    assert payload["cold"]["all_verified"]
    assert payload["warm"]["counters"]["store_hits"] > 0


def test_bench_baseline_gate(capsys, tmp_path):
    out_path = tmp_path / "bench.json"
    assert cli_main(["bench", "--quick", "--output", str(out_path)]) == 0
    capsys.readouterr()
    # a fresh run against its own numbers is within any sane tolerance
    assert (
        cli_main(["bench", "--quick", "--baseline", str(out_path), "--tolerance", "5"])
        == 0
    )
    assert "cold wall" in capsys.readouterr().out

    # shrink the recorded baseline so the same machine must "regress"
    payload = json.loads(out_path.read_text())
    payload["cold"]["wall_seconds"] = payload["cold"]["wall_seconds"] / 1000.0
    out_path.write_text(json.dumps(payload))
    assert (
        cli_main(["bench", "--quick", "--baseline", str(out_path), "--tolerance", "0.2"])
        == 1
    )
    assert "REGRESSION" in capsys.readouterr().out


def test_bench_unreadable_baseline_exits_two(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert cli_main(["bench", "--quick", "--baseline", str(missing)]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_bench_structurally_incomplete_baseline_exits_two(capsys, tmp_path):
    """A baseline that parses but lacks the wall numbers gets a clean error."""
    hollow = tmp_path / "hollow.json"
    hollow.write_text(json.dumps({"cold": {}}))
    assert cli_main(["bench", "--quick", "--baseline", str(hollow)]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_bench_baseline_missing_warm_wall_is_advisory(capsys, tmp_path):
    """An old baseline without warm numbers compares cold only, with a note."""
    out_path = tmp_path / "bench.json"
    assert cli_main(["bench", "--quick", "--output", str(out_path)]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    del payload["warm"]["wall_seconds"]
    out_path.write_text(json.dumps(payload))
    assert (
        cli_main(["bench", "--quick", "--baseline", str(out_path), "--tolerance", "5"])
        == 0
    )
    out = capsys.readouterr().out
    assert "cold wall" in out
    assert "no warm wall time" in out


def test_bench_rejects_zero_runs(capsys):
    assert cli_main(["bench", "--runs", "0"]) == 2
    assert "runs >= 1" in capsys.readouterr().err


# -- store gc ----------------------------------------------------------------------


def test_store_gc_cli_keeps_last_run_warm(capsys, tmp_path):
    store = str(tmp_path / "store")
    assert cli_main(["evaluate", "--fast", "--store", store, "--json"]) == 0
    assert cli_main(["check", "Set/KVStore", "--store", store]) == 0
    capsys.readouterr()
    assert cli_main(["store", "gc", "--keep-last", "1", "--store", store]) == 0
    out = capsys.readouterr().out
    assert "store gc: dropped" in out

    # the surviving entries answer the kept run's workload entirely
    assert cli_main(["check", "Set/KVStore", "--store", store, "--explain"]) == 0
    out = capsys.readouterr().out
    assert "misses" in out
    assert "misses=0" in out and "hits=" in out


def test_store_gc_rejects_bad_keep_last(capsys, tmp_path):
    store = str(tmp_path / "store")
    assert cli_main(["store", "gc", "--keep-last", "0", "--store", store]) == 2
    assert "keep_last" in capsys.readouterr().err


# -- scheduling + memo knobs -------------------------------------------------------


def test_schedule_flag_reaches_the_checker_config(monkeypatch):
    captured = {}
    from repro.suite import benchmark as benchmark_module

    original = benchmark_module.AdtBenchmark.make_checker

    def spy(self, config=None, *, store=None):
        captured["schedule"] = config.schedule
        captured["memo"] = config.cross_obligation_memo
        return original(self, config, store=store)

    monkeypatch.setattr(benchmark_module.AdtBenchmark, "make_checker", spy)
    assert (
        cli_main(
            ["check", "Set/KVStore", "--method", "mem", "--schedule", "lpt", "--no-memo"]
        )
        == 0
    )
    assert captured == {"schedule": "lpt", "memo": False}


def test_argparse_rejects_unknown_schedule():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["check", "Set/KVStore", "--schedule", "chaotic"])
    assert excinfo.value.code == 2


def test_bad_repro_schedule_env_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCHEDULE", "chaotic")
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["check", "Set/KVStore", "--method", "mem"])
    assert excinfo.value.code == 2
    assert "unknown schedule mode" in capsys.readouterr().err


def test_schedule_modes_produce_identical_check_output(capsys):
    outputs = {}
    for schedule in ("syntactic", "cost", "lpt"):
        assert cli_main(["check", "Set/KVStore", "--schedule", schedule]) == 0
        outputs[schedule] = capsys.readouterr().out
    # wall-clock fields differ; the verdict lines must not
    verdicts = {
        schedule: [line for line in out.splitlines() if "verified" in line or ": ok" in line]
        for schedule, out in outputs.items()
    }
    assert verdicts["syntactic"] == verdicts["cost"] == verdicts["lpt"]
