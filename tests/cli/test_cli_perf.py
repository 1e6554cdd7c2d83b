"""CLI coverage for the store and checker knobs: ``store gc``,
``--schedule`` and ``--no-memo``."""

import pytest

from repro.cli import main as cli_main


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
    for schedule in ("syntactic", "auto", "lpt"):
        assert cli_main(["check", "Set/KVStore", "--schedule", schedule]) == 0
        outputs[schedule] = capsys.readouterr().out
    # wall-clock fields differ; the verdict lines must not
    verdicts = {
        schedule: [line for line in out.splitlines() if "verified" in line or ": ok" in line]
        for schedule, out in outputs.items()
    }
    assert verdicts["syntactic"] == verdicts["auto"] == verdicts["lpt"]
