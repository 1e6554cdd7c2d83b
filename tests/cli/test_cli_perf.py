"""CLI coverage for ``store gc``: keeping the last run warm and rejecting a
bad ``--keep-last``."""

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
