"""End-to-end coverage for the ``pymarple`` command-line interface.

Exercises exit codes, the error paths (unknown benchmark/method), the
``--backend`` flag and its ``REPRO_BACKEND`` fallback, the ``--json`` machine-readable output, and the
incremental-store surface (``--incremental/--store/--explain``).
"""

import json

import pytest

from repro.cli import main as cli_main


# -- exit codes and error paths ---------------------------------------------------


def test_list_exits_zero(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Set/KVStore" in out and "FileSystem/KVStore" in out


def test_check_single_method_exits_zero(capsys):
    assert cli_main(["check", "Set/KVStore", "--method", "mem"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_verify_is_an_alias_of_check(capsys):
    assert cli_main(["verify", "Set/KVStore", "--method", "mem"]) == 0
    assert "VERIFIED" in capsys.readouterr().out


def test_unknown_benchmark_exits_two(capsys):
    assert cli_main(["check", "Nope/Nothing"]) == 2
    err = capsys.readouterr().err
    assert "unknown benchmark" in err and "Set/KVStore" in err


def test_unknown_method_exits_two(capsys):
    assert cli_main(["check", "Set/KVStore", "--method", "frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "no method" in err and "insert" in err


def test_argparse_rejects_bad_usage():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["table", "9"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):  # one decider: no mode flag to pick
        cli_main(["check", "Set/KVStore", "--discharge", "lazy"])
    with pytest.raises(SystemExit):  # one enumeration: no strategy flag
        cli_main(["check", "Set/KVStore", "--strategy", "guided"])
    with pytest.raises(SystemExit):  # one parallel path: the lease queue
        cli_main(["check", "Set/KVStore", "--workers", "2"])
    with pytest.raises(SystemExit):
        cli_main(["evaluate", "--fast", "--shards", "2"])
    with pytest.raises(SystemExit):  # serial discharge follows emit order
        cli_main(["check", "Set/KVStore", "--schedule", "auto"])
    with pytest.raises(SystemExit):  # the alphabet memo is always on
        cli_main(["check", "Set/KVStore", "--no-memo"])


# -- solver backends ---------------------------------------------------------------


def test_backend_flag_runs_the_check(capsys):
    assert cli_main(["check", "Set/KVStore", "--backend", "cdcl"]) == 0
    out = capsys.readouterr().out
    assert "all verified = True" in out


def test_backend_flag_reaches_the_checker_config(monkeypatch):
    captured = {}
    from repro.suite.benchmark import AdtBenchmark

    original = AdtBenchmark.make_checker

    def spy(self, config=None, *, store=None):
        captured["config"] = config
        return original(self, config, store=store)

    monkeypatch.setattr(AdtBenchmark, "make_checker", spy)
    assert cli_main(["check", "Set/KVStore", "--backend", "cdcl"]) == 0
    assert captured["config"].backend == "cdcl"


def test_unknown_backend_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["check", "Set/KVStore", "--backend", "telepathy"])
    assert excinfo.value.code == 2


def test_bad_repro_backend_env_exits_two(monkeypatch, capsys):
    """REPRO_BACKEND mirrors --backend, so a bad value must get the same
    clean exit-2 diagnostics instead of a ValueError traceback."""
    monkeypatch.setenv("REPRO_BACKEND", "telepathy")
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["check", "Set/KVStore"])
    assert excinfo.value.code == 2
    assert "unknown solver backend" in capsys.readouterr().err


# -- JSON output -------------------------------------------------------------------


def test_table2_json(capsys):
    assert cli_main(["table", "2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert any(row["Client ADT"] == "Set" for row in rows)


def test_table_json_filters_rows_to_the_tables_adts(capsys, tmp_path):
    store_path = str(tmp_path / "store")  # warm the runs so this stays cheap
    assert cli_main(["table", "3", "--fast", "--json", "--store", store_path]) == 0
    table3_rows = json.loads(capsys.readouterr().out)
    assert cli_main(["table", "4", "--fast", "--json", "--store", store_path]) == 0
    table4_rows = json.loads(capsys.readouterr().out)
    assert {row["Datatype"] for row in table3_rows} <= {"Stack", "Set", "Queue", "MinSet", "LazySet"}
    assert {row["Datatype"] for row in table4_rows} <= {"Heap", "FileSystem", "DFA", "ConnectedGraph"}
    assert table3_rows and table4_rows
    assert not {row["Datatype"] for row in table3_rows} & {
        row["Datatype"] for row in table4_rows
    }


def test_evaluate_json_is_machine_readable(capsys, tmp_path):
    store_path = str(tmp_path / "store")
    assert cli_main(["evaluate", "--fast", "--json", "--store", store_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_verified"] is True
    assert payload["all_negatives_rejected"] is True
    assert any(row["ADT"] == "Set" for row in payload["adts"])
    assert any(row["Method"] == "insert" for row in payload["per_method"])
    assert "#Store" in payload["per_method"][0]
    assert set(payload["tables_deterministic"]) == {"table1", "table3", "table4"}
    assert payload["store"]["summary"]["misses"] > 0  # cold run

    # a second (warm) run answers from the store and reproduces the tables
    assert cli_main(["evaluate", "--fast", "--json", "--store", store_path]) == 0
    warm = json.loads(capsys.readouterr().out)
    assert warm["store"]["summary"]["hits"] > 0
    assert warm["store"]["summary"]["misses"] == 0
    assert warm["tables_deterministic"] == payload["tables_deterministic"]


# -- the incremental store surface -------------------------------------------------


def test_check_incremental_store_and_explain(capsys, tmp_path):
    store_path = str(tmp_path / "store")
    assert cli_main(["check", "Set/KVStore", "--store", store_path]) == 0
    cold = capsys.readouterr().out
    assert "store:" in cold and "misses" in cold

    assert cli_main(["check", "Set/KVStore", "--store", store_path, "--explain"]) == 0
    warm = capsys.readouterr().out
    assert "0 misses" in warm
    assert "Set/KVStore.insert: hits=" in warm


def test_incremental_defaults_to_local_store(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)  # jsonl layout asserted
    assert cli_main(["check", "Set/KVStore", "--method", "empty", "--incremental"]) == 0
    capsys.readouterr()
    assert (tmp_path / ".pymarple-store" / "entries.jsonl").exists()


# -- store backends and migration --------------------------------------------------


def test_store_backend_flag_selects_sqlite(capsys, tmp_path):
    store_path = str(tmp_path / "store")
    assert (
        cli_main(
            ["check", "Set/KVStore", "--store", store_path, "--store-backend", "sqlite"]
        )
        == 0
    )
    capsys.readouterr()
    assert (tmp_path / "store").is_file(), "the sqlite backend keeps one database file"
    # the warm run needs no flag: auto infers sqlite from the existing file
    assert cli_main(["check", "Set/KVStore", "--store", store_path]) == 0
    assert "0 misses" in capsys.readouterr().out


def test_db_suffix_selects_sqlite(capsys, tmp_path):
    store_path = str(tmp_path / "store.db")
    assert cli_main(["evaluate", "--fast", "--json", "--store", store_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_verified"] is True
    assert (tmp_path / "store.db").is_file()


def test_unknown_store_backend_flag_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["check", "Set/KVStore", "--incremental", "--store-backend", "parquet"])
    assert excinfo.value.code == 2


def test_bad_repro_store_backend_env_exits_two(monkeypatch, capsys, tmp_path):
    """REPRO_STORE_BACKEND mirrors --store-backend: same exit-2 diagnostics."""
    monkeypatch.setenv("REPRO_STORE_BACKEND", "parquet")
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["check", "Set/KVStore", "--store", str(tmp_path / "store")])
    assert excinfo.value.code == 2
    assert "unknown store backend" in capsys.readouterr().err


def test_store_migrate_cli_roundtrip(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_STORE_BACKEND", raising=False)
    store_path = str(tmp_path / "store")
    assert cli_main(["check", "Set/KVStore", "--store", store_path]) == 0
    capsys.readouterr()

    # no --to-backend and no telling suffix: the destination backend flips
    db_path = str(tmp_path / "migrated")
    assert cli_main(["store", "migrate", store_path, db_path]) == 0
    out = capsys.readouterr().out
    assert "jsonl → sqlite" in out and "entries" in out

    # a warm check straight off the migrated store: everything still hits
    assert cli_main(["check", "Set/KVStore", "--store", db_path]) == 0
    assert "0 misses" in capsys.readouterr().out

    # and back again, explicitly
    back_path = str(tmp_path / "roundtripped")
    assert (
        cli_main(["store", "migrate", db_path, back_path, "--to-backend", "jsonl"]) == 0
    )
    capsys.readouterr()
    assert cli_main(["check", "Set/KVStore", "--store", back_path]) == 0
    assert "0 misses" in capsys.readouterr().out


def test_store_migrate_same_path_exits_two(capsys, tmp_path):
    store_path = str(tmp_path / "store")
    assert cli_main(["check", "Set/KVStore", "--store", store_path]) == 0
    capsys.readouterr()
    assert (
        cli_main(["store", "migrate", store_path, store_path, "--to-backend", "jsonl"])
        == 2
    )
    assert "distinct" in capsys.readouterr().err


def test_store_gc_accepts_sqlite_stores(capsys, tmp_path):
    store_path = str(tmp_path / "store.db")
    assert cli_main(["check", "Set/KVStore", "--store", store_path]) == 0
    capsys.readouterr()
    assert cli_main(["store", "gc", "--store", store_path, "--keep-last", "1"]) == 0
    out = capsys.readouterr().out
    assert "store gc:" in out and "kept" in out
