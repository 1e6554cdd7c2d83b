"""End-to-end coverage for the ``pymarple`` command-line interface.

Exercises exit codes, the error paths (unknown benchmark/method, count
flags below their minimum, retired spellings), the ``--json``
machine-readable output, and the incremental-store surface
(``--store/--explain``).
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


def test_verify_exits_two_and_names_check(capsys):
    assert cli_main(["verify", "Set/KVStore", "--method", "mem"]) == 2
    captured = capsys.readouterr()
    assert "`pymarple check`" in captured.err
    assert "VERIFIED" not in captured.out
    assert _exit_code(["--help"]) == 0
    commands = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert "check" in commands and "verify" not in commands, "the retired command is hidden"


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


# -- retired and bounded flags ----------------------------------------------------


def test_unknown_backend_exits_two():
    # one SAT core: there is no selector flag, whatever value it is given
    with pytest.raises(SystemExit) as excinfo:
        cli_main(["check", "Set/KVStore", "--backend", "dpll"])
    assert excinfo.value.code == 2


def _must_not_run(*args, **kwargs):
    raise AssertionError("a rejected flag must stop the command before it starts")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["trace", "overhead", "--runs", "0"], "--runs"),
        (["trace", "report", "run.jsonl", "--top", "-1"], "--top"),
    ],
    ids=["overhead-runs", "report-top"],
)
def test_count_flag_below_its_minimum_exits_two(argv, flag, monkeypatch, capsys):
    monkeypatch.setattr("repro.cli.run_evaluation", _must_not_run)
    monkeypatch.setattr("repro.obs.trace.read_trace", _must_not_run)
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


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


def test_incremental_exits_two_and_names_the_store_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["check", "Set/KVStore", "--method", "empty", "--incremental"]
    assert _exit_code(argv) == 2
    assert "`--store .pymarple-store`" in capsys.readouterr().err
    assert not (tmp_path / ".pymarple-store").exists(), "no store is opened"
    assert _exit_code(["check", "--help"]) == 0
    assert "--incremental" not in capsys.readouterr().out, "the retired flag is hidden"


# -- store paths -------------------------------------------------------------------


def _exit_code(argv):
    """The exit status, whether ``main`` returns it or raises ``SystemExit``."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "Set/KVStore", "--method", "mem"],
        ["evaluate", "--fast"],
        ["table", "1", "--fast"],
        ["store", "serve", "--port", "0"],
        ["store", "gc", "--keep-last", "1"],
    ],
    ids=["check", "evaluate", "table", "serve", "gc"],
)
def test_a_plain_file_as_store_exits_two(capsys, tmp_path, argv):
    leftover = tmp_path / "store.db"  # e.g. a single-file store of an old version
    leftover.write_bytes(b"not a store directory")
    assert _exit_code(argv + ["--store", str(leftover)]) == 2
    assert str(leftover) in capsys.readouterr().err
    assert leftover.read_bytes() == b"not a store directory"


def test_store_gc_on_a_missing_path_exits_two(capsys, tmp_path):
    missing = tmp_path / "typo-store"
    assert cli_main(["store", "gc", "--keep-last", "1", "--store", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
    assert not missing.exists(), "gc must not create the store it was asked to sweep"
