"""CLI surface for distributed discharge: ``dispatch``, ``worker``, ``store stats``.

The heavy end-to-end path (coordinator + forked workers + byte-identical
tables) lives in ``tests/store/test_distributed.py``; here we pin the
command-line contract — exit codes, required flags, and the two render
modes of ``store stats`` — against a real loopback server.
"""

import json

import pytest

from repro.cli import main as cli_main
from repro.store.remote import ENV_RPC_RETRIES, ENV_RPC_TIMEOUT
from repro.store.server import StoreHTTPServer, StoreService, serve_in_thread


@pytest.fixture
def server(tmp_path):
    service = StoreService(tmp_path / "store")
    with serve_in_thread(StoreHTTPServer(("127.0.0.1", 0), service)) as httpd:
        yield httpd
    service.close()


# -- dispatch ----------------------------------------------------------------------


def test_dispatch_requires_a_store_url(capsys):
    assert cli_main(["dispatch", "--fast"]) == 2
    assert "--store http://host:port" in capsys.readouterr().err


def test_evaluate_distributed_points_at_dispatch(capsys, monkeypatch):
    # one spelling for distributed evaluation: the old one names the new one
    monkeypatch.setattr("repro.cli.run_evaluation", _must_not_run)
    assert cli_main(["evaluate", "--fast", "--distributed"]) == 2
    assert "pymarple dispatch" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:  # and so do its flags
        cli_main(["evaluate", "--fast", "--local-workers", "2"])
    assert excinfo.value.code == 2


def test_dispatch_rejects_a_local_store_path(capsys, tmp_path):
    assert cli_main(["dispatch", "--fast", "--store", str(tmp_path / "s")]) == 2
    assert "store *server*" in capsys.readouterr().err


_URL = "http://127.0.0.1:9"


def _must_not_run(*args, **kwargs):
    raise AssertionError("a rejected flag must stop the command before it starts")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dispatch", "--store", _URL, "--local-workers", "-1"], "--local-workers"),
        (["dispatch", "--store", _URL, "--lease-ttl", "0"], "--lease-ttl"),
        (["dispatch", "--store", _URL, "--drain-timeout", "-5"], "--drain-timeout"),
        (["worker", "--store", _URL, "--ttl", "0"], "--ttl"),
        (["worker", "--store", _URL, "--idle-timeout", "-1"], "--idle-timeout"),
        (["worker", "--store", _URL, "--batch", "0"], "--batch"),
        (["worker", "--store", _URL, "--max-batches", "0"], "--max-batches"),
    ],
    ids=["local-workers", "lease-ttl", "drain-timeout", "ttl", "idle-timeout", "batch",
         "max-batches"],
)
def test_numeric_flag_out_of_range_exits_two(argv, flag, monkeypatch, capsys):
    """Rejected while parsing: no walk, no enqueue, no worker that dies on
    its first lease."""
    monkeypatch.setattr("repro.engine.dispatch.run_distributed_evaluation", _must_not_run)
    monkeypatch.setattr("repro.engine.worker.run_worker", _must_not_run)
    with pytest.raises(SystemExit) as excinfo:
        cli_main(argv)
    assert excinfo.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


# -- worker ------------------------------------------------------------------------


def test_worker_drains_an_empty_queue_and_exits_zero(server, capsys):
    code = cli_main(
        ["worker", "--store", server.url, "--idle-timeout", "0.05"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "worker done: 0 leases, 0 items" in out


def test_worker_rejects_a_local_store_path(capsys, tmp_path):
    assert cli_main(["worker", "--store", str(tmp_path / "s")]) == 2
    assert "store *server* URL" in capsys.readouterr().err


# -- store stats -------------------------------------------------------------------


def test_store_stats_json_is_machine_readable(server, capsys):
    assert cli_main(["store", "stats", server.url, "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 0
    assert "queue" in stats and "ops" in stats and "lookup" in stats


def test_store_stats_human_rendering(server, capsys):
    assert cli_main(["store", "stats", server.url]) == 0
    out = capsys.readouterr().out
    assert f"store server {server.url}" in out
    assert "lookup hit rate" in out
    assert "queue: 0 pending" in out
    assert "per-op" in out, "the handshake+stats calls themselves are counted"
    assert "/ waited" in out, "time blocked in long-polls is its own column"


def test_store_stats_rejects_a_non_url(capsys, tmp_path):
    assert cli_main(["store", "stats", str(tmp_path / "s")]) == 2
    assert "error" in capsys.readouterr().err


def test_store_stats_reports_an_unreachable_server(capsys, monkeypatch):
    monkeypatch.setenv(ENV_RPC_RETRIES, "1")
    monkeypatch.setenv(ENV_RPC_TIMEOUT, "0.2")
    monkeypatch.setattr("repro.store.remote.time.sleep", lambda _s: None)
    assert cli_main(["store", "stats", "http://127.0.0.1:9"]) == 2
    assert "error" in capsys.readouterr().err
