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


# -- dispatch / evaluate --distributed ---------------------------------------------


def test_dispatch_requires_a_store_url(capsys):
    assert cli_main(["dispatch", "--fast"]) == 2
    assert "--store http://host:port" in capsys.readouterr().err


def test_evaluate_distributed_requires_a_store_url(capsys):
    assert cli_main(["evaluate", "--fast", "--distributed"]) == 2
    assert "--store http://host:port" in capsys.readouterr().err


def test_dispatch_rejects_a_local_store_path(capsys, tmp_path):
    assert cli_main(["dispatch", "--fast", "--store", str(tmp_path / "s")]) == 2
    assert "store *server*" in capsys.readouterr().err


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
