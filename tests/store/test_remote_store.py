"""Client-side units for the remote store backend: no server, no sockets.

Everything here drives :class:`RemoteStoreBackend` against a stubbed
``_post``, pinning the wire-client contract in isolation: URL resolution,
the retry/backoff loop, idempotency-key stability across retries, the
4xx-never-retried rule, and handshake verification of the schema tag.  The real-socket paths live in
``test_store_server.py`` and ``test_server_crash.py``.
"""

import http.client
import importlib
import json

import pytest

from repro.store.backends import SCHEMA_VERSION, open_backend
from repro.store.client import RemoteStoreError
from repro.store.obligation_store import ObligationStore
from repro.store.remote import (
    ENV_RPC_BACKOFF,
    ENV_RPC_RETRIES,
    ENV_RPC_TIMEOUT,
    RemoteStoreBackend,
)

URL = "http://cache.example:8642"


@pytest.fixture(autouse=True)
def fast_rpc(monkeypatch):
    """No real sleeping between retry attempts."""
    monkeypatch.setenv(ENV_RPC_BACKOFF, "0.0001")
    monkeypatch.setattr("repro.store.remote.time.sleep", lambda _s: None)


def _scripted(backend, responses):
    """Replace the transport with a script of (status, payload) answers.

    A response may also be an exception instance, raised instead.  Returns
    the request log: ``(op, decoded body)`` per attempt.
    """
    calls = []

    def fake_post(op, body):
        calls.append((op, json.loads(body.decode("utf-8")) if body else {}))
        answer = responses.pop(0)
        if isinstance(answer, BaseException):
            raise answer
        status, payload = answer
        # the real transport also reports whether the keep-alive connection
        # was reused; a scripted transport never reuses one
        return status, payload, False

    backend._post = fake_post
    return calls


# -- resolution --------------------------------------------------------------------


#: the ops perfbench's ``store.rpc`` layer wraps at
#: ``repro.store.remote.RemoteStoreBackend.<op>``: the store ops, then the
#: work-queue ops (an inherited method resolves there too)
WRAPPED_STORE_OPS = (
    "handshake", "lookup", "append_entries", "compact", "invalidate", "commit_run", "gc", "stats",
)
WRAPPED_QUEUE_OPS = ("enqueue", "lease", "complete", "extend", "queue_status")


def test_every_wrapped_rpc_op_resolves_on_the_transport_class():
    """A benchmark layer whose target vanished would silently read 0."""
    backend = importlib.import_module("repro.store.remote").RemoteStoreBackend
    missing = [
        op
        for op in WRAPPED_STORE_OPS + WRAPPED_QUEUE_OPS
        if not callable(getattr(backend, op, None))
    ]
    assert missing == []


def test_urls_resolve_to_the_remote_backend():
    for url in ("http://host:1234", "https://host/base/"):
        assert isinstance(open_backend(url), RemoteStoreBackend)
    # the URL stays a string — Path() would eat the double slash
    backend = open_backend("http://host:1234/")
    assert backend.path == "http://host:1234"
    assert backend.name == "remote"


def test_malformed_urls_are_rejected():
    with pytest.raises(ValueError, match="http"):
        RemoteStoreBackend("http://")
    with pytest.raises(ValueError, match="http"):
        RemoteStoreBackend("ftp://host:1")


# -- retry loop --------------------------------------------------------------------


def _ok(payload):
    return (200, payload)


def test_connection_errors_are_retried_until_success():
    backend = RemoteStoreBackend(URL)
    calls = _scripted(
        backend,
        [ConnectionRefusedError("down"), ConnectionResetError("mid"), _ok({"found": [], "entries": 7})],
    )
    assert backend.lookup("e", ["f"]) == []
    assert len(calls) == 3
    assert backend.entries_total == 7


def test_5xx_responses_are_retried():
    backend = RemoteStoreBackend(URL)
    calls = _scripted(backend, [(500, {"error": "boom"}), _ok({"entries": 0})])
    backend.compact()
    assert len(calls) == 2


def test_exhausted_retries_surface_as_remote_store_error(monkeypatch):
    monkeypatch.setenv(ENV_RPC_RETRIES, "3")
    backend = RemoteStoreBackend(URL)
    calls = _scripted(backend, [ConnectionRefusedError("down")] * 3)
    with pytest.raises(RemoteStoreError, match="after 3 attempts"):
        backend.lookup("e", ["f"])
    assert len(calls) == 3


def test_4xx_responses_are_never_retried():
    backend = RemoteStoreBackend(URL)
    calls = _scripted(backend, [(400, {"error": "bad payload"})])
    with pytest.raises(RemoteStoreError, match="bad payload"):
        backend.lookup("e", ["f"])
    assert len(calls) == 1, "a client error must not be replayed at the server"


def test_http_protocol_errors_count_as_connection_loss():
    backend = RemoteStoreBackend(URL)
    _scripted(
        backend,
        [http.client.BadStatusLine("garbage"), _ok({"entries": 0, "found": []})],
    )
    assert backend.lookup("e", ["f"]) == []


def test_rpc_knobs_come_from_the_environment(monkeypatch):
    monkeypatch.setenv(ENV_RPC_TIMEOUT, "0.75")
    monkeypatch.setenv(ENV_RPC_RETRIES, "9")
    backend = RemoteStoreBackend(URL)
    assert backend.timeout == 0.75
    assert backend.retries == 9
    monkeypatch.setenv(ENV_RPC_RETRIES, "not-a-number")
    monkeypatch.setenv(ENV_RPC_TIMEOUT, "")
    fallback = RemoteStoreBackend(URL)
    assert fallback.retries == 5 and fallback.timeout == 10.0


# -- idempotency keys --------------------------------------------------------------


def test_writes_carry_one_idempotency_key_across_retries():
    backend = RemoteStoreBackend(URL)
    calls = _scripted(
        backend,
        [ConnectionResetError("lost response"), (500, {}), _ok({"run": 3, "entries": 1})],
    )
    assert backend.commit_run(["e:f"]) == 3
    keys = {body["key"] for _op, body in calls}
    assert len(keys) == 1, "every retry must resend the same key verbatim"
    assert all(op == "commit_run" for op, _ in calls)


def test_each_logical_write_gets_a_fresh_key():
    backend = RemoteStoreBackend(URL)
    calls = _scripted(backend, [_ok({"dropped": 0, "entries": 0})] * 2)
    backend.gc(2)
    backend.gc(2)
    assert calls[0][1]["key"] != calls[1][1]["key"]


def test_reads_carry_no_idempotency_key():
    backend = RemoteStoreBackend(URL)
    calls = _scripted(backend, [_ok({"found": [], "entries": 0})])
    backend.lookup("e", ["f"])
    assert "key" not in calls[0][1]


# -- handshake verification --------------------------------------------------------


def _identity(**overrides):
    base = {
        "server": "pymarple-store-serve/1",
        "schema": SCHEMA_VERSION,
        "backend": "jsonl",
        "path": "/srv/store",
        "entries": 5,
        "runs": 2,
        "skipped": 0,
    }
    base.update(overrides)
    return base


def test_handshake_rejects_a_foreign_schema():
    backend = RemoteStoreBackend(URL)
    _scripted(backend, [_ok(_identity(schema="pymarple-store-v999"))])
    with pytest.raises(RemoteStoreError, match="schema"):
        backend.handshake()


def test_handshake_is_cached_after_the_first_success():
    backend = RemoteStoreBackend(URL)
    calls = _scripted(backend, [_ok(_identity())])
    first = backend.handshake()
    assert backend.handshake() is first
    assert len(calls) == 1


def test_an_unreachable_server_fails_the_store_open(monkeypatch):
    """ObligationStore surfaces a dead server as RemoteStoreError at open."""
    monkeypatch.setenv(ENV_RPC_RETRIES, "2")
    monkeypatch.setenv(ENV_RPC_TIMEOUT, "0.2")
    with pytest.raises(RemoteStoreError, match="unreachable"):
        ObligationStore("http://127.0.0.1:9")  # port 9: discard, nothing listens
