"""``repro store serve`` — a shared obligation store over HTTP.

:class:`StoreHTTPServer` puts threaded JSON-over-HTTP in front of one
:class:`~repro.store.service.StoreService`: ``POST /<op>`` with a JSON
object body runs that op (``GET /handshake`` too, for curl), so a CI fleet
(or many watch sessions) on different machines hit one warm cache with
exactly a local store's semantics — the service is the same code a local
store path calls in-process.  Malformed requests and validation failures
answer 400 (never retried by the client), unknown ops 404, anything else
500.

HTTP handling is threaded (:class:`ThreadingHTTPServer`), so slow clients
and long-polls never block the accept loop; only the service's critical
section is serial.  Responses advertise HTTP/1.1 keep-alive, so a pulling
worker's small queue RPCs reuse one TCP connection instead of paying a
connect each.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator

from ..obs.logs import get_logger
from .service import ENV_SERVE_CRASH, SERVER_NAME, StoreService, UnknownOperation

__all__ = [
    "ENV_SERVE_CRASH",
    "StoreHTTPServer",
    "StoreService",
    "serve_in_thread",
]

logger = get_logger("store")

#: how often a :func:`serve_in_thread` loop checks for shutdown, i.e. the
#: longest ``shutdown()`` waits (``serve_forever``'s own default is 0.5 s)
_SERVE_POLL_SECONDS = 0.05


class _StoreRequestHandler(BaseHTTPRequestHandler):
    server_version = SERVER_NAME
    #: HTTP/1.1 so keep-alive works: clients reuse one connection per
    #: process instead of paying a TCP connect per RPC (every reply already
    #: carries an exact Content-Length)
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a reply goes out as two small writes (header block, then
    #: body); on a kept-alive connection Nagle would hold the second write
    #: until the client's delayed ACK (~40ms per RPC — dwarfing the op itself)
    disable_nagle_algorithm = True

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _dispatch(self, op: str, payload: dict) -> None:
        try:
            result = self.server.service.execute(op, payload)
        except UnknownOperation as exc:
            self._reply(404, {"error": str(exc)})
        except (ValueError, KeyError, TypeError) as exc:
            # malformed requests and validation failures are the client's
            # fault and must not be retried
            detail = str(exc) or type(exc).__name__
            self._reply(400, {"error": detail})
        except Exception as exc:  # pragma: no cover - defensive 5xx surface
            logger.warning("store op %s failed: %s", op, exc)
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply(200, result)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        op = self.path.strip("/")
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "request body is not JSON"})
            return
        if not isinstance(payload, dict):
            self._reply(400, {"error": "request body must be a JSON object"})
            return
        self._dispatch(op, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        # the one curl-able endpoint: identity without a POST body
        if self.path.strip("/") == "handshake":
            self._dispatch("handshake", {})
        else:
            self._reply(404, {"error": "POST JSON to /<operation>"})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("http %s", format % args)


class StoreHTTPServer(ThreadingHTTPServer):
    """The serving loop: threaded HTTP in front of one :class:`StoreService`."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: StoreService) -> None:
        super().__init__(address, _StoreRequestHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        if host in ("0.0.0.0", "::", ""):
            host = "127.0.0.1"
        return f"http://{host}:{port}"


@contextmanager
def serve_in_thread(server: StoreHTTPServer) -> Iterator[StoreHTTPServer]:
    """Serve ``server`` on a daemon thread for the ``with`` body.

    On exit the loop is shut down (within one poll interval), its thread
    joined and the listening socket closed, so the port refuses connections
    once the block is left.  The wrapped :class:`StoreService` stays open:
    whoever made it closes it.
    """
    loop = threading.Thread(
        target=server.serve_forever, args=(_SERVE_POLL_SECONDS,), daemon=True
    )
    loop.start()
    try:
        yield server
    finally:
        server.shutdown()
        loop.join()
        server.server_close()
