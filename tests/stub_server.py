"""A local chat/completions stub server for exercising the HTTP backend."""

from __future__ import annotations

import json
import socket
import threading
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict


@dataclass(frozen=True)
class ErrorWithHeaders:
    """An HTTP error status sent with extra response headers."""

    status: int
    headers: Dict[str, str]


@dataclass(frozen=True)
class ThenHangUp:
    """Serve ``action``, then close the connection without having announced
    it with ``Connection: close``, as a server does to an idle keep-alive
    connection."""

    action: object


class StubServer:
    """Serves canned chat-completions responses with injectable failures.

    ``plan(...)`` queues per-request behaviors; each entry is an HTTP error
    status (int), an ``ErrorWithHeaders``, a raw 200 response body (bytes),
    a (content, prompt_tokens, completion_tokens) tuple, or a ``ThenHangUp``
    around one of these.  When the queue is empty a default 200 response is
    served.  Connections are HTTP/1.1 keep-alive.  ``requests`` holds each
    request's JSON body; ``paths`` its request target and ``ports`` the
    client port of its connection.  ``hung_up`` is set once a ``ThenHangUp``
    has closed its connection.
    """

    def __init__(self):
        self.requests = []
        self.paths = []
        self.ports = []
        self.hung_up = threading.Event()
        self._queue = deque()
        self._lock = threading.Lock()
        self.default = ("stub answer", 7, 3)

        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Headers and body go out in two writes: without Nagle's delay the
            # second one does not wait on the client's delayed ACK.
            disable_nagle_algorithm = True

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with stub._lock:
                    stub.requests.append(body)
                    stub.paths.append(self.path)
                    stub.ports.append(self.client_address[1])
                    action = stub._queue.popleft() if stub._queue else stub.default
                if isinstance(action, ThenHangUp):
                    self.respond(action.action)
                    self.connection.shutdown(socket.SHUT_RDWR)
                    self.close_connection = True
                    stub.hung_up.set()
                else:
                    self.respond(action)

            def respond(self, action):
                if isinstance(action, int):
                    action = ErrorWithHeaders(action, {})
                if isinstance(action, ErrorWithHeaders):
                    payload = json.dumps({"error": f"injected {action.status}"}).encode()
                    self.send_response(action.status)
                    for name, value in action.headers.items():
                        self.send_header(name, value)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                    return
                if isinstance(action, bytes):
                    payload = action
                else:
                    content, prompt_tokens, completion_tokens = action
                    payload = json.dumps(
                        {
                            "choices": [{"message": {"content": content}}],
                            "usage": {
                                "prompt_tokens": prompt_tokens,
                                "completion_tokens": completion_tokens,
                            },
                        }
                    ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):  # keep test output quiet
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll, so that stop() does not wait out serve_forever's 0.5 s default.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @property
    def url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def plan(self, *actions) -> None:
        with self._lock:
            self._queue.extend(actions)

    @property
    def request_count(self) -> int:
        with self._lock:
            return len(self.requests)

    def start(self) -> "StubServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
