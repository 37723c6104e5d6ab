"""A local chat/completions stub server for exercising the HTTP backend."""

from __future__ import annotations

import json
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


class StubServer:
    """Serves canned chat-completions responses with injectable failures.

    ``plan(...)`` queues per-request behaviors; each entry is an HTTP error
    status (int), an ``ErrorWithHeaders``, a raw 200 response body (bytes),
    or a (content, prompt_tokens, completion_tokens) tuple.  When the queue
    is empty a default 200 response is served.
    """

    def __init__(self):
        self.requests = []
        self._queue = deque()
        self._lock = threading.Lock()
        self.default = ("stub answer", 7, 3)

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with stub._lock:
                    stub.requests.append(body)
                    action = stub._queue.popleft() if stub._queue else stub.default
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
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

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
