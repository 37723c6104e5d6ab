"""Chat-completions stub server for the benchmark, run as its own process.

Usage: python3 bench/stub.py --latency-ms 50 --direct-per-mille 400

Prints ``PORT <n>`` on its first stdout line once it listens on 127.0.0.1.
``POST /v1/chat/completions`` sleeps the fixed latency, then answers with the
deterministic answer for the prompt and ``usage`` counts equal to the
whitespace tokens of prompt and answer.  ``GET /count`` returns the number of
completion requests served so far.  SIGTERM or the end of stdin stops it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import answers


def make_handler(latency_s: float, direct_per_mille: int, counter: dict, lock: threading.Lock):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, as real API servers offer
        # One buffered write per response and no Nagle delay, so a reply never
        # waits on the client's delayed ACK (about 40 ms on Linux).
        wbufsize = 1 << 16
        disable_nagle_algorithm = True

        def _send(self, status: int, payload: dict) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/count":
                self._send(404, {"error": "not found"})
                return
            with lock:
                self._send(200, {"requests": counter["requests"]})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            request = json.loads(self.rfile.read(length))
            with lock:
                counter["requests"] += 1
            prompt = request["messages"][0]["content"]
            time.sleep(latency_s)
            text = answers.answer(prompt, direct_per_mille)
            self._send(200, {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {
                    "prompt_tokens": len(prompt.split()),
                    "completion_tokens": len(text.split()),
                },
            })

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--latency-ms", type=float, required=True)
    parser.add_argument("--direct-per-mille", type=int, required=True)
    args = parser.parse_args()
    counter = {"requests": 0}
    handler = make_handler(args.latency_ms / 1000.0, args.direct_per_mille, counter, threading.Lock())
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    # Stdin closes when the benchmark process ends, however it ends.
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
