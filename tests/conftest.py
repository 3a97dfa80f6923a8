import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def fixture_paths() -> dict[str, Path]:
    return {name: DATA_DIR / f"fixture_{name}.conll" for name in ("train", "dev", "test")}


class StubTranslationServer:
    """Local identity translation service that counts requests.

    The first ``fail_first`` requests are answered with ``status``. Each
    request is held ``delay`` seconds before its answer. ``in_flight`` is
    the number of requests being handled and ``max_in_flight`` its
    high-water mark; a request leaves them before its answer is written,
    so they never count more requests than the client has waiting.
    """

    def __init__(self, fail_first: int = 0, transform=None, status: int = 503, delay: float = 0.0):
        self.request_count = 0
        self.seen_auth: list[str | None] = []
        self.in_flight = 0
        self.max_in_flight = 0
        self._fail_first = fail_first
        self._status = status
        self._delay = delay
        self._transform = transform or (lambda t: t)
        self._lock = threading.Condition()

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with stub._lock:
                    stub.request_count += 1
                    stub.seen_auth.append(self.headers.get("Authorization"))
                    should_fail = stub._fail_first > 0
                    if should_fail:
                        stub._fail_first -= 1
                    stub.in_flight += 1
                    stub.max_in_flight = max(stub.max_in_flight, stub.in_flight)
                    stub._lock.notify_all()
                if stub._delay:
                    # an event never set, not time.sleep, which tests patch to skip backoffs
                    threading.Event().wait(stub._delay)
                with stub._lock:
                    stub.in_flight -= 1
                    stub._lock.notify_all()
                if should_fail:
                    self.send_response(stub._status)
                    self.end_headers()
                    return
                payload = json.dumps(
                    {"translations": [stub._transform(t) for t in body["texts"]]}
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_port}/translate"
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def wait_for_in_flight(self, n: int, timeout: float) -> bool:
        """Whether ``n`` requests were in flight at once within ``timeout`` seconds."""
        with self._lock:
            return self._lock.wait_for(lambda: self.in_flight >= n, timeout)

    def close(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_server():
    servers = []

    def make(**kwargs) -> StubTranslationServer:
        server = StubTranslationServer(**kwargs)
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.close()
