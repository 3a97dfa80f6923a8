"""Loopback stub of a JSON translation service, with latency and faults injected.

    python3 bench/stub_service.py --dict DICT.tsv

Serves ``POST /translate`` with the protocol ``HttpBackend`` speaks: the
request ``{"texts", "source", "target"}`` is answered with ``{"translations"}``,
each text mapped word by word through the dictionary (unknown words pass
through), after a fixed ``LATENCY_S``. It binds 127.0.0.1 on a free port and
prints the port as its first line of output.

Faults are keyed on the request's content and on how many times the same
payload was sent before (its attempt number), never on arrival order, so a
run sees the same faults at any concurrency. ``FAULTS`` maps a word to a
rule; a payload whose texts contain the word is answered:

- ``{"status": 503, "attempts": k}``: 503 on its first k attempts, then 200;
- ``{"status": 429, "attempts": k}``: 429 on its first k attempts, then 200;
- ``{"status": 400}``: 400 on every attempt.

When several rules match, 400 wins over 429 and 429 over 503.

``GET /stats`` returns the counts since the last ``POST /reset``: POSTs to
/translate, characters of text received, answers by status, and retried
payloads (POSTs whose payload had been sent before).

Every response goes out in a single send: writing the headers and the body
separately meets Nagle's algorithm and delayed ACKs, which add tens of
milliseconds to each request.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_S = 0.05
# The benchmark plants each word in one sentence of its http_faults corpus.
FAULTS = {
    "qxtransient1": {"status": 503, "attempts": 1},
    "qxtransient2": {"status": 503, "attempts": 1},
    "qxthrottle1": {"status": 429, "attempts": 1},
    "qxthrottle2": {"status": 429, "attempts": 1},
    "qxreject": {"status": 400},
}
_PRECEDENCE = {400: 3, 429: 2, 503: 1}


class Stub:
    def __init__(self, dictionary: dict[str, str], faults: dict[str, dict] = FAULTS):
        self.dictionary = dictionary
        self.faults = faults
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.posts = 0
            self.chars = 0
            self.statuses: Counter = Counter()
            self.retried = 0
            self._attempts: Counter = Counter()

    def stats(self) -> dict:
        with self._lock:
            return {
                "posts": self.posts,
                "chars": self.chars,
                "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
                "retried": self.retried,
            }

    def answer(self, body: dict) -> tuple[int, dict]:
        texts = body["texts"]
        key = json.dumps([texts, body["source"], body["target"]], ensure_ascii=False)
        with self._lock:
            attempt = self._attempts[key]
            self._attempts[key] += 1
            self.posts += 1
            self.chars += sum(len(t) for t in texts)
            if attempt:
                self.retried += 1
        words = {w for t in texts for w in t.split()}
        firing = [rule["status"] for word, rule in self.faults.items()
                  if word in words and (rule["status"] == 400 or attempt < rule.get("attempts", 0))]
        status = max(firing, key=_PRECEDENCE.__getitem__, default=200)
        with self._lock:
            self.statuses[status] += 1
        if status != 200:
            return status, {"error": f"injected {status}"}
        d = self.dictionary
        return 200, {"translations": [" ".join(d.get(w, w) for w in t.split(" ")) for t in texts]}


def make_handler(stub: Stub):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _reply(self, status: int, doc: dict) -> None:
            payload = json.dumps(doc, ensure_ascii=False).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("ascii")
            self.wfile.write(head + payload)

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                stub.reset()
                self._reply(200, {})
                return
            if self.path != "/translate":
                self._reply(404, {"error": "not found"})
                return
            status, doc = stub.answer(json.loads(body))
            time.sleep(LATENCY_S)
            self._reply(status, doc)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, stub.stats())
            else:
                self._reply(404, {"error": "not found"})

        def log_message(self, *args):
            pass

    return Handler


def load_dictionary(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            src, _, tgt = line.rstrip("\n").partition("\t")
            if src:
                out[src] = tgt
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dict", required=True, help="source<TAB>target dictionary")
    args = ap.parse_args(argv)
    stub = Stub(load_dictionary(args.dict))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(stub))
    server.daemon_threads = True
    print(server.server_port, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
