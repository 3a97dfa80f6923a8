"""Translation backends behind one batch contract, plus the file cache.

Every backend maps an ordered list of texts to an equally long list of
translations. The identity, dictionary, and scrambler backends are
deterministic stand-ins that make the pipeline testable offline; the HTTP
backend talks to any JSON service implementing the plain
``{"texts": [...], "source": ..., "target": ...}`` → ``{"translations":
[...]}`` protocol, one request at a time, with retries and a token-bucket
rate limit. Each ``backend_id`` names the backend's configuration.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import sys
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass
from urllib.parse import urlsplit, urlunsplit

import requests

from .placeholder import find_placeholders

log = logging.getLogger(__name__)

API_KEY_ENV = "TRANSPROJ_API_KEY"

# the request slot that translate_batch's caller holds, if any
_held_slot: ContextVar[threading.Semaphore | None] = ContextVar("_held_slot", default=None)


class BackendError(Exception):
    pass


class BackendUnavailable(BackendError):
    """Transport failure or HTTP error status after retries."""


class BackendProtocol(BackendError):
    """The service answered, but not with what the contract promises."""


class CacheCorrupt(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"cache line {line_no}: {reason}")
        self.line_no = line_no


class CacheLocked(RuntimeError):
    pass


@dataclass(frozen=True)
class TranslationRequest:
    texts: tuple[str, ...]
    source_lang: str
    target_lang: str

    def __post_init__(self):
        if not self.texts:
            raise ValueError("request carries no texts")
        if any(not t for t in self.texts):
            raise ValueError("request contains an empty text")
        if not self.source_lang or not self.target_lang:
            raise ValueError("language codes must be non-empty")


class Backend:
    """Batch translation contract: len(out) == len(texts), order preserved."""

    backend_id = "abstract"

    def translate(self, texts: list[str], source_lang: str, target_lang: str) -> list[str]:
        raise NotImplementedError


class IdentityBackend(Backend):
    """Returns every text verbatim."""

    backend_id = "identity"

    def translate(self, texts, source_lang, target_lang):
        return list(texts)


class DictionaryBackend(Backend):
    """Word-by-word lookup in a TSV map; unknown words pass through.

    Substrings matching the tolerant placeholder grammar are never touched,
    whatever the map contains. ``backend_id`` fingerprints the map.
    """

    def __init__(self, mapping: dict[str, str]):
        self._map = dict(mapping)
        blob = json.dumps(sorted(self._map.items()), ensure_ascii=False).encode("utf-8")
        self.backend_id = f"dict:{hashlib.sha256(blob).hexdigest()[:12]}"

    @classmethod
    def from_file(cls, path: str) -> "DictionaryBackend":
        mapping = {}
        # utf-8-sig: a byte order mark must not become part of the first source word
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if "\t" not in line:
                    raise ValueError(f"{path}:{line_no}: expected 'source<TAB>target'")
                src, tgt = line.split("\t", 1)
                mapping[src] = tgt
        return cls(mapping)

    def translate(self, texts, source_lang, target_lang):
        return [self._translate_text(t) for t in texts]

    def _translate_text(self, text: str) -> str:
        out = []
        last = 0
        for hit in find_placeholders(text):
            out.append(self._translate_segment(text[last:hit.start]))
            out.append(hit.text)
            last = hit.end
        out.append(self._translate_segment(text[last:]))
        return "".join(out)

    def _translate_segment(self, segment: str) -> str:
        parts = re.split(r"(\s+)", segment)
        return "".join(
            p if (not p or p.isspace()) else self._map.get(p, p) for p in parts
        )


class ScramblerBackend(Backend):
    """Deterministic word-order permutation: seed 0 reverses, seed k > 0
    rotates left by k mod word count. Exercises index realignment."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.backend_id = f"scramble-{seed}"

    def translate(self, texts, source_lang, target_lang):
        return [self.scramble(t) for t in texts]

    def scramble(self, text: str) -> str:
        words = text.split()
        if not words:
            return text
        if self.seed == 0:
            words = words[::-1]
        else:
            k = self.seed % len(words)
            words = words[k:] + words[:k]
        return " ".join(words)


class TokenBucket:
    """Classic token bucket; acquire() blocks until a token is available."""

    def __init__(self, rate: float, capacity: float | None = None):
        self.rate = float(rate)
        self.capacity = float(capacity if capacity is not None else max(1.0, rate))
        self._tokens = self.capacity
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


class HttpBackend(Backend):
    """Generic JSON translation service adapter.

    POSTs ``{"texts", "source", "target"}`` and expects ``{"translations":
    [...]}`` in input order. Texts are sent ``batch_size`` at a time, one
    request after another; transport errors and 5xx answers are retried
    with exponential backoff (doubling from ``backoff_base``) and jitter.
    ``backend_id`` is the URL without userinfo, query or fragment, followed
    by ``?`` and 12 hex digits of the SHA-256 of the query when there is
    one: two URLs share cache entries only when they differ in nothing but
    userinfo and fragment, and no secret in the query reaches a cache file
    in clear. A URL that is not a full, parseable ``http(s)://host/path``
    URL raises ValueError.
    """

    def __init__(
        self,
        url: str,
        *,
        api_key: str | None = None,
        batch_size: int = 32,
        retries: int = 3,
        backoff_base: float = 0.5,
        rate: float | None = 5.0,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        try:
            parts = urlsplit(url)
            parts.port  # raises on a port that is not a number in 0-65535
        except ValueError as exc:
            raise ValueError(f"http backend URL {url!r} does not parse: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"http backend needs a full http(s)://host/path URL, got {url!r}")
        self.url = url
        netloc = parts.netloc.rpartition("@")[2]
        query = parts.query and hashlib.sha256(parts.query.encode("utf-8", "surrogatepass")).hexdigest()[:12]
        self.backend_id = f"http:{urlunsplit((parts.scheme, netloc, parts.path, query, ''))}"
        self.batch_size = batch_size
        self.retries = retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._session = session or requests.Session()
        self._bucket = TokenBucket(rate) if rate else None

    def translate(self, texts, source_lang, target_lang):
        out = []
        for i in range(0, len(texts), self.batch_size):
            out += self._translate_chunk(texts[i:i + self.batch_size], source_lang, target_lang)
        return out

    def _translate_chunk(self, chunk, source_lang, target_lang):
        headers = {}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        payload = {"texts": list(chunk), "source": source_lang, "target": target_lang}

        # error texts name the endpoint by backend_id and a transport error
        # by its class: the URL and the exception text may hold credentials
        last_error = ""
        for attempt in range(self.retries + 1):
            if attempt:
                delay = self.backoff_base * 2 ** (attempt - 1)
                slot = _held_slot.get()
                if slot is not None:
                    slot.release()  # another batch may send while this one waits
                try:
                    time.sleep(delay * (1.0 + 0.25 * random.random()))
                finally:
                    if slot is not None:
                        slot.acquire()
            if self._bucket is not None:
                self._bucket.acquire()
            try:
                resp = self._session.post(
                    self.url, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = type(exc).__name__
                continue
            if resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                continue
            if resp.status_code != 200:
                raise BackendUnavailable(f"HTTP {resp.status_code} from {self.backend_id}")
            return self._parse_response(resp, len(chunk))
        raise BackendUnavailable(
            f"giving up on {self.backend_id} after {self.retries + 1} attempts: {last_error}"
        )

    def _parse_response(self, resp, expected: int):
        try:
            body = resp.json()
        except ValueError as exc:
            raise BackendProtocol(f"non-JSON response from {self.backend_id}") from exc
        translations = body.get("translations") if isinstance(body, dict) else None
        if not isinstance(translations, list):
            raise BackendProtocol('response lacks a "translations" list')
        if len(translations) != expected or not all(isinstance(t, str) for t in translations):
            raise BackendProtocol(
                f"expected {expected} string translations, got {translations!r:.120}"
            )
        return translations


class TranslationCache:
    """Append-only JSONL translation memory.

    One object per line with keys backend_id, source_lang, target_lang,
    source_text, target_text. The file is indexed in memory on open (last
    write wins on duplicate keys); lookups are lock-free, appends go through
    a single writer lock. An advisory flock keeps concurrent runs off the
    same file.

    ``scope=(backend_id, source_lang, target_lang)`` indexes only that
    scope's entries, and a lookup or store outside it raises ValueError.
    Every line is still parsed, so ``corrupt_lines`` covers all scopes.
    ``scope=None`` indexes every scope. ``entries_loaded`` is the number of
    entries indexed from the file.

    With ``path=None`` the cache lives in memory only: no file, no lock,
    and ``store`` only updates the index.
    """

    # Bytes read per block on load. Decoding the whole file at once would
    # hold it twice over in memory; 64 KB blocks also stay small enough to
    # reuse heap memory, where 256 KB ones took ~3,300 page faults per load
    # of a 7 MB file.
    _CHUNK = 64 * 1024

    def __init__(self, path: str | None = None,
                 scope: tuple[str, str, str] | None = None):
        self.path = path
        self.scope = tuple(scope) if scope is not None else None
        self.corrupt_lines: list[int] = []
        self.entries_loaded = 0
        self._index: dict[tuple[str, str, str, str], str] = {}
        self._write_lock = threading.Lock()
        # set by _load when a crash left the last line without its newline
        self._torn_tail = False
        self._fh = None
        if path is None:
            return
        self._fh = open(path, "a+b")
        try:
            import fcntl

            try:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                self._fh.close()
                raise CacheLocked(f"another run holds {path}")
        except ImportError:  # non-POSIX: proceed unlocked
            pass
        self._load()

    def _load(self):
        scope, index = self.scope, self._index
        # head of a line in store() form -> its (backend_id, source_lang,
        # target_lang), or () when that is outside the scope; a file holds
        # few distinct heads but many lines
        heads: dict[str, tuple[str, ...]] = {}
        line_no = 0
        line = b""
        self._fh.seek(0)
        while lines := self._fh.readlines(self._CHUNK):
            try:
                rows = self._BLOCK_LINES.findall(b"".join(lines).decode("utf-8"))
            except UnicodeDecodeError:
                # no row in store() form: _parse_line decodes line by line
                rows = [("",) * 4] * len(lines)
            # a block ending in "\n" yields one empty row too many; zip drops it
            for line, (head, source_text, target_text, _) in zip(lines, rows):
                line_no += 1
                if head:
                    prefix = heads.get(head)
                    if prefix is None:
                        # the head's values hold no quote: every fourth piece
                        prefix = tuple(map(sys.intern, head.split('"')[3::4]))
                        prefix = heads[head] = prefix if scope is None or prefix == scope else ()
                    if prefix:
                        index[(*prefix, source_text)] = target_text
                    continue
                if not line.strip():
                    continue
                try:
                    key, value = self._parse_line(line, line_no)
                except CacheCorrupt as exc:
                    log.warning("skipping %s", exc)
                    self.corrupt_lines.append(line_no)
                    continue
                if scope is None or key[:3] == scope:
                    index[key] = value
        self._torn_tail = bool(line) and not line.endswith(b"\n")
        self.entries_loaded = len(index)
        self._fh.seek(0, os.SEEK_END)

    _FIELDS = ("backend_id", "source_lang", "target_lang", "source_text", "target_text")
    # One row per line of a block. A line in the exact form ``store`` writes
    # when no value needs a JSON escape gives its head, up to the source_text
    # key, and its last two values, which are the strings ``json.loads`` would
    # return; any other line is the last group.
    _BLOCK_LINES = re.compile(
        "^(?:({" + "".join(rf'"{f}": "[^"\\\x00-\x1f]*", ' for f in _FIELDS[:3]) + ")"
        + ", ".join(rf'"{f}": "([^"\\\x00-\x1f]*)"' for f in _FIELDS[3:]) + "}|(.*))$",
        re.MULTILINE,
    )

    @staticmethod
    def _parse_line(line: bytes, line_no: int) -> tuple[tuple[str, str, str, str], str]:
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CacheCorrupt(line_no, f"not valid UTF-8 ({exc})") from exc
        try:
            record = json.loads(text)
        except ValueError as exc:
            raise CacheCorrupt(line_no, f"not valid JSON ({exc})") from exc
        values = [record.get(f) for f in TranslationCache._FIELDS] if isinstance(record, dict) else [None]
        if not all(isinstance(v, str) for v in values):
            raise CacheCorrupt(line_no, "missing or non-string record fields")
        backend_id, source_lang, target_lang, source_text, target_text = values
        # a file holds few distinct ids and language codes but many lines
        key = (sys.intern(backend_id), sys.intern(source_lang), sys.intern(target_lang), source_text)
        return key, target_text

    def _check_scope(self, backend_id: str, source_lang: str, target_lang: str) -> None:
        if (backend_id, source_lang, target_lang) != self.scope:
            raise ValueError(
                f"{(backend_id, source_lang, target_lang)!r} is outside the cache scope {self.scope!r}"
            )

    def lookup(self, backend_id: str, source_lang: str, target_lang: str, text: str) -> str | None:
        if self.scope is not None:
            self._check_scope(backend_id, source_lang, target_lang)
        return self._index.get((backend_id, source_lang, target_lang, text))

    def store(self, backend_id: str, source_lang: str, target_lang: str, text: str, translation: str) -> None:
        if self.scope is not None:
            self._check_scope(backend_id, source_lang, target_lang)
        if self._fh is None:
            self._index[(backend_id, source_lang, target_lang, text)] = translation
            return
        record = {
            "backend_id": backend_id,
            "source_lang": source_lang,
            "target_lang": target_lang,
            "source_text": text,
            "target_text": translation,
        }
        line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        with self._write_lock:
            if self._torn_tail:
                # end the partial line, or this record would be glued onto it
                line = b"\n" + line
                self._torn_tail = False
            self._fh.write(line)
            self._fh.flush()
            self._index[(backend_id, source_lang, target_lang, text)] = translation

    def close(self):
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def MemoryCache() -> TranslationCache:
    """An in-memory translation memo, ``TranslationCache(None)``."""
    return TranslationCache(None)


@dataclass
class BackendCounters:
    """Tallies for the run report, kept by ``project_split`` on its calling thread."""

    cache_hits: int = 0
    backend_calls: int = 0
    texts_translated: int = 0

    def add(self, *, hits: int = 0, calls: int = 0, texts: int = 0):
        self.cache_hits += hits
        self.backend_calls += calls
        self.texts_translated += texts


def translate_batch(request: TranslationRequest, backend: Backend,
                    slot: threading.Semaphore | None = None) -> list[str]:
    """One ``backend.translate`` call for request.texts, checked to return one
    translation per text. ``HttpBackend`` releases ``slot``, a request slot
    the caller holds, while it waits out a retry backoff."""
    token = _held_slot.set(slot)
    try:
        translated = backend.translate(list(request.texts), request.source_lang, request.target_lang)
    finally:
        _held_slot.reset(token)
    if len(translated) != len(request.texts):
        raise BackendProtocol(
            f"backend returned {len(translated)} translations for {len(request.texts)} texts"
        )
    return translated
