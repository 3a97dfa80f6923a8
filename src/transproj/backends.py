"""Translation backends behind one batch contract, plus the file cache.

Every backend maps an ordered list of texts to an equally long list of
translations; one ``project_split`` batch is one ``translate`` call per
attempt. A backend raises ``BackendTransient`` for a failure worth another
attempt; ``project_split`` makes the attempts its ``retries`` and
``backoff_base`` ask for, at the rate its ``limiter`` allows. The identity,
dictionary, and scrambler backends are deterministic stand-ins that make
the pipeline testable offline; the HTTP backend talks to any JSON service
implementing the plain ``{"texts": [...], "source": ..., "target": ...}``
→ ``{"translations": [...]}`` protocol, one request per call, its
``limiter`` a token bucket. ``backend_id`` names a backend's configuration.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING
from urllib.parse import urlsplit, urlunsplit

from .placeholder import find_placeholders

if TYPE_CHECKING:  # only HttpBackend imports requests, so no other run pays for it
    import requests

log = logging.getLogger(__name__)

API_KEY_ENV = "TRANSPROJ_API_KEY"

_LONE_SURROGATE = re.compile("[\ud800-\udfff]")
_WHITESPACE_RUN = re.compile(r"(\s+)")


class BackendError(Exception):
    pass


class BackendUnavailable(BackendError):
    """Transport failure or HTTP error status."""


class BackendTransient(BackendUnavailable):
    """A failure that another attempt may get past: a transport error or a
    5xx answer. Its text is the cause alone, such as ``HTTP 503`` or the
    transport exception's class name."""


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
    """Batch translation contract: len(out) == len(texts), order preserved.

    ``project_split`` makes up to ``retries + 1`` attempts at a batch whose
    call raises ``BackendTransient``, waiting ``backoff_base * 2**(n - 1)``
    seconds plus up to 25 % jitter before attempt n + 1, and takes a token
    from ``limiter`` (a ``TokenBucket``, or None) before each attempt. The
    longest of those waits must pass ``backoff_fits``.
    """

    backend_id = "abstract"
    retries = 0
    backoff_base = 0.0
    limiter = None

    def translate(self, texts: list[str], source_lang: str, target_lang: str) -> list[str]:
        raise NotImplementedError


def backoff_fits(retries: int, backoff_base: float) -> bool:
    """Whether the longest wait between attempts,
    ``backoff_base * 2**(retries - 1)`` seconds plus 25 % jitter, is one the
    platform can make: from 0 to ``threading.TIMEOUT_MAX``. Without retries
    there is no wait. The bound is halved per retry instead of the wait
    doubled, so nothing overflows."""
    return retries < 1 or 0 <= backoff_base * 1.25 <= math.ldexp(threading.TIMEOUT_MAX, 1 - retries)


class IdentityBackend(Backend):
    """Returns every text verbatim."""

    backend_id = "identity"

    def translate(self, texts, source_lang, target_lang):
        return list(texts)


class DictionaryBackend(Backend):
    """Word-by-word lookup in a TSV map; unknown words pass through.

    Substrings matching the tolerant placeholder grammar are never touched,
    whatever the map contains. A text holding a bracket is scanned for
    placeholders once. A text of words between single spaces, the shape
    ``mask`` writes, whose placeholders are whole words, is looked up word
    by word with its placeholders kept; in any other text, each stretch
    between placeholders is split on whitespace runs. Both give the same
    translation.
    ``backend_id`` fingerprints the whole map, though its empty key is never
    looked up: a word is never empty. It is the SHA-256 of the UTF-8 bytes
    of ``json.dumps(sorted(mapping.items()), ensure_ascii=False)``, fed to
    the hash ``_SLICE`` sorted keys at a time, so neither that text nor the
    sorted item list is ever built whole.
    """

    # Sorted keys encoded per slice; small enough that a slice's JSON stays
    # a small share of the map itself.
    _SLICE = 1024

    def __init__(self, mapping: dict[str, str] | Iterable[tuple[str, str]]):
        self._map = dict(mapping)  # a caller's dict is copied, never changed
        keys = sorted(self._map)
        digest = hashlib.sha256(b"[")
        for start in range(0, len(keys), self._SLICE):
            if start:
                digest.update(b", ")
            part = [(key, self._map[key]) for key in keys[start:start + self._SLICE]]
            # the slice's items as json.dumps writes them inside the whole list
            digest.update(json.dumps(part, ensure_ascii=False)[1:-1].encode("utf-8"))
        digest.update(b"]")
        self.backend_id = f"dict:{digest.hexdigest()[:12]}"
        self._map.pop("", None)  # counted in the fingerprint, but an empty part must stay empty

    @classmethod
    def from_file(cls, path: str) -> "DictionaryBackend":
        def pairs():
            # utf-8-sig: a byte order mark must not become part of the first source word
            with open(path, encoding="utf-8-sig") as fh:
                for line_no, line in enumerate(fh, start=1):
                    line = line.rstrip("\n")
                    if not line:
                        continue
                    if "\t" not in line:
                        raise ValueError(f"{path}:{line_no}: expected 'source<TAB>target'")
                    yield line.split("\t", 1)
        # the pairs go straight into the one table __init__ builds
        return cls(pairs())

    def translate(self, texts, source_lang, target_lang):
        return [self._translate_text(t) for t in texts]

    def _translate_text(self, text: str) -> str:
        hits = find_placeholders(text) if "[" in text or "［" in text else ()  # every placeholder starts with one
        words = text.split()
        if " ".join(words) == text:  # words between single spaces, as mask writes them
            out = list(map(self._map.get, words, words))
            for _, start, _, found in hits:
                k = text.count(" ", 0, start)  # the word the placeholder starts in
                if words[k] != found:  # it starts or ends inside a word
                    break
                out[k] = found
            else:
                return " ".join(out)
        out = []
        last = 0
        for _, start, end, found in hits:
            out.append(self._translate_segment(text[last:start]))
            out.append(found)
            last = end
        out.append(self._translate_segment(text[last:]))
        return "".join(out)

    def _translate_segment(self, segment: str) -> str:
        # the even parts hold no whitespace, the odd ones are whitespace runs
        parts = _WHITESPACE_RUN.split(segment)
        words = parts[::2]
        parts[::2] = map(self._map.get, words, words)
        return "".join(parts)


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
    """Token bucket: acquire() waits for a token and takes it, or returns False once ``stop`` is set."""

    def __init__(self, rate: float, capacity: float | None = None):
        self.rate = float(rate)
        self.capacity = float(capacity if capacity is not None else max(1.0, rate))
        self._tokens = self.capacity
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self, stop: threading.Event | None = None) -> bool:
        stop = stop or threading.Event()
        while not stop.is_set():
            with self._lock:
                now = time.monotonic()
                self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return True
                wait = (1.0 - self._tokens) / self.rate
            stop.wait(wait)
        return False


class HttpBackend(Backend):
    """Generic JSON translation service adapter.

    POSTs ``{"texts", "source", "target"}`` and expects ``{"translations":
    [...]}`` in input order. One ``translate`` call is one request, sent at
    once: ``project_split(batch=...)`` batches, retries and paces it by
    ``limiter``. A transport error or a 5xx answer raises
    ``BackendTransient``, any other status but 200 ``BackendUnavailable``.
    ``backend_id`` is the URL without userinfo, query or fragment, followed
    by ``?`` and 12 hex digits of the SHA-256 of the query when there is
    one: two URLs share cache entries only when they differ in nothing but
    userinfo and fragment, and no secret in the query reaches a cache file
    in clear. A URL that is not a full, parseable ``http(s)://host/path``
    URL raises ValueError, as do a ``retries`` that is not an ``int`` >= 0
    (a ``bool`` is not one), a ``rate`` (``None`` or 0: no limit) or
    ``backoff_base`` that is negative, NaN or infinite, a ``timeout`` that
    is not > 0, and a ``timeout``, ``1 / rate`` or longest backoff (see
    ``backoff_fits``) above ``threading.TIMEOUT_MAX``: waits the platform
    cannot make.
    """

    def __init__(
        self,
        url: str,
        *,
        api_key: str | None = None,
        retries: int = 3,
        backoff_base: float = 0.5,
        rate: float | None = 5.0,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ):
        inf, most = float("inf"), threading.TIMEOUT_MAX  # NaN fails every comparison, so each test rejects it
        if not (type(retries) is int and retries >= 0 and (not rate or 1 / most <= rate < inf)
                and backoff_fits(retries, backoff_base) and 0 <= backoff_base < inf and 0 < timeout <= most):
            raise ValueError("http backend needs retries, rate and backoff_base >= 0 and timeout > 0, "
                             "all finite, retries an int, and timeout, 1 / rate and the longest backoff "
                             "<= threading.TIMEOUT_MAX")
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
        self.retries = retries
        self.backoff_base = backoff_base
        self.timeout = timeout
        api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        import requests

        self._session = session or requests.Session()
        self.limiter = TokenBucket(rate) if rate else None

    def translate(self, texts, source_lang, target_lang):
        if not texts:
            return []
        import requests

        payload = {"texts": list(texts), "source": source_lang, "target": target_lang}
        # error texts name the endpoint by backend_id and a transport error
        # by its class: the URL and the exception text may hold credentials
        try:
            resp = self._session.post(self.url, json=payload, headers=self._headers, timeout=self.timeout)
        except requests.RequestException as exc:
            raise BackendTransient(type(exc).__name__) from None
        if resp.status_code >= 500:
            raise BackendTransient(f"HTTP {resp.status_code}")
        if resp.status_code != 200:
            raise BackendUnavailable(f"HTTP {resp.status_code} from {self.backend_id}")
        return self._parse_response(resp, len(texts))

    def _parse_response(self, resp, expected: int):
        try:
            body = resp.json()
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise BackendProtocol(f"non-JSON response from {self.backend_id}") from exc
        translations = body.get("translations") if isinstance(body, dict) else None
        if not isinstance(translations, list):
            raise BackendProtocol('response lacks a "translations" list')
        return _checked_answer(translations, expected)


class TranslationCache:
    """Append-only JSONL translation memory, bound to one scope.

    One object per line with keys backend_id, source_lang, target_lang,
    source_text, target_text. ``scope=(backend_id, source_lang,
    target_lang)`` is fixed on open: only that scope's entries are indexed,
    by source text (last write wins on duplicates), and ``store`` writes
    records of that scope. A line in ``store`` form is indexed when its
    head, up to source_text, is the one ``store`` writes for this scope.
    Lines of other scopes are still checked, so ``corrupt_lines`` covers
    all scopes. ``entries_loaded`` is the number of entries indexed from
    the file. Lookups are lock-free, appends go through a single writer
    lock. An advisory flock keeps concurrent runs off the same file: a lock
    another run holds raises CacheLocked, any other lock failure its OSError.

    With ``path=None`` the cache lives in memory only: no file, no lock,
    and ``store`` only updates the index.
    """

    # Bytes read per block on load. Decoding the whole file at once would
    # hold it twice over in memory; 64 KB blocks also stay small enough to
    # reuse heap memory, where 256 KB ones took ~3,300 page faults per load
    # of a 7 MB file.
    _CHUNK = 64 * 1024

    def __init__(self, path: str | None, scope: tuple[str, str, str]):
        self.path = path
        self.scope = tuple(scope)
        self.corrupt_lines: list[int] = []
        self.entries_loaded = 0
        # source text -> translation, for this scope only
        self._index: dict[str, str] = {}
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
            except OSError as exc:
                self._fh.close()
                if isinstance(exc, BlockingIOError):  # EAGAIN: another process holds the lock
                    raise CacheLocked(f"another run holds {path}") from None
                raise
        except ImportError:  # non-POSIX: proceed unlocked
            pass
        self._load()

    def _load(self):
        scope, index = self.scope, self._index
        # the head store() writes for this scope, up to the source_text key; a
        # scope value that needs a JSON escape puts a backslash in it, which
        # _BLOCK_LINES never matches, so such lines take _parse_line below
        ours = json.dumps(dict(zip(self._FIELDS, scope)), ensure_ascii=False)[:-1] + ", "
        line_no = 0
        line = b""
        self._fh.seek(0)
        while lines := self._fh.readlines(self._CHUNK):
            # a byte that is not UTF-8 decodes to U+DC80-U+DCFF, which valid
            # UTF-8 never does and _BLOCK_LINES bars, so its line takes _parse_line
            rows = self._BLOCK_LINES.findall(b"".join(lines).decode("utf-8", "surrogateescape"))
            # a block ending in "\n" yields one empty row too many; zip drops it
            for line, (head, source_text, target_text, _) in zip(lines, rows):
                line_no += 1
                if head:
                    if head == ours:
                        index[source_text] = target_text
                    continue
                if not line.strip():
                    continue
                try:
                    key, value = self._parse_line(line, line_no)
                except CacheCorrupt as exc:
                    log.warning("skipping %s", exc)
                    self.corrupt_lines.append(line_no)
                    continue
                if key[:3] == scope:
                    index[key[3]] = value
        self._torn_tail = bool(line) and not line.endswith(b"\n")
        self.entries_loaded = len(index)

    # a record's keys, in the order ``store`` writes them and the loader matches them
    _FIELDS = ("backend_id", "source_lang", "target_lang", "source_text", "target_text")
    # One row per line of a block. A line in the exact form ``store`` writes
    # when no value needs a JSON escape gives its head, up to the source_text
    # key, and its last two values, which are the strings ``json.loads`` would
    # return; any other line is the last group.
    _BLOCK_LINES = re.compile(
        "^(?:({" + "".join(rf'"{f}": "[^"\\\x00-\x1f\udc80-\udcff]*", ' for f in _FIELDS[:3]) + ")"
        + ", ".join(rf'"{f}": "([^"\\\x00-\x1f\udc80-\udcff]*)"' for f in _FIELDS[3:]) + "}|(.*))$",
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
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise CacheCorrupt(line_no, f"not valid JSON ({exc})") from exc
        values = [record.get(f) for f in TranslationCache._FIELDS] if isinstance(record, dict) else [None]
        if not all(isinstance(v, str) for v in values):
            raise CacheCorrupt(line_no, "missing or non-string record fields")
        return tuple(values[:4]), values[4]

    def lookup(self, text: str) -> str | None:
        return self._index.get(text)

    def __getitem__(self, text: str) -> str:  # a stored translation, read back without a lookup
        return self._index[text]

    def store(self, text: str, translation: str) -> None:
        if self._fh is None:
            self._index[text] = translation
            return
        record = dict(zip(self._FIELDS, (*self.scope, text, translation)))
        line = (json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
        with self._write_lock:
            if self._torn_tail:
                # end the partial line, or this record would be glued onto it
                line = b"\n" + line
                self._torn_tail = False
            self._fh.write(line)
            self._fh.flush()
            self._index[text] = translation

    def close(self):
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _checked_answer(translated, expected: int):
    """``translated`` if it is a list or tuple of ``expected`` translations,
    each a string with a UTF-8 form; BackendProtocol otherwise."""
    # a str or dict has a length too, but zipping one with the texts would
    # pair each text with a character or a key
    if not isinstance(translated, (list, tuple)):
        raise BackendProtocol(f"backend returned a {type(translated).__name__}, not a list of translations")
    if len(translated) != expected:
        raise BackendProtocol(f"backend returned {len(translated)} translations for {expected} texts")
    if not all(isinstance(t, str) for t in translated):
        raise BackendProtocol(f"backend returned a translation that is not a string: {translated!r:.120}")
    # a lone surrogate (JSON can carry "\ud800") has no UTF-8 form; repr escapes it
    unencodable = next(filter(_LONE_SURROGATE.search, translated), None)
    if unencodable is not None:
        raise BackendProtocol(f"backend returned a translation that is not valid UTF-8: {unencodable!r:.120}")
    return translated


def translate_batch(request: TranslationRequest, backend: Backend) -> list[str]:
    """One ``backend.translate`` call for request.texts, checked to return
    a list or tuple of one string translation per text."""
    translated = backend.translate(list(request.texts), request.source_lang, request.target_lang)
    return _checked_answer(translated, len(request.texts))
