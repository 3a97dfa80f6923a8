import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transproj import backends
from transproj.backends import (
    BackendProtocol,
    BackendTransient,
    BackendUnavailable,
    CacheCorrupt,
    CacheLocked,
    DictionaryBackend,
    HttpBackend,
    IdentityBackend,
    ScramblerBackend,
    TokenBucket,
    TranslationCache,
    TranslationRequest,
    translate_batch,
)
from transproj.conll_io import DatasetSplit, parse_conll
from transproj.pipeline import REASON_BACKEND_FAILURE, AbortedRun, project_split
from transproj.placeholder import PLACEHOLDER_RE

from test_conll_io import sent


class RecordingBackend(IdentityBackend):
    backend_id = "recording"

    def __init__(self):
        self.calls = []

    def translate(self, texts, source_lang, target_lang):
        self.calls.append(list(texts))
        return list(texts)


# --- deterministic backends -------------------------------------------------


def test_identity_is_exact():
    backend = IdentityBackend()
    texts = ["a b", "[*0*]", "  odd  spacing "]
    assert backend.translate(texts, "en", "fa") == texts


def test_dictionary_word_lookup():
    backend = DictionaryBackend({"lives": "zendegi"})
    assert backend.translate(["John lives"], "en", "fa") == ["John zendegi"]


def test_dictionary_multiword_target():
    backend = DictionaryBackend({"quickly": "kheyli zood"})
    assert backend.translate(["go quickly now"], "en", "fa") == ["go kheyli zood now"]


def test_dictionary_never_touches_placeholders():
    # even a map that targets the placeholder or its digits must not fire
    backend = DictionaryBackend({"0": "X", "[*0*]": "Y", "[*": "Z"})
    assert backend.translate(["[*0*] stays"], "en", "fa") == ["[*0*] stays"]
    assert backend.translate(["[* 0 *] stays"], "en", "fa") == ["[* 0 *] stays"]


def word_by_word(mapping, segment):
    return "".join(p if not p or p.isspace() else mapping.get(p, p) for p in re.split(r"(\s+)", segment))


def reference_dictionary(mapping, text):
    """DictionaryBackend's rule with no shortcut: every text is scanned for
    placeholders, and each stretch between them is looked up word by word."""
    out, last = [], 0
    for m in PLACEHOLDER_RE.finditer(text):
        out += [word_by_word(mapping, text[last:m.start()]), m.group()]
        last = m.end()
    return "".join([*out, word_by_word(mapping, text[last:])])


DICT_WORDS = ["a", "b", "0", "1", "[", "*", "]", "[*", "*]", "[*0*]", "[ *1* ]", "[ * 1 * ]", "x[*2*]y", "٣",
              "［*0*］", "[\u200c*0*]", "[＊۰＊]", "[*0*]]", "[foo"]


@given(
    st.lists(st.tuples(st.sampled_from(DICT_WORDS),
                       st.sampled_from(["", " ", "\t", "  ", "\u3000", "\u2028", "\x1c"]))),
    st.dictionaries(st.sampled_from(["", *DICT_WORDS]), st.sampled_from(["", "A", "B C", "[*9*]"])),
)
@example([("[ * 1 * ]", " "), ("a", "")], {"[": "A", "1": "B", "": "C"})
# single spaces only, as mask writes: whole-word placeholders kept and
# bracketed words that are none looked up by the word path, then a
# placeholder inside a word sending the text down the segment path (as the
# first example's placeholder spanning words does)
@example([("a", " "), ("［*0*］", " "), ("[\u200c*0*]", " "), ("b", "")], {"a": "A", "［*0*］": "B", "b": "[*9*]"})
@example([("[*0*]", " "), ("a", " "), ("[*0*]]", " "), ("1", "")], {"[*0*]": "A", "a": "B C", "1": "[*9*]"})
@example([("a", " "), ("[foo", " "), ("*0*]", "")], {"a": "A", "[foo": "B"})
@example([("a", " "), ("x[*2*]y", "")], {"a": "A", "x": "B", "x[*2*]y": "C"})
def test_dictionary_matches_word_by_word_reference(parts, mapping):
    text = "".join(word + space for word, space in parts)
    assert DictionaryBackend(mapping).translate([text], "en", "fa") == [reference_dictionary(mapping, text)]


def test_dictionary_from_file(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("a\tA\n\nb\tB with spaces\n\n", encoding="utf-8")
    backend = DictionaryBackend.from_file(str(path))
    assert backend.translate(["a b"], "en", "fa") == ["A B with spaces"]


def test_dictionary_file_with_a_byte_order_mark_matches_its_first_entry(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_bytes("\ufeffJohn\tجان\nlives\tzendegi\n".encode("utf-8"))
    backend = DictionaryBackend.from_file(str(path))
    assert backend.translate(["John lives"], "en", "fa") == ["جان zendegi"]


def test_dictionary_file_rejects_ragged_line(tmp_path):
    path = tmp_path / "map.tsv"
    path.write_text("a\tA\nnotab\n", encoding="utf-8")
    with pytest.raises(ValueError, match="2"):
        DictionaryBackend.from_file(str(path))


def test_dictionary_backend_id_fingerprints_the_whole_map_and_never_looks_up_an_empty_word(data_dir):
    assert DictionaryBackend.from_file(str(data_dir / "dict_en_fa.tsv")).backend_id == "dict:4dbbb2814cc8"
    # the empty key still counts in the fingerprint, though a word is never empty
    backend = DictionaryBackend({"": "C", "a": "A"})
    assert backend.backend_id == "dict:cc35031f8353"
    assert backend.translate([" a  b ", "[*0*] a"], "en", "fa") == [" A  b ", "[*0*] A"]


# quotes, backslashes and control characters take JSON escapes; the rest are
# written as they are under ensure_ascii=False, non-BMP characters as 4 UTF-8 bytes
FINGERPRINT_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t a\u00e9\u0645\u2028\U0001f600\U00010000'),
                           max_size=4) | st.text(max_size=4)


@given(st.dictionaries(st.just("") | FINGERPRINT_TEXT, FINGERPRINT_TEXT, max_size=6))
@example({})
def test_dictionary_backend_id_is_the_hash_of_its_sorted_items_as_json_at_any_slice_size(mapping):
    blob = json.dumps(sorted(mapping.items()), ensure_ascii=False).encode("utf-8")
    expected = "dict:" + hashlib.sha256(blob).hexdigest()[:12]
    for size in (1, 2, DictionaryBackend._SLICE):
        with mock.patch.object(DictionaryBackend, "_SLICE", size):
            assert DictionaryBackend(mapping).backend_id == expected


def test_scrambler_reverses_with_seed_zero():
    backend = ScramblerBackend(0)
    assert backend.translate(["[*0*] x [*1*]"], "en", "fa") == ["[*1*] x [*0*]"]


def test_scrambler_rotates_with_positive_seed():
    backend = ScramblerBackend(2)
    assert backend.translate(["a b c d e"], "en", "fa") == ["c d e a b"]


def test_scrambler_deterministic():
    a = ScramblerBackend(3).translate(["w x y z"], "en", "fa")
    b = ScramblerBackend(3).translate(["w x y z"], "en", "fa")
    assert a == b


# --- request + batch contract ------------------------------------------------


@pytest.mark.parametrize("backend", [
    IdentityBackend(),
    DictionaryBackend({"a": "x y", "b": ""}),
    ScramblerBackend(0),
    ScramblerBackend(5),
])
def test_every_backend_preserves_cardinality(backend):
    texts = ["a", "a b c", "[*0*] a", "solo"]
    out = backend.translate(texts, "en", "fa")
    assert len(out) == len(texts)
    assert all(isinstance(t, str) for t in out)


def test_request_invariants():
    with pytest.raises(ValueError):
        TranslationRequest((), "en", "fa")
    with pytest.raises(ValueError):
        TranslationRequest(("a", ""), "en", "fa")
    with pytest.raises(ValueError):
        TranslationRequest(("a",), "", "fa")


def test_translate_batch_cardinality_and_order():
    out = translate_batch(TranslationRequest(("b", "a", "b"), "en", "fa"), IdentityBackend())
    assert out == ["b", "a", "b"]


def test_translate_batch_checks_cardinality():
    class DropsOne(IdentityBackend):
        def translate(self, texts, source_lang, target_lang):
            return list(texts)[1:]

    with pytest.raises(BackendProtocol):
        translate_batch(TranslationRequest(("a", "b"), "en", "fa"), DropsOne())


def test_translate_batch_checks_each_translation_is_a_string():
    class AnswersNone(IdentityBackend):
        def translate(self, texts, source_lang, target_lang):
            return ["a", None]

    with pytest.raises(BackendProtocol, match="not a string"):
        translate_batch(TranslationRequest(("a", "b"), "en", "fa"), AnswersNone())


def split_of(*tokens):
    """One untagged sentence per token, so each token is one text to translate."""
    return DatasetSplit("train", [sent([t], ["O"], origin=i) for i, t in enumerate(tokens)])


def test_project_split_uses_cache(tmp_path):
    backend = RecordingBackend()
    path = str(tmp_path / "cache.jsonl")
    reports = []
    for _ in range(2):
        with TranslationCache(path, ("recording", "en", "fa")) as cache:
            reports.append(project_split(split_of("x", "y"), backend, "en", "fa", cache=cache)[2])
    assert backend.calls == [["x", "y"]]
    first, second = (r.counters for r in reports)
    assert (first.backend_calls, first.texts_translated, first.cache_hits) == (1, 2, 0)
    assert (second.backend_calls, second.texts_translated, second.cache_hits) == (0, 0, 2)


# --- cache --------------------------------------------------------------------

G = ("g", "en", "fa")


def test_cache_store_then_lookup(tmp_path):
    with TranslationCache(str(tmp_path / "c.jsonl"), G) as cache:
        cache.store("x", "y")
        assert cache.lookup("x") == "y"


def test_cache_miss_on_empty(tmp_path):
    with TranslationCache(str(tmp_path / "c.jsonl"), G) as cache:
        assert cache.lookup("x") is None


def test_cache_last_write_wins_on_reload(tmp_path):
    path = str(tmp_path / "c.jsonl")
    with TranslationCache(path, G) as cache:
        cache.store("x", "y")
        cache.store("x", "z")
    with TranslationCache(path, G) as cache:
        assert cache.lookup("x") == "z"


def test_cache_key_includes_backend_and_langs(tmp_path):
    path = str(tmp_path / "c.jsonl")
    with TranslationCache(path, G) as cache:
        cache.store("x", "y")
    for scope in (("h", "en", "fa"), ("g", "en", "de")):
        with TranslationCache(path, scope) as cache:
            assert cache.lookup("x") is None
    with TranslationCache(path, G) as cache:
        assert cache.lookup("x") == "y"


def test_cache_corrupt_line_is_skipped_but_rest_loads(tmp_path):
    path = tmp_path / "c.jsonl"
    def record(src):
        return json.dumps({"backend_id": "g", "source_lang": "en", "target_lang": "fa",
                           "source_text": src, "target_text": "y"})

    # line 4 is nested too deep for the JSON decoder
    path.write_text(f"{record('x')}\nnot json at all\n{record('a')}\n{'[' * 100_000}\n{record('b')}\n",
                    encoding="utf-8")
    with TranslationCache(str(path), G) as cache:
        assert cache.corrupt_lines == [2, 4]
        assert cache._index == {"x": "y", "a": "y", "b": "y"}


def test_cache_store_after_torn_tail_survives_reload(tmp_path):
    path = tmp_path / "c.jsonl"
    whole = json.dumps({"backend_id": "g", "source_lang": "en", "target_lang": "fa",
                        "source_text": "x", "target_text": "y"})
    # a crash mid-append leaves the last record cut off, with no newline
    path.write_text(whole + "\n" + whole[:20], encoding="utf-8")
    with TranslationCache(str(path), G) as cache:
        assert cache.corrupt_lines == [2]
        cache.store("a", "b")
    with TranslationCache(str(path), G) as cache:
        assert cache.lookup("a") == "b"
        assert cache.lookup("x") == "y"
        assert cache.corrupt_lines == [2]


def test_cache_torn_multibyte_tail_is_skipped(tmp_path):
    path = tmp_path / "c.jsonl"
    whole = json.dumps({"backend_id": "g", "source_lang": "en", "target_lang": "fa",
                        "source_text": "x", "target_text": "سلام"}, ensure_ascii=False).encode("utf-8")
    # a crash inside the last two-byte letter leaves half of it on disk
    torn = whole[:-3]
    with pytest.raises(UnicodeDecodeError):
        torn.decode("utf-8")
    path.write_bytes(whole + b"\n" + torn)
    with TranslationCache(str(path), G) as cache:
        assert cache.corrupt_lines == [2]
        cache.store("a", "ب")
    with TranslationCache(str(path), G) as cache:
        assert cache.lookup("x") == "سلام"
        assert cache.lookup("a") == "ب"
        assert cache.corrupt_lines == [2]


def test_cache_advisory_lock(tmp_path):
    path = str(tmp_path / "c.jsonl")
    with TranslationCache(path, G):
        with pytest.raises(CacheLocked):
            TranslationCache(path, G)
    # released on close
    TranslationCache(path, G).close()


def test_a_cache_lock_that_fails_for_another_reason_raises_that_error_and_closes_the_file(
        tmp_path, monkeypatch):
    """A file system without flock support is not another run holding the cache."""
    fcntl = pytest.importorskip("fcntl")

    def no_locks(fd, operation):
        raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(fcntl, "flock", no_locks)
    monkeypatch.setattr(backends, "open", recording_open, raising=False)
    with pytest.raises(OSError) as exc:
        TranslationCache(str(tmp_path / "c.jsonl"), G)
    assert exc.value.errno == errno.ENOLCK
    assert len(opened) == 1 and opened[0].closed


def test_cache_keys_distinguish_dictionaries(tmp_path):
    path = str(tmp_path / "c.jsonl")

    def run(mapping):
        backend = DictionaryBackend(mapping)
        with TranslationCache(path, (backend.backend_id, "en", "de")) as cache:
            projected, _, report = project_split(split_of("dog"), backend, "en", "de", cache=cache)
        return projected.sentences[0].tokens, report.counters

    assert run({"dog": "Hund"})[0] == ["Hund"]
    assert run({"dog": "HUND"})[0] == ["HUND"]
    # an equal mapping is the same configuration and hits
    tokens, counters = run({"dog": "Hund"})
    assert tokens == ["Hund"]
    assert (counters.cache_hits, counters.backend_calls) == (1, 0)


def test_cache_lines_written_by_store_reload_without_json_decoding(tmp_path, monkeypatch):
    path = str(tmp_path / "c.jsonl")
    scope = ("dict:0123456789ab", "en", "fa")
    with TranslationCache(path, scope) as cache:
        for i in range(20):
            cache.store(f"[*0*] word {i}", f"کلمه {i} [*0*]")
    calls = []
    loads = json.loads
    monkeypatch.setattr(backends.json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    with TranslationCache(path, scope) as cache:
        assert cache.lookup("[*0*] word 7") == "کلمه 7 [*0*]"
    # if store() and the line pattern drift apart, every line goes through JSON
    assert calls == []

    with TranslationCache(path, G) as cache:
        cache.store('say "hi"', "x")
    with TranslationCache(path, G) as cache:
        assert cache.lookup('say "hi"') == "x"
        assert cache.corrupt_lines == []
    assert calls == [1]


def test_a_line_that_is_not_utf8_leaves_the_rest_of_its_block_on_the_fast_path(tmp_path, monkeypatch, caplog):
    path = str(tmp_path / "c.jsonl")
    with TranslationCache(path, G) as cache:
        for i in range(50):
            cache.store(f"word {i}", f"کلمه {i}")
    with open(path, "ab") as fh:
        fh.write(b'{"backend_id": "\xff"}\n')
    with TranslationCache(path, G) as cache:
        cache.store("word 50", "کلمه 50")
    calls = []
    loads = json.loads
    monkeypatch.setattr(backends.json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    with TranslationCache(path, G) as cache:
        assert cache.entries_loaded == 51
        assert cache.corrupt_lines == [51]
        assert cache.lookup("word 50") == "کلمه 50"
    assert calls == []
    assert "cache line 51: not valid UTF-8" in caplog.text


_CACHE_FIELDS = ("backend_id", "source_lang", "target_lang", "source_text", "target_text")

_plain_text = st.text(alphabet=st.characters(blacklist_categories=("Cc", "Cs"), blacklist_characters='"\\'))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_plain_text, min_size=5, max_size=5))
def test_every_plain_line_store_writes_takes_the_fast_loader_branch(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.jsonl")
        with TranslationCache(path, values[:3]) as cache:
            cache.store(*values[3:])
        with open(path, encoding="utf-8") as fh:
            line = fh.read()
    match = TranslationCache._BLOCK_LINES.match(line)
    # a non-empty head group is the store() branch; the last group is _parse_line's
    assert match[1] and match[4] is None
    assert [match[2], match[3]] == values[3:]
    assert json.loads(line) == dict(zip(_CACHE_FIELDS, values))


def _json_parse_line(line: bytes, line_no: int):
    """Reference reading of a cache line: every line through ``json.loads``
    and the field checks, with no fast path."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CacheCorrupt(line_no, f"not valid UTF-8 ({exc})") from exc
    try:
        record = json.loads(text)
    except ValueError as exc:
        raise CacheCorrupt(line_no, f"not valid JSON ({exc})") from exc
    if not isinstance(record, dict) or not all(isinstance(record.get(f), str) for f in _CACHE_FIELDS):
        raise CacheCorrupt(line_no, "missing or non-string record fields")
    key = (record["backend_id"], record["source_lang"], record["target_lang"], record["source_text"])
    return key, record["target_text"]


def _encode(text: str) -> bytes:
    # lone surrogates survive as bytes that are not valid UTF-8
    return text.encode("utf-8", "surrogatepass")


def _store_form(record: dict) -> bytes:
    return _encode(json.dumps(record, ensure_ascii=False) + "\n")


_CACHE_LINE_VARIANTS = {
    "store": lambda r, d: _store_form(r),
    "ascii": lambda r, d: _encode(json.dumps(r) + "\n"),
    "compact": lambda r, d: _encode(json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n"),
    "reversed keys": lambda r, d: _store_form(dict(reversed(r.items()))),
    "extra key": lambda r, d: _store_form({**r, "note": "x"}),
    "duplicate target_text": lambda r, d: _encode(
        json.dumps(r, ensure_ascii=False)[:-1] + ', "target_text": "dup"}\n'),
    "non-string field": lambda r, d: _store_form(
        {**r, d.draw(st.sampled_from(_CACHE_FIELDS)): d.draw(st.sampled_from([None, 1, 1.5, [], {}, True]))}),
    "crlf": lambda r, d: _encode(json.dumps(r, ensure_ascii=False) + "\r\n"),
    "leading space": lambda r, d: b" " + _store_form(r),
    "trailing space": lambda r, d: _encode(json.dumps(r, ensure_ascii=False) + " \n"),
    "truncated": lambda r, d: (lambda b: b[:d.draw(st.integers(0, len(b)))])(_store_form(r)),
    # written by hand, with no JSON escaping at all
    "unescaped": lambda r, d: _encode("{" + ", ".join(f'"{k}": "{v}"' for k, v in r.items()) + "}\n"),
}

_cache_text = st.text(alphabet=st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\r", "\t", "\x1f", "\x7f", "\xa0", "\u2028",
                     "\u200c", "\U0001f600", "\ud800", "\udfff", "a", "ب", " ", "{", "}", ":", ","]),
    st.characters(),
))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_cache_text, min_size=5, max_size=5),
       variant=st.sampled_from(sorted(_CACHE_LINE_VARIANTS)), data=st.data())
def test_cache_parse_line_agrees_with_json_decoding(values, variant, data):
    line = _CACHE_LINE_VARIANTS[variant](dict(zip(_CACHE_FIELDS, values)), data)
    try:
        expected = _json_parse_line(line, 7)
    except CacheCorrupt as exc:
        with pytest.raises(CacheCorrupt) as raised:
            TranslationCache._parse_line(line, 7)
        assert str(raised.value) == str(exc)
    else:
        assert TranslationCache._parse_line(line, 7) == expected


_SCOPES = (G, ("g", "en", "de"), ("h", "en", "fa"))


def test_cache_scope_indexes_only_its_entries(tmp_path):
    path = str(tmp_path / "c.jsonl")
    for scope, text, translation in zip(_SCOPES, ("x", "x", 'say "hi"'), ("y", "z", "w")):
        with TranslationCache(path, scope) as cache:
            cache.store(text, translation)
    with TranslationCache(path, G) as cache:
        assert cache._index == {"x": "y"}
        assert cache.entries_loaded == 1
        assert cache.lookup("x") == "y"
    with TranslationCache(path, ("h", "en", "fa")) as cache:
        assert cache._index == {'say "hi"': "w"}
        assert cache.entries_loaded == 1


# any text UTF-8 can hold, rich in what JSON escapes and in what it does not
_utf8_text = st.text(alphabet=st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\x85", "\xa0", "\u2028",
                     "\U0001f600", "ب", "a", "0", " "]),
    st.characters(blacklist_categories=("Cs",)),
), max_size=4)


def _needs_json_escape(value: str) -> bool:
    return any(c in '"\\' or c < " " for c in value)


@settings(max_examples=200, deadline=None)
@given(scopes=st.lists(st.tuples(_utf8_text, _utf8_text, _utf8_text), min_size=1, max_size=6, unique=True),
       data=st.data())
def test_each_scope_reloads_exactly_its_own_records(scopes, data):
    records = data.draw(st.lists(st.tuples(st.sampled_from(scopes), _utf8_text, _utf8_text),
                                 min_size=1, max_size=8), label="records")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.jsonl")
        for scope, text, translation in records:
            with TranslationCache(path, scope) as cache:
                cache.store(text, translation)
        # a line goes through JSON only if one of its values needs an escape
        escaped = sum(any(map(_needs_json_escape, (*scope, *texts))) for scope, *texts in records)
        for scope in scopes:
            with mock.patch.object(backends.json, "loads", wraps=json.loads) as loads, \
                    TranslationCache(path, scope) as cache:
                assert cache._index == {text: translation for s, text, translation in records if s == scope}
                assert cache.corrupt_lines == []
            assert loads.call_count == escaped


@pytest.mark.parametrize("path", [None, "c.jsonl"])
def test_project_split_rejects_a_cache_of_another_scope(tmp_path, path):
    backend = RecordingBackend()
    # another backend, then another language pair
    for scope in (("other", "en", "fa"), ("recording", "en", "de")):
        with TranslationCache(path and str(tmp_path / path), scope) as cache, \
                mock.patch.object(TranslationCache, "lookup", side_effect=AssertionError("looked up")):
            with pytest.raises(ValueError, match="cache scope"):
                project_split(split_of("x"), backend, "en", "fa", cache=cache)
            assert cache._index == {}
    assert backend.calls == []
    if path:
        assert (tmp_path / path).read_bytes() == b""


def _reference_load(data: bytes, scope):
    """The file read one line at a time, every non-blank line through
    ``_parse_line``: (index, corrupt_lines, torn_tail)."""
    index, corrupt, line = {}, [], b""
    for line_no, line in enumerate(io.BytesIO(data), start=1):
        if not line.strip():
            continue
        try:
            key, value = TranslationCache._parse_line(line, line_no)
        except CacheCorrupt:
            corrupt.append(line_no)
            continue
        if key[:3] == scope:
            index[key[3]] = value
    return index, corrupt, bool(line) and not line.endswith(b"\n")


def _load_file(data: bytes, scope):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        with TranslationCache(path, scope) as cache:
            assert cache.entries_loaded == len(cache._index)
            return cache._index, cache.corrupt_lines, cache._torn_tail


_record = st.builds(
    lambda scope, texts: dict(zip(_CACHE_FIELDS, (*scope, *texts))),
    st.one_of(st.sampled_from(_SCOPES), st.tuples(_cache_text, _cache_text, _cache_text)),
    st.tuples(st.one_of(st.sampled_from(["x", "y", 'say "hi"', "a\\b"]), _cache_text), _cache_text),
)

_ODD_LINES = [b"\n", b"  \n", b"\t\r\n", "\xa0\n".encode(), b"\xff\xfe not utf-8\n",
              "\u0628\n".encode()[1:], b"garbage\n", b"{}\n", b"[1]\n"]


@st.composite
def _cache_file_line(draw):
    """One line of a memory file: any writer's form of a record, a blank or
    odd line, or arbitrary bytes (which may hold newlines or none)."""
    kind = draw(st.sampled_from(["store", "variant", "odd", "bytes"]))
    if kind == "odd":
        return draw(st.sampled_from(_ODD_LINES))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    variant = "store" if kind == "store" else draw(st.sampled_from(sorted(_CACHE_LINE_VARIANTS)))
    return _CACHE_LINE_VARIANTS[variant](draw(_record), types.SimpleNamespace(draw=draw))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_cache_file_line(), max_size=12), torn=st.booleans(),
       chunk=st.sampled_from([1, 2, 7, 64, 512, 1 << 18]))
def test_cache_block_loader_agrees_with_parse_line(lines, torn, chunk):
    data = b"".join(lines)
    if torn and data.endswith(b"\n"):
        data = data[:-1]
    with mock.patch.object(TranslationCache, "_CHUNK", chunk):
        for scope in _SCOPES:
            assert _load_file(data, scope) == _reference_load(data, scope)


_stored_text = st.text(alphabet=st.one_of(
    st.sampled_from(['"', "\\", "\n", "\x00", "\u2028", "\xa0", "ب", "\U0001f600", " "]),
    st.characters(blacklist_categories=("Cs",)),
))


@settings(max_examples=200, deadline=None)
@given(records=st.lists(st.tuples(st.sampled_from(_SCOPES), _stored_text, _stored_text),
                        min_size=1, max_size=6),
       data=st.data())
def test_cache_cut_at_any_byte_keeps_whole_records(records, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.jsonl")
        for scope, text, translation in records:
            with TranslationCache(path, scope) as cache:
                cache.store(text, translation)
        with open(path, "rb") as fh:
            whole = fh.read()
        # a crash may stop the writes after any byte
        cut = data.draw(st.integers(0, len(whole)), label="cut")
        with open(path, "wb") as fh:
            fh.write(whole[:cut])

        # a record is whole once every byte before its newline is on disk
        expected, written, partial = {}, 0, False
        for (scope, text, translation), line in zip(records, io.BytesIO(whole)):
            if written + len(line) - 1 <= cut:
                expected[(*scope, text)] = translation
            elif written < cut:
                partial = True
            written += len(line)
        # the cut line, if any, is the last one left
        corrupt = [whole[:cut].count(b"\n") + 1] if partial else []

        def assert_loads(expected):
            for scope in _SCOPES:
                with TranslationCache(path, scope) as cache:
                    assert cache._index == {k[3]: v for k, v in expected.items() if k[:3] == scope}
                    assert cache.corrupt_lines == corrupt

        assert_loads(expected)
        scope = data.draw(st.sampled_from(_SCOPES), label="scope")
        with TranslationCache(path, scope) as cache:
            cache.store("next", "record")
        with open(path, "rb") as fh:
            after = fh.read()
        line = _store_form(dict(zip(_CACHE_FIELDS, (*scope, "next", "record"))))
        torn = cut > 0 and not whole[:cut].endswith(b"\n")
        assert after == whole[:cut] + (b"\n" if torn else b"") + line
        assert_loads({**expected, (*scope, "next"): "record"})


# --- token bucket ----------------------------------------------------------------


def test_token_bucket_allows_burst_then_throttles():
    bucket = TokenBucket(rate=100, capacity=1)
    bucket.acquire()
    start = time.monotonic()
    bucket.acquire()
    assert time.monotonic() - start >= 0.005


def test_token_bucket_burst_within_capacity_is_instant():
    bucket = TokenBucket(rate=1, capacity=5)
    start = time.monotonic()
    for _ in range(5):
        bucket.acquire()
    assert time.monotonic() - start < 0.5


# --- http backend -----------------------------------------------------------------


def http_backend(url, **kw):
    kw.setdefault("rate", None)
    kw.setdefault("backoff_base", 0.01)
    return HttpBackend(url, **kw)


def test_http_round_trip(stub_server):
    stub = stub_server()
    backend = http_backend(stub.url, api_key="sekret")
    assert backend.translate(["hello", "[*0*]"], "en", "fa") == ["hello", "[*0*]"]
    assert stub.request_count == 1
    assert stub.seen_auth == ["Bearer sekret"]


def test_http_api_key_from_environment(stub_server, monkeypatch):
    monkeypatch.setenv("TRANSPROJ_API_KEY", "fromenv")
    stub = stub_server()
    backend = http_backend(stub.url)
    backend.translate(["x"], "en", "fa")
    assert stub.seen_auth == ["Bearer fromenv"]


def test_http_no_auth_header_without_key(stub_server, monkeypatch):
    monkeypatch.delenv("TRANSPROJ_API_KEY", raising=False)
    stub = stub_server()
    backend = http_backend(stub.url)
    backend.translate(["x"], "en", "fa")
    assert stub.seen_auth == [None]


def test_a_project_split_batch_is_one_request_and_an_empty_call_sends_none(stub_server):
    stub = stub_server()
    # no rate limit, no retries and no backoff are all valid settings
    backend = http_backend(stub.url, rate=0, retries=0, backoff_base=0)
    assert backend.translate([], "en", "fa") == []
    assert stub.request_count == 0
    split = DatasetSplit("train", [sent([f"w{i}"], ["O"], origin=i) for i in range(40)])
    out, _, report = project_split(split, backend, "en", "fa", batch=64)
    assert len(out.sentences) == 40
    assert report.counters.backend_calls == stub.request_count == 1


NOT_FINITE = [(name, value) for name in ("rate", "backoff_base", "timeout") for value in ("nan", "inf", "-inf")]


@pytest.mark.parametrize("setting", [
    {"retries": -1}, {"rate": -1}, {"backoff_base": -0.5}, {"timeout": 0}, {"timeout": -1},
    *({name: float(value)} for name, value in NOT_FINITE),
    {"retries": 1.5}, {"retries": float("inf")}, {"retries": True},
    # waits the platform cannot make: each raised OverflowError, in a request,
    # a limiter wait or a backoff
    {"timeout": 1e10}, {"rate": 1e-300}, {"retries": 1, "backoff_base": 1e10},
    {"retries": 2, "backoff_base": 2.0 ** 32}, {"retries": 2000, "backoff_base": 1e-300},
], ids=["retries", "rate", "backoff_base", "zero-timeout", "negative-timeout",
        *(f"{name}-{value}" for name, value in NOT_FINITE),
        "retries-1.5", "retries-inf", "retries-True", "timeout-above-TIMEOUT_MAX", "rate-below-1/TIMEOUT_MAX",
        "backoff-above-TIMEOUT_MAX", "backoff-doubled-above-TIMEOUT_MAX", "backoff-doubled-past-float"])
def test_http_backend_rejects_a_setting_out_of_range(setting):
    with pytest.raises(ValueError, match="http backend needs retries, rate and backoff_base >= 0"):
        HttpBackend("http://example.invalid/t", **setting)


def test_http_backend_accepts_the_longest_waits_the_platform_can_make():
    most = threading.TIMEOUT_MAX
    backend = HttpBackend("http://example.invalid/t", timeout=most, rate=1 / most)
    assert backend.timeout == most and backend.limiter.rate == 1 / most
    # 2**32 s plus 25 % jitter is below TIMEOUT_MAX, and twice that above it
    assert HttpBackend("http://example.invalid/t", retries=1, backoff_base=2.0 ** 32).backoff_base == 2.0 ** 32
    # no wait at all, however many retries
    assert HttpBackend("http://example.invalid/t", retries=2000, backoff_base=0.0).retries == 2000


def test_a_backoff_the_platform_cannot_wait_is_rejected_before_any_request():
    backend = RecordingBackend()
    backend.retries, backend.backoff_base = 1, 1e10
    with pytest.raises(ValueError, match="more than threading.TIMEOUT_MAX"):
        project_split(split_of("x"), backend, "en", "fa")
    assert backend.calls == []


def test_a_zero_backoff_takes_any_number_of_retries():
    class FailsUntilTheLastAttempt(RecordingBackend):
        retries = 2000

        def translate(self, texts, source_lang, target_lang):
            super().translate(texts, source_lang, target_lang)
            if len(self.calls) <= self.retries:
                raise BackendTransient("HTTP 503")
            return list(texts)

    backend = FailsUntilTheLastAttempt()
    _, outcomes, _ = project_split(split_of("x"), backend, "en", "fa")
    assert outcomes[0].projected and len(backend.calls) == 2001


def test_one_http_translate_call_is_one_post_and_a_5xx_raises_transient(stub_server):
    stub = stub_server(fail_first=1)
    backend = http_backend(stub.url, retries=3)
    with pytest.raises(BackendTransient, match="^HTTP 503$"):
        backend.translate(["x"], "en", "fa")
    assert stub.request_count == 1


def test_http_retries_on_5xx(stub_server):
    stub = stub_server(fail_first=2)
    backend = http_backend(stub.url, retries=3)
    out, outcomes, report = project_split(split_of("x"), backend, "en", "fa")
    assert outcomes[0].projected and out.sentences[0].tokens == ["x"]
    assert stub.request_count == 3
    assert report.counters.backend_calls == 1


def test_http_gives_up_after_retries(stub_server):
    stub = stub_server(fail_first=99)
    backend = http_backend(stub.url, retries=2)
    _, outcomes, _ = project_split(split_of("x"), backend, "en", "fa")
    assert outcomes[0].reason == REASON_BACKEND_FAILURE
    assert outcomes[0].detail == f"giving up on {backend.backend_id} after 3 attempts: HTTP 503"
    assert stub.request_count == 3


def test_http_gives_up_after_retries_on_a_transport_error():
    backend = http_backend("http://127.0.0.1:1/translate", retries=1, timeout=0.5)
    post = backend._session.post
    attempts = []
    backend._session.post = lambda *args, **kw: attempts.append(1) or post(*args, **kw)
    _, outcomes, _ = project_split(split_of("x"), backend, "en", "fa")
    assert len(attempts) == 2
    assert outcomes[0].detail == f"giving up on {backend.backend_id} after 2 attempts: ConnectionError"


@pytest.mark.parametrize("status", [429, 400])
def test_http_status_below_500_is_not_retried(stub_server, status):
    stub = stub_server(fail_first=1, status=status)
    backend = http_backend(stub.url, retries=3)
    with pytest.raises(BackendUnavailable, match=rf"HTTP {status} from {re.escape(backend.backend_id)}$"):
        backend.translate(["x"], "en", "fa")
    assert stub.request_count == 1


def test_http_unreachable_host():
    backend = http_backend("http://127.0.0.1:1/translate", retries=0, timeout=0.5)
    with pytest.raises(BackendUnavailable):
        backend.translate(["x"], "en", "fa")


def test_any_oserror_a_session_raises_is_a_transport_failure_worth_its_retries(data_dir):
    class RefusingSession:  # of no particular library: each post fails as a refused connection does
        posts = 0

        def post(self, url, json=None, headers=None, timeout=None):
            self.posts += 1
            raise ConnectionRefusedError(111, "Connection refused")

    split = parse_conll((data_dir / "fixture_train.conll").read_text(encoding="utf-8"), "train")
    session = RefusingSession()
    backend = HttpBackend("http://127.0.0.1:9/translate", session=session, rate=None, retries=1, backoff_base=0)
    out, outcomes, _ = project_split(split, backend, "en", "fa")
    assert session.posts == backend.retries + 1
    detail = "giving up on http:http://127.0.0.1:9/translate after 2 attempts: ConnectionRefusedError"
    assert [(o.reason, o.detail) for o in outcomes] == [(REASON_BACKEND_FAILURE, detail)] * 8
    assert out.sentences == []
    with pytest.raises(AbortedRun, match=re.escape(detail)):
        project_split(split, backend, "en", "fa", on_error="strict")


def test_an_http_backend_given_a_session_does_not_import_requests():
    script = "\n".join([
        "import sys",
        "from transproj.backends import HttpBackend",
        "HttpBackend('http://127.0.0.1:9/translate', session=object())",
        "print('requests' in sys.modules)",
        "import requests",
        "print(type(HttpBackend('http://127.0.0.1:9/translate')._session) is requests.Session)",
    ])
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=Path(__file__).resolve().parent.parent, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "False\nTrue\n"), done.stderr


@pytest.mark.parametrize("url, message", [
    ("{host}/translate", "needs a full http"),
    ("ftp://{host}/translate", "needs a full http"),
    ("http://[{host}/translate", "does not parse"),
    ("http://127.0.0.1:x/translate", "does not parse"),
])
def test_http_backend_rejects_a_url_that_is_not_full_http(stub_server, url, message):
    stub = stub_server()
    host = stub.url.removeprefix("http://").removesuffix("/translate")
    with pytest.raises(ValueError, match=message):
        http_backend(url.format(host=host), retries=0).translate(["x"], "en", "fa")
    assert stub.request_count == 0


def test_http_protocol_error_on_wrong_cardinality():
    class BadSession:
        def post(self, url, json=None, headers=None, timeout=None):
            class R:
                status_code = 200

                def json(self):
                    return {"translations": ["only one"]}

            return R()

    backend = HttpBackend("http://example.invalid/t", session=BadSession(), rate=None)
    with pytest.raises(BackendProtocol):
        backend.translate(["a", "b"], "en", "fa")


@pytest.mark.parametrize("answer", [["only one"], ["a", None], ["a", "a\ud800"]],
                         ids=["wrong-count", "not-a-string", "lone-surrogate"])
def test_http_answer_check_is_translate_batchs(answer):
    class FixedSession:
        def post(self, url, json=None, headers=None, timeout=None):
            class R:
                status_code = 200

                def json(self):
                    return {"translations": list(answer)}

            return R()

    class Answers(IdentityBackend):
        def translate(self, texts, source_lang, target_lang):
            return list(answer)

    with pytest.raises(BackendProtocol) as batch:
        translate_batch(TranslationRequest(("a", "b"), "en", "fa"), Answers())
    backend = HttpBackend("http://example.invalid/t", session=FixedSession(), rate=None)
    with pytest.raises(BackendProtocol) as http:
        backend.translate(["a", "b"], "en", "fa")
    assert str(http.value) == str(batch.value)


@pytest.mark.parametrize("body", [{"result": ["a"]}, {"translations": "a"}, ["a"]],
                         ids=["no-key", "not-a-list", "not-an-object"])
def test_http_protocol_error_without_translations_list(body):
    class BadSession:
        def post(self, url, json=None, headers=None, timeout=None):
            class R:
                status_code = 200

                def json(self):
                    return body

            return R()

    backend = HttpBackend("http://example.invalid/t", session=BadSession(), rate=None)
    with pytest.raises(BackendProtocol, match='lacks a "translations" list'):
        backend.translate(["a"], "en", "fa")


def test_http_protocol_error_on_non_json():
    class BadSession:
        def post(self, url, json=None, headers=None, timeout=None):
            class R:
                status_code = 200

                def json(self):
                    raise ValueError("no json")

            return R()

    backend = HttpBackend("http://example.invalid/t", session=BadSession(), rate=None)
    with pytest.raises(BackendProtocol):
        backend.translate(["a"], "en", "fa")


def test_an_http_answer_nested_too_deep_for_json_fails_only_its_batch():
    class DeepSession:
        def post(self, url, **kw):
            texts = kw["json"]["texts"]

            class R:
                status_code = 200

                def json(self):
                    if "deep" in texts:
                        return json.loads("[" * 100_000)
                    return {"translations": texts}

            return R()

    backend = HttpBackend("http://example.invalid/t", session=DeepSession(), rate=None)
    split = split_of("alpha", "deep", "beta")
    out, outcomes, _ = project_split(split, backend, "en", "fa", batch=1)
    assert [o.reason for o in outcomes] == [None, REASON_BACKEND_FAILURE, None]
    assert "non-JSON response" in outcomes[1].detail
    assert [s.tokens for s in out.sentences] == [["alpha"], ["beta"]]
    with pytest.raises(AbortedRun, match="non-JSON response"):
        project_split(split, backend, "en", "fa", batch=1, on_error="strict")


def test_http_zero_calls_with_warm_cache(tmp_path, stub_server):
    stub = stub_server()
    path = str(tmp_path / "c.jsonl")
    backend = http_backend(stub.url)
    split = split_of("alpha", "beta")
    with TranslationCache(path, (backend.backend_id, "en", "fa")) as cache:
        first = project_split(split, backend, "en", "fa", cache=cache)[0]
    assert stub.request_count == 1
    with TranslationCache(path, (backend.backend_id, "en", "fa")) as cache:
        second = project_split(split, backend, "en", "fa", cache=cache)[0]
    assert stub.request_count == 1
    assert first == second


def test_cache_keys_distinguish_http_paths(tmp_path, stub_server):
    stub = stub_server()
    base = stub.url.rsplit("/", 1)[0]
    path = str(tmp_path / "c.jsonl")
    for url in (f"{base}/v1?key=s3cret", f"{base}/v2?key=s3cret"):
        backend = http_backend(url)
        with TranslationCache(path, (backend.backend_id, "en", "fa")) as cache:
            project_split(split_of("alpha"), backend, "en", "fa", cache=cache)
    assert stub.request_count == 2
    # the query reaches the key written to disk only as a digest, and userinfo not at all
    backend = http_backend(f"http://user:pw@{base.split('//')[1]}/v1?key=s3cret")
    assert backend.backend_id == f"http:{base}/v1?{hashlib.sha256(b'key=s3cret').hexdigest()[:12]}"
    assert "s3cret" not in (tmp_path / "c.jsonl").read_text(encoding="utf-8")


URL_PARTS = st.tuples(
    st.sampled_from(["http", "https"]),
    st.sampled_from(["", "user@", "user:pw@", "other:pw@"]),
    st.sampled_from(["mt.example", "mt.example:8080", "other.example"]),
    st.sampled_from(["/translate", "/translate/v2", "/"]),
    st.one_of(st.sampled_from(["", "model=v1", "model=v2", "key=s3cret", "a=1&b=2", "b=2&a=1"]),
              st.text(alphabet="ab=&%2", max_size=4)),
    st.sampled_from(["", "#f", "#g"]),
)


@given(URL_PARTS, URL_PARTS)
def test_http_backend_ids_are_equal_exactly_when_urls_are_equal_but_for_userinfo_and_fragment(a, b):
    def url(scheme, userinfo, host, path, query, fragment):
        return f"{scheme}://{userinfo}{host}{path}{'?' + query if query else ''}{fragment}"

    def without_userinfo_and_fragment(scheme, userinfo, host, path, query, fragment):
        return url(scheme, "", host, path, query, "")

    same_id = HttpBackend(url(*a), rate=None).backend_id == HttpBackend(url(*b), rate=None).backend_id
    assert same_id == (without_userinfo_and_fragment(*a) == without_userinfo_and_fragment(*b))
