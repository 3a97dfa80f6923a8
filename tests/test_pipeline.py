import gc
import json
import os
import re
import sys
import tempfile
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transproj import backends, conll_io, pipeline, placeholder, spans
from transproj.backends import (
    BackendUnavailable,
    DictionaryBackend,
    HttpBackend,
    IdentityBackend,
    ScramblerBackend,
    TranslationCache,
)
from transproj.conll_io import DatasetSplit, InvalidSentence, parse_conll, serialize_conll, validate_scheme
from transproj.pipeline import (
    REASON_BACKEND_FAILURE,
    REASON_COUNT_MISMATCH,
    REASON_DUPLICATE,
    REASON_EMPTY_ENTITY,
    REASON_INVALID_SCHEME,
    REASON_PATTERN_COLLISION,
    REASON_PLACEHOLDER_LEAK,
    REASON_TOKEN_TAG_MISMATCH,
    AbortedRun,
    project_sentence,
    project_split,
)
from transproj.placeholder import (
    PLACEHOLDER_FRAGMENT_RE,
    EmptyEntityTranslation,
    PatternCollision,
    count_check,
    find_placeholders,
    mask,
    unmask,
)
from transproj.spans import extract_spans
from transproj.stats import delta_stats, split_stats

from test_backends import http_backend
from test_conll_io import sent
from test_placeholder import ADVERSARIAL_TEXT, adversarial_sentences


class DropFirstPlaceholder(IdentityBackend):
    """Deletes the first placeholder from any text carrying one."""

    backend_id = "drop"

    def translate(self, texts, source_lang, target_lang):
        out = []
        for text in texts:
            hits = find_placeholders(text)
            out.append(text[:hits[0].start] + text[hits[0].end:] if hits else text)
        return out


class DuplicateFirstPlaceholder(IdentityBackend):
    backend_id = "duplicate"

    def translate(self, texts, source_lang, target_lang):
        out = []
        for text in texts:
            hits = find_placeholders(text)
            out.append(f"{text} {hits[0].text}" if hits else text)
        return out


class BlankEntities(IdentityBackend):
    """Whitespace for entity surfaces; templates pass through untouched."""

    backend_id = "blank"

    def translate(self, texts, source_lang, target_lang):
        return [t if find_placeholders(t) else " " for t in texts]


class FailingBackend(IdentityBackend):
    backend_id = "failing"

    def translate(self, texts, source_lang, target_lang):
        raise BackendUnavailable("wire cut")


class BlankEverything(IdentityBackend):
    backend_id = "blank-all"

    def translate(self, texts, source_lang, target_lang):
        return [" " for _ in texts]


class MapTexts(IdentityBackend):
    """Replaces whole texts found in ``mapping``; passes the rest through."""

    backend_id = "map"

    def __init__(self, mapping):
        self.mapping = mapping

    def translate(self, texts, source_lang, target_lang):
        return [self.mapping.get(t, t) for t in texts]


JOHN = ["John", "lives", "in", "Berlin"], ["B-PER", "O", "O", "B-LOC"]


def john(origin=0):
    return sent(*JOHN, origin=origin)


def test_identity_projection_reproduces_sentence():
    outcome = project_sentence(john(), IdentityBackend(), "en", "fa")
    assert outcome.projected
    assert outcome.sentence.tokens == JOHN[0]
    assert [t.raw for t in outcome.sentence.tags] == JOHN[1]


def test_zero_entity_sentence_translated_whole():
    outcome = project_sentence(sent(["only", "words"], ["O", "O"]), IdentityBackend(), "en", "fa")
    assert outcome.projected
    assert [t.raw for t in outcome.sentence.tags] == ["O", "O"]


def test_scrambler_reverses_positions_but_keeps_entities():
    outcome = project_sentence(john(), ScramblerBackend(0), "en", "fa")
    assert outcome.projected
    assert outcome.sentence.tokens == ["Berlin", "in", "lives", "John"]
    assert [t.raw for t in outcome.sentence.tags] == ["B-LOC", "O", "O", "B-PER"]
    got = {(sp.label, sp.surface) for sp in extract_spans(outcome.sentence)}
    assert got == {("PER", "John"), ("LOC", "Berlin")}


def test_dropped_placeholder_is_count_mismatch():
    outcome = project_sentence(john(), DropFirstPlaceholder(), "en", "fa")
    assert outcome.reason == REASON_COUNT_MISMATCH


def test_duplicated_placeholder_is_duplicate():
    outcome = project_sentence(john(), DuplicateFirstPlaceholder(), "en", "fa")
    assert outcome.reason == REASON_DUPLICATE


def test_blank_entity_translation_is_empty_entity():
    outcome = project_sentence(john(), BlankEntities(), "en", "fa")
    assert outcome.reason == REASON_EMPTY_ENTITY


# A source holding placeholder syntax is excluded before any request. Each
# mapping is an answer that a source fragment would otherwise let through
# wrongly, or have excluded as a leak although nothing leaked.
@pytest.mark.parametrize("tokens, tags, mapping, detail", [
    (["bad", "[*0*]", "token"], ["O", "O", "O"], {}, "token '[*0*]' at position 1 starts placeholder syntax '[*'"),
    (["[*", "John", "*]"], ["O", "B-PER", "O"], {}, "token '[*' at position 0 starts placeholder syntax '[*'"),
    # the source's "[*" would be swallowed into placeholder 0
    (["John", "John", "John", "[*", "Mary"], ["O", "O", "O", "O", "B-PER"],
     {"John John John [* [*0*]": "John John John[* 0*]"},
     "token '[*' at position 3 starts placeholder syntax '[*'"),
    # neither token holds a fragment, so a check token by token would let two O tokens vanish
    (["[", "*", "Mary"], ["O", "O", "B-PER"], {"[ * [*0*]": "[ * 0*]"},
     "token '[' at position 0 starts placeholder syntax '[ *'"),
    # nothing leaks, but the answer's fragments are the source's own
    (["[", "John", "*7*"], ["O", "B-PER", "O"], {"[ [*0*] *7*": "[ *7* [*0*]"},
     "token '*7*' at position 2 starts placeholder syntax '*7*'"),
], ids=["placeholder", "fragments", "swallowed", "across-tokens", "no-leak"])
def test_placeholder_token_in_source_is_pattern_collision(tokens, tags, mapping, detail):
    outcome = project_sentence(sent(tokens, tags), MapTexts(mapping), "en", "fa")
    assert (outcome.reason, outcome.detail) == (REASON_PATTERN_COLLISION, detail)


def test_invalid_scheme_is_excluded_not_raised():
    outcome = project_sentence(sent(["a", "b"], ["O", "I-LOC"]), IdentityBackend(), "en", "fa")
    assert outcome.reason == REASON_INVALID_SCHEME


def test_blanked_template_is_token_tag_mismatch():
    outcome = project_sentence(sent(["just", "words"], ["O", "O"]), BlankEverything(), "en", "fa")
    assert outcome.reason == REASON_TOKEN_TAG_MISMATCH


def test_injected_placeholder_in_zero_entity_sentence_is_count_mismatch():
    class InjectsPlaceholder(IdentityBackend):
        backend_id = "injector"

        def translate(self, texts, source_lang, target_lang):
            return [f"{t} [*0*]" for t in texts]

    outcome = project_sentence(sent(["plain", "words"], ["O", "O"]), InjectsPlaceholder(), "en", "fa")
    assert outcome.reason == REASON_COUNT_MISMATCH


@pytest.mark.parametrize("mapping", [
    {"John": "[*0*]"},
    # "[*" from the template and "7*]" from an entity only match together
    {"[*0*] lives in [*1*]": "[*0*] lives [* [*1*]", "Berlin": "7*]"},
], ids=["entity", "across-entity-boundary"])
def test_entity_translated_to_placeholder_is_leak(mapping):
    outcome = project_sentence(john(), MapTexts(mapping), "en", "fa")
    assert outcome.reason == REASON_PLACEHOLDER_LEAK
    assert outcome.detail == mapping.get("[*0*] lives in [*1*]", "[*0*] lives in [*1*]")


class AppendsToTemplate(IdentityBackend):
    """Identity, except that a text holding ``[*0*]`` gets ``extra`` appended."""

    backend_id = "appends"

    def __init__(self, extra):
        self.extra = extra

    def translate(self, texts, source_lang, target_lang):
        return [f"{t} {self.extra}" if "[*0*]" in t else t for t in texts]


@pytest.mark.parametrize("extra, reason", [
    # a whole placeholder in any form the grammar admits is a second placeholder 0
    ("[\u200f*0*]", REASON_DUPLICATE),  # right-to-left mark
    ("[*\u200c0*]", REASON_DUPLICATE),  # zero-width non-joiner
    ("［＊0＊］", REASON_DUPLICATE),
    ("[٭0٭]", REASON_DUPLICATE),
    ("*0*]", REASON_PLACEHOLDER_LEAK),
    ("[*0*", REASON_PLACEHOLDER_LEAK),
    ("[*", REASON_PLACEHOLDER_LEAK),
    ("[ *0 *]", REASON_DUPLICATE),
], ids=["rlm", "zwnj", "fullwidth", "arabic-star", "unopened", "unclosed", "opening", "spaced"])
def test_placeholder_residue_in_translation_is_excluded(extra, reason):
    # the whole placeholder survives, so only the residue could reach the corpus, as an O token
    outcome = project_sentence(sent(["John", "lives", "here"], ["B-PER", "O", "O"]),
                               AppendsToTemplate(extra), "en", "fa")
    assert (outcome.reason, outcome.detail) == (reason, f"[*0*] lives here {extra}")


@pytest.mark.parametrize("placeholder_0", [
    "[*\u200c0*]", "[\u200c*0*\u200c]", "[\u2067*0*\u2069]", "[٭0٭]", "［*0*］", "[＊۰＊]",
], ids=["zwnj-inside", "zwnj-inside-brackets", "bidi-isolates-inside-brackets", "arabic-star",
        "fullwidth-brackets", "fullwidth-star-persian-digit"])
def test_a_placeholder_in_any_form_the_fragment_rule_names_is_read_back(placeholder_0):
    # one grammar: what the leak rule counts as placeholder syntax reads back as a placeholder
    backend = MapTexts({"[*0*] lives": f"{placeholder_0} zendegi", "John": "jan"})
    outcome = project_sentence(sent(["John", "lives"], ["B-PER", "O"]), backend, "en", "fa")
    assert outcome.reason is None
    out = outcome.sentence
    assert (out.tokens, [t.raw for t in out.tags]) == (["jan", "zendegi"], ["B-PER", "O"])


def test_a_fragment_in_place_of_another_the_source_held_is_a_leak():
    # a lone "[" is no fragment, so the source is clean and any fragment in the output leaked
    outcome = project_sentence(sent(["["], ["O"]), MapTexts({"[": "*0*]"}), "en", "fa")
    assert (outcome.reason, outcome.detail) == (REASON_PLACEHOLDER_LEAK, "*0*]")


def test_a_placeholder_index_too_long_for_int_is_a_count_mismatch_on_every_run(tmp_path):
    # int() refuses more than 4,300 digits; the rerun reads the answer from the memory alone
    path = str(tmp_path / "tm.jsonl")
    answer = f"[*0*] lives [*{'7' * 5000}*]"
    split = DatasetSplit("train", [sent(["John", "lives"], ["B-PER", "O"]), john(1)])
    for backend_calls in (1, 0):
        with TranslationCache(path, ("map", "en", "fa")) as cache:
            out, outcomes, report = project_split(split, MapTexts({"[*0*] lives": answer}), "en", "fa",
                                                  cache=cache)
        assert (outcomes[0].reason, outcomes[0].detail) == (REASON_COUNT_MISMATCH, answer)
        assert [s.tokens for s in out.sentences] == [JOHN[0]]
        assert report.counters.backend_calls == backend_calls


@pytest.mark.parametrize("mapping", [
    {"John Smith": "-DOCSTART-"},
    {"[*0*] lives here": "[*0*] -DOCSTART- here"},
], ids=["entity", "template"])
def test_docstart_token_in_translation_is_token_tag_mismatch(mapping):
    # parse_conll skips a -DOCSTART- line, so written out the token would vanish
    source = sent(["John", "Smith", "lives", "here"], ["B-PER", "I-PER", "O", "O"])
    outcome = project_sentence(source, MapTexts(mapping), "en", "fa")
    assert outcome.reason == REASON_TOKEN_TAG_MISMATCH
    assert "-DOCSTART-" in outcome.detail


def test_dropped_empty_counter_reaches_report():
    split = parse_conll("-DOCSTART- O\n\na O\n\n", "train")
    assert split.dropped_empty == 1
    _, _, report = project_split(split, IdentityBackend(), "en", "fa")
    assert report.splits["train"].dropped_empty == 1
    assert report.to_dict()["splits"]["train"]["dropped_empty"] == 1


def test_backend_failure_lenient_vs_strict():
    lenient = project_sentence(john(), FailingBackend(), "en", "fa")
    assert lenient.reason == REASON_BACKEND_FAILURE
    with pytest.raises(AbortedRun):
        project_sentence(john(), FailingBackend(), "en", "fa", on_error="strict")


class AnswersJohnWith(IdentityBackend):
    backend_id = "answers-john-with"

    def __init__(self, answer):
        self.answer = answer

    def translate(self, texts, source_lang, target_lang):
        return [self.answer if t == "John" else t for t in texts]


@pytest.mark.parametrize("answer, detail", [
    (None, "not a string"),
    (b"John", "not a string"),
    (7, "not a string"),
    # JSON can carry a lone surrogate, which has no UTF-8 form
    ("John\ud800", r"not valid UTF-8: 'John\ud800'"),
], ids=["none", "bytes", "int", "lone-surrogate"])
def test_a_translation_that_is_not_a_string_fails_only_its_batch(tmp_path, answer, detail):
    path = str(tmp_path / "tm.jsonl")
    split = DatasetSplit("train", [john(0), sent(["Mary", "sings"], ["B-PER", "O"], origin=1)])
    scope = ("answers-john-with", "en", "fa")
    with TranslationCache(path, scope) as cache:
        out, outcomes, _ = project_split(split, AnswersJohnWith(answer), "en", "fa", batch=1,
                                         cache=cache)
    assert outcomes[0].reason == REASON_BACKEND_FAILURE
    assert detail in outcomes[0].detail
    outcomes[0].detail.encode("utf-8")  # exclusions.jsonl can hold it
    assert outcomes[1].projected and out.sentences[0].tokens == ["Mary", "sings"]
    with TranslationCache(path, scope) as cache:
        assert cache.corrupt_lines == []
        assert cache.lookup("John") is None
        assert cache.lookup("Berlin") == "Berlin"
    with open(path, encoding="utf-8") as fh:
        assert "null" not in fh.read()
    with pytest.raises(AbortedRun, match=re.escape(detail)):
        project_split(split, AnswersJohnWith(answer), "en", "fa", batch=1, on_error="strict")


class AnswersWith(IdentityBackend):
    backend_id = "answers-with"

    def __init__(self, answer):
        self.answer = answer

    def translate(self, texts, source_lang, target_lang):
        return self.answer(texts) if "John" in texts else texts


# John's request holds two texts, so each answer but the generator and None
# has as many items as texts
@pytest.mark.parametrize("answer", [
    lambda texts: (t for t in texts),
    lambda texts: None,
    lambda texts: "Jo",
    lambda texts: {t: t for t in texts},
], ids=["generator", "none", "str", "dict"])
def test_an_answer_that_is_not_a_list_fails_only_its_batch(tmp_path, answer):
    path = str(tmp_path / "tm.jsonl")
    split = DatasetSplit("train", [john(0), sent(["Mary", "sings"], ["B-PER", "O"], origin=1)])
    scope = ("answers-with", "en", "fa")
    with TranslationCache(path, scope) as cache:
        out, outcomes, _ = project_split(split, AnswersWith(answer), "en", "fa", batch=2, cache=cache)
    assert outcomes[0].reason == REASON_BACKEND_FAILURE
    assert "not a list of translations" in outcomes[0].detail
    assert outcomes[1].projected and [s.tokens for s in out.sentences] == [["Mary", "sings"]]
    with TranslationCache(path, scope) as cache:
        assert cache.corrupt_lines == []
        assert cache.lookup("John") is None
        assert cache.lookup("[*0*] lives in [*1*]") is None
        assert cache.lookup("Mary") == "Mary"
    with pytest.raises(AbortedRun, match="not a list of translations"):
        project_split(split, AnswersWith(answer), "en", "fa", batch=2, on_error="strict")


# --- run report -----------------------------------------------------------------


def test_run_report_dict_keys_keep_their_order():
    _, _, report = project_split(fixture_split(2), IdentityBackend(), "en", "fa")
    as_dict = report.to_dict()
    assert list(as_dict) == ["splits", "exclusions_by_reason", "backend_calls", "texts_translated",
                             "cache_hits", "cache", "duration_seconds", "config"]
    assert list(as_dict["splits"]["train"]) == ["total", "projected", "excluded", "dropped_empty"]
    assert list(as_dict["cache"]) == ["entries_loaded", "corrupt_lines"]


SPAN = spans.EntitySpan(0, 1, "PER", "John")


@pytest.mark.parametrize("record, fields, text", [
    (placeholder.PlaceholderHit(0, 2, 7, "[*0*]"), ("index", "start", "end", "text"),
     "PlaceholderHit(index=0, start=2, end=7, text='[*0*]')"),
    (SPAN, ("start", "end", "label", "surface"), "EntitySpan(start=0, end=1, label='PER', surface='John')"),
    (placeholder.MaskedSentence("[*0*] said", (SPAN,)), ("template", "entities"),
     f"MaskedSentence(template='[*0*] said', entities=({SPAN!r},))"),
    (pipeline.ProjectionOutcome(3, reason=REASON_DUPLICATE, detail="[*0*] [*0*]"),
     ("origin_index", "sentence", "reason", "detail"),
     "ProjectionOutcome(origin_index=3, sentence=None, reason='duplicate-placeholder', detail='[*0*] [*0*]')"),
], ids=["PlaceholderHit", "EntitySpan", "MaskedSentence", "ProjectionOutcome"])
def test_a_record_keeps_its_attribute_names_and_repr_and_rejects_assignment(record, fields, text):
    assert repr(record) == text
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)


# --- project_split -------------------------------------------------------------


def fixture_split(n=3):
    sentences = [
        sent(["w%d" % i, "x", "City%d" % i], ["B-PER", "O", "B-LOC"], origin=i) for i in range(n)
    ]
    return DatasetSplit("train", sentences)


def test_split_identity_all_projected():
    split = fixture_split(3)
    out, outcomes, report = project_split(split, IdentityBackend(), "en", "fa")
    assert len(out) == 3
    assert all(o.projected for o in outcomes)
    counts = report.splits["train"]
    assert (counts.total, counts.projected, counts.excluded) == (3, 3, 0)


def test_split_accounting_with_one_collision():
    sentences = [john(0), john(1), sent(["x", "[*0*]"], ["O", "O"], origin=2), john(3), john(4)]
    split = DatasetSplit("train", sentences)
    out, outcomes, report = project_split(split, IdentityBackend(), "en", "fa")
    assert len(out) == 4
    counts = report.splits["train"]
    assert counts.projected + counts.excluded == counts.total == 5
    assert report.reasons[REASON_PATTERN_COLLISION] == 1
    # delta derived from stats equals minus the exclusion count
    delta = delta_stats(split_stats(split), split_stats(out))
    assert delta.n_sentences == -counts.excluded == -1


def test_split_outcomes_keep_source_origin_and_order():
    sentences = [john(0), sent(["x", "[*0*]"], ["O", "O"], origin=1), john(2)]
    out, outcomes, _ = project_split(DatasetSplit("train", sentences), IdentityBackend(), "en", "fa")
    assert [o.origin_index for o in outcomes] == [0, 1, 2]
    assert outcomes[1].reason == REASON_PATTERN_COLLISION
    # projected corpus renumbered 0..n-1
    assert [s.origin_index for s in out.sentences] == [0, 1]


def test_projected_split_holds_the_outcomes_sentences_numbered_by_place():
    sentences = [john(0), sent(["x", "[*0*]"], ["O", "O"], origin=1), john(2), john(3)]
    out, outcomes, _ = project_split(DatasetSplit("train", sentences), IdentityBackend(), "en", "fa")
    kept = [o for o in outcomes if o.projected]
    assert len(kept) == len(out.sentences) == 3
    for j, outcome in enumerate(kept):
        assert out.sentences[j] is outcome.sentence
        assert outcome.sentence.origin_index == j
    # the outcome itself still names the source sentence
    assert [o.origin_index for o in kept] == [0, 2, 3]


def test_a_split_handed_to_stream_split_is_let_go_once_its_sentences_are_masked():
    def handed_over():
        # projected, excluded before translation (a collision, an I- start) and after it
        return DatasetSplit("train", [
            john(0), sent(["x", "[*0*]"], ["O", "O"], origin=1), sent(["Bo"], ["I-PER"], origin=2),
            sent(["Ann", "runs"], ["B-PER", "O"], origin=3), john(4),
        ])

    backend = MapTexts({"[*0*] runs": "runs"})
    _, expected, expected_report = project_split(handed_over(), backend, "en", "fa")
    split = handed_over()
    parsed = [weakref.ref(sentence) for sentence in split.sentences]
    report = pipeline.RunReport()
    outcomes = pipeline.stream_split(split, backend, "en", "fa", report)
    del split
    first = next(outcomes)
    gc.collect()
    assert [ref() for ref in parsed if ref() is not None] == []
    assert [first, *outcomes] == expected
    assert [o.reason for o in expected] == [None, REASON_PATTERN_COLLISION, REASON_INVALID_SCHEME,
                                            REASON_COUNT_MISMATCH, None]
    assert (report.splits, report.reasons) == (expected_report.splits, expected_report.reasons)


class RecordsThread(IdentityBackend):
    backend_id = "records-thread"

    def __init__(self):
        self.threads = set()

    def translate(self, texts, source_lang, target_lang):
        self.threads.add(threading.get_ident())
        return list(texts)


def test_one_worker_sends_every_request_from_the_calling_thread(monkeypatch):
    def no_thread(self):
        raise AssertionError("project_split started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    backend = RecordsThread()
    out, _, report = project_split(fixture_split(20), backend, "en", "fa", batch=4, parallelism=1)
    assert report.counters.backend_calls > 1
    assert backend.threads == {threading.get_ident()}
    assert len(out) == 20


@pytest.mark.parametrize("parallelism", [1, 4])
def test_split_output_independent_of_parallelism(parallelism):
    split = fixture_split(20)
    out, _, _ = project_split(
        split, ScramblerBackend(3), "en", "fa", parallelism=parallelism, batch=4
    )
    baseline, _, _ = project_split(split, ScramblerBackend(3), "en", "fa", parallelism=1, batch=4)
    assert serialize_conll(out) == serialize_conll(baseline)


def test_split_strict_policy_aborts():
    with pytest.raises(AbortedRun):
        project_split(fixture_split(2), FailingBackend(), "en", "fa", on_error="strict")


@pytest.mark.parametrize("project", [
    lambda on_error: project_split(fixture_split(2), FailingBackend(), "en", "fa", on_error=on_error),
    lambda on_error: project_sentence(john(), FailingBackend(), "en", "fa", on_error=on_error),
], ids=["split", "sentence"])
def test_a_misspelled_error_policy_is_rejected_not_read_as_lenient(project):
    with pytest.raises(ValueError, match="strcit"):
        project("strcit")


@pytest.mark.parametrize("setting", [{"parallelism": 0}, {"batch": 0}], ids=["parallelism", "batch"])
def test_a_setting_below_one_is_rejected_before_any_lookup_or_request(tmp_path, setting):
    path = tmp_path / "memory.jsonl"
    backend = RejectsPoison()
    scope = (backend.backend_id, "en", "fa")
    with TranslationCache(str(path), scope) as cache:
        cache.store("x", "ix")
    before = path.read_bytes()
    lookups = []
    with TranslationCache(str(path), scope) as cache:
        cache.lookup = lambda text: lookups.append(text)
        with pytest.raises(ValueError, match=f"{next(iter(setting))} must be >= 1"):
            project_split(fixture_split(2), backend, "en", "fa", cache=cache, **setting)
    assert lookups == [] and backend.calls == []
    assert path.read_bytes() == before


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("langs", [("", "fa"), ("en", "")], ids=["source", "target"])
def test_an_empty_language_code_is_rejected_before_any_lookup_or_request(data_dir, langs, cached):
    split = parse_conll((data_dir / "fixture_train.conll").read_text(encoding="utf-8"), "train")
    backend = RejectsPoison()
    memo = TranslationCache(None, (backend.backend_id, *langs))
    if cached:  # nothing left to send, so no TranslationRequest is ever built
        for sentence in split.sentences:
            for text in masked_texts(sentence):
                memo.store(text, text)
    lookups, lookup = [], memo.lookup
    memo.lookup = lambda text: lookups.append(text) or lookup(text)
    with pytest.raises(ValueError, match="language codes must be non-empty"):
        project_split(split, backend, *langs, cache=memo)
    assert lookups == [] and backend.calls == []


def test_split_lenient_policy_excludes_all_affected():
    out, outcomes, report = project_split(fixture_split(2), FailingBackend(), "en", "fa")
    assert len(out) == 0
    assert all(o.reason == REASON_BACKEND_FAILURE for o in outcomes)
    assert report.reasons[REASON_BACKEND_FAILURE] == 2


def masked_texts(s):
    """The texts project_split sends for one sentence: template, then entity surfaces."""
    masked = mask(s)
    return [masked.template] + [e.surface for e in masked.entities]


def test_cached_sentence_survives_a_failing_request():
    # only misses ride in a request, so the failure cannot reach the cached sentence
    cached, uncached = john(0), sent(["Mary", "left"], ["B-PER", "O"], origin=1)
    memo = TranslationCache(None, (FailingBackend.backend_id, "en", "fa"))
    for text in masked_texts(cached):
        memo.store(text, text)
    split = DatasetSplit("train", [cached, uncached])
    out, outcomes, report = project_split(split, FailingBackend(), "en", "fa", cache=memo)
    assert outcomes[0].projected
    assert out.sentences[0].tokens == JOHN[0]
    assert outcomes[1].reason == REASON_BACKEND_FAILURE
    assert report.counters.cache_hits == 3


@pytest.mark.parametrize("given", ["no-cache", "warm-cache"])
def test_each_unique_text_is_looked_up_once(monkeypatch, given):
    # the bench tracer counts cache hits and misses by wrapping lookup, so the
    # finish stage must read each translation back without one
    looked_up = Counter()
    lookup = TranslationCache.lookup

    def counted(self, text):
        looked_up[text] += 1
        return lookup(self, text)

    monkeypatch.setattr(TranslationCache, "lookup", counted)
    berlin = sent(["Berlin"], ["B-LOC"], origin=2)
    cache = None
    if given == "warm-cache":
        cache = TranslationCache(None, (IdentityBackend.backend_id, "en", "fa"))
        cache.store("Berlin", "Berlin")
    out, _, report = project_split(DatasetSplit("train", [john(0), john(1), berlin]), IdentityBackend(),
                                   "en", "fa", cache=cache)
    assert len(out.sentences) == 3
    assert looked_up == Counter(dict.fromkeys([*masked_texts(john()), *masked_texts(berlin)], 1))
    assert report.counters.cache_hits == (given == "warm-cache")


def test_split_every_projected_sentence_is_valid():
    split = fixture_split(10)
    out, _, _ = project_split(split, ScramblerBackend(0), "en", "fa")
    for s in out.sentences:
        assert len(s.tokens) == len(s.tags)
        assert validate_scheme(s) == []


def test_identity_split_round_trips_through_serialization(data_dir):
    text = (data_dir / "fixture_train.conll").read_text(encoding="utf-8")
    split = parse_conll(text, "train")
    out, _, report = project_split(split, IdentityBackend(), "en", "fa")
    assert serialize_conll(out) == text
    assert report.splits["train"].excluded == 0


def test_dict_projection_matches_golden(data_dir):
    backend = DictionaryBackend.from_file(str(data_dir / "dict_en_fa.tsv"))
    for name in ("train", "dev", "test"):
        text = (data_dir / f"fixture_{name}.conll").read_text(encoding="utf-8")
        split = parse_conll(text, name)
        out, _, report = project_split(split, backend, "en", "fa")
        golden = (data_dir / "golden" / f"{name}.conll").read_text(encoding="utf-8")
        assert serialize_conll(out) == golden, name
        assert report.splits[name].excluded == 0


def test_shared_memo_dedups_across_splits():
    from test_backends import RecordingBackend

    backend = RecordingBackend()
    memo = TranslationCache(None, (backend.backend_id, "en", "fa"))
    train = DatasetSplit("train", [sent(["Shared", "word"], ["B-PER", "O"], 0)])
    dev = DatasetSplit("dev", [sent(["Shared", "term"], ["B-PER", "O"], 0)])
    project_split(train, backend, "en", "fa", cache=memo)
    project_split(dev, backend, "en", "fa", cache=memo)
    sent_texts = [t for call in backend.calls for t in call]
    assert sent_texts.count("Shared") == 1


# --- one pass per stage ------------------------------------------------------


def count_calls(monkeypatch, name):
    """Count calls to ``name`` under every transproj module that binds it."""
    calls = Counter()
    for module in (conll_io, spans, placeholder, pipeline):
        original = getattr(module, name, None)
        if original is not None:
            def counted(*args, _original=original, **kwargs):
                calls[name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def mixed_split():
    return DatasetSplit("train", [john(0), sent(["only", "words"], ["O", "O"], 1), john(2)])


def test_each_sentence_is_validated_once(monkeypatch):
    calls = count_calls(monkeypatch, "validate_scheme")
    out, _, _ = project_split(mixed_split(), IdentityBackend(), "en", "fa")
    assert len(out) == 3
    assert calls["validate_scheme"] == 3


def test_each_translated_template_is_scanned_once_and_a_source_only_with_a_bracket(monkeypatch):
    # mask looks for placeholder fragments, not placeholders, so no source is
    # scanned for placeholders, not even one holding a bracket
    calls = count_calls(monkeypatch, "find_placeholders")
    out, _, _ = project_split(mixed_split(), IdentityBackend(), "en", "fa")
    assert len(out) == 3
    assert calls["find_placeholders"] == 3
    bracket = DatasetSplit("train", [sent(["John", "x[1]"], ["B-PER", "O"], 0)])
    out, _, _ = project_split(bracket, IdentityBackend(), "en", "fa")
    assert out.sentences[0].tokens == ["John", "x[1]"]
    assert calls["find_placeholders"] == 4


# --- properties --------------------------------------------------------------

# What an adversarial backend does to one text: pass it through, replace it,
# add to either end of it, or reverse its words.
EDITS = st.one_of(
    st.none(),
    ADVERSARIAL_TEXT,
    st.tuples(st.sampled_from(["prefix", "suffix"]), ADVERSARIAL_TEXT),
    st.just("reverse"),
)


def apply_edit(text, edit):
    if edit is None:
        return text
    if edit == "reverse":
        return " ".join(text.split()[::-1])
    if isinstance(edit, tuple):
        where, extra = edit
        return f"{extra} {text}" if where == "prefix" else f"{text} {extra}"
    return edit


class Adversary(IdentityBackend):
    """Applies the k-th drawn edit to the k-th text it is sent."""

    backend_id = "adversary"

    def __init__(self, edits):
        self.edits = edits

    def translate(self, texts, source_lang, target_lang):
        return [apply_edit(t, self.edits[k % len(self.edits)]) for k, t in enumerate(texts)]


@given(adversarial_sentences(), st.lists(EDITS, min_size=1, max_size=6))
def test_projected_sentences_revalidate_and_remask(s, edits):
    outcome = project_sentence(s, Adversary(edits), "en", "fa")
    if outcome.projected:
        assert validate_scheme(outcome.sentence) == []
        try:
            mask(outcome.sentence)
        except PatternCollision as exc:
            raise AssertionError(f"projected sentence re-masks with a collision: {exc}")
    else:
        assert outcome.reason in pipeline.ALL_REASONS


def reference_finish(s, masked, translated):
    """(reason, detail, sentence) from the public stages, each scanning the
    template itself: count_check, unmask, then the leak check."""
    template, entities = translated[0], translated[1:]
    reason = count_check(masked, template)
    if reason is not None:
        return reason, template, None
    try:
        out = unmask(template, entities, [e.label for e in masked.entities], s.origin_index)
    except EmptyEntityTranslation as exc:
        return REASON_EMPTY_ENTITY, str(exc), None
    except InvalidSentence as exc:
        return REASON_TOKEN_TAG_MISMATCH, str(exc), None
    # the source holds no fragment, or mask would have raised, so any fragment leaked
    if PLACEHOLDER_FRAGMENT_RE.search(" ".join(out.tokens)):
        return REASON_PLACEHOLDER_LEAK, template, None
    return None, None, out


@given(adversarial_sentences(), st.data())
def test_finish_matches_public_stage_reference(s, data):
    try:
        masked = mask(s)
    except PatternCollision:
        assume(False)
    texts = [masked.template] + [e.surface for e in masked.entities]
    translated = [apply_edit(t, data.draw(st.one_of(EDITS, st.just(" ")))) for t in texts]
    outcome = pipeline._finish(s.origin_index, tuple(e.label for e in masked.entities), translated, s.origin_index)
    assert (outcome.reason, outcome.detail, outcome.sentence) == reference_finish(s, masked, translated)


class RejectsPoison(IdentityBackend):
    """Identity, except that a request holding a text in ``poison`` fails whole."""

    backend_id = "rejects-poison"

    def __init__(self, poison=()):
        self.poison = set(poison)
        self.calls = []

    def translate(self, texts, source_lang, target_lang):
        self.calls.append(list(texts))
        if self.poison.intersection(texts):
            raise BackendUnavailable("poisoned request")
        return list(texts)


@st.composite
def small_splits(draw):
    """Sentences over a few words and names, so texts repeat across sentences."""
    sentences = []
    for i in range(draw(st.integers(1, 8))):
        tokens, tags = [], []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                tokens.append(draw(st.sampled_from(["Ann", "Bo", "Cy"])))
                tags.append("B-PER")
            else:
                tokens.append(draw(st.sampled_from(["a", "b", "c", "d"])))
                tags.append("O")
        sentences.append(sent(tokens, tags, origin=i))
    return DatasetSplit("train", sentences)


def content(outcome):
    """An outcome's source position, reason, detail, tokens and tags: all of it
    but the projected sentence's place in the output."""
    s = outcome.sentence
    return outcome.origin_index, outcome.reason, outcome.detail, s and s.tokens, s and s.tags


@settings(deadline=None)
@given(small_splits(), st.data())
def test_only_misses_reach_the_backend_and_a_failure_spares_cached_sentences(split, data):
    texts = list(dict.fromkeys(t for s in split.sentences for t in masked_texts(s)))
    cached = set(data.draw(st.lists(st.sampled_from(texts), unique=True)))
    poison = set(data.draw(st.lists(st.sampled_from(texts), unique=True, max_size=2)))
    batch = data.draw(st.integers(1, 5))
    parallelism = data.draw(st.integers(1, 3))
    misses = [t for t in texts if t not in cached]

    def run(backend, on_error):
        memo = TranslationCache(None, (backend.backend_id, "en", "fa"))
        for text in cached:
            memo.store(text, text)
        return project_split(split, backend, "en", "fa", batch=batch, parallelism=parallelism,
                             cache=memo, on_error=on_error)

    _, healthy, _ = project_split(split, RejectsPoison(), "en", "fa")
    backend = RejectsPoison(poison)
    _, outcomes, report = run(backend, "lenient")
    assert not cached.intersection(t for call in backend.calls for t in call)
    assert len(backend.calls) == -(-len(misses) // batch)
    assert report.counters.cache_hits == len(cached)
    answered = [call for call in backend.calls if not poison.intersection(call)]
    assert report.counters.backend_calls == len(answered)
    assert report.counters.texts_translated == sum(map(len, answered))
    for s, outcome, expected in zip(split.sentences, outcomes, healthy):
        if cached.issuperset(masked_texts(s)):
            # a projected sentence is numbered by its place in the output, which
            # the exclusions before it shift, so compare what it holds
            assert outcome.projected
            assert content(outcome) == content(expected)

    if poison.intersection(misses):
        with pytest.raises(AbortedRun):
            run(RejectsPoison(poison), "strict")
    else:
        _, strict, _ = run(RejectsPoison(poison), "strict")
        assert strict == healthy


def test_strict_policy_with_one_worker_sends_one_request_before_aborting():
    split = DatasetSplit("train", [sent([f"w{i}"], ["O"], origin=i) for i in range(40)])
    backend = RejectsPoison(f"w{i}" for i in range(40))
    with pytest.raises(AbortedRun):
        project_split(split, backend, "en", "fa", batch=4, parallelism=1, on_error="strict")
    assert len(backend.calls) == 1


def word_split(n):
    return DatasetSplit("train", [sent([f"w{i}"], ["O"], origin=i) for i in range(n)])


class FirstFailsThenSlow(IdentityBackend):
    """Fails the request holding ``w0``; every other call takes 20 ms."""

    backend_id = "first-fails"

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def translate(self, texts, source_lang, target_lang):
        with self._lock:
            self.calls += 1
        if "w0" in texts:
            raise BackendUnavailable("first batch rejected")
        time.sleep(0.02)
        return list(texts)


@pytest.mark.parametrize("parallelism", [2, 4])
def test_strict_abort_sends_no_batch_after_the_abort(parallelism):
    backend = FirstFailsThenSlow()
    with pytest.raises(AbortedRun, match="first batch rejected"):
        project_split(word_split(40), backend, "en", "fa", batch=1, parallelism=parallelism,
                      on_error="strict")
    assert backend.calls <= 2 * parallelism


class SlowFirstSecondFails(FirstFailsThenSlow):
    """Holds the request with ``w0`` for 200 ms, and then fails it with a
    503 if it may be retried; raises ``error`` for the one with ``w1``."""

    def __init__(self, error, retries):
        super().__init__()
        self.error, self.retries = error, retries

    def translate(self, texts, source_lang, target_lang):
        with self._lock:
            self.calls += 1
        if "w1" in texts:
            raise self.error
        if "w0" in texts:
            time.sleep(0.2)
            if self.retries:
                raise backends.BackendTransient("HTTP 503")
        return list(texts)


@pytest.mark.parametrize("parallelism", [2, 4])
@pytest.mark.parametrize("error, retries, message", [
    # w0's retry comes after the stop, so it is not sent, and the run aborts with w1's error
    (BackendUnavailable("HTTP 400"), 1, "HTTP 400"),
    (backends.BackendTransient("HTTP 503"), 0, "giving up on first-fails after 1 attempts: HTTP 503"),
], ids=["permanent", "retries-exhausted"])
def test_a_strict_failure_stops_the_run_while_an_earlier_request_is_in_flight(parallelism, error, retries,
                                                                              message):
    # w1's failure stops the other workers itself: the run gets to it only after w0
    backend = SlowFirstSecondFails(error, retries)
    with pytest.raises(AbortedRun, match=f"^{message}$"):
        project_split(word_split(40), backend, "en", "fa", batch=1, parallelism=parallelism,
                      on_error="strict")
    assert backend.calls <= 2 * parallelism


@pytest.mark.parametrize("parallelism", [2, 3])
@pytest.mark.parametrize("fail_first", [0, 3], ids=["no-retries", "retries"])
def test_http_requests_in_flight_stay_within_parallelism_and_output_matches_one_worker(
        stub_server, parallelism, fail_first):
    split = fixture_split(30)
    stub = stub_server(fail_first=fail_first, delay=0.005)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # thread switches between any two steps of the slot hand-off
    try:
        out, outcomes, report = project_split(split, http_backend(stub.url), "en", "fa", batch=2,
                                              parallelism=parallelism)
    finally:
        sys.setswitchinterval(interval)
    assert stub.max_in_flight <= parallelism
    assert stub.request_count == report.counters.backend_calls + fail_first
    one_out, one_outcomes, _ = project_split(split, http_backend(stub_server().url), "en", "fa",
                                             batch=2, parallelism=1)
    assert serialize_conll(out) == serialize_conll(one_out)
    assert outcomes == one_outcomes


@pytest.mark.parametrize("parallelism", [2, 3])
def test_a_batch_in_retry_backoff_hands_its_slot_to_another(stub_server, monkeypatch, parallelism):
    stub = stub_server(fail_first=1, delay=0.02)
    full_while_backing_off = []
    # the one backoff returns once every slot holds a request, or after 5 s
    monkeypatch.setattr(backends.time, "sleep", lambda seconds: full_while_backing_off.append(
        stub.wait_for_in_flight(parallelism, timeout=5)))
    _, outcomes, _ = project_split(word_split(40), http_backend(stub.url, retries=1), "en", "fa",
                                   batch=1, parallelism=parallelism)
    assert full_while_backing_off == [True]
    assert stub.max_in_flight <= parallelism
    assert all(o.projected for o in outcomes)


class Answer:
    """What a fake session's POST returns: a status, and the texts as the translations."""

    def __init__(self, status, texts):
        self.status_code, self._texts = status, texts

    def json(self):
        return {"translations": self._texts}


def pool_marking_shutdown(event):
    """A ThreadPoolExecutor that sets ``event`` when stream_split shuts it
    down, which it does right after it sets its stop event."""

    class Pool(ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            event.set()
            super().shutdown(*args, **kwargs)

    return Pool


def test_a_strict_abort_stops_a_batch_in_retry_backoff(monkeypatch):
    """w0's batch is rejected for good once w1's has had a 503, and w1's
    backoff lasts until the abort shuts the pool down."""
    had_503, aborted = threading.Event(), threading.Event()
    posts = []  # (texts, whether the run had aborted) per POST

    class Session:
        def post(self, url, json=None, headers=None, timeout=None):
            texts = json["texts"]
            posts.append((texts, aborted.is_set()))
            if texts == ["w1"]:
                status = 200 if had_503.is_set() else 503
                had_503.set()
                return Answer(status, texts)
            had_503.wait(5)
            return Answer(400, texts)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", pool_marking_shutdown(aborted))
    backoffs = []
    monkeypatch.setattr(time, "sleep", lambda seconds: backoffs.append(aborted.wait(5)))
    backend = HttpBackend("http://example.invalid/t", session=Session(), rate=None, retries=3)
    with pytest.raises(AbortedRun, match="HTTP 400"):
        project_split(word_split(2), backend, "en", "fa", batch=1, parallelism=2, on_error="strict")
    assert backoffs == [True]
    assert [texts for texts, after_abort in posts if after_abort] == []
    assert sorted(texts for texts, _ in posts) == [["w0"], ["w1"]]


@pytest.mark.parametrize("parallelism", [2, 3])
def test_a_strict_abort_ends_a_wait_on_the_rate_limiter_and_sends_nothing_more(monkeypatch, parallelism):
    """The bucket starts with five tokens and refills one every 2 s, so the
    sixth request waits 2 s for one. w0's 400 comes after 50 ms; the abort
    must end that wait, in less than half of it however busy the host is,
    and no POST may start after it."""
    aborted = threading.Event()
    posts = []  # whether the run had aborted, per POST

    class Session:
        def post(self, url, json=None, headers=None, timeout=None):
            posts.append(aborted.is_set())
            if json["texts"] == ["w0"]:
                time.sleep(0.05)
                return Answer(400, json["texts"])
            return Answer(200, json["texts"])

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", pool_marking_shutdown(aborted))
    backend = HttpBackend("http://example.invalid/t", session=Session(), retries=0)
    backend.limiter = backends.TokenBucket(rate=0.5, capacity=5)
    started = time.monotonic()
    with pytest.raises(AbortedRun, match="HTTP 400"):
        project_split(word_split(12), backend, "en", "fa", batch=1, parallelism=parallelism,
                      on_error="strict")
    assert time.monotonic() - started < 1.0
    assert 2 <= len(posts) <= 5 and True not in posts


class Flaky(IdentityBackend):
    """Identity, except that a batch fails transiently, with ``HTTP 503``,
    on as many attempts as ``faults`` gives any of its texts, and each
    attempt takes the longest ``delays`` of its texts. Faults are keyed by
    content, so they do not depend on the schedule. Counts the attempts at
    each batch, and records a batch whose attempt starts once ``aborted``
    is set."""

    backend_id = "flaky"

    def __init__(self, faults, delays, retries, limiter=None, aborted=None):
        self.faults, self.delays = faults, delays
        self.retries, self.limiter = retries, limiter
        self.aborted = aborted or threading.Event()
        self.attempts = Counter()
        self.after_abort = []
        self._lock = threading.Lock()

    def failures(self, texts):
        return max(self.faults.get(t, 0) for t in texts)

    def translate(self, texts, source_lang, target_lang):
        key = tuple(texts)
        with self._lock:
            if self.aborted.is_set():
                self.after_abort.append(key)
            attempt = self.attempts[key]
            self.attempts[key] += 1
        time.sleep(max(self.delays.get(t, 0) for t in texts))
        if attempt < self.failures(texts):
            raise backends.BackendTransient("HTTP 503")
        return list(texts)


@settings(deadline=None)
@given(small_splits(), st.data())
def test_transient_faults_cost_retries_not_sentences(split, data):
    texts = list(dict.fromkeys(t for s in split.sentences for t in masked_texts(s)))
    faults = {t: data.draw(st.integers(0, 3), label=f"faults of {t!r}") for t in texts}
    delays = {t: data.draw(st.sampled_from([0, 0, 0.001]), label=f"delay of {t!r}") for t in texts}
    retries = data.draw(st.integers(0, 3), label="retries")
    batch = data.draw(st.integers(1, 5), label="batch")
    parallelism = data.draw(st.integers(1, 4), label="parallelism")
    # a fast bucket, so that attempts also wait on the limiter
    limited = data.draw(st.booleans(), label="limited")

    def flaky(retries, aborted=None):
        limiter = backends.TokenBucket(rate=2000, capacity=1) if limited else None
        return Flaky(faults, delays, retries, limiter, aborted)

    def run(backend, parallelism, on_error="lenient"):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "memory.jsonl")
            with TranslationCache(path, (backend.backend_id, "en", "fa")) as cache:
                _, outcomes, report = project_split(split, backend, "en", "fa", batch=batch,
                                                    parallelism=parallelism, cache=cache, on_error=on_error)
            with open(path, "rb") as fh:
                return outcomes, fh.read(), {**report.to_dict(), "duration_seconds": None}

    healthy = run(Flaky({}, {}, 0), 1)
    enough = flaky(max(faults.values()))
    assert run(enough, parallelism) == healthy
    assert all(n == enough.failures(key) + 1 for key, n in enough.attempts.items())

    backend = flaky(retries)
    outcomes, memory, report = run(backend, parallelism)
    # every batch got one attempt more than its faults, or ran out of attempts
    assert all(n == min(backend.failures(key), retries) + 1 for key, n in backend.attempts.items())
    exhausted = {t for key in backend.attempts if backend.failures(key) > retries for t in key}
    detail = f"giving up on flaky after {retries + 1} attempts: HTTP 503"
    for s, outcome, expected in zip(split.sentences, outcomes, healthy[0]):
        if exhausted.intersection(masked_texts(s)):
            assert (outcome.reason, outcome.detail) == (REASON_BACKEND_FAILURE, detail)
        else:
            assert content(outcome) == content(expected)
    kept = [line for line in healthy[1].splitlines(keepends=True)
            if json.loads(line)["source_text"] not in exhausted]
    assert memory == b"".join(kept)
    failed_batches = sum(backend.failures(key) > retries for key in backend.attempts)
    assert report["backend_calls"] == healthy[2]["backend_calls"] - failed_batches
    assert report["texts_translated"] == healthy[2]["texts_translated"] - len(exhausted)

    aborted = threading.Event()
    strict = flaky(retries, aborted)
    with mock.patch.object(pipeline, "ThreadPoolExecutor", pool_marking_shutdown(aborted)):
        if exhausted:
            with pytest.raises(AbortedRun, match=re.escape(detail)):
                run(strict, parallelism, "strict")
        else:
            assert run(strict, parallelism, "strict") == healthy
    assert strict.after_abort == []
