import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transproj import backends, conll_io, pipeline, placeholder, spans
from transproj.backends import (
    BackendUnavailable,
    DictionaryBackend,
    IdentityBackend,
    MemoryCache,
    ScramblerBackend,
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
    PLACEHOLDER_RE,
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


def test_placeholder_token_in_source_is_pattern_collision():
    outcome = project_sentence(
        sent(["bad", "[*0*]", "token"], ["O", "O", "O"]), IdentityBackend(), "en", "fa"
    )
    assert outcome.reason == REASON_PATTERN_COLLISION


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
    memo = MemoryCache()
    for text in masked_texts(cached):
        memo.store(FailingBackend.backend_id, "en", "fa", text, text)
    split = DatasetSplit("train", [cached, uncached])
    out, outcomes, report = project_split(split, FailingBackend(), "en", "fa", cache=memo)
    assert outcomes[0].projected
    assert out.sentences[0].tokens == JOHN[0]
    assert outcomes[1].reason == REASON_BACKEND_FAILURE
    assert report.counters.cache_hits == 3


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
    from transproj.backends import MemoryCache

    backend = RecordingBackend()
    memo = MemoryCache()
    train = DatasetSplit("train", [sent(["Shared", "word"], ["B-PER", "O"], 0)])
    dev = DatasetSplit("dev", [sent(["Shared", "term"], ["B-PER", "O"], 0)])
    project_split(train, backend, "en", "fa", cache=memo)
    project_split(dev, backend, "en", "fa", cache=memo)
    sent_texts = [t for call in backend.calls for t in call]
    assert sent_texts.count("Shared") == 1


def test_report_merge_accumulates():
    split_a = fixture_split(3)
    _, _, a = project_split(split_a, IdentityBackend(), "en", "fa")
    split_b = DatasetSplit("dev", [john(0)])
    _, _, b = project_split(split_b, IdentityBackend(), "en", "fa")
    a.merge(b)
    assert a.splits["train"].total == 3
    assert a.splits["dev"].total == 1


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
    # every placeholder match starts with "[", so the masked source template
    # is scanned for collisions only when a source token holds one
    calls = count_calls(monkeypatch, "find_placeholders")
    out, _, _ = project_split(mixed_split(), IdentityBackend(), "en", "fa")
    assert len(out) == 3
    assert calls["find_placeholders"] == 3
    bracket = DatasetSplit("train", [sent(["John", "x[1]"], ["B-PER", "O"], 0)])
    out, _, _ = project_split(bracket, IdentityBackend(), "en", "fa")
    assert out.sentences[0].tokens == ["John", "x[1]"]
    assert calls["find_placeholders"] == 5


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
    if PLACEHOLDER_RE.search(" ".join(out.tokens)):
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
    outcome = pipeline._finish(s, masked, translated, s.origin_index)
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
        memo = MemoryCache()
        for text in cached:
            memo.store(backend.backend_id, "en", "fa", text, text)
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


def test_strict_policy_stops_at_the_first_failed_request():
    split = DatasetSplit("train", [sent([f"w{i}"], ["O"], origin=i) for i in range(40)])
    backend = RejectsPoison(f"w{i}" for i in range(40))
    with pytest.raises(AbortedRun):
        project_split(split, backend, "en", "fa", batch=4, parallelism=1, on_error="strict")
    # the one worker may take the second request before the first has failed
    assert len(backend.calls) <= 2


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
