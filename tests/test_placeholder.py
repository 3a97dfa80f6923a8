import unicodedata

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from transproj.backends import DictionaryBackend
from transproj.conll_io import InvalidSentence, Tag, validate_scheme
from transproj.placeholder import (
    PLACEHOLDER_FRAGMENT_RE,
    PLACEHOLDER_RE,
    REASON_COUNT_MISMATCH,
    REASON_DUPLICATE,
    DuplicateIndex,
    EmptyEntityTranslation,
    MaskedSentence,
    MissingIndex,
    PatternCollision,
    UnknownIndex,
    count_check,
    find_fragment,
    find_placeholders,
    mask,
    unmask,
)
from transproj.spans import EntitySpan, extract_spans

from test_conll_io import sent


# --- mask ----------------------------------------------------------------


def test_mask_basic():
    m = mask(sent(["John", "lives", "in", "Berlin"], ["B-PER", "O", "O", "B-LOC"]))
    assert m.template == "[*0*] lives in [*1*]"
    assert [(e.label, e.surface) for e in m.entities] == [("PER", "John"), ("LOC", "Berlin")]


def test_mask_no_entities():
    m = mask(sent(["a", "b"], ["O", "O"]))
    assert m.template == "a b"
    assert m.entities == ()


def test_mask_whole_sentence_entity():
    m = mask(sent(["Acme", "Corp"], ["B-ORG", "I-ORG"]))
    assert m.template == "[*0*]"
    assert m.entities[0].surface == "Acme Corp"


def test_mask_rejects_placeholder_token():
    with pytest.raises(PatternCollision):
        mask(sent(["say", "[*0*]"], ["O", "O"]))


def test_mask_rejects_tolerant_collision_token():
    # tolerant grammar also matches localized digits inside a single token
    with pytest.raises(PatternCollision):
        mask(sent(["[*١*]"], ["O"]))


def test_mask_rejects_cross_token_collision():
    # adjacent tokens that only form a placeholder once space-joined
    with pytest.raises(PatternCollision):
        mask(sent(["[*", "0*]"], ["O", "O"]))


# --- find_placeholders ----------------------------------------------------


def test_find_exact():
    hits = find_placeholders("[*0*] x [*1*]")
    assert [h.index for h in hits] == [0, 1]
    assert [h.text for h in hits] == ["[*0*]", "[*1*]"]
    assert (hits[0].start, hits[0].end) == (0, 5)


def test_find_nothing():
    assert find_placeholders("plain text") == []


def test_find_extended_arabic_indic_with_spaces():
    hits = find_placeholders("[* ۱ *]")
    assert len(hits) == 1
    assert hits[0].index == 1


def test_find_mixed_digits():
    assert [h.index for h in find_placeholders("[*1۲*]")] == [12]


def test_find_reports_duplicates_in_order():
    assert [h.index for h in find_placeholders("[*1*] a [*0*] b [*1*]")] == [1, 0, 1]


def test_find_reads_an_index_too_long_for_int_as_one_no_entity_has():
    # int() refuses more than 4,300 digits, leading zeros included
    sevens, eights = "7" * 5000, "8" * 5000
    hits = find_placeholders(f"[*{sevens}*] [*{'0' * 5000}7*] [*{'۰' * 30}۷*] [*{'9' * 18}*] [*1{'0' * 18}*]")
    assert [h.index for h in hits[1:4]] == [7, 7, 10 ** 18 - 1]
    assert hits[0].index > hits[4].index > hits[3].index
    assert count_check(masked(1), f"[*0*] [*{sevens}*]") == REASON_COUNT_MISMATCH
    assert count_check(masked(1), f"[*0*] [*{sevens}*] [*{eights}*]") == REASON_COUNT_MISMATCH
    assert count_check(masked(1), f"[*0*] [*{sevens}*] [*{sevens}*]") == REASON_DUPLICATE


def test_unmask_names_an_index_too_long_for_int_by_its_text():
    # printing such an index in decimal would raise ValueError, not the rule's exception
    long = "[*" + "7" * 5000 + "*]"
    with pytest.raises(UnknownIndex, match=r"^placeholder '\[\*7{50}"):
        unmask(long, ["a"], ["PER"])
    with pytest.raises(DuplicateIndex) as exc:
        unmask(f"[*0*] {long} {long}", ["a"], ["PER"])
    assert len(str(exc.value)) < 100


def test_the_hand_written_prechecks_admit_every_bracket_star_and_zero_of_the_grammar():
    """Three fast paths repeat part of the grammar by hand: the dictionary
    backend scans only a text holding an opening bracket, find_fragment
    searches only a text holding a star, and _index strips only the zeros
    it names. A character the grammar admits and a precheck misses fails
    here: a placeholder then reaches the dictionary, a fragment is missed,
    or 21 digits "0...010" read as hex 16 instead of 10."""
    for code in range(0x10000):
        if 0xD800 <= code <= 0xDFFF:
            continue
        c = chr(code)
        if PLACEHOLDER_RE.fullmatch(c + "*0*]"):
            text = "a " + c + "*0*]"
            assert DictionaryBackend({c + "*0*]": "Y"}).translate([text], "en", "fa") == [text], hex(code)
        if PLACEHOLDER_FRAGMENT_RE.fullmatch("[" + c):
            assert find_fragment("[" + c) is not None, hex(code)
        if unicodedata.decimal(c, None) == 0 and PLACEHOLDER_RE.fullmatch(f"[*{c}*]"):
            assert find_placeholders(f"[*{c * 19}10*]")[0].index == 10, hex(code)


# --- unmask ----------------------------------------------------------------


def test_unmask_reorders_by_index():
    out = unmask("[*1*] x [*0*]", ["aa", "bb cc"], ["PER", "LOC"])
    assert out.tokens == ["bb", "cc", "x", "aa"]
    assert [t.raw for t in out.tags] == ["B-LOC", "I-LOC", "O", "B-PER"]


def test_unmask_no_entities():
    out = unmask("a b", [], [])
    assert out.tokens == ["a", "b"]
    assert [t.raw for t in out.tags] == ["O", "O"]


def test_unmask_splits_glued_placeholder():
    out = unmask("x[*0*]y", ["ent"], ["PER"])
    assert out.tokens == ["x", "ent", "y"]
    assert [t.raw for t in out.tags] == ["O", "B-PER", "O"]


def test_unmask_unknown_index():
    with pytest.raises(UnknownIndex):
        unmask("[*2*]", ["a"], ["PER"])


def test_unmask_duplicate_index():
    with pytest.raises(DuplicateIndex):
        unmask("[*0*] and [*0*]", ["a"], ["PER"])


def test_unmask_missing_index_names_it():
    # an entity whose placeholder the translation dropped must not vanish from the output
    with pytest.raises(MissingIndex, match="placeholder index 0 is missing"):
        unmask("hello", ["John"], ["PER"])
    with pytest.raises(MissingIndex, match="placeholder index 1 is missing"):
        unmask("[*2*] [*0*]", ["a", "b", "c"], ["PER", "LOC", "ORG"])


def test_unmask_empty_entity_translation():
    with pytest.raises(EmptyEntityTranslation):
        unmask("[*0*]", ["  "], ["PER"])


def test_unmask_label_count_mismatch():
    with pytest.raises(ValueError):
        unmask("[*0*]", ["a", "b"], ["PER"])


# --- count_check -----------------------------------------------------------


def masked(n):
    spans = tuple(EntitySpan(i, i + 1, "PER", f"e{i}") for i in range(n))
    template = " ".join(f"[*{i}*]" for i in range(n)) or "x"
    return MaskedSentence(template, spans)


def test_count_check_pass():
    assert count_check(masked(2), "[*1*] foo [*0*]") is None


def test_count_check_missing():
    assert count_check(masked(2), "only [*0*]") == REASON_COUNT_MISMATCH


def test_count_check_duplicate():
    assert count_check(masked(1), "[*0*] twice [*0*]") == REASON_DUPLICATE


def test_count_check_extra_index():
    assert count_check(masked(1), "[*0*] [*5*]") == REASON_COUNT_MISMATCH


def test_count_check_zero_entities():
    assert count_check(masked(0), "plain translation") is None
    assert count_check(masked(0), "ghost [*0*]") == REASON_COUNT_MISMATCH


# --- properties -------------------------------------------------------------

SAFE_WORD = st.text(st.characters(whitelist_categories=("Ll", "Lu")), min_size=1, max_size=6)


@st.composite
def safe_sentences(draw):
    from transproj.conll_io import Tag

    n = draw(st.integers(1, 10))
    toks = [draw(SAFE_WORD) for _ in range(n)]
    tags = []
    prev = None
    for _ in range(n):
        kind = draw(st.sampled_from(["O", "B", "I"]))
        if kind == "I" and prev is None:
            kind = "B"
        if kind == "O":
            tags.append(Tag.outside())
            prev = None
        elif kind == "B":
            prev = draw(st.sampled_from(["PER", "LOC", "ORG"]))
            tags.append(Tag.begin(prev))
        else:
            tags.append(Tag.inside(prev))
    return sent(toks, [t.raw for t in tags])


@given(safe_sentences())
def test_identity_round_trip(s):
    m = mask(s)
    out = unmask(m.template, [e.surface for e in m.entities], [e.label for e in m.entities])
    assert out.tokens == s.tokens
    assert out.tags == s.tags


@given(safe_sentences())
def test_find_on_masked_template(s):
    m = mask(s)
    assert [h.index for h in find_placeholders(m.template)] == list(range(len(m.entities)))


@given(safe_sentences(), st.randoms(use_true_random=False))
def test_permutation_alignment(s, rng):
    from transproj.spans import extract_spans

    m = mask(s)
    words = m.template.split()
    rng.shuffle(words)
    shuffled = " ".join(words)
    out = unmask(shuffled, [e.surface for e in m.entities], [e.label for e in m.entities])
    # whatever the permutation, entity i's translation lands at placeholder i:
    # the (label, surface) multiset is permutation-independent
    got = sorted((sp.label, sp.surface) for sp in extract_spans(out))
    want = sorted((e.label, e.surface) for e in m.entities)
    assert got == want
    assert validate_scheme(out) == []
    assert sum(1 for t in out.tags if t.kind == "B") == len(m.entities)


# Pieces of the placeholder grammar, ASCII and Arabic-Indic digits, and
# plain words: joined at random they form whole, partial and cross-token
# placeholders.
FRAGMENTS = st.sampled_from(
    ["w", "Berlin", "[", "]", "*", "[*", "*]", "0", "1", "٠", "۱", "2*]", "[*0*]", "[*1*]",
     "[*١*]", "[*۰*]"]
)
ADVERSARIAL_TOKEN = st.lists(FRAGMENTS, min_size=1, max_size=3).map("".join)
ADVERSARIAL_TEXT = st.lists(
    st.tuples(FRAGMENTS, st.sampled_from(["", " ", "  "])), max_size=6
).map(lambda parts: "".join(a + b for a, b in parts))


@st.composite
def adversarial_sentences(draw, origin=0):
    """Valid IOB2 sentences whose tokens, inside entities or not, may hold
    placeholder fragments."""
    n = draw(st.integers(1, 6))
    tokens = draw(st.lists(ADVERSARIAL_TOKEN, min_size=n, max_size=n))
    raw, prev = [], None
    for _ in range(n):
        label = draw(st.sampled_from([None, "PER", "LOC"]))
        if label is None:
            raw.append("O")
        elif label == prev and draw(st.booleans()):
            raw.append(f"I-{label}")
        else:
            raw.append(f"B-{label}")
        prev = label
    return sent(tokens, raw, origin)


def reference_template(s, spans):
    """Token by token: a span's first token becomes the span's placeholder,
    its other tokens are dropped, and every other token stays."""
    starts = {span.start: k for k, span in enumerate(spans)}
    inside = {i for span in spans for i in range(span.start + 1, span.end)}
    return " ".join(f"[*{starts[i]}*]" if i in starts else token
                    for i, token in enumerate(s.tokens) if i not in inside)


def reference_collision(s):
    """The collision message of one fragment search over the space-joined
    tokens, naming the token the match starts in; None when the sentence
    masks cleanly."""
    match = PLACEHOLDER_FRAGMENT_RE.search(" ".join(s.tokens))
    if match is None:
        return None
    end = 0
    for pos, token in enumerate(s.tokens):
        end += len(token) + 1
        if match.start() < end:
            return f"token {token!r} at position {pos} starts placeholder syntax {match.group()!r}"


@given(adversarial_sentences())
def test_mask_collision_matches_joined_text_reference(s):
    expected = reference_collision(s)
    if expected is None:
        masked = mask(s)
        assert masked.entities == tuple(extract_spans(s))
        assert masked.template == reference_template(s, masked.entities)
        # without a source fragment the template's placeholders are its own, in order
        assert [h.index for h in find_placeholders(masked.template)] == list(range(len(masked.entities)))
    else:
        with pytest.raises(PatternCollision) as exc:
            mask(s)
        assert str(exc.value) == expected


def reference_unmask(template, entities, labels, origin_index=0):
    """Pad-join-split reassembly: each hit becomes a space-padded private-use
    sentinel, the text is split on whitespace, and a sentinel word expands
    to its entity's tokens."""
    from transproj.conll_io import Tag, TaggedSentence

    if len(entities) != len(labels):
        raise ValueError(f"{len(entities)} entity translations vs {len(labels)} labels")
    hits = find_placeholders(template)
    indices = [hit.index for hit in hits]
    for k, hit in enumerate(hits):
        if hit.index in indices[:k]:
            raise DuplicateIndex(f"placeholder {hit.text!r:.60} repeats an earlier index")
    for hit in hits:
        if hit.index >= len(entities):
            raise UnknownIndex(f"placeholder {hit.text!r:.60} is out of range for {len(entities)} entities")
    absent = sorted(set(range(len(entities))) - set(indices))
    if absent:
        raise MissingIndex(f"placeholder index {absent[0]} is missing")
    for idx, entity in enumerate(entities):
        if not entity.strip():
            raise EmptyEntityTranslation(f"entity {idx} translated to whitespace")
    base = "\ue000"
    while base in template:
        base += "\ue000"
    pieces, last = [], 0
    for k, hit in enumerate(hits):
        pieces += [template[last:hit.start], f" {base}{k} "]
        last = hit.end
    pieces.append(template[last:])
    sentinel_to_hit = {f"{base}{k}": hit for k, hit in enumerate(hits)}
    tokens, tags = [], []
    for word in "".join(pieces).split():
        hit = sentinel_to_hit.get(word)
        if hit is None:
            tokens.append(word)
            tags.append(Tag.outside())
        else:
            for j, ent_word in enumerate(entities[hit.index].split()):
                tokens.append(ent_word)
                tags.append(Tag.begin(labels[hit.index]) if j == 0 else Tag.inside(labels[hit.index]))
    return TaggedSentence(tokens, tags, origin_index)


DIGIT_SETS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "۰۱۲۳۴۵۶۷۸۹")
WHITESPACE = st.sampled_from([" ", "\t", "\u00a0", "\n"])
OPTIONAL_SPACE = st.one_of(st.just(""), WHITESPACE)


@st.composite
def tolerant_placeholders(draw, max_index):
    """``[*i*]`` spelled as an engine might return it: inner whitespace,
    localized digits, a leading zero."""
    digits = draw(st.sampled_from(DIGIT_SETS))
    number = "".join(digits[int(d)] for d in str(draw(st.integers(0, max_index))))
    if draw(st.booleans()):
        number = digits[0] + number
    a, b, c, d = (draw(OPTIONAL_SPACE) for _ in range(4))
    return f"[{a}*{b}{number}{c}*{d}]"


@st.composite
def translated_templates(draw):
    """A template with placeholders glued to punctuation or words, any
    whitespace between pieces, and its entity translations and labels; now
    and then an index out of range, a blank entity or a missing label."""
    n = draw(st.integers(0, 4))
    rare = st.integers(0, 19).map(lambda k: k == 19)
    max_index = n if draw(rare) else n - 1
    pieces = [SAFE_WORD, st.sampled_from([",", ".", "(", ")", "«", "»", "؟", "،", "[", "*", "\ue000"])]
    if max_index >= 0:
        pieces.append(tolerant_placeholders(max_index))
    parts = draw(st.lists(st.tuples(st.one_of(pieces), OPTIONAL_SPACE), max_size=8))
    template = "".join(p + sep for p, sep in parts)
    entity = st.lists(st.tuples(OPTIONAL_SPACE, SAFE_WORD, WHITESPACE), min_size=1, max_size=3).map(
        lambda words: "".join(a + w + b for a, w, b in words))
    entities = [draw(WHITESPACE if draw(rare) else entity) for _ in range(n)]
    labels = draw(st.lists(st.sampled_from(["PER", "LOC", "ORG"]), min_size=n, max_size=n))
    if n and draw(rare):
        labels = labels[1:]
    return template, entities, labels


def outcome(fn, *args):
    try:
        out = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return out.tokens, [t.raw for t in out.tags], out.origin_index


@given(translated_templates(), st.integers(0, 3))
def test_unmask_matches_pad_join_split_reference(case, origin):
    template, entities, labels = case
    assert outcome(unmask, template, entities, labels, origin) == outcome(
        reference_unmask, template, entities, labels, origin
    )


@given(st.lists(st.one_of(tolerant_placeholders(5), SAFE_WORD), max_size=6), st.lists(st.booleans(), max_size=4))
@example(["[*1*]", "[*1*]"], [False])
@example(["hello"], [True])
# as many hits as entities, but not the indices 0..n-1
@example(["[*0*]", "[*0*]"], [False, False])
@example(["[*0*]", "[*2*]"], [False, False])
# 19 digits: past a single int() read
@example(["[*0000000000000000000*]"], [False])
@example(["[*1000000000000000000*]"], [False])
def test_count_check_and_unmask_apply_one_index_rule(pieces, blank):
    """count_check's reason is exactly the index exception unmask raises,
    whatever the entities hold."""
    template = " ".join(pieces)
    entities = [" " if b else "e" for b in blank]
    try:
        unmask(template, entities, ["PER"] * len(entities))
        raised = None
    except (DuplicateIndex, UnknownIndex, MissingIndex) as exc:
        raised = type(exc)
    except (EmptyEntityTranslation, InvalidSentence):
        raised = None
    reason = {None: None, DuplicateIndex: REASON_DUPLICATE,
              UnknownIndex: REASON_COUNT_MISMATCH, MissingIndex: REASON_COUNT_MISMATCH}[raised]
    assert count_check(masked(len(entities)), template) == reason


def test_unmask_tags_are_the_shared_parsed_tags():
    # twice: once filling the label's entry, once reading it
    for _ in range(2):
        out = unmask("[*0*] in [*1*]", ["New York", "Berlin"], ["LOC", "UNMASKED"])
        assert [t.raw for t in out.tags] == ["B-LOC", "I-LOC", "O", "B-UNMASKED"]
        assert all(t is Tag.parse(t.raw) for t in out.tags)
