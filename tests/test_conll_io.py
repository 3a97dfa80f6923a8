import itertools
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from transproj import conll_io
from transproj.conll_io import (
    DatasetSplit,
    InvalidSentence,
    MalformedLine,
    MalformedTag,
    Tag,
    TaggedSentence,
    normalize_iob1_to_iob2,
    normalize_tags_iob1_to_iob2,
    parse_conll,
    parse_conll_with_lines,
    serialize_conll,
    validate_scheme,
)

LABELS = ("PER", "LOC")


def sent(tokens, raw_tags, origin=0):
    return TaggedSentence(list(tokens), [Tag.parse(t) for t in raw_tags], origin)


# --- Tag grammar ---------------------------------------------------------


@pytest.mark.parametrize("raw,kind,label", [
    ("O", "O", None),
    ("B-PER", "B", "PER"),
    ("I-LOC", "I", "LOC"),
    ("B-creative-work", "B", "creative-work"),
    ("I-WORK_OF_ART", "I", "WORK_OF_ART"),
])
def test_tag_parse_valid(raw, kind, label):
    tag = Tag.parse(raw)
    assert (tag.raw, tag.kind, tag.label) == (raw, kind, label)


@pytest.mark.parametrize("raw", ["", "B-", "I-", "X-PER", "b-PER", "B", "I", "OO", "B-a b"])
def test_tag_parse_invalid(raw):
    with pytest.raises(MalformedTag):
        Tag.parse(raw)


def test_sentence_invariants():
    with pytest.raises(InvalidSentence):
        TaggedSentence(["a"], [])
    with pytest.raises(InvalidSentence):
        TaggedSentence([], [])
    with pytest.raises(InvalidSentence):
        TaggedSentence(["a b"], [Tag.outside()])
    with pytest.raises(InvalidSentence):
        TaggedSentence([""], [Tag.outside()])


# Characters where a whitespace check is easy to get wrong: U+00A0, U+2028
# and U+3000 are whitespace, U+200B (zero-width space) is not.
TRICKY_CHARS = st.sampled_from([" ", "\t", "\x1c", "\u00a0", "\u2028", "\u3000", "\u200b"])
ANY_TEXT = st.text(st.one_of(st.characters(), TRICKY_CHARS), max_size=6)


def is_valid_tag(raw):
    """Reference for the tag grammar, written without the parser's shortcuts."""
    if raw == "O":
        return True
    return (len(raw) > 2 and raw[0] in ("B", "I") and raw[1] == "-"
            and not any(c.isspace() for c in raw[2:]))


valid_raw_tags_st = st.one_of(
    st.just("O"),
    st.builds(lambda kind, label: f"{kind}-{label}", st.sampled_from(["B", "I"]),
              ANY_TEXT.filter(lambda t: t and not any(c.isspace() for c in t))),
)
raw_tags_st = st.one_of(
    ANY_TEXT,
    st.builds(lambda kind, label: f"{kind}-{label}", st.sampled_from(["B", "I", "O", "b"]), ANY_TEXT),
)


@given(st.lists(ANY_TEXT, min_size=1, max_size=4))
def test_sentence_rejects_exactly_empty_or_whitespace_tokens(tokens):
    bad = [tok for tok in tokens if not tok or any(c.isspace() for c in tok)]
    if not bad:
        assert TaggedSentence(tokens, [Tag.outside()] * len(tokens)).tokens == tokens
        return
    with pytest.raises(InvalidSentence) as exc:
        TaggedSentence(tokens, [Tag.outside()] * len(tokens))
    assert str(exc.value) == f"bad token {bad[0]!r}"


def test_sentence_whitespace_check_agrees_with_isspace_on_every_code_point():
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    spaces = [c for c in chars if c.isspace()]
    others = "".join(c for c in chars if not c.isspace())
    tokens = [others[i:i + 4096] for i in range(0, len(others), 4096)]
    TaggedSentence(tokens, [Tag.outside()] * len(tokens))
    for ch in spaces:
        with pytest.raises(InvalidSentence):
            TaggedSentence(["a" + ch], [Tag.outside()])
        with pytest.raises(MalformedTag):
            Tag.parse(f"B-a{ch}")


@given(valid_raw_tags_st)
def test_tag_parse_shares_one_tag_per_valid_string(raw):
    assert is_valid_tag(raw)
    fresh = Tag("O", "O", None) if raw == "O" else Tag(raw, raw[0], raw[2:])
    assert Tag.parse(raw) is Tag.parse(raw)
    assert Tag.parse(raw) == fresh
    assert hash(Tag.parse(raw)) == hash(fresh)


@given(raw_tags_st, st.integers(1, 10**6), st.integers(1, 10**6))
def test_tag_parse_malformed_raises_with_its_own_line_every_time(raw, first, second):
    assume(not is_valid_tag(raw))
    for line_no in (first, second, None):
        with pytest.raises(MalformedTag) as exc:
            Tag.parse(raw, line_no)
        assert (exc.value.line_no, exc.value.raw) == (line_no, raw)


def test_tag_constructors_share_parsed_tags():
    assert Tag.outside() is Tag.parse("O")
    assert Tag.begin("PER") is Tag.parse("B-PER")
    assert Tag.inside("PER") is Tag.parse("I-PER")


def test_split_origin_must_ascend():
    with pytest.raises(InvalidSentence):
        DatasetSplit("train", [sent("a", ["O"], 1), sent("b", ["O"], 1)])


# --- parse_conll ---------------------------------------------------------


def test_parse_minimal_sentence():
    split = parse_conll("EU B-ORG\nrejects O\n\n")
    assert len(split) == 1
    assert split.sentences[0].tokens == ["EU", "rejects"]
    assert [t.raw for t in split.sentences[0].tags] == ["B-ORG", "O"]


def test_parse_empty_document():
    assert len(parse_conll("")) == 0


def test_sentence_rejects_docstart_token():
    with pytest.raises(InvalidSentence, match="-DOCSTART-"):
        sent(["-DOCSTART-", "here"], ["B-PER", "O"])


def test_parse_skips_docstart():
    split = parse_conll("-DOCSTART- O\n\nA B-PER\n")
    assert len(split) == 1
    assert split.sentences[0].tokens == ["A"]
    assert [t.raw for t in split.sentences[0].tags] == ["B-PER"]
    assert split.dropped_empty == 1


def test_parse_ignores_middle_columns_and_counts_lines():
    split, lines = parse_conll_with_lines("EU NNP I-NP B-ORG\nrejects VBZ I-VP O\n")
    assert split.sentences[0].tokens == ["EU", "rejects"]
    assert [t.raw for t in split.sentences[0].tags] == ["B-ORG", "O"]
    assert lines == [[1, 2]]


def test_parse_origin_indices_are_positions():
    split = parse_conll("a O\n\nb O\n\nc O\n")
    assert [s.origin_index for s in split.sentences] == [0, 1, 2]


def test_parse_malformed_line_reports_number():
    with pytest.raises(MalformedLine) as err:
        parse_conll("ok O\nbroken\n")
    assert err.value.line_no == 2


def test_parse_malformed_tag_reports_number():
    with pytest.raises(MalformedTag) as err:
        parse_conll("ok O\nword B-\n")
    assert err.value.line_no == 2


def test_parse_blank_line_with_spaces_delimits():
    split = parse_conll("a O\n \t \nb O\n")
    assert [s.tokens for s in split.sentences] == [["a"], ["b"]]


# --- serialize_conll -----------------------------------------------------


def test_serialize_single_sentence():
    assert serialize_conll(DatasetSplit("x", [sent(["A"], ["O"])])) == "A O\n\n"


def test_serialize_empty_split():
    assert serialize_conll(DatasetSplit("x", [])) == ""


def test_serialize_two_sentences_single_blank_line():
    split = DatasetSplit("x", [sent(["A"], ["O"], 0), sent(["B"], ["O"], 1)])
    assert serialize_conll(split) == "A O\n\nB O\n\n"


TOKEN_ALPHABET = st.characters(
    blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs"), blacklist_characters=" "
)
tokens_st = st.text(TOKEN_ALPHABET, min_size=1, max_size=8).filter(
    lambda t: t != "-DOCSTART-" and not any(c.isspace() for c in t)
)


@st.composite
def iob2_sentences(draw, origin=0):
    n = draw(st.integers(1, 8))
    toks = [draw(tokens_st) for _ in range(n)]
    tags = []
    prev_label = None
    for _ in range(n):
        choice = draw(st.sampled_from(["O", "B", "I"]))
        if choice == "I" and prev_label is None:
            choice = "B"
        if choice == "O":
            tags.append(Tag.outside())
            prev_label = None
        elif choice == "B":
            prev_label = draw(st.sampled_from(LABELS))
            tags.append(Tag.begin(prev_label))
        else:
            tags.append(Tag.inside(prev_label))
    return TaggedSentence(toks, tags, origin)


@st.composite
def splits(draw):
    n = draw(st.integers(0, 5))
    return DatasetSplit("train", [draw(iob2_sentences(origin=i)) for i in range(n)])


@given(splits())
def test_round_trip_parse_serialize(split):
    assert parse_conll(serialize_conll(split), "train") == split


# --- parse_conll_with_lines against a reference reader --------------------


def reference_read(text):
    """Line by line, with no transproj code: group the non-blank lines
    between blank ones, drop -DOCSTART- lines, read each remaining line as
    first field token and last field tag. Returns (sentences, line_map,
    dropped) with sentences as (tokens, tags, origin_index) triples, or
    ("error", class name, line number) for the first bad line."""
    groups, group = [], []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.split():
            group.append((line_no, line.split()))
        elif group:
            groups.append(group)
            group = []
    if group:
        groups.append(group)
    sentences, line_map, dropped = [], [], 0
    for group in groups:
        rows = [(line_no, fields) for line_no, fields in group if fields[0] != "-DOCSTART-"]
        for line_no, fields in rows:
            if len(fields) < 2:
                return ("error", "MalformedLine", line_no)
            tag = fields[-1]
            if not (tag == "O" or (tag[:2] in ("B-", "I-") and len(tag) > 2)):
                return ("error", "MalformedTag", line_no)
        if not rows:
            dropped += 1
            continue
        tokens = [fields[0] for _, fields in rows]
        tags = [fields[-1] for _, fields in rows]
        sentences.append((tokens, tags, len(sentences)))
        line_map.append([line_no for line_no, _ in rows])
    return sentences, line_map, dropped


# Characters str.splitlines ends a line at but str.split reads as whitespace
# between fields: a reader must end lines at "\n" only.
SPLITLINES_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BLANK_LINES = ["", " ", "\t", "  \t ", "\r", "\u3000", *SPLITLINES_BREAKS, "\x0c\u2028"]
DOCSTART_LINES = ["-DOCSTART-", "-DOCSTART- O", "-DOCSTART- -X- -X- O"]
BAD_LINES = ["ragged", "word B-", "word I-", "word X-PER", "word b-PER", "word BPER", "word NNP o"]


@st.composite
def conll_lines(draw):
    kind = draw(st.sampled_from(["blank", "docstart", "token", "token", "token"]))
    if kind == "blank":
        return draw(st.sampled_from(BLANK_LINES))
    if kind == "docstart":
        return draw(st.sampled_from(DOCSTART_LINES))
    middle = draw(st.lists(st.sampled_from(["NNP", "-X-", "I-NP", "O"]), max_size=2))
    tag = draw(st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC", "B-creative-work"]))
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t", *SPLITLINES_BREAKS]))
    lead = draw(st.sampled_from(["", " ", "\t", "\x85"]))
    trail = draw(st.sampled_from(["", " ", "\r", "\u2029"]))
    return lead + sep.join([draw(tokens_st), *middle, tag]) + trail


@st.composite
def conll_documents(draw):
    lines = draw(st.lists(conll_lines(), max_size=30))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    # each line ends in "\n" or "\r\n", the last one also in nothing or a blank line
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines[1:]]
    last = draw(st.sampled_from(["", "\n", "\r\n", "\n\n", "\r\n\r\n"]))
    return "".join(line + end for line, end in zip(lines, [*ends, last]))


def read_or_error(parse, text):
    try:
        return parse(text, "train")
    except (MalformedLine, MalformedTag) as exc:
        return ("error", type(exc).__name__, exc.line_no)


@given(conll_documents())
@example("-DOCSTART- -X- O\n\na O\n-DOCSTART-\nb B-PER\n\n \n\t\n-DOCSTART-")
@example("a O\n\n-DOCSTART-\n\t\n-DOCSTART- O\n\nb O\nragged")
@example("a\x0bO\r\n\x0c\r\nb\u2028B-PER\x85\r\n")
def test_reader_matches_line_by_line_reference(text):
    expected = reference_read(text)
    got = read_or_error(parse_conll_with_lines, text)
    # parse_conll is the same reader without the line numbers
    without_lines = read_or_error(parse_conll, text)
    if "error" in (expected[0], got[0]):
        assert got == without_lines == expected
        return
    (split, line_map), (sentences, lines, dropped) = got, expected
    assert without_lines == split
    assert without_lines.dropped_empty == split.dropped_empty
    assert [(s.tokens, [t.raw for t in s.tags], s.origin_index) for s in split.sentences] == sentences
    assert line_map == lines
    assert split.dropped_empty == dropped


@given(conll_documents(), st.integers(1, 64))
@example("a O\n\nb B-PER\nc I-PER\n\n", 1)
@example("a O\n-DOCSTART-\n\nb O\nragged\n", 7)
def test_reader_in_blocks_of_any_size_matches_line_by_line_reference(text, block):
    # the comparison of the property above, with lines that straddle many blocks
    with mock.patch.object(conll_io, "_BLOCK", block):
        test_reader_matches_line_by_line_reference.hypothesis.inner_test(text)


def test_a_token_repeated_across_sentences_is_one_str():
    text = "Berlin B-LOC\nsaid O\n\nin O\nBerlin B-LOC\n\nsaid O\n"
    for split in (parse_conll(text), parse_conll_with_lines(text)[0]):
        (berlin, said), (_, berlin_again), (said_again,) = (s.tokens for s in split.sentences)
        assert berlin_again is berlin and said_again is said


# --- validate_scheme -----------------------------------------------------


@pytest.mark.parametrize("tags,bad_indices", [
    (["B-PER", "I-PER", "O"], []),
    (["O", "I-LOC"], [1]),
    (["B-PER", "I-ORG"], [1]),
    (["I-PER"], [0]),
    (["B-PER", "O", "I-PER"], [2]),
])
def test_validate_scheme(tags, bad_indices):
    violations = validate_scheme(sent(["w"] * len(tags), tags))
    assert [v.index for v in violations] == bad_indices


def reference_iob2_acceptor(raw_tags):
    """Brute-force IOB2 grammar: sequences of O or B-X followed by I-X runs."""
    i = 0
    while i < len(raw_tags):
        if raw_tags[i] == "O":
            i += 1
            continue
        if not raw_tags[i].startswith("B-"):
            return False
        label = raw_tags[i][2:]
        i += 1
        while i < len(raw_tags) and raw_tags[i] == f"I-{label}":
            i += 1
    return True


def all_tag_sequences(max_len, labels=LABELS):
    symbols = ["O"] + [f"{k}-{lab}" for k in "BI" for lab in labels]
    for n in range(1, max_len + 1):
        yield from itertools.product(symbols, repeat=n)


def test_validate_scheme_matches_reference_acceptor():
    for raw in all_tag_sequences(4):
        ours = validate_scheme(sent(["w"] * len(raw), raw)) == []
        assert ours == reference_iob2_acceptor(raw), raw


# --- normalize_iob1_to_iob2 ----------------------------------------------


@pytest.mark.parametrize("iob1,iob2", [
    (["I-PER", "I-PER"], ["B-PER", "I-PER"]),
    (["O", "I-LOC"], ["O", "B-LOC"]),
    (["I-ORG", "B-ORG"], ["B-ORG", "B-ORG"]),
    (["I-PER", "O", "I-PER"], ["B-PER", "O", "B-PER"]),
    (["I-PER", "I-LOC"], ["B-PER", "B-LOC"]),
])
def test_normalize_examples(iob1, iob2):
    source = sent(["w"] * len(iob1), iob1)
    out = normalize_iob1_to_iob2(source)
    assert [t.raw for t in out.tags] == iob2
    # a new sentence; the argument keeps its IOB1 tags
    assert [t.raw for t in source.tags] == iob1
    tags = list(source.tags)
    normalize_tags_iob1_to_iob2(tags)
    assert tags == out.tags


def iob1_spans(raw_tags):
    """Reference IOB1 span reader: I starts or continues, B splits adjacent
    same-label entities."""
    spans = []
    cur = None  # (label, start)
    for i, raw in enumerate(raw_tags):
        if raw == "O":
            if cur:
                spans.append((cur[1], i, cur[0]))
            cur = None
        elif raw.startswith("B-"):
            if cur:
                spans.append((cur[1], i, cur[0]))
            cur = (raw[2:], i)
        else:
            label = raw[2:]
            if cur and cur[0] == label:
                continue
            if cur:
                spans.append((cur[1], i, cur[0]))
            cur = (label, i)
    if cur:
        spans.append((cur[1], len(raw_tags), cur[0]))
    return spans


def iob1_is_wellformed(raw_tags):
    # B-X is only legal directly after I-X or B-X of the same label
    prev = None
    for raw in raw_tags:
        if raw.startswith("B-") and (prev is None or prev == "O" or prev[2:] != raw[2:]):
            return False
        prev = raw
    return True


def test_normalize_preserves_span_set_exhaustively():
    from transproj.spans import extract_spans

    for raw in all_tag_sequences(4):
        if not iob1_is_wellformed(raw):
            continue
        s = sent(["w"] * len(raw), raw)
        out = normalize_iob1_to_iob2(s)
        assert validate_scheme(out) == []
        got = [(sp.start, sp.end, sp.label) for sp in extract_spans(out)]
        assert got == iob1_spans(raw), raw
