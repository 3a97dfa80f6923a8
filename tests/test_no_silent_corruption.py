"""Exclusion, never silent corruption: one property over ``project_split``.

An adversarial backend mangles placeholders and entities the ways MT
engines do. Every source sentence must come out either excluded with a
known reason, or projected so that an oracle written here finds nothing in
it the pipeline did not intend. The oracle masks, reads spans and finds
placeholder fragments itself; it calls nothing from ``transproj.placeholder``
or ``transproj.pipeline``, so a fault there cannot hide in both.
"""

import re
import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from transproj.backends import Backend
from transproj.conll_io import DatasetSplit, parse_conll, serialize_conll
from transproj.pipeline import ALL_REASONS, project_split

from test_conll_io import sent

# Source tokens: plain words and pieces of placeholder syntax. A lone "["
# or "]" is no placeholder fragment; "[*", "*]", "*7*" and a placeholder
# are, and so is "[" followed by "*7*", so a source holding one is never
# projected. Each plain word is drawn WEIGHT times as often as each
# fragment word, so that most sources reach the checks of a projected one.
WORDS = ["John", "Berlin", "lives", "in", "7", "a.b", "[", "]"]
FRAGMENT_WORDS = ["[*", "*]", "*7*", "[*3*]"]
WEIGHT = 6
LABELS = ["PER", "LOC"]
# what the dictionary edit translates; other words pass through
DICTIONARY = {"John": "جان", "Berlin": "برلین", "lives": "زندگی", "in": "در"}
LOCAL_DIGITS = str.maketrans("0123456789", "۰۱۲۳۴۵۶۷۸۹")
# ZWNJ, right-to-left mark, left-to-right isolate, pop directional isolate, BOM
FORMAT_CHARS = ["\u200c", "\u200f", "\u2066", "\u2069", "\ufeff"]
PUNCTUATION = [".", ",", "،", "؟"]


# --- oracle ----------------------------------------------------------------------


def oracle_spans(tags):
    """[(start, end, label)] of an IOB2 tag sequence, or None if it is not IOB2."""
    spans = []
    for i, tag in enumerate(tags):
        if tag.startswith("B-"):
            spans.append((i, i + 1, tag[2:]))
        elif tag.startswith("I-"):
            if not spans or spans[-1][1] != i or spans[-1][2] != tag[2:]:
                return None
            spans[-1] = (spans[-1][0], i + 1, tag[2:])
    return spans


def oracle_template(tokens, spans):
    """Pieces of the masked template: ("w", token) outside entities and
    ("ph", k) where entity k stood."""
    starts = {start: k for k, (start, _, _) in enumerate(spans)}
    inside = {i for start, end, _ in spans for i in range(start + 1, end)}
    return [("ph", starts[i]) if i in starts else ("w", token)
            for i, token in enumerate(tokens) if i not in inside]


def template_text(items):
    return " ".join(f"[*{x}*]" if kind == "ph" else x for kind, x in items)


# canonical placeholder syntax: ASCII brackets, stars and digits, and no
# invisible format characters
CANONICAL = str.maketrans({"［": "[", "］": "]", "＊": "*", "٭": "*",
                           **{chr(0x06F0 + d): str(d) for d in range(10)},
                           **{chr(0x0660 + d): str(d) for d in range(10)}})
FRAGMENT = re.compile(r"\[\s*\*|\*\s*\]|\*\s*[0-9]+\s*\*")


def fragments(tokens):
    """Placeholder fragments in the space-joined tokens: "[*", "*]" or a
    number between stars, in canonical form."""
    text = " ".join(tokens).translate(CANONICAL)
    return FRAGMENT.findall("".join(c for c in text if unicodedata.category(c) != "Cf"))


def answer(pieces):
    return "".join(piece for _, piece in pieces)


def check_projected(source, out, translation):
    """Three promises for one projected sentence; the fourth, a round trip
    through CoNLL, is checked on the whole split. ``translation`` maps a
    text to the pieces the backend answered it with."""
    spans = oracle_spans([t.raw for t in source.tags])
    assert spans is not None, "a source that is not IOB2 was projected"
    items = oracle_template(source.tokens, spans)
    template = translation[template_text(items)]

    # entity k's tokens are the whitespace split of its translation, tagged B-/I-label k
    runs, outside, prev = [], [], None
    for token, tag in zip(out.tokens, out.tags):
        if tag.kind == "O":
            outside.append(token)
        elif tag.kind == "B":
            runs.append((tag.label, [token]))
        else:
            assert prev is not None and prev.kind != "O" and prev.label == tag.label, out.tags
            runs[-1][1].append(token)
        prev = tag
    expected = [(label, answer(translation[" ".join(source.tokens[start:end])]).split())
                for start, end, label in spans]
    assert sorted(runs) == sorted(expected)

    # every O token comes, in order, from the template translation outside its
    # placeholders and whatever the backend left of them. A token may be part
    # of a word: a placeholder that a mangled one and the text next to it
    # form ("[*" glued to a word, then "0*]") may take a word's end.
    text_only = "".join(piece if kind == "w" else " " for kind, piece in template)
    at = 0
    for token in outside:
        at = text_only.find(token, at)
        assert at >= 0, (outside, template)
        at += len(token)

    # placeholder syntax is reserved: the source holds no fragment, and the output none at all
    assert not fragments(source.tokens), source.tokens
    assert not fragments(out.tokens), out.tokens


# --- adversarial backend -------------------------------------------------------------


class Adversary(Backend):
    """Answers each text with the pieces drawn for it, and records texts it
    was not told of, which the pipeline should never send."""

    backend_id = "adversary"

    def __init__(self, translation):
        self.translation = translation
        self.unexpected = []

    def translate(self, texts, source_lang, target_lang):
        out = []
        for text in texts:
            if text not in self.translation:
                self.unexpected.append(text)
            out.append(answer(self.translation.get(text, [("w", text)])))
        return out


def placeholder_forms(k):
    """(intact, mangled): forms the tolerant grammar reads as placeholder
    k, and forms an engine leaves that it must not."""
    digit = str(k)
    compact = f"[*{digit}*]"
    intact = [compact, f"[ *{digit}* ]", f"[* {digit} *]", f"[*{digit.translate(LOCAL_DIGITS)}*]",
              f"[*{chr(0x0660 + k)}*]", f"［＊{digit}＊］", f"[٭{digit}٭]", f"［*{digit}*］"]
    intact += [compact[:i] + c + compact[i:] for i in (1, 2, 3, 4) for c in FORMAT_CHARS]
    # cut at either end, keeping at least two characters
    mangled = [compact[:i] for i in range(2, len(compact))]
    mangled += [compact[i:] for i in range(1, len(compact) - 1)]
    return intact, mangled


@st.composite
def word_edit(draw, word):
    edit = draw(st.sampled_from(["keep", "dictionary", "localize", "glue"]))
    if edit == "dictionary":
        return DICTIONARY.get(word, word)
    if edit == "localize":
        return word.translate(LOCAL_DIGITS)
    if edit == "glue":
        return word + draw(st.sampled_from(PUNCTUATION))
    return word


@st.composite
def text_answer(draw, text):
    """An answer to a text without placeholders: an entity surface, or the
    template of a sentence without entities."""
    # words most often, so that most sentences can still project
    edit = draw(st.sampled_from(["words"] * 3 + ["placeholder", "whitespace", "docstart"]))
    if edit == "placeholder":
        intact, mangled = placeholder_forms(draw(st.integers(0, 2)))
        return [("w", draw(st.sampled_from(intact + mangled)))]
    if edit == "whitespace":
        return [("w", draw(st.sampled_from([" ", "\u3000", ""])))]
    if edit == "docstart":
        return [("w", draw(st.sampled_from(["-DOCSTART-", f"{text} -DOCSTART-"])))]
    return [("w", " ".join(draw(word_edit(w)) for w in text.split()))]


@st.composite
def template_answer(draw, items):
    """An answer to a masked template: words edited, each placeholder kept,
    respelled, dropped, duplicated or mangled, the result reordered and
    parts glued together."""
    pieces = []
    for kind, x in items:
        if kind == "w":
            pieces.append(("w", draw(word_edit(x))))
            continue
        intact, mangled = placeholder_forms(x)
        edit = draw(st.sampled_from(["keep", "keep", "respell", "drop", "duplicate", "mangle", "residue"]))
        if edit in ("keep", "duplicate", "residue"):
            pieces.append(("ph", f"[*{x}*]"))
        if edit in ("respell", "duplicate"):
            pieces.append(("ph", draw(st.sampled_from(intact))))
        if edit in ("mangle", "residue"):
            pieces.append(("residue", draw(st.sampled_from(mangled))))
    if draw(st.booleans()):
        pieces = draw(st.permutations(pieces))
    out = []
    for i, piece in enumerate(pieces):
        if i:
            out.append(("w", draw(st.sampled_from([" ", " ", "", "  "]))))
        out.append(piece)
    return out


@st.composite
def sentences(draw, origin):
    n = draw(st.integers(1, 5))
    tokens = draw(st.lists(st.sampled_from(WORDS * WEIGHT + FRAGMENT_WORDS), min_size=n, max_size=n))
    tags, prev = [], None
    for _ in range(n):
        label = draw(st.sampled_from([None, *LABELS]))
        if label is None:
            tags.append("O")
        elif label == prev and draw(st.booleans()) or draw(st.integers(0, 19)) == 0:
            tags.append(f"I-{label}")  # now and then an I- that starts an entity: not IOB2
        else:
            tags.append(f"B-{label}")
        prev = label
    return sent(tokens, tags, origin)


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(st.data())
def test_every_sentence_is_excluded_with_a_reason_or_projected_as_intended(data):
    split = DatasetSplit("train", [data.draw(sentences(i)) for i in range(data.draw(st.integers(1, 4)))])
    translation = {}
    for source in split.sentences:
        spans = oracle_spans([t.raw for t in source.tags])
        if spans is None:
            continue
        items = oracle_template(source.tokens, spans)
        template = template_text(items)
        if template not in translation:
            translation[template] = data.draw(
                template_answer(items) if spans else text_answer(template), label=template)
        for start, end, _ in spans:
            surface = " ".join(source.tokens[start:end])
            if surface not in translation:
                translation[surface] = data.draw(text_answer(surface), label=surface)
    backend = Adversary(translation)

    out, outcomes, _ = project_split(split, backend, "en", "fa", batch=data.draw(st.integers(1, 4)))

    assert backend.unexpected == []
    assert [o.origin_index for o in outcomes] == [s.origin_index for s in split.sentences]
    for source, outcome in zip(split.sentences, outcomes):
        if outcome.projected:
            check_projected(source, outcome.sentence, translation)
        else:
            assert outcome.reason in ALL_REASONS
    assert parse_conll(serialize_conll(out), "train") == out
