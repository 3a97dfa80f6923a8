"""Indexed placeholder masking and index-aligned reinsertion.

Entity spans are replaced by ``[*i*]`` sentinels (0-based, in order of
appearance) before translation, so an MT engine can move an entity without
losing track of which one it is. On the way back, hits are detected with a
deliberately tolerant grammar (engines add spaces or invisible marks inside
the brackets, or localize brackets, stars and digits), and each placeholder
is replaced by the separately translated entity with matching index.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Sequence
from typing import NamedTuple

from .conll_io import Tag, TaggedSentence
from .spans import EntitySpan, extract_spans

# Failure reasons owned by this module (consumed by the pipeline's filter).
REASON_COUNT_MISMATCH = "placeholder-count-mismatch"
REASON_DUPLICATE = "duplicate-placeholder"

# A placeholder is "[" or "［", a star, 1+ digits, a star, then "]" or "］".
# A star is "*", "＊" or "٭"; digits may be ASCII, Arabic-Indic
# (U+0660-0669) or Extended Arabic-Indic (U+06F0-06F9); whitespace or
# invisible format characters (soft hyphen, bidi marks, embeddings and
# isolates, zero-width characters, BOM) may stand between the parts. A
# fragment is what an engine may leave of a placeholder it mangled: a
# bracket then a star, a star then a bracket, or digits between two stars,
# so every fragment holds a star. Placeholder syntax is reserved: a source whose
# joined tokens hold a fragment collides, and a fragment in a projected
# sentence leaked from the translation.
_DIGITS = "0-9٠-٩۰-۹"
_STARS = "*＊٭"
_GAP = r"[\s\u00ad\u061c\u200b-\u200f\u202a-\u202e\u2060-\u2064\u2066-\u2069\ufeff]*"
PLACEHOLDER_RE = re.compile(rf"[\[［]{_GAP}[{_STARS}]{_GAP}([{_DIGITS}]+){_GAP}[{_STARS}]{_GAP}[\]］]")
PLACEHOLDER_FRAGMENT_RE = re.compile(
    rf"[\[［]{_GAP}[{_STARS}]|[{_STARS}]{_GAP}[\]］]|[{_STARS}]{_GAP}[{_DIGITS}]+{_GAP}[{_STARS}]"
)


class PatternCollision(ValueError):
    pass


class IndexMismatch(ValueError):
    """Translated placeholder indices are not 0..n-1 once each; ``reason``
    is the exclusion reason the fault gives."""

    reason = REASON_COUNT_MISMATCH


class UnknownIndex(IndexMismatch):
    pass


class DuplicateIndex(IndexMismatch):
    reason = REASON_DUPLICATE


class MissingIndex(IndexMismatch):
    pass


class EmptyEntityTranslation(ValueError):
    pass


class PlaceholderHit(NamedTuple):
    """One placeholder found in scanned text."""

    index: int
    start: int  # code-point offsets, half-open
    end: int
    text: str


class MaskedSentence(NamedTuple):
    """Template with ``[*i*]`` sentinels plus the masked entities in order."""

    template: str
    entities: tuple[EntitySpan, ...]


def placeholder(index: int) -> str:
    return f"[*{index}*]"


def find_fragment(text: str) -> re.Match | None:
    """The first placeholder fragment in ``text``, or None."""
    # every fragment holds a star, and three substring tests cost far less than one search
    return PLACEHOLDER_FRAGMENT_RE.search(text) if "*" in text or "＊" in text or "٭" in text else None


def _index(digits: str) -> int:
    """Digits as a decimal number; past 18 digits, leading zeros aside,
    which fit no entity and may be more than ``int`` reads, in base 16: one
    value per number, above every shorter one's."""
    if len(digits) <= 18:
        return int(digits)
    digits = digits.lstrip("0٠۰")
    return int(digits or "0") if len(digits) <= 18 else int(digits, 16)


def find_placeholders(text: str) -> list[PlaceholderHit]:
    """Scan left to right for tolerant placeholder matches (``int`` reads
    every digit script the grammar admits); the rest are not hits."""
    return [PlaceholderHit(_index(m.group(1)), m.start(), m.end(), m.group(0))
            for m in PLACEHOLDER_RE.finditer(text)]


def mask(sentence: TaggedSentence) -> MaskedSentence:
    """Replace each entity span with its indexed placeholder.

    Raises PatternCollision when the source's space-joined tokens hold any
    placeholder fragment, within one token or across several ("[" then
    "*"): placeholder syntax is reserved, so such a sentence is excluded.
    Without one, the template's placeholders are exactly its own, in order.
    """
    spans = extract_spans(sentence)
    tokens = sentence.tokens
    text = " ".join(tokens)
    if (hit := find_fragment(text)) is not None:
        pos = text.count(" ", 0, hit.start())  # tokens hold no whitespace
        raise PatternCollision(
            f"token {tokens[pos]!r} at position {pos} starts placeholder syntax {hit.group()!r}"
        )
    parts: list[str] = []
    last = 0
    for index, span in enumerate(spans):
        parts += tokens[last:span.start]
        parts.append(placeholder(index))
        last = span.end
    parts += tokens[last:]
    return MaskedSentence(" ".join(parts), tuple(spans))


def _check_indices(hits: list[PlaceholderHit], n: int) -> None:
    """For ``n`` entities, the first repeated index raises DuplicateIndex,
    else the first index of n or more UnknownIndex, else the lowest absent
    one MissingIndex. Errors quote a placeholder's text, cut short."""
    seen = set()
    for hit in hits:
        if hit.index in seen:
            raise DuplicateIndex(f"placeholder {hit.text!r:.60} repeats an earlier index")
        seen.add(hit.index)
    for hit in hits:
        if hit.index >= n:
            raise UnknownIndex(f"placeholder {hit.text!r:.60} is out of range for {n} entities")
    if len(seen) < n:
        raise MissingIndex(f"placeholder index {min(set(range(n)) - seen)} is missing")


def count_check(masked: MaskedSentence, translated_template: str) -> str | None:
    """Check that translation preserved the placeholder multiset.

    Returns None on pass, otherwise the failure reason: a repeated index is
    ``duplicate-placeholder``, any other deviation from the exact index set
    {0..n-1} is ``placeholder-count-mismatch``.
    """
    try:
        _check_indices(find_placeholders(translated_template), len(masked.entities))
    except IndexMismatch as exc:
        return exc.reason
    return None


@functools.cache
def _entity_tags(label: str) -> tuple[Tag, Tag]:
    """``label``'s B and I tags: the shared objects ``Tag.begin`` and
    ``Tag.inside`` return, made once per label and process."""
    return Tag.begin(label), Tag.inside(label)


def unmask(
    translated_template: str,
    translated_entities: list[str],
    labels: Sequence[str],
    origin_index: int = 0,
) -> TaggedSentence:
    """Insert translated entities back into a translated template.

    Placeholder i (wherever translation moved it) is expanded to the
    whitespace-split tokens of ``translated_entities[i]``, tagged
    B-labels[i] then I-labels[i]. The template text between placeholders is
    split on whitespace and tagged O, so a placeholder glued to punctuation
    still splits off. The indices must be 0..n-1 once each, for n entities,
    or DuplicateIndex, UnknownIndex or MissingIndex is raised, in that
    order; only then does a blank entity raise EmptyEntityTranslation.
    """
    if len(translated_entities) != len(labels):
        raise ValueError(f"{len(translated_entities)} entity translations vs {len(labels)} labels")
    hits = find_placeholders(translated_template)
    _check_indices(hits, len(translated_entities))
    for idx, entity in enumerate(translated_entities):
        if not entity.strip():
            raise EmptyEntityTranslation(f"entity {idx} translated to whitespace")

    outside = Tag.outside()
    tokens: list[str] = []
    tags: list[Tag] = []
    last = 0
    for index, start, end, _ in hits:
        words = translated_template[last:start].split()
        ent_words = translated_entities[index].split()
        begin, inside = _entity_tags(labels[index])
        tokens += words + ent_words
        tags += [outside] * len(words) + [begin] + [inside] * (len(ent_words) - 1)
        last = end
    words = translated_template[last:].split()
    tokens += words
    tags += [outside] * len(words)
    return TaggedSentence(tokens, tags, origin_index)
