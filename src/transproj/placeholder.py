"""Indexed placeholder masking and index-aligned reinsertion.

Entity spans are replaced by ``[*i*]`` sentinels (0-based, in order of
appearance) before translation, so an MT engine can move an entity without
losing track of which one it is. On the way back, hits are detected with a
deliberately tolerant grammar — engines like to add spaces inside the
brackets or localize the digits — normalized, and each placeholder is
replaced by the separately translated entity with matching index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .conll_io import Tag, TaggedSentence
from .spans import EntitySpan, extract_spans

# Failure reasons owned by this module (consumed by the pipeline's filter).
REASON_COUNT_MISMATCH = "placeholder-count-mismatch"
REASON_DUPLICATE = "duplicate-placeholder"

# "[", optional whitespace, "*", optional whitespace, 1+ digits, optional
# whitespace, "*", optional whitespace, "]". Digits may be ASCII,
# Arabic-Indic (U+0660-0669) or Extended Arabic-Indic (U+06F0-06F9).
_DIGITS = "0-9٠-٩۰-۹"
PLACEHOLDER_RE = re.compile(rf"\[\s*\*\s*([{_DIGITS}]+)\s*\*\s*\]")


class PatternCollision(ValueError):
    pass


class UnknownIndex(ValueError):
    pass


class DuplicateIndex(ValueError):
    pass


class EmptyEntityTranslation(ValueError):
    pass


@dataclass(frozen=True)
class PlaceholderHit:
    """One placeholder found in scanned text."""

    index: int
    start: int  # code-point offsets, half-open
    end: int
    text: str


@dataclass(frozen=True)
class MaskedSentence:
    """Template with ``[*i*]`` sentinels plus the masked entities in order."""

    template: str
    entities: tuple[EntitySpan, ...]


def placeholder(index: int) -> str:
    return f"[*{index}*]"


def find_placeholders(text: str) -> list[PlaceholderHit]:
    """Scan left to right for tolerant placeholder matches.

    Indices are read as decimal numbers (``int`` reads every digit script
    the grammar admits); regions that do not parse are simply not hits.
    """
    return [PlaceholderHit(int(m.group(1)), m.start(), m.end(), m.group(0))
            for m in PLACEHOLDER_RE.finditer(text)]


def mask(sentence: TaggedSentence) -> MaskedSentence:
    """Replace each entity span with its indexed placeholder.

    Raises PatternCollision when the source text itself contains anything
    the tolerant grammar would read as a placeholder — such a sentence
    cannot be realigned reliably and must be excluded.
    """
    spans = extract_spans(sentence)
    parts = []
    i = 0
    span_idx = 0
    while i < len(sentence.tokens):
        if span_idx < len(spans) and spans[span_idx].start == i:
            parts.append(placeholder(span_idx))
            i = spans[span_idx].end
            span_idx += 1
        else:
            parts.append(sentence.tokens[i])
            i += 1
    template = " ".join(parts)

    # Every placeholder match starts with a literal "[", so only a source
    # token holding one can collide, alone or joined with its neighbours
    # ("[*" + "0*]"); without one the template's hits are exactly its own
    # placeholders, in order.
    if any("[" in token for token in sentence.tokens):
        for pos, token in enumerate(sentence.tokens):
            if PLACEHOLDER_RE.search(token):
                raise PatternCollision(
                    f"token {token!r} at position {pos} matches the placeholder pattern"
                )
        if [h.index for h in find_placeholders(template)] != list(range(len(spans))):
            raise PatternCollision("source tokens combine into a placeholder-like pattern")

    return MaskedSentence(template, tuple(spans))


def count_check(masked: MaskedSentence, translated_template: str,
                hits: list[PlaceholderHit] | None = None) -> str | None:
    """Check that translation preserved the placeholder multiset.

    Returns None on pass, otherwise the failure reason: a repeated index is
    ``duplicate-placeholder``, any other deviation from the exact index set
    {0..n-1} is ``placeholder-count-mismatch``. ``hits`` are the template's
    placeholders when the caller has already scanned it.
    """
    if hits is None:
        hits = find_placeholders(translated_template)
    indices = [h.index for h in hits]
    if len(indices) != len(set(indices)):
        return REASON_DUPLICATE
    if set(indices) != set(range(len(masked.entities))):
        return REASON_COUNT_MISMATCH
    return None


def unmask(
    translated_template: str,
    translated_entities: list[str],
    labels: list[str],
    origin_index: int = 0,
    hits: list[PlaceholderHit] | None = None,
) -> TaggedSentence:
    """Insert translated entities back into a translated template.

    Placeholder i (wherever translation moved it) is expanded to the
    whitespace-split tokens of ``translated_entities[i]``, tagged
    B-labels[i] then I-labels[i]. The template text between placeholders is
    split on whitespace and tagged O, so a placeholder glued to punctuation
    still splits off. ``hits`` are the template's placeholders, in order,
    when the caller has already scanned it; an index out of range raises
    UnknownIndex and a repeated one DuplicateIndex.
    """
    if len(translated_entities) != len(labels):
        raise ValueError(
            f"{len(translated_entities)} entity translations vs {len(labels)} labels"
        )
    for idx, entity in enumerate(translated_entities):
        if not entity.strip():
            raise EmptyEntityTranslation(f"entity {idx} translated to whitespace")

    if hits is None:
        hits = find_placeholders(translated_template)
    outside = Tag.outside()
    tokens: list[str] = []
    tags: list[Tag] = []
    seen = set()
    last = 0
    for hit in hits:
        if hit.index >= len(translated_entities):
            raise UnknownIndex(f"placeholder index {hit.index} but only {len(translated_entities)} entities")
        if hit.index in seen:
            raise DuplicateIndex(f"placeholder index {hit.index} occurs more than once")
        seen.add(hit.index)
        words = translated_template[last:hit.start].split()
        ent_words = translated_entities[hit.index].split()
        label = labels[hit.index]
        tokens += words + ent_words
        tags += [outside] * len(words) + [Tag.begin(label)] + [Tag.inside(label)] * (len(ent_words) - 1)
        last = hit.end
    words = translated_template[last:].split()
    tokens += words
    tags += [outside] * len(words)
    return TaggedSentence(tokens, tags, origin_index)
