"""Convert between IOB2 tag sequences and entity spans."""

from __future__ import annotations

from typing import NamedTuple

from .conll_io import Tag, TaggedSentence, validate_scheme


class InvalidScheme(ValueError):
    def __init__(self, violations):
        super().__init__("; ".join(v.message for v in violations))
        self.violations = violations


class OverlappingSpans(ValueError):
    pass


class SpanOutOfRange(ValueError):
    pass


class EntitySpan(NamedTuple):
    """Half-open token range [start, end) carrying one entity label."""

    start: int
    end: int
    label: str
    surface: str


def extract_spans(sentence: TaggedSentence) -> list[EntitySpan]:
    """Return one span per maximal B..I run, sorted by start position."""
    violations = validate_scheme(sentence)
    if violations:
        raise InvalidScheme(violations)

    # every I-tag continues the entity before it, so a span is one B-tag and
    # the I-tags that follow it
    tags, tokens = sentence.tags, sentence.tokens
    spans: list[EntitySpan] = []
    for start, tag in enumerate(tags):
        if tag.kind == "B":
            end = start + 1
            while end < len(tags) and tags[end].kind == "I":
                end += 1
            spans.append(EntitySpan(start, end, tag.label, " ".join(tokens[start:end])))
    return spans


def spans_to_tags(spans: list[EntitySpan], length: int) -> list[Tag]:
    """Inverse of :func:`extract_spans`: B-<label> at each span start,
    I-<label> inside, O elsewhere."""
    for span in spans:
        if not (0 <= span.start < span.end <= length):
            raise SpanOutOfRange(f"span [{span.start}, {span.end}) outside [0, {length})")
    ordered = sorted(spans, key=lambda s: s.start)
    for a, b in zip(ordered, ordered[1:]):
        if b.start < a.end:
            raise OverlappingSpans(f"[{a.start}, {a.end}) overlaps [{b.start}, {b.end})")

    tags = [Tag.outside() for _ in range(length)]
    for span in ordered:
        tags[span.start] = Tag.begin(span.label)
        for i in range(span.start + 1, span.end):
            tags[i] = Tag.inside(span.label)
    return tags
