"""Read, write, and sanity-check token-per-line NER corpora.

The on-disk format is the usual CoNLL layout: one token per line with its
tag in the last whitespace-separated field, blank lines between sentences.
Intermediate columns (POS, chunk) are ignored so the same reader covers
CoNLL 2003, OntoNotes exports, WNUT, and NCBI-style files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

DOCSTART = "-DOCSTART-"

# Matches exactly the characters str.isspace() accepts (checked over every
# code point on Python 3.11), so one search replaces a per-character scan.
_WS = re.compile(r"\s")


class ConllError(ValueError):
    pass


class MalformedLine(ConllError):
    def __init__(self, line_no: int, line: str):
        super().__init__(f"line {line_no}: expected at least 2 fields, got {line!r}")
        self.line_no = line_no


class MalformedTag(ConllError):
    def __init__(self, line_no: int | None, raw: str):
        at = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{at}tag {raw!r} is not 'O', 'B-<label>' or 'I-<label>'")
        self.line_no = line_no
        self.raw = raw


class InvalidSentence(ValueError):
    pass


@dataclass(frozen=True)
class Tag:
    """One IOB tag: ``O``, ``B-<label>`` or ``I-<label>``."""

    raw: str
    kind: str  # "O", "B" or "I"
    label: str | None

    @classmethod
    def parse(cls, raw: str, line_no: int | None = None) -> "Tag":
        """The shared Tag for ``raw``; raises MalformedTag if it is not one."""
        tag = _TAGS.get(raw)
        if tag is not None:
            return tag
        if raw == "O":
            tag = cls("O", "O", None)
        elif len(raw) > 2 and raw[0] in ("B", "I") and raw[1] == "-" and not _WS.search(raw, 2):
            tag = cls(raw, raw[0], raw[2:])
        else:
            raise MalformedTag(line_no, raw)
        return _TAGS.setdefault(raw, tag)

    @classmethod
    def outside(cls) -> "Tag":
        return cls.parse("O")

    @classmethod
    def begin(cls, label: str) -> "Tag":
        return cls.parse(f"B-{label}")

    @classmethod
    def inside(cls, label: str) -> "Tag":
        return cls.parse(f"I-{label}")

    def __str__(self) -> str:
        return self.raw


# One Tag per distinct valid tag string seen in this process. Tags are
# immutable and compare by value, so sharing them is invisible to callers;
# malformed strings are never stored.
_TAGS: dict[str, Tag] = {}


@dataclass
class TaggedSentence:
    """Parallel token/tag arrays plus the sentence's position in its split."""

    tokens: list[str]
    tags: list[Tag]
    origin_index: int = 0

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise InvalidSentence(
                f"{len(self.tokens)} tokens vs {len(self.tags)} tags"
            )
        if not self.tokens:
            raise InvalidSentence("sentence has no tokens")
        # A whitespace character is in the joined text only if some token
        # holds it; the per-token loop runs only to name the first bad one.
        if "" in self.tokens or _WS.search("".join(self.tokens)):
            for tok in self.tokens:
                if not tok or _WS.search(tok):
                    raise InvalidSentence(f"bad token {tok!r}")
        # parse_conll skips such a line, so the token would not survive a file
        if DOCSTART in self.tokens:
            raise InvalidSentence(f"token {DOCSTART!r} reads back as a document break")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class DatasetSplit:
    name: str
    sentences: list[TaggedSentence]
    # sentence groups that became empty during parsing (e.g. DOCSTART-only);
    # surfaced in the run report, not part of split identity
    dropped_empty: int = field(default=0, compare=False)

    def __post_init__(self):
        origins = [s.origin_index for s in self.sentences]
        if any(b <= a for a, b in zip(origins, origins[1:])):
            raise InvalidSentence("origin_index values must be unique and ascending")

    def __len__(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class Violation:
    """A position where a tag sequence breaks the IOB2 rule."""

    index: int
    tag: str
    message: str


def parse_conll(text: str, name: str = "other") -> DatasetSplit:
    """Parse a CoNLL document: first field is the token, last field the tag.

    Blank lines delimit sentences, ``-DOCSTART-`` lines are skipped, and
    sentence groups that end up empty are dropped (counted in
    ``DatasetSplit.dropped_empty``). A token string that recurs in the
    document is one shared ``str``.
    """
    return _read(text, name, None)


def parse_conll_with_lines(
    text: str, name: str = "other"
) -> tuple[DatasetSplit, list[list[int]]]:
    """Like :func:`parse_conll` but also returns per-token line numbers."""
    line_map: list[list[int]] = []
    return _read(text, name, line_map), line_map


# A block the reader splits holds this many characters and the rest of its
# last line; 64 KB blocks raised the parse peak of a 600 KB split by a fifth.
_BLOCK = 16 * 1024


def _read(text: str, name: str, line_map: list[list[int]] | None) -> DatasetSplit:
    """The one reader loop, over blocks of whole lines split once each, so
    at most one block's lines are alive. Lines end at ``"\\n"`` only: the
    other characters ``str.splitlines`` breaks on are field separators to
    ``str.split``. Each token's line number is recorded in ``line_map``
    only when one is given."""
    sentences: list[TaggedSentence] = []
    dropped = 0
    tokens: list[str] = []
    tags: list[Tag] = []
    lines: list[int] = []
    saw_docstart = False  # the current group had a -DOCSTART- line
    share = {}.setdefault  # one str per distinct token
    known = _TAGS.get

    end = len(text)
    pos = 0
    first = 1  # the number of the block's first line
    while pos <= end:
        nl = text.find("\n", pos + _BLOCK)
        if nl < 0:
            nl = end
        rows = text[pos:nl].split("\n")
        pos = nl + 1
        if pos > end:
            rows.append("")  # a blank sentinel ends the last group
        for line_no, line in enumerate(rows, first):
            fields = line.split()
            if not fields:
                if tokens:
                    sentences.append(TaggedSentence(tokens, tags, origin_index=len(sentences)))
                    tokens, tags = [], []
                    if line_map is not None:
                        line_map.append(lines)
                        lines = []
                elif saw_docstart:
                    dropped += 1
                saw_docstart = False
            elif fields[0] == DOCSTART:
                saw_docstart = True
            elif len(fields) < 2:
                raise MalformedLine(line_no, line)
            else:
                token = fields[0]
                tokens.append(share(token, token))
                tags.append(known(fields[-1]) or Tag.parse(fields[-1], line_no))
                if line_map is not None:
                    lines.append(line_no)
        first += len(rows)

    return DatasetSplit(name, sentences, dropped_empty=dropped)


def serialize_sentence(sentence: TaggedSentence) -> str:
    """One sentence as :func:`serialize_conll` writes it: ``token<SP>tag``
    lines, then the blank line that ends it."""
    return "".join([f"{tok} {tag.raw}\n" for tok, tag in zip(sentence.tokens, sentence.tags)]) + "\n"


def serialize_conll(split: DatasetSplit) -> str:
    """Write a split back out: ``token<SP>tag`` lines, one blank line between
    sentences, trailing newline. ``parse_conll(serialize_conll(s)) == s``."""
    return "".join(map(serialize_sentence, split.sentences))


def validate_scheme(sentence: TaggedSentence) -> list[Violation]:
    """Return one Violation per I-tag that does not continue a same-label
    entity (the IOB2 rule). An empty list means the sentence is valid IOB2."""
    violations = []
    prev: Tag | None = None
    for i, tag in enumerate(sentence.tags):
        if tag.kind == "I":
            ok = prev is not None and prev.kind in ("B", "I") and prev.label == tag.label
            if not ok:
                violations.append(
                    Violation(i, tag.raw, f"{tag.raw} at position {i} does not continue a {tag.label} entity")
                )
        prev = tag
    return violations


def normalize_tags_iob1_to_iob2(tags: list[Tag]) -> None:
    """Rewrite IOB1 tags as IOB2 in place: every entity-initial token gets B-<label>.

    Under IOB1 an entity starts with I-<label> unless it directly follows a
    same-label entity, where B-<label> marks the boundary. The entity spans
    read from the input under IOB1 equal those of the output under IOB2.
    """
    prev = None  # the input tag before this one
    for i, tag in enumerate(tags):
        if tag.kind == "I" and (prev is None or prev.kind == "O" or prev.label != tag.label):
            tags[i] = Tag.begin(tag.label)
        prev = tag


def normalize_iob1_to_iob2(sentence: TaggedSentence) -> TaggedSentence:
    """A copy of ``sentence`` with its tags rewritten by :func:`normalize_tags_iob1_to_iob2`."""
    tags = list(sentence.tags)
    normalize_tags_iob1_to_iob2(tags)
    return TaggedSentence(list(sentence.tokens), tags, sentence.origin_index)
