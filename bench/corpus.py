"""Seeded synthetic corpora shaped like CoNLL-2003, plus their reference outputs.

The generator draws everything from one ``random.Random(seed)``:

- a Zipf-distributed vocabulary with a fixed POS tag per word, and Zipf
  pools of 1-3 word entity names per label, so words, templates and entity
  surfaces repeat within and across splits;
- log-normal sentence lengths, about 11% entity tokens, a fixed share of
  sentences cut from a pool of repeated skeletons, ``-DOCSTART-`` lines
  between documents;
- IOB1 tags with POS and chunk columns, as in the CoNLL-2003 files;
- a fixed share of sentences carrying a placeholder-like token (``[*3*]``),
  which the program must exclude with ``pattern-collision``;
- a word-for-word dictionary covering about 90% of the words.

Nothing here imports transproj. The expected output of every split is built
from the generated entity spans and the dictionary: each token mapped
through the dictionary (unknown words pass through), tags written as IOB2.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from statistics import NormalDist

LABELS = ("PER", "LOC", "ORG", "MISC")
# CoNLL-2003 English sentence counts; workloads scale these down.
CONLL2003_SIZES = {"train": 14041, "dev": 3250, "test": 3453}

REASON_PATTERN_COLLISION = "pattern-collision"
REASON_BACKEND_FAILURE = "backend-failure"

_LATIN = "abcdefghijklmnopqrstuvwxyz"
_TARGET_LETTERS = "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"
_POS_WORD = ("NN", "NNS", "VB", "VBD", "VBZ", "JJ", "RB", "IN", "DT", "CD", "PRP", "CC")
_PUNCT = (".", ",", "'s", "(", ")", '"', ":", "-", "%")
_PUNCT_RANKS = (2, 3, 9, 14, 15, 22, 40, 61, 150)
_NAME_LENGTHS = (1, 2, 1, 1, 3, 1, 2, 1, 1, 2, 1, 1, 2)  # words per name, cycled by rank

ENTITY_START_P = 0.078  # share of free word slots that start a name; gives about 11% entity tokens
SKELETON_SHARE = 0.15  # sentences cut from the repeated-skeleton pool
COLLISION_SHARE = 0.004  # sentences carrying a placeholder-like token


@dataclass
class Sentence:
    tokens: list[str]
    spans: list[tuple[int, int, str]]  # [start, end) with label, IOB2 truth
    collision: bool = False


@dataclass
class Lexicon:
    words: list[str]
    word_cw: list[float]
    pos: dict[str, str]
    names: dict[str, list[tuple[str, ...]]]
    name_cw: list[float]
    dictionary: dict[str, str]
    skeletons: list[list[object]]  # each item a word or a label slot
    skeleton_cw: list[float]


@dataclass
class Corpus:
    splits: dict[str, list[Sentence]] = field(default_factory=dict)

    def sizes(self) -> dict:
        sentences = sum(len(s) for s in self.splits.values())
        tokens = sum(len(x.tokens) for s in self.splits.values() for x in s)
        entities = sum(len(x.spans) for s in self.splits.values() for x in s)
        entity_tokens = sum(e - b for s in self.splits.values() for x in s for b, e, _ in x.spans)
        return {
            "sentences": sentences,
            "tokens": tokens,
            "entities": entities,
            "entity_token_share": round(entity_tokens / tokens, 4) if tokens else 0.0,
        }


def _zipf_cw(n: int, s: float) -> list[float]:
    total = 0.0
    out = []
    for rank in range(1, n + 1):
        total += 1.0 / rank**s
        out.append(total)
    return out


def _unique_strings(rng: random.Random, lengths, alphabet: str, taken: set) -> list[str]:
    out = []
    for n in lengths:
        w = "".join(rng.choice(alphabet) for _ in range(n))
        while w in taken:
            w = "".join(rng.choice(alphabet) for _ in range(n))
        taken.add(w)
        out.append(w)
    return out


def build_lexicon(rng: random.Random, n_words: int = 6000, n_names: int = 1500) -> Lexicon:
    # Lengths follow the Zipf rank (words grow with the log of their rank,
    # punctuation sits at fixed ranks, names and skeletons cycle through fixed
    # lengths, a skeleton has one name slot per ten words), so tokens,
    # characters and names per sentence hardly depend on the seed.
    taken: set[str] = set(_PUNCT)
    n_plain = n_words - len(_PUNCT)
    words = _unique_strings(rng, (2 + r.bit_length() // 2 for r in range(1, n_plain + 1)), _LATIN, taken)
    for rank, p in zip(_PUNCT_RANKS, _PUNCT):
        words.insert(rank - 1, p)
    pos = {w: ("." if w in _PUNCT else rng.choice(_POS_WORD)) for w in words}
    name_words = [w.capitalize()
                  for w in _unique_strings(rng, (4 + i % 5 for i in range(n_names)), _LATIN, taken)]
    names = {}
    for label in LABELS:
        pool = []
        for rank in range(n_names // 2):
            k = _NAME_LENGTHS[rank % len(_NAME_LENGTHS)]
            pool.append(tuple(rng.choice(name_words) for _ in range(k)))
        names[label] = pool
    dictionary = {}
    for w in words + name_words:
        if rng.random() < 0.9:
            dictionary[w] = "".join(rng.choice(_TARGET_LETTERS) for _ in range(rng.randint(2, 8)))
    word_cw = _zipf_cw(len(words), 1.07)
    skeletons = []
    for rank in range(300):
        length = 4 + rank * 7 % 19
        skel: list[object] = rng.choices(words, cum_weights=word_cw, k=length)
        for at in rng.sample(range(length), round(0.1 * length)):
            skel[at] = (rng.choice(LABELS),)
        skeletons.append(skel)
    return Lexicon(
        words=words,
        word_cw=word_cw,
        pos=pos,
        names=names,
        name_cw=_zipf_cw(n_names // 2, 1.0),
        dictionary=dictionary,
        skeletons=skeletons,
        skeleton_cw=_zipf_cw(len(skeletons), 1.0),
    )


def _name(rng: random.Random, lex: Lexicon, label: str) -> tuple[str, ...]:
    return rng.choices(lex.names[label], cum_weights=lex.name_cw)[0]


def _sentence(rng: random.Random, lex: Lexicon, starts: list[bool] | None) -> Sentence:
    """A sentence with one word slot per item of ``starts``, where an entity
    name begins at each true slot that a previous name did not cover; or a
    sentence cut from a skeleton when ``starts`` is None."""
    tokens: list[str] = []
    spans: list[tuple[int, int, str]] = []
    if starts is None:
        skel = rng.choices(lex.skeletons, cum_weights=lex.skeleton_cw)[0]
        for item in skel:
            if isinstance(item, tuple):
                name = _name(rng, lex, item[0])
                spans.append((len(tokens), len(tokens) + len(name), item[0]))
                tokens.extend(name)
            else:
                tokens.append(item)
        return Sentence(tokens, spans)
    n = len(starts)
    words = rng.choices(lex.words, cum_weights=lex.word_cw, k=n)
    i = 0
    while i < n:
        if starts[i]:
            label = rng.choice(LABELS)
            name = _name(rng, lex, label)
            spans.append((len(tokens), len(tokens) + len(name), label))
            tokens.extend(name)
            i += len(name)
        else:
            tokens.append(words[i])
            i += 1
    return Sentence(tokens, spans)


def _outside_positions(sentence: Sentence) -> list[int]:
    inside = {i for b, e, _ in sentence.spans for i in range(b, e)}
    return [i for i in range(len(sentence.tokens)) if i not in inside]


def _plant(rng: random.Random, sentence: Sentence, token: str) -> None:
    """Replace one outside-entity token (or append one) with ``token``."""
    free = _outside_positions(sentence)
    if free:
        sentence.tokens[rng.choice(free)] = token
    else:
        sentence.tokens.append(token)


def _layout(rng: random.Random, n: int) -> list[list[bool] | None]:
    """Entity starts per word slot of ``n`` sentences, None for a skeleton
    sentence. The skeleton count, the log-normal lengths (taken at evenly
    spaced quantiles) and the number of entity starts follow from ``n`` alone
    and the seed only shuffles them, so the tokens, characters and distinct
    texts of a split hardly depend on the seed."""
    n_skeleton = round(SKELETON_SHARE * n)
    free = n - n_skeleton
    dist = NormalDist(2.45, 0.62)
    lengths = [max(1, min(80, round(math.exp(dist.inv_cdf((i + 0.5) / free))))) for i in range(free)]
    slots = sum(lengths)
    entities = round(ENTITY_START_P * slots)
    flags = [True] * entities + [False] * (slots - entities)
    rng.shuffle(flags)
    layout: list[list[bool] | None] = [None] * n_skeleton
    at = 0
    for length in lengths:
        layout.append(flags[at:at + length])
        at += length
    rng.shuffle(layout)
    return layout


def make_corpus(rng: random.Random, lex: Lexicon, sizes: dict[str, int]) -> Corpus:
    corpus = Corpus()
    for name, n in sizes.items():
        sentences = [_sentence(rng, lex, starts) for starts in _layout(rng, n)]
        for idx in rng.sample(range(n), max(1, round(COLLISION_SHARE * n))):
            _plant(rng, sentences[idx], f"[*{rng.randint(0, 9)}*]")
            sentences[idx].collision = True
        corpus.splits[name] = sentences
    return corpus


def filler_corpus(rng: random.Random, lex: Lexicon, n: int) -> Corpus:
    """Short sentences with one entity each: cheap to project, and each
    leaves a new template (and often a new surface) in a translation memory."""
    sentences = []
    for _ in range(n):
        words = rng.choices(lex.words, cum_weights=lex.word_cw, k=rng.randint(2, 5))
        label = rng.choice(LABELS)
        name = _name(rng, lex, label)
        at = rng.randint(0, len(words))
        sentences.append(Sentence(words[:at] + list(name) + words[at:], [(at, at + len(name), label)]))
    return Corpus({"train": sentences})


def plant_words(rng: random.Random, sentences: list[Sentence], words: list[str]) -> None:
    """Put each word into its own sentence, spread evenly over the middle
    60% of ``sentences``, so that the batches carrying them sit at about the
    same place in the run whatever the seed."""
    placed = []
    for k, word in enumerate(words):
        idx = round(len(sentences) * (0.2 + 0.6 * k / max(1, len(words) - 1)))
        while sentences[idx].collision or idx in placed:
            idx += 1
        _plant(rng, sentences[idx], word)
        placed.append(idx)


def iob1_tags(sentence: Sentence) -> list[str]:
    """CoNLL-2003 IOB1: an entity starts with I- unless it directly follows
    an entity of the same label, where B- marks the boundary."""
    tags = ["O"] * len(sentence.tokens)
    prev_end, prev_label = -1, None
    for b, e, label in sentence.spans:
        tags[b] = f"B-{label}" if (b == prev_end and label == prev_label) else f"I-{label}"
        for i in range(b + 1, e):
            tags[i] = f"I-{label}"
        prev_end, prev_label = e, label
    return tags


def iob2_tags(sentence: Sentence) -> list[str]:
    tags = ["O"] * len(sentence.tokens)
    for b, e, label in sentence.spans:
        tags[b] = f"B-{label}"
        for i in range(b + 1, e):
            tags[i] = f"I-{label}"
    return tags


def conll_text(rng: random.Random, lex: Lexicon, sentences: list[Sentence]) -> str:
    """CoNLL-2003 layout: ``token POS chunk tag``, documents opened by ``-DOCSTART-``."""
    out = []
    until_doc = 0
    for sentence in sentences:
        if until_doc == 0:
            out.append("-DOCSTART- -X- -X- O\n\n")
            until_doc = max(1, round(rng.expovariate(1 / 15)))
        until_doc -= 1
        tags = iob1_tags(sentence)
        inside = {i for b, e, _ in sentence.spans for i in range(b, e)}
        for i, (tok, tag) in enumerate(zip(sentence.tokens, tags)):
            if i in inside:
                pos, chunk = "NNP", "I-NP"
            else:
                pos = lex.pos.get(tok, "SYM")
                chunk = "O" if pos == "." else "I-NP" if pos.startswith("NN") else "I-VP"
            out.append(f"{tok} {pos} {chunk} {tag}\n")
        out.append("\n")
    return "".join(out)


@dataclass
class Reference:
    """Expected output per split: one serialized block per source sentence,
    or None where the sentence must be excluded, plus those exclusions."""

    blocks: dict[str, list[str | None]]
    exclusions: set[tuple[str, int, str]]

    def sentences(self) -> int:
        return sum(len(b) for b in self.blocks.values())


def reference(corpus: Corpus, dictionary: dict[str, str]) -> Reference:
    blocks: dict[str, list[str | None]] = {}
    exclusions = set()
    for split, sentences in corpus.splits.items():
        out: list[str | None] = []
        for idx, sentence in enumerate(sentences):
            if sentence.collision:
                exclusions.add((split, idx, REASON_PATTERN_COLLISION))
                out.append(None)
                continue
            lines = [f"{dictionary.get(tok, tok)} {tag}\n"
                     for tok, tag in zip(sentence.tokens, iob2_tags(sentence))]
            out.append("".join(lines) + "\n")
        blocks[split] = out
    return Reference(blocks, exclusions)


class CheckFailed(AssertionError):
    pass


def check_outputs(out_dir: str, ref: Reference, *, allow_backend_failure: bool) -> int:
    """Compare the files a projection wrote against the reference.

    Returns the number of sentences excluded with ``backend-failure``; those
    are allowed only when ``allow_backend_failure`` and must then be missing
    from the output. Raises CheckFailed on any other difference.
    """
    seen = set()
    failed: dict[str, set[int]] = {s: set() for s in ref.blocks}
    other = set()
    with open(os.path.join(out_dir, "exclusions.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["split"], rec["origin_index"])
            if key in seen:
                raise CheckFailed(f"sentence {key} excluded twice")
            seen.add(key)
            if rec["reason"] == REASON_BACKEND_FAILURE:
                if not allow_backend_failure:
                    raise CheckFailed(f"unexpected backend-failure exclusion {key}")
                blocks = ref.blocks.get(rec["split"])
                if blocks is None or not 0 <= rec["origin_index"] < len(blocks) \
                        or blocks[rec["origin_index"]] is None:
                    raise CheckFailed(f"backend-failure exclusion of {key}, which the reference "
                                      "does not translate")
                failed[rec["split"]].add(rec["origin_index"])
            else:
                other.add((rec["split"], rec["origin_index"], rec["reason"]))
    if other != ref.exclusions:
        extra = sorted(other - ref.exclusions)[:3]
        missing = sorted(ref.exclusions - other)[:3]
        raise CheckFailed(f"exclusions differ: unexpected {extra}, missing {missing}")
    for split, blocks in ref.blocks.items():
        expected = "".join(b for i, b in enumerate(blocks) if b is not None and i not in failed[split])
        with open(os.path.join(out_dir, f"{split}.conll"), encoding="utf-8") as fh:
            actual = fh.read()
        if actual != expected:
            a, e = actual.split("\n"), expected.split("\n")
            line = next((i for i, (x, y) in enumerate(zip(a, e)) if x != y), min(len(a), len(e)))
            got = a[line] if line < len(a) else "<end>"
            want = e[line] if line < len(e) else "<end>"
            raise CheckFailed(f"{split}.conll line {line + 1}: got {got!r}, expected {want!r}")
    return sum(len(v) for v in failed.values())


def write_dictionary(path: str, dictionary: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for src, tgt in dictionary.items():
            fh.write(f"{src}\t{tgt}\n")


def scaled(sizes: dict[str, int], scale: float) -> dict[str, int]:
    return {k: max(1, round(v * scale)) for k, v in sizes.items()}
