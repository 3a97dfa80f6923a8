"""End-to-end projection of a tagged corpus through a translation backend.

Per sentence: validate the tag scheme while extracting spans, mask them
with indexed placeholders, translate template and entity surfaces, check
that the placeholder multiset survived, reinsert the translated entities
(``unmask`` builds valid IOB2 tags itself), and check that no placeholder
syntax reached the output. Any failing stage turns the sentence into an
exclusion with a machine-readable reason instead of an error.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from . import placeholder as ph
from .backends import (
    Backend,
    BackendCounters,
    BackendError,
    TranslationCache,
    TranslationRequest,
    translate_batch,
)
from .conll_io import DatasetSplit, InvalidSentence, TaggedSentence
from .placeholder import MaskedSentence
from .spans import InvalidScheme

REASON_PATTERN_COLLISION = "pattern-collision"
REASON_COUNT_MISMATCH = ph.REASON_COUNT_MISMATCH
REASON_DUPLICATE = ph.REASON_DUPLICATE
REASON_EMPTY_ENTITY = "empty-entity-translation"
REASON_INVALID_SCHEME = "invalid-scheme"
REASON_TOKEN_TAG_MISMATCH = "token-tag-mismatch"
REASON_BACKEND_FAILURE = "backend-failure"
REASON_PLACEHOLDER_LEAK = "placeholder-leak"

ALL_REASONS = (
    REASON_PATTERN_COLLISION,
    REASON_COUNT_MISMATCH,
    REASON_DUPLICATE,
    REASON_EMPTY_ENTITY,
    REASON_INVALID_SCHEME,
    REASON_TOKEN_TAG_MISMATCH,
    REASON_BACKEND_FAILURE,
    REASON_PLACEHOLDER_LEAK,
)

POLICY_LENIENT = "lenient"
POLICY_STRICT = "strict"


class AbortedRun(RuntimeError):
    """Raised under the strict policy when the backend fails for good."""


@dataclass(frozen=True)
class ProjectionOutcome:
    """Either a projected sentence or an exclusion, for one source sentence."""

    origin_index: int
    sentence: TaggedSentence | None = None
    reason: str | None = None
    detail: str | None = None

    @property
    def projected(self) -> bool:
        return self.sentence is not None


@dataclass
class SplitCounts:
    total: int = 0
    projected: int = 0
    excluded: int = 0
    dropped_empty: int = 0


@dataclass
class RunReport:
    splits: dict[str, SplitCounts] = field(default_factory=dict)
    reasons: Counter = field(default_factory=Counter)
    # the run's one tally of backend calls, texts translated and cache hits:
    # project_split hands it to translate_batch, and merge adds into it
    counters: BackendCounters = field(default_factory=BackendCounters)
    # what opening the translation memory found: entries indexed for the
    # run's scope, and the skipped lines of every scope
    cache_entries_loaded: int = 0
    cache_corrupt_lines: list[int] = field(default_factory=list)
    duration_seconds: float = 0.0
    config: dict | None = None

    def merge(self, other: "RunReport") -> None:
        for name, counts in other.splits.items():
            mine = self.splits.setdefault(name, SplitCounts())
            mine.total += counts.total
            mine.projected += counts.projected
            mine.excluded += counts.excluded
            mine.dropped_empty += counts.dropped_empty
        self.reasons.update(other.reasons)
        theirs = other.counters
        self.counters.add(hits=theirs.cache_hits, calls=theirs.backend_calls,
                          texts=theirs.texts_translated)

    def to_dict(self) -> dict:
        return {
            "splits": {
                name: {
                    "total": c.total,
                    "projected": c.projected,
                    "excluded": c.excluded,
                    "dropped_empty": c.dropped_empty,
                }
                for name, c in self.splits.items()
            },
            "exclusions_by_reason": dict(self.reasons),
            "backend_calls": self.counters.backend_calls,
            "texts_translated": self.counters.texts_translated,
            "cache_hits": self.counters.cache_hits,
            "cache": {
                "entries_loaded": self.cache_entries_loaded,
                "corrupt_lines": self.cache_corrupt_lines,
            },
            "duration_seconds": round(self.duration_seconds, 3),
            "config": self.config,
        }

    def render(self) -> str:
        lines = [f"{'split':<8} {'total':>6} {'projected':>10} {'excluded':>9}"]
        for name, c in self.splits.items():
            lines.append(f"{name:<8} {c.total:>6} {c.projected:>10} {c.excluded:>9}")
        if self.reasons:
            lines.append("exclusions by reason:")
            for reason, n in sorted(self.reasons.items()):
                lines.append(f"  {reason}: {n}")
        else:
            lines.append("exclusions by reason: none")
        lines.append(
            f"backend: {self.counters.backend_calls} calls, "
            f"{self.counters.texts_translated} texts translated, {self.counters.cache_hits} cache hits"
        )
        lines.append(
            f"cache: {self.cache_entries_loaded} entries loaded, "
            f"{len(self.cache_corrupt_lines)} corrupt lines skipped"
        )
        lines.append(f"duration: {self.duration_seconds:.2f} s")
        return "\n".join(lines) + "\n"


def _prepare(sentence: TaggedSentence) -> MaskedSentence | ProjectionOutcome:
    """Stages before translation: the masked sentence, or the outcome that excludes it."""
    origin = sentence.origin_index
    try:
        return ph.mask(sentence)
    except InvalidScheme as exc:
        return ProjectionOutcome(origin, reason=REASON_INVALID_SCHEME, detail=exc.violations[0].message)
    except ph.PatternCollision as exc:
        return ProjectionOutcome(origin, reason=REASON_PATTERN_COLLISION, detail=str(exc))


def _finish(
    sentence: TaggedSentence, masked: MaskedSentence, translated: list[str]
) -> ProjectionOutcome:
    """Stages after translation; translated is [template] + entity surfaces."""
    origin = sentence.origin_index
    template = translated[0]
    entities = translated[1:]
    hits = ph.find_placeholders(template)
    reason = ph.count_check(masked, template, hits)
    if reason is not None:
        return ProjectionOutcome(origin, reason=reason, detail=template)
    # count_check passed, so unmask cannot raise DuplicateIndex or UnknownIndex
    try:
        out = ph.unmask(template, entities, [e.label for e in masked.entities], origin, hits)
    except ph.EmptyEntityTranslation as exc:
        return ProjectionOutcome(origin, reason=REASON_EMPTY_ENTITY, detail=str(exc))
    except InvalidSentence as exc:
        return ProjectionOutcome(origin, reason=REASON_TOKEN_TAG_MISMATCH, detail=str(exc))
    # An entity translated into placeholder syntax, alone or together with a
    # neighbouring template word, would reach the corpus as an entity token.
    if ph.PLACEHOLDER_RE.search(" ".join(out.tokens)):
        return ProjectionOutcome(origin, reason=REASON_PLACEHOLDER_LEAK, detail=template)
    return ProjectionOutcome(origin, sentence=out)


def project_sentence(
    sentence: TaggedSentence,
    backend: Backend,
    source_lang: str,
    target_lang: str,
    *,
    cache: TranslationCache | None = None,
    on_error: str = POLICY_LENIENT,
) -> ProjectionOutcome:
    """Project one sentence as a one-sentence split; every failure mode is an
    Excluded outcome except backend failure under the strict policy, which raises AbortedRun."""
    _, outcomes, _ = project_split(
        DatasetSplit("sentence", [sentence]), backend, source_lang, target_lang,
        cache=cache, on_error=on_error,
    )
    return outcomes[0]


def project_split(
    split: DatasetSplit,
    backend: Backend,
    source_lang: str,
    target_lang: str,
    *,
    parallelism: int = 1,
    batch: int = 32,
    cache: TranslationCache | None = None,
    on_error: str = POLICY_LENIENT,
) -> tuple[DatasetSplit, list[ProjectionOutcome], RunReport]:
    """Project a whole split.

    Unique texts are collected across the split (each surface translated at
    most once per run) and looked up in ``cache`` once each. Only the misses
    are sent to the backend, ``batch`` at a time on up to ``parallelism``
    workers, so a failed request excludes only sentences that need one of
    its texts. Output order, and output bytes, do not depend on parallelism
    for a deterministic backend.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    started = time.monotonic()

    prepared: list[tuple[TaggedSentence, MaskedSentence | ProjectionOutcome]] = []
    unique: dict[str, None] = {}
    for sentence in split.sentences:
        masked = _prepare(sentence)
        prepared.append((sentence, masked))
        if isinstance(masked, MaskedSentence):
            unique.setdefault(masked.template)
            for span in masked.entities:
                unique.setdefault(span.surface)

    report = RunReport()
    backend_id = backend.backend_id
    translations: dict[str, str] = {}
    misses: list[str] = []
    for text in unique:
        cached = None if cache is None else cache.lookup(backend_id, source_lang, target_lang, text)
        if cached is None:
            misses.append(text)
        else:
            translations[text] = cached
    report.counters.add(hits=len(translations))
    batches = [misses[i:i + batch] for i in range(0, len(misses), batch)]
    failures: dict[str, str] = {}

    def run_batch(texts: list[str]):
        """(texts, translations, None), or (texts, None, error) when the backend
        fails, so one failed batch does not raise inside the pool. The texts
        are all misses, so translate_batch gets no cache to look them up in
        again; they are stored here, as soon as their batch returns."""
        request = TranslationRequest(tuple(texts), source_lang, target_lang)
        try:
            result = translate_batch(request, backend, None, report.counters)
        except BackendError as exc:
            return texts, None, str(exc)
        if cache is not None:
            for text, out in zip(texts, result):
                cache.store(backend_id, source_lang, target_lang, text, out)
        return texts, result, None

    if batches:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            settled = list(pool.map(run_batch, batches))
        for texts, result, error in settled:
            if error is None:
                translations.update(zip(texts, result))
            else:
                if on_error == POLICY_STRICT:
                    raise AbortedRun(error)
                for t in texts:
                    failures[t] = error

    outcomes: list[ProjectionOutcome] = []
    for sentence, masked in prepared:
        if isinstance(masked, ProjectionOutcome):
            outcomes.append(masked)
            continue
        texts = [masked.template] + [e.surface for e in masked.entities]
        failed = next((t for t in texts if t in failures), None)
        if failed is not None:
            outcomes.append(
                ProjectionOutcome(
                    sentence.origin_index, reason=REASON_BACKEND_FAILURE, detail=failures[failed]
                )
            )
            continue
        outcomes.append(_finish(sentence, masked, [translations[t] for t in texts]))

    projected = [o.sentence for o in outcomes if o.projected]
    out_split = DatasetSplit(
        split.name,
        [replace(s, origin_index=i) for i, s in enumerate(projected)],
    )

    report.splits[split.name] = SplitCounts(
        total=len(split.sentences),
        projected=len(projected),
        excluded=len(outcomes) - len(projected),
        dropped_empty=split.dropped_empty,
    )
    report.reasons.update(o.reason for o in outcomes if o.reason)
    report.duration_seconds = time.monotonic() - started
    return out_split, outcomes, report
