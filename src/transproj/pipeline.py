"""End-to-end projection of a tagged corpus through a translation backend.

Per sentence: validate the tag scheme while extracting spans, mask them
with indexed placeholders, translate template and entity surfaces, check
that the placeholder multiset survived, reinsert the translated entities
(``unmask`` builds valid IOB2 tags itself), and check that no placeholder
syntax reached the output. Any failing stage turns the sentence into an
exclusion with a machine-readable reason instead of an error.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
POLICIES = (POLICY_LENIENT, POLICY_STRICT)


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
    # project_split counts into it, and merge adds into it
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
    sentence: TaggedSentence, masked: MaskedSentence, translated: list[str], index: int
) -> ProjectionOutcome:
    """Stages after translation; translated is [template] + entity surfaces,
    and ``index`` is the projected sentence's position in the projected split."""
    origin = sentence.origin_index
    template = translated[0]
    entities = translated[1:]
    hits = ph.find_placeholders(template)
    reason = ph.count_check(masked, template, hits)
    if reason is not None:
        return ProjectionOutcome(origin, reason=reason, detail=template)
    # count_check passed, so unmask cannot raise DuplicateIndex or UnknownIndex
    try:
        out = ph.unmask(template, entities, [e.label for e in masked.entities], index, hits)
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

    Unique texts are collected across the split, so each is translated at
    most once per split, or once per run when every split shares ``cache``,
    and looked up in ``cache`` once each. Only the misses are sent to the
    backend, ``batch`` at a time, so a failed request excludes only
    sentences that need one of its texts. ``parallelism`` caps the requests
    in flight: at 1 they run on the calling thread; above 1, on
    ``2 * parallelism`` threads sharing ``parallelism`` slots, and a batch
    waiting out an ``HttpBackend`` retry backoff hands its slot to another.
    Under the strict policy the first failed request aborts the run and no
    batch sends after that. This is the only code that reads or writes the
    cache and that counts into the report, on the calling thread and in
    request order: a finished request is stored only once every earlier one
    has returned. A slow or backing-off request does not stop the other
    slots, so a crash loses every request that finished after the oldest
    one not yet stored, for a rerun to send again. Output order, output
    bytes and the cache file's bytes do not depend on parallelism for a
    deterministic backend.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if on_error not in POLICIES:
        raise ValueError(f"on_error must be {' or '.join(POLICIES)}, got {on_error!r}")
    started = time.monotonic()

    # a tuple of texts per sentence: lists held this long raised conll_dict peak RSS ~2.7%
    prepared: list[tuple[TaggedSentence, MaskedSentence | ProjectionOutcome, tuple[str, ...]]] = []
    unique: dict[str, None] = {}
    for sentence in split.sentences:
        masked = _prepare(sentence)
        texts = ()
        if isinstance(masked, MaskedSentence):
            texts = (masked.template, *(span.surface for span in masked.entities))
            unique.update(dict.fromkeys(texts))
        prepared.append((sentence, masked, texts))

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

    def send(texts: list[str], slot: threading.Semaphore | None = None):
        """(translations, None), or (None, error) when the backend fails, so
        one failed batch does not raise inside the pool."""
        request = TranslationRequest(tuple(texts), source_lang, target_lang)
        try:
            return translate_batch(request, backend, slot), None
        except BackendError as exc:
            return None, str(exc)

    slots = threading.BoundedSemaphore(parallelism)
    stop = threading.Event()

    def run_batch(texts: list[str]):
        """The pool's worker: sends while holding a slot, unless the run has stopped."""
        with slots:
            if stop.is_set():
                return None, "not sent: the run stopped"
            return send(texts, slots)

    # with one worker there is nothing to overlap, so requests run on this thread
    pool = ThreadPoolExecutor(max_workers=2 * parallelism) if parallelism > 1 else None
    try:
        results = map(send, batches) if pool is None else pool.map(run_batch, batches)
        for texts, (result, error) in zip(batches, results):
            if error is None:
                report.counters.add(calls=1, texts=len(texts))
                translations.update(zip(texts, result))
                if cache is not None:
                    for text, out in zip(texts, result):
                        cache.store(backend_id, source_lang, target_lang, text, out)
            elif on_error == POLICY_STRICT:
                raise AbortedRun(error)
            else:
                failures.update(dict.fromkeys(texts, error))
    finally:
        if pool is not None:
            stop.set()  # after an abort, no batch sends
            pool.shutdown(cancel_futures=True)

    outcomes: list[ProjectionOutcome] = []
    projected: list[TaggedSentence] = []
    for sentence, masked, texts in prepared:
        failed = next((t for t in texts if t in failures), None)
        if isinstance(masked, ProjectionOutcome):
            outcome = masked
        elif failed is not None:
            outcome = ProjectionOutcome(sentence.origin_index, reason=REASON_BACKEND_FAILURE,
                                        detail=failures[failed])
        else:
            outcome = _finish(sentence, masked, [translations[t] for t in texts], len(projected))
        outcomes.append(outcome)
        if outcome.projected:
            projected.append(outcome.sentence)
    out_split = DatasetSplit(split.name, projected)

    report.splits[split.name] = SplitCounts(
        total=len(split.sentences),
        projected=len(projected),
        excluded=len(outcomes) - len(projected),
        dropped_empty=split.dropped_empty,
    )
    report.reasons.update(o.reason for o in outcomes if o.reason)
    report.duration_seconds = time.monotonic() - started
    return out_split, outcomes, report
