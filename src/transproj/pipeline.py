"""End-to-end projection of a tagged corpus through a translation backend.

Per sentence: validate the tag scheme while extracting spans, mask them
with indexed placeholders, translate template and entity surfaces, check
that the placeholder multiset survived, reinsert the translated entities
(``unmask`` builds valid IOB2 tags itself), and check that the output
holds no placeholder fragment: placeholder syntax is reserved, so a source
holding one is a pattern collision. Any failing stage turns the sentence
into an exclusion with a machine-readable reason instead of an error.

``stream_run`` is the one projection loop, and a run of splits is its unit
of work. ``prepare_split`` masks a split and keeps of each sentence only its
texts and labels, so a caller that lets the split go then holds no parsed
sentence. ``stream_run`` looks up the unique texts of every split once,
sends the misses in batches that cross split boundaries, then finishes and
yields one sentence at a time, so a caller that writes each projected
sentence out holds only the run's masked texts and the cache's translations.
``project_split`` is a run of one split, collected into lists.
"""

from __future__ import annotations

import math
import random
import threading
import time
from collections import Counter
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from . import placeholder as ph
from .backends import (
    Backend,
    BackendError,
    BackendTransient,
    TranslationCache,
    TranslationRequest,
    backoff_fits,
    translate_batch,
)
from .conll_io import DatasetSplit, InvalidSentence, TaggedSentence
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


class ProjectionOutcome(NamedTuple):
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
class BackendCounters:
    """Tallies for the run report, counted by ``stream_run`` on its calling thread."""

    backend_calls: int = 0
    texts_translated: int = 0
    cache_hits: int = 0


@dataclass
class RunReport:
    splits: dict[str, SplitCounts] = field(default_factory=dict)
    reasons: Counter = field(default_factory=Counter)
    # the run's one tally of backend calls, texts translated and cache hits,
    # which stream_run counts into
    counters: BackendCounters = field(default_factory=BackendCounters)
    # what opening the translation memory found: entries indexed for the
    # run's scope, and the skipped lines of every scope
    cache_entries_loaded: int = 0
    cache_corrupt_lines: list[int] = field(default_factory=list)
    duration_seconds: float = 0.0
    config: dict | None = None

    def to_dict(self) -> dict:
        return {
            "splits": {name: asdict(c) for name, c in self.splits.items()},
            "exclusions_by_reason": dict(self.reasons),
            **asdict(self.counters),
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


class PreparedSplit(NamedTuple):
    """A masked split: one ``(origin_index, labels, texts)`` record per
    sentence, with texts its template and entity surfaces, or
    ``(origin_index, outcome, ())`` for one excluded before translation."""

    name: str
    dropped_empty: int
    records: list[tuple[int, tuple[str, ...] | ProjectionOutcome, tuple[str, ...]]]


def prepare_split(split: DatasetSplit) -> PreparedSplit:
    """Mask every sentence of ``split``, which is left as it was. No record
    holds the sentence, its masked form or its spans, so those go once the
    caller lets the split go."""
    # tuples, not lists: lists held this long raised conll_dict peak RSS ~2.7%
    records = []
    for sentence in split.sentences:
        origin = sentence.origin_index
        try:
            masked = ph.mask(sentence)
        except InvalidScheme as exc:
            excluded = ProjectionOutcome(origin, reason=REASON_INVALID_SCHEME, detail=exc.violations[0].message)
        except ph.PatternCollision as exc:
            excluded = ProjectionOutcome(origin, reason=REASON_PATTERN_COLLISION, detail=str(exc))
        else:
            texts = (masked.template, *(span.surface for span in masked.entities))
            records.append((origin, tuple(span.label for span in masked.entities), texts))
            continue
        records.append((origin, excluded, ()))
    return PreparedSplit(split.name, split.dropped_empty, records)


def _finish(origin: int, labels: tuple[str, ...], translated: list[str], index: int) -> ProjectionOutcome:
    """Stages after translation for the source sentence at ``origin``, whose
    entities carry ``labels``; translated is [template] + entity surfaces,
    and ``index`` is the projected sentence's position in the projected split."""
    template = translated[0]
    entities = translated[1:]
    try:
        out = ph.unmask(template, entities, labels, index)
    except ph.IndexMismatch as exc:
        return ProjectionOutcome(origin, reason=exc.reason, detail=template)
    except ph.EmptyEntityTranslation as exc:
        return ProjectionOutcome(origin, reason=REASON_EMPTY_ENTITY, detail=str(exc))
    except InvalidSentence as exc:
        return ProjectionOutcome(origin, reason=REASON_TOKEN_TAG_MISMATCH, detail=str(exc))
    # any fragment leaked from the translation: an entity translated into
    # placeholder syntax, alone or with a neighbouring template word, or
    # what an engine left of a placeholder it mangled
    if ph.find_fragment(" ".join(out.tokens)) is not None:
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
    """Project a whole split: the projected split, one outcome per source
    sentence in source order, and the split's report.

    This is :func:`stream_run` over this one split, read to the end, so it
    holds every outcome at once; the CLI streams instead. ``split`` is left
    as it was, and the caller's reference keeps its parsed sentences. Each
    unique text of a run is looked up in ``cache`` once and translated at
    most once, so splits projected in turn over one shared ``cache`` send a
    text at most once between them.
    ``cache`` must be opened for the scope ``(backend.backend_id,
    source_lang, target_lang)``; any other scope raises ValueError before
    any lookup or request, as do an empty language code and a backoff
    longer than ``backends.backoff_fits`` allows. Without one, the run opens an
    in-memory cache of its own. Only the misses are sent, ``batch`` at a time:
    one batch is one request plus its retries, each attempt one
    ``backend.translate`` call, so a failed request excludes only sentences
    that need one of its texts. A batch whose call raises
    ``BackendTransient`` is sent again up to ``backend.retries`` times,
    after a backoff that doubles from ``backend.backoff_base`` seconds, with
    up to 25 % jitter. ``parallelism`` caps the requests in flight: one
    worker makes each attempt while it holds one of ``parallelism`` slots,
    and waits out a backoff without one, so another batch sends meanwhile;
    in the slot it first takes a ``backend.limiter`` token, if it has one.
    At 1 the worker runs on the calling thread; above 1, on ``2 *
    parallelism`` threads. Under the strict policy no attempt starts once a
    request has failed for good, not even after a backoff or a wait on the
    limiter, and the run aborts with the first failure in request order.
    This is the only code that reads or writes the cache and that counts
    into the report, on the calling thread and in request order: a finished
    request is stored only once every earlier one has returned. A slow or
    backing-off request does not stop the other slots, so a crash loses
    every request that finished after the oldest one not yet stored, for a
    rerun to send again. Output order, output bytes and the cache file's
    bytes do not depend on parallelism for a deterministic backend.
    """
    started = time.monotonic()
    report = RunReport()
    run = stream_run([prepare_split(split)], backend, source_lang, target_lang, report,
                     parallelism=parallelism, batch=batch, cache=cache, on_error=on_error)
    outcomes = [outcome for split_outcomes in run for outcome in split_outcomes]
    report.duration_seconds = time.monotonic() - started
    return DatasetSplit(split.name, [o.sentence for o in outcomes if o.projected]), outcomes, report


def stream_run(
    prepared: list[PreparedSplit],
    backend: Backend,
    source_lang: str,
    target_lang: str,
    report: RunReport,
    *,
    parallelism: int = 1,
    batch: int = 32,
    cache: TranslationCache | None = None,
    on_error: str = POLICY_LENIENT,
) -> Iterator[Iterator[ProjectionOutcome]]:
    """Project the splits ``prepared`` as one run, and yield per split, in
    order, an iterator of one outcome per source sentence, in source order;
    the settings and guarantees are :func:`project_split`'s.

    Nothing runs until the first iterator is asked for. Then the run's
    unique texts are looked up once each, in the order the splits first
    hold them, and every miss is sent, ``batch`` at a time across split
    boundaries, and stored (a bad setting raises ValueError, and a strict
    abort raises AbortedRun, before the first iterator). Each outcome is
    finished only when it is asked for, and a projected sentence is
    numbered by its place among its split's projected ones, so a caller
    that writes each one out and lets it go never holds a projected split.
    The tallies are added into ``report``: the cache hits (the run's unique
    texts found in ``cache`` before any request) and the backend counts
    before the first iterator, each exclusion's reason as it is yielded, and
    a split's counts once its iterator has yielded its last outcome.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if on_error not in POLICIES:
        raise ValueError(f"on_error must be {' or '.join(POLICIES)}, got {on_error!r}")
    if not source_lang or not target_lang:  # also when every text is cached and no request is made
        raise ValueError("language codes must be non-empty")
    if not backoff_fits(backend.retries, backend.backoff_base):
        raise ValueError(f"backoff_base {backend.backoff_base!r} over {backend.retries} retries waits "
                         "less than 0 or more than threading.TIMEOUT_MAX seconds")
    scope = (backend.backend_id, source_lang, target_lang)
    if cache is None:
        cache = TranslationCache(None, scope)
    elif cache.scope != scope:
        raise ValueError(f"cache scope {cache.scope!r} is not this run's {scope!r}")

    unique = dict.fromkeys(text for split in prepared for _, _, texts in split.records for text in texts)
    misses = [text for text in unique if cache.lookup(text) is None]
    report.counters.cache_hits += len(unique) - len(misses)
    batches = [misses[i:i + batch] for i in range(0, len(misses), batch)]
    del unique, misses  # the batches hold every miss, and the records every text
    failures: dict[str, str] = {}
    slots = threading.BoundedSemaphore(parallelism)
    stop = threading.Event()

    def send(texts: list[str]):
        """Send one batch: up to ``backend.retries + 1`` attempts while the
        backend fails transiently, each in a slot, after a limiter token,
        and only if the run has not stopped; a stop also ends the wait for
        a token. The backoff holds no slot, so another batch sends meanwhile.
        (translations, None), (None, error) when the backend fails, so no
        failed batch raises inside the pool, or (None, None) if not sent."""
        request = TranslationRequest(tuple(texts), source_lang, target_lang)
        attempts = backend.retries + 1
        for attempt in range(attempts):
            if attempt:
                delay = math.ldexp(backend.backoff_base, attempt - 1)  # backoff_base * 2**(attempt - 1)
                time.sleep(delay * (1.0 + 0.25 * random.random()))
            with slots:
                if backend.limiter is not None:
                    backend.limiter.acquire(stop)
                if stop.is_set():
                    return None, None
                try:
                    return translate_batch(request, backend), None
                except BackendTransient as exc:
                    if attempt < backend.retries:
                        continue
                    error = f"giving up on {backend.backend_id} after {attempts} attempts: {exc}"
                except BackendError as exc:
                    error = str(exc)
                if on_error == POLICY_STRICT:
                    stop.set()  # before the slot is free, so no batch waiting for it sends
                return None, error

    # with one slot there is nothing to overlap, so requests run on this thread
    pool = ThreadPoolExecutor(max_workers=2 * parallelism) if parallelism > 1 else None
    try:
        for texts, (result, error) in zip(batches, (pool.map if pool else map)(send, batches)):
            if result is not None:
                report.counters.backend_calls += 1
                report.counters.texts_translated += len(texts)
                for text, out in zip(texts, result):
                    cache.store(text, out)
            elif error is None:
                continue  # not sent: a strict failure later in request order stopped the run
            elif on_error == POLICY_STRICT:
                raise AbortedRun(error)
            else:
                failures.update(dict.fromkeys(texts, error))
    finally:
        stop.set()  # after an abort, no batch sends
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    def outcomes(split: PreparedSplit) -> Iterator[ProjectionOutcome]:
        """The split's outcomes, each finished as it is asked for, then its counts."""
        projected = 0
        for origin, labels, texts in split.records:
            failed = next((t for t in texts if t in failures), None) if failures else None
            if isinstance(labels, ProjectionOutcome):
                outcome = labels
            elif failed is not None:
                outcome = ProjectionOutcome(origin, reason=REASON_BACKEND_FAILURE, detail=failures[failed])
            else:
                outcome = _finish(origin, labels, [cache[t] for t in texts], projected)
            if outcome.projected:
                projected += 1
            else:
                report.reasons[outcome.reason] += 1
            yield outcome
        total = len(split.records)
        report.splits[split.name] = SplitCounts(total=total, projected=projected, excluded=total - projected,
                                                dropped_empty=split.dropped_empty)

    for split in prepared:
        yield outcomes(split)
