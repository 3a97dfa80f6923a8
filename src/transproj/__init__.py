"""Cross-lingual NER annotation projection via indexed placeholder masking."""

from .backends import (
    Backend,
    BackendError,
    BackendProtocol,
    BackendTransient,
    BackendUnavailable,
    DictionaryBackend,
    HttpBackend,
    IdentityBackend,
    ScramblerBackend,
    TranslationCache,
    TranslationRequest,
    translate_batch,
)
from .conll_io import (
    DatasetSplit,
    Tag,
    TaggedSentence,
    Violation,
    normalize_iob1_to_iob2,
    parse_conll,
    serialize_conll,
    validate_scheme,
)
from .pipeline import (
    AbortedRun,
    BackendCounters,
    ProjectionOutcome,
    RunReport,
    project_sentence,
    project_split,
)
from .placeholder import (
    MaskedSentence,
    PlaceholderHit,
    count_check,
    find_placeholders,
    mask,
    unmask,
)
from .spans import EntitySpan, extract_spans, spans_to_tags
from .stats import DeltaStats, SplitStats, delta_stats, split_stats

__version__ = "0.1.0"

__all__ = [
    "AbortedRun",
    "Backend",
    "BackendCounters",
    "BackendError",
    "BackendProtocol",
    "BackendTransient",
    "BackendUnavailable",
    "DatasetSplit",
    "DeltaStats",
    "DictionaryBackend",
    "EntitySpan",
    "HttpBackend",
    "IdentityBackend",
    "MaskedSentence",
    "PlaceholderHit",
    "ProjectionOutcome",
    "RunReport",
    "ScramblerBackend",
    "SplitStats",
    "Tag",
    "TaggedSentence",
    "TranslationCache",
    "TranslationRequest",
    "Violation",
    "count_check",
    "delta_stats",
    "extract_spans",
    "find_placeholders",
    "mask",
    "normalize_iob1_to_iob2",
    "parse_conll",
    "project_sentence",
    "project_split",
    "serialize_conll",
    "spans_to_tags",
    "split_stats",
    "translate_batch",
    "unmask",
    "validate_scheme",
]
