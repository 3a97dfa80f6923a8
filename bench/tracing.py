"""Spans and counters recorded around calls into transproj, from outside it.

The tracer replaces a function or method by a wrapper under the name its
caller resolves at call time (``pipeline.translate_batch``, not the
definition in ``backends``), and puts the original back on ``uninstall``.
A target that no longer exists is listed in ``missing`` instead of failing,
so a refactor of the program does not break the benchmark.

Spans are kept in memory as ``(id, parent, name, start, end, run)`` tuples.
A span opened on a thread with no open span of its own takes as parent the
innermost open span of the thread that installed the tracer, which is the
caller waiting on a worker pool.
"""

from __future__ import annotations

import gc
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class _Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def replace(self, owner, attr: str, label: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _backend_classes(backends) -> list[type]:
    out, todo = [], [backends.Backend]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if "translate" in vars(sub):
                out.append(sub)
    return out


class BoundaryCounters:
    """Counts at the backend boundary, cheap enough for untraced runs: calls
    into a concrete ``Backend.translate`` with the texts and characters they
    carried, and texts requested through ``translate_batch``."""

    def __init__(self, modules):
        self.backend_calls = 0
        self.backend_chars = 0
        self.backend_texts = 0
        self.texts_requested = 0
        self._lock = threading.Lock()
        self._patches = _Patches()
        self._modules = modules

    def install(self) -> list[str]:
        m = self._modules
        for cls in _backend_classes(m.backends):
            self._patches.replace(cls, "translate", f"{cls.__name__}.translate", self._count_translate)
        self._patches.replace(m.pipeline, "translate_batch", "pipeline.translate_batch",
                              self._count_batch)
        return self._patches.missing

    def uninstall(self) -> None:
        self._patches.undo()

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "backend_calls": self.backend_calls,
                "backend_chars": self.backend_chars,
                "backend_texts": self.backend_texts,
                "texts_requested": self.texts_requested,
            }

    def _count_translate(self, original):
        def translate(backend, texts, *args, **kwargs):
            with self._lock:
                self.backend_calls += 1
                self.backend_chars += sum(len(t) for t in texts)
                self.backend_texts += len(texts)
            return original(backend, texts, *args, **kwargs)
        return translate

    def _count_batch(self, original):
        def translate_batch(request, *args, **kwargs):
            with self._lock:
                self.texts_requested += len(request.texts)
            return original(request, *args, **kwargs)
        return translate_batch


class Tracer:
    """Span recorder for the public functions of each transproj layer."""

    def __init__(self, modules):
        self._modules = modules
        self.spans: list[tuple[int, int | None, str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home_stack: list[int] = []
        self._patches = _Patches()
        self._gc_started = 0.0

    @property
    def missing(self) -> list[str]:
        return self._patches.missing

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, self.run))

    def _wrap(self, name: str, on_result=None):
        def make(original):
            tracer = self

            def wrapper(*args, **kwargs):
                result = tracer.span(name, original, *args, **kwargs)
                if on_result is not None:
                    with tracer._lock:
                        on_result(args, result)
                return result

            wrapper.__wrapped__ = original
            return wrapper
        return make

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_started = _clock()
        else:
            self.counts["gc_collections"] += 1
            self.counts["gc_s"] += _clock() - self._gc_started

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        m = self._modules
        p = self._patches
        count = self.counts

        def on_mask(args, masked):
            count["texts_referenced"] += 1 + len(masked.entities)

        def on_lookup(args, value):
            count["cache_misses" if value is None else "cache_hits"] += 1

        p.replace(m.conll_io, "parse_conll", "conll_io.parse_conll", self._wrap("conll_io.parse"))
        p.replace(m.conll_io, "normalize_iob1_to_iob2", "conll_io.normalize_iob1_to_iob2",
                  self._wrap("conll_io.normalize"))
        p.replace(m.conll_io, "serialize_conll", "conll_io.serialize_conll",
                  self._wrap("conll_io.serialize"))
        p.replace(m.pipeline, "validate_scheme", "pipeline.validate_scheme",
                  self._wrap("conll_io.validate"))
        p.replace(m.spans, "validate_scheme", "spans.validate_scheme", self._wrap("conll_io.validate"))
        p.replace(m.placeholder, "extract_spans", "placeholder.extract_spans",
                  self._wrap("spans.extract"))
        p.replace(m.placeholder, "mask", "placeholder.mask", self._wrap("placeholder.mask", on_mask))
        p.replace(m.placeholder, "count_check", "placeholder.count_check",
                  self._wrap("placeholder.count_check"))
        p.replace(m.placeholder, "unmask", "placeholder.unmask", self._wrap("placeholder.unmask"))
        # backends imports find_placeholders under its own name for the dictionary backend
        for owner, label in ((m.placeholder, "placeholder"), (m.backends, "backends")):
            p.replace(owner, "find_placeholders", f"{label}.find_placeholders",
                      self._wrap("placeholder.scan"))
        p.replace(m.pipeline, "project_split", "pipeline.project_split",
                  self._wrap("pipeline.project_split"))
        p.replace(m.pipeline, "translate_batch", "pipeline.translate_batch",
                  self._wrap("backends.translate_batch"))
        for cls in _backend_classes(m.backends):
            p.replace(cls, "translate", f"backends.{cls.__name__}.translate",
                      self._wrap("backends.backend"))
        for cls in (m.backends.TranslationCache, getattr(m.backends, "MemoryCache", None)):
            if cls is None:
                p.missing.append("backends.MemoryCache")
                continue
            p.replace(cls, "lookup", f"backends.{cls.__name__}.lookup",
                      self._wrap("backends.cache_lookup", on_lookup))
            p.replace(cls, "store", f"backends.{cls.__name__}.store",
                      self._wrap("backends.cache_store"))
        p.replace(m.backends.TranslationCache, "__init__", "backends.TranslationCache.__init__",
                  self._wrap("backends.cache_load"))
        p.replace(m.requests.Session, "post", "requests.Session.post", self._wrap("backends.http_post"))
        self._home_stack = self._stack()
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        self._patches.undo()

    # -- analysis ----------------------------------------------------------

    def summary(self, run: int) -> dict:
        """Per-name span count, total time and self time for one run.

        Self time is a span's duration minus the part of it that its direct
        children cover (overlapping children, e.g. from a pool, count once).
        """
        spans = [s for s in self.spans if s[5] == run]
        children = defaultdict(list)
        for sid, parent, name, start, end, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict] = {}
        for sid, parent, name, start, end, _ in spans:
            covered = 0.0
            cursor = start
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, cursor), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    cursor = ce
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return out

    def durations(self, run: int, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[5] == run and s[2] == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, run in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start,
                                     "end": end, "run": run}) + "\n")
