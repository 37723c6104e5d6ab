"""Spans recorded from outside the program, around calls into each layer.

``Tracer.install`` rebinds the public functions that graphfc's modules call
each other through (``retrieve`` as bound in ``verdict`` and ``infill``,
``search`` inside ``retrieval``, ``parse_graph``, the ``build_*_prompt``
functions, ``infill_path`` and ``run_pipeline`` as bound in ``evaluate``) to
timing wrappers, and restores them on exit.  Backends and response caches are
wrapped per instance.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import threading
import time
from typing import List, Optional

# (module, attribute, span name, which argument identifies repeated work)
_PATCHES = (
    ("evaluate", "run_pipeline", "claim", None),
    ("verdict", "retrieve", "retrieval.retrieve", "retrieve"),
    ("infill", "retrieve", "retrieval.retrieve", "retrieve"),
    ("retrieval", "search", "retrieval.search", "search"),
    ("verdict", "parse_graph", "graph.parse", None),
    ("verdict", "build_graph_prompt", "prompts.build", None),
    ("verdict", "build_select_prompt", "prompts.build", None),
    ("verdict", "build_verify_prompt", "prompts.build", None),
    ("infill", "build_infill_prompt", "prompts.build", None),
    ("verdict", "infill_path", "infill.path", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "claim", "key", "child_s")

    def __init__(self, name: str, parent: Optional["Span"], claim: str, key):
        self.name = name
        self.parent = parent
        self.root = parent.root if parent is not None else self  # the claim span
        self.claim = claim
        self.key = key
        self.child_s = 0.0
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by child spans (one thread, so
        children never overlap)."""
        return self.duration - self.child_s


def _retrieve_key(args, kwargs):
    query, k = args[1], args[2]
    gold = args[3] if len(args) > 3 else kwargs.get("gold_docs")
    return (query, k, tuple(d.doc_id for d in gold) if gold else ())


def _search_key(args, kwargs):
    return args[1]


_KEYS = {"retrieve": _retrieve_key, "search": _search_key}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, claim: Optional[str] = None, key=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if claim is None:
            claim = parent.claim if parent is not None else ""
        record = Span(name, parent, claim, key)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += record.duration
            self.spans.append(record)

    def wrap(self, fn, name: str, key_kind: Optional[str] = None):
        key_of = _KEYS.get(key_kind)

        def traced(*args, **kwargs):
            claim = kwargs.get("claim_id") if name == "claim" else None
            key = key_of(args, kwargs) if key_of else None
            with self.span(name, claim, key):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def install(self):
        saved = []
        try:
            for module_name, attribute, name, key_kind in _PATCHES:
                module = importlib.import_module(f"graphfc.{module_name}")
                original = getattr(module, attribute)
                saved.append((module, attribute, original))
                setattr(module, attribute, self.wrap(original, name, key_kind))
            yield self
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)

    def traced_suite(self, suite):
        """The suite with every role's backend wrapped in a span."""
        from graphfc.backend import PURPOSES

        roles = {p: _TracedBackend(suite.backend_for(p), self, p) for p in PURPOSES}
        return dataclasses.replace(suite, **roles)

    def trace_cache(self, cache) -> None:
        """Shadow one ResponseCache instance's get/put with timing wrappers."""
        cache.get = self.wrap(cache.get, "cache.get")
        cache.put = self.wrap(cache.put, "cache.put")

    def write(self, path: str) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                    "claim": s.claim,
                }) + "\n")


class _TracedBackend:
    def __init__(self, inner, tracer: Tracer, purpose: str):
        self.inner = inner
        self.tracer = tracer
        self.purpose = purpose

    @property
    def model(self) -> str:
        return self.inner.model

    def complete(self, req):
        with self.tracer.span("backend." + self.purpose, key=(self.purpose, hash(req.prompt))):
            return self.inner.complete(req)
