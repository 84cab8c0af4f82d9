"""Spans around public callables of ``src/repro``, recorded from outside.

The program has no tracing of its own yet, so the benchmark wraps the public
entry points of each layer (class methods, and module functions wherever a
``repro`` module imported them by name) with a timing shim.  A span is
``(id, name, start, end, parent, request, note)``: ``parent`` is the span
that was open in the same thread or asyncio task when this one started,
``request`` is the wire request id the server task decoded (``None`` in the
library workloads and on the worker thread), ``note`` whatever the wrapper
was told to keep about the arguments so worker-side calls can be matched to
the requests they served.

Spans stay in memory until :meth:`Tracer.dump`.  A layer's *self time* is its
span minus the part covered by child spans.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import statistics
import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], Any, Any]

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("e2e_span", default=None)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar("e2e_request", default=None)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------- wrapping

    def _shim(self, fn: Callable, name: str, note: Optional[Callable]) -> Callable:
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                parent = _CURRENT.get()
                span_id = next(ids)
                token = _CURRENT.set(span_id)
                kept = note(*args, **kwargs) if note else None
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = clock()
                    _CURRENT.reset(token)
                    spans.append((span_id, name, start, end, parent, _REQUEST.get(), kept))

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = _CURRENT.get()
                span_id = next(ids)
                token = _CURRENT.set(span_id)
                kept = note(*args, **kwargs) if note else None
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    _CURRENT.reset(token)
                    spans.append((span_id, name, start, end, parent, _REQUEST.get(), kept))

        return traced

    def wrap_method(self, cls: type, attr: str, name: str, note: Optional[Callable] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._shim(original, name, note))
        self._undo.append(lambda: setattr(cls, attr, original))

    def replace_function(self, fn: Callable, shim: Callable) -> None:
        """Swap a module-level function in every loaded ``repro`` module that
        holds it under its own name (``from x import f`` copies the binding)."""
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            if module.__dict__.get(fn.__name__) is fn:
                setattr(module, fn.__name__, shim)
                self._undo.append(
                    lambda module=module: setattr(module, fn.__name__, fn)
                )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -------------------------------------------------------------- install

    def install_library(self) -> None:
        """Service, planner, policy, reachability and graph entry points."""
        from repro.graph import compiled
        from repro.graph.snapshot import SnapshotStore
        from repro.policy.engine import AccessControlEngine
        from repro.reachability.engine import BACKENDS, ReachabilityEngine
        from repro.service.facade import GraphService
        from repro.service.planner import QueryPlanner

        self.wrap_method(GraphService, "check", "service.check",
                         lambda _s, requester, resource, **_k: (requester, resource))
        self.wrap_method(GraphService, "reach", "service.reach",
                         lambda _s, source, target, *_a, **_k: (source, target))
        self.wrap_method(GraphService, "reach_many", "service.reach_many",
                         lambda _s, pairs, *_a, **_k: frozenset(pairs))
        self.wrap_method(GraphService, "audience", "service.audience",
                         lambda _s, owners, *_a, **_k: frozenset(owners)
                         if isinstance(owners, (list, tuple, set, frozenset))
                         else frozenset((owners,)))
        self.wrap_method(GraphService, "bulk_access", "service.bulk_access",
                         lambda _s, resources, **_k: frozenset(resources))
        self.wrap_method(GraphService, "refresh", "service.refresh")
        for kind in ("reach", "access", "audience", "bulk_access"):
            self.wrap_method(QueryPlanner, f"plan_{kind}", "service.plan")
        self.wrap_method(AccessControlEngine, "check_access", "policy.check_access")
        self.wrap_method(AccessControlEngine, "audiences_with_plans", "policy.audiences")
        self.wrap_method(ReachabilityEngine, "evaluate", "reachability.evaluate")
        self.wrap_method(ReachabilityEngine, "sweep_targets_many", "reachability.sweep",
                         lambda _s, sources, *_a, **_k: len(sources)
                         if hasattr(sources, "__len__") else None)
        for backend in ("transitive-closure", "cluster-index"):
            for attr in ("build", "refresh"):
                if attr in BACKENDS[backend].__dict__:
                    self.wrap_method(BACKENDS[backend], attr, "reachability.index_build")
        self.wrap_method(SnapshotStore, "checkpoint", "graph.checkpoint")
        self.wrap_method(SnapshotStore, "load", "graph.snapshot_load")
        self.replace_function(
            compiled.compile_graph,
            self._shim(compiled.compile_graph, "graph.compile", None),
        )

    def install_serving(self) -> None:
        """Front-end entry points; the decode shim tags the task with the id."""
        from repro.serving import protocol
        from repro.serving.admission import AdmissionController
        from repro.serving.coalescer import RequestCoalescer
        from repro.serving.session import TenantSession

        decode = protocol.decode_frame

        @functools.wraps(decode)
        def tagging_decode(line):
            frame = decode(line)
            _REQUEST.set(frame.get("id"))
            return frame

        self.replace_function(decode, tagging_decode)
        self.wrap_method(TenantSession, "check", "serving.session",
                         lambda _s, requester, resource, **_k: ("check", requester, resource))
        self.wrap_method(TenantSession, "reach", "serving.session",
                         lambda _s, source, target, *_a, **_k: ("reach", source, target))
        self.wrap_method(TenantSession, "audience", "serving.session",
                         lambda _s, owner, *_a, **_k: ("audience", owner))
        self.wrap_method(RequestCoalescer, "submit", "serving.submit")
        self.wrap_method(AdmissionController, "admit", "serving.admit")
        self.wrap_method(AdmissionController, "release", "serving.release")

    # ----------------------------------------------------------------- dump

    def dump(self, path, limit: int = 400_000) -> int:
        """Write the spans (JSON rows, first ``limit``) and forget them."""
        rows = [
            [sid, name, start, end, parent, request, _plain(kept)]
            for sid, name, start, end, parent, request, kept in self.spans[:limit]
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "request", "note"],
                       "spans": rows}, handle)
        count = len(self.spans)
        self.spans.clear()
        return count


def _plain(value: Any) -> Any:
    if isinstance(value, frozenset):
        return sorted((_plain(item) for item in value), key=repr)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


# ---------------------------------------------------------------- analysis


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own: Dict[int, float] = {}
    covered: Dict[int, float] = {}
    for sid, _name, start, end, parent, _request, _note in spans:
        own[sid] = end - start
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {sid: max(0.0, duration - covered.get(sid, 0.0)) for sid, duration in own.items()}


def median_by_name(spans: Iterable[Span], scale: float) -> Dict[str, float]:
    """Median span duration per span name, in ``scale`` units per second."""
    durations: Dict[str, List[float]] = {}
    for _sid, name, start, end, _parent, _request, _note in spans:
        durations.setdefault(name, []).append(end - start)
    return {name: statistics.median(values) * scale for name, values in durations.items()}
