"""Async serving front-end: coalescing, per-tenant sessions, admission.

The serving layer turns one-process :class:`~repro.service.facade.
GraphService` instances into a multi-tenant asyncio front end:

* :mod:`~repro.serving.coalescer` — requests sharing a path expression
  that arrive together, or while an earlier batch runs, become ONE bulk
  execution (``reach_many`` / multi-owner ``audience`` / ``bulk_access``),
  fanned back to per-request callbacks with answers differentially
  indistinguishable from sequential execution;
* :mod:`~repro.serving.session` — per-tenant sessions over independent
  services (hard isolation: own graph, store, caches, coalescer) plus
  the :class:`TenantRegistry` routing and aggregating them;
* :mod:`~repro.serving.admission` — bounded pending work with typed
  :class:`~repro.exceptions.AdmissionRejected` and per-request deadlines
  wired into the engine's :class:`~repro.reliability.guard.QueryGuard`;
* :mod:`~repro.serving.client` / :mod:`~repro.serving.server` — the
  in-process :class:`AsyncGraphClient` and the TCP JSON-lines protocol
  server (``python -m repro.serving`` runs a demo instance).

Everything is stdlib-only and runs on one asyncio event loop: a batch
executes on the loop, and frames that arrive meanwhile wait in the socket
buffer until it returns.
"""

from repro.exceptions import AdmissionRejected, ProtocolError, UnknownTenantError
from repro.serving.admission import AdmissionController
from repro.serving.client import AsyncGraphClient
from repro.serving.coalescer import BATCH_HISTOGRAM_BUCKETS, RequestCoalescer
from repro.serving.server import ServingServer
from repro.serving.session import (
    ServedAccess,
    ServedAudience,
    ServedReach,
    TenantRegistry,
    TenantSession,
)

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "AsyncGraphClient",
    "BATCH_HISTOGRAM_BUCKETS",
    "ProtocolError",
    "RequestCoalescer",
    "ServedAccess",
    "ServedAudience",
    "ServedReach",
    "ServingServer",
    "TenantRegistry",
    "TenantSession",
    "UnknownTenantError",
]
