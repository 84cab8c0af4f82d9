"""Per-tenant serving sessions and the tenant registry.

One :class:`TenantSession` wraps one :class:`~repro.service.facade.
GraphService` for async serving:

* every service call runs **synchronously on the event loop**, inside the
  batch task it serves or, for a witness reach, inside the call that
  submitted it — the facade (guard state, memos, planner feedback) is pure
  Python and not thread-safe, so a second thread would buy no
  parallelism, only GIL hand-offs.  While a batch runs the loop is
  blocked, and frames that arrive meanwhile wait in the kernel socket
  buffer: the socket is the gather queue;
* an :class:`~repro.serving.coalescer.RequestCoalescer` gathers concurrent
  same-expression requests and answers each batch with ONE bulk execution
  (:meth:`~repro.service.facade.GraphService.reach_many`, a multi-owner
  :meth:`~repro.service.facade.GraphService.audience` sweep, or one
  :meth:`~repro.service.facade.GraphService.bulk_access`);
* an :class:`~repro.serving.admission.AdmissionController` bounds pending
  work (typed :class:`~repro.exceptions.AdmissionRejected` on overload)
  and derives per-request absolute deadlines, installed around each
  execution with :func:`repro.reliability.guard.deadline_scope` so the
  engine's :class:`~repro.reliability.guard.QueryGuard` enforces them.

Equivalence contract
--------------------
A coalesced batch must be **differentially indistinguishable** from
running its members sequentially.  The batch executes under one guard
scope whose deadline is the batch's earliest member deadline.  If the
batch completes without tripping the guard, every member's answer is the
answer sequential execution would produce (a non-tripping batch did at
most the work budget of ONE query, so no individual member could have
tripped alone; a pair's verdict is audience membership, exactly the
boolean :meth:`~repro.service.facade.GraphService.reach` computes; an
access grant for a non-owner against a ruled resource is membership in
the resource's authorized audience).  If the batch DOES trip
(``partial=True``), the session **falls back to sequential per-request
execution**, each member under its own guard scope and deadline — partial
semantics, typed budget errors and degradation counters then match the
unbatched path by construction.  Requests bulk execution cannot express
(witness collection, owner/no-rule/unknown-resource access checks, absent
reach endpoints) take the **solo path** from the start.

The one observable divergence is memo warmth: a batch leaves the engine's
per-owner targets memo warmer than N point queries would, so a later
guarded query may be served from memo where a cold sequential run would
have exceeded its budget.  That divergence only ever turns a sequential
*rejection* into a served *answer* — never a different answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.exceptions import NodeNotFoundError, UnknownTenantError
from repro.graph.paths import Path
from repro.graph.social_graph import SocialGraph
from repro.policy.decisions import AccessDecision, Effect
from repro.policy.store import PolicyStore
from repro.reliability.guard import QueryGuard, deadline_scope
from repro.service.facade import GraphService
from repro.serving.admission import AdmissionController
from repro.serving.coalescer import Raised, RequestCoalescer, Respond, awaited

__all__ = [
    "ServedAccess",
    "ServedAudience",
    "ServedReach",
    "TenantRegistry",
    "TenantSession",
]


# --------------------------------------------------------------- responses


@dataclass(frozen=True)
class ServedReach:
    """One served reachability verdict, with coalescing observability."""

    source: Hashable
    target: Hashable
    expression: str
    reachable: bool
    witness: Optional[Path] = None
    #: Whether this answer shared its execution with batch-mates.
    coalesced: bool = False
    #: Members of the batch that produced this answer (1 on the solo path).
    batch_size: int = 1

    def __bool__(self) -> bool:
        return self.reachable


@dataclass(frozen=True)
class ServedAudience:
    """One served audience materialization."""

    owner: Hashable
    expression: str
    audience: frozenset = frozenset()
    partial: bool = False
    coalesced: bool = False
    batch_size: int = 1

    def __contains__(self, user: Hashable) -> bool:
        return user in self.audience

    def __len__(self) -> int:
        return len(self.audience)


@dataclass(frozen=True)
class ServedAccess:
    """One served access decision."""

    requester: Hashable
    resource_id: Hashable
    granted: bool
    reason: str = ""
    coalesced: bool = False
    batch_size: int = 1

    def __bool__(self) -> bool:
        return self.granted


# ---------------------------------------------------------------- requests


@dataclass(frozen=True)
class _ReachRequest:
    source: Hashable
    target: Hashable
    expression: str
    deadline: Optional[float]


@dataclass(frozen=True)
class _AudienceRequest:
    owner: Hashable
    expression: str
    direction: str
    deadline: Optional[float]


@dataclass(frozen=True)
class _AccessRequest:
    requester: Hashable
    resource_id: Hashable
    deadline: Optional[float]


def _expression_text(expression) -> str:
    """Normalized coalesce-key text without touching service caches.

    Strings key by their own text (two spellings of one expression simply
    coalesce separately — correct, just less shared); parsed expressions
    key by canonical form.  Keying does no parsing: that work, and the
    syntax error it may raise, belongs to the request's execution.
    """
    if isinstance(expression, str):
        return expression
    return expression.to_text()


class TenantSession:
    """Async front door of one tenant's :class:`GraphService`.

    Create through :class:`TenantRegistry` (which also wires a default
    :class:`~repro.reliability.guard.QueryGuard` so deadlines are
    enforceable), or wrap an existing service directly.  All methods must
    be called from one event loop, and the underlying service runs on
    that loop.  Any ``window > 0`` turns coalescing on: batches gather
    while a batch runs, not for ``window`` seconds (see
    :mod:`repro.serving.coalescer`).

    Each op has one callback entry (:meth:`enqueue_reach`,
    :meth:`enqueue_audience`, :meth:`enqueue_check`): it admits the
    request — raising if it is refused — and later calls ``respond`` once
    with the served answer or a :class:`~repro.serving.coalescer.Raised`;
    the admission slot is released just before that call.  The wire
    server calls the entries from its read callback; the coroutines
    :meth:`reach`, :meth:`audience` and :meth:`check` await them.
    """

    def __init__(
        self,
        tenant_id: Hashable,
        service: GraphService,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        max_pending: int = 256,
        default_timeout: Optional[float] = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.service = service
        self.admission = AdmissionController(
            tenant_id, max_pending=max_pending, default_timeout=default_timeout
        )
        self.coalescer = RequestCoalescer(
            self._run_batch, window=window, max_batch=max_batch
        )
        self._closed = False
        #: Requests answered by per-request re-execution after a batch
        #: tripped the guard (the equivalence fallback).
        self.fallbacks = 0
        #: Requests that bypassed bulk execution from the start (witness
        #: reach; owner, no-rule and unknown-resource access checks).  A
        #: fallback member counts in ``fallbacks`` only.
        self.solo_requests = 0
        service.register_statistics_provider("coalescer", self.coalescer.statistics)
        service.register_statistics_provider("admission", self.admission.statistics)
        service.register_statistics_provider("serving", self._own_statistics)

    # ------------------------------------------------------------ public api

    async def reach(
        self,
        source: Hashable,
        target: Hashable,
        expression,
        *,
        witness: bool = False,
        timeout: Optional[float] = None,
    ) -> ServedReach:
        """Serve one reachability question (coalescing boolean-only asks).

        ``witness=True`` requests a path and therefore takes the solo path:
        witness collection is inherently per-pair and cannot share a sweep.
        """
        return await awaited(
            self.enqueue_reach, source, target, expression, witness=witness, timeout=timeout
        )

    async def audience(
        self,
        owner: Hashable,
        expression,
        *,
        direction: str = "auto",
        timeout: Optional[float] = None,
    ) -> ServedAudience:
        """Serve one owner's audience (coalescing same-expression owners)."""
        return await awaited(
            self.enqueue_audience, owner, expression, direction=direction, timeout=timeout
        )

    async def check(
        self,
        requester: Hashable,
        resource_id: Hashable,
        *,
        timeout: Optional[float] = None,
    ) -> ServedAccess:
        """Serve one access check (coalescing all of a tenant's checks).

        All concurrent checks share one key: the bulk path groups their
        rule conditions by expression across resources, so checks against
        *different* resources still share sweeps.
        """
        return await awaited(self.enqueue_check, requester, resource_id, timeout=timeout)

    # ------------------------------------------------------- callback entries

    def enqueue_reach(
        self,
        source: Hashable,
        target: Hashable,
        expression,
        respond: Respond,
        *,
        witness: bool = False,
        timeout: Optional[float] = None,
    ) -> None:
        """Callback entry of :meth:`reach`; a witness ask is answered before
        this returns (it runs solo, on the spot)."""
        text = _expression_text(expression)
        request = _ReachRequest(source, target, text, self._admit(timeout))
        if witness:
            self.solo_requests += 1
            self._releasing(respond)(self._solo_reach(request, witness=True))
        else:
            self._enqueue(("reach", text), request, respond)

    def enqueue_audience(
        self,
        owner: Hashable,
        expression,
        respond: Respond,
        *,
        direction: str = "auto",
        timeout: Optional[float] = None,
    ) -> None:
        """Callback entry of :meth:`audience`."""
        text = _expression_text(expression)
        request = _AudienceRequest(owner, text, direction, self._admit(timeout))
        self._enqueue(("audience", text, direction), request, respond)

    def enqueue_check(
        self,
        requester: Hashable,
        resource_id: Hashable,
        respond: Respond,
        *,
        timeout: Optional[float] = None,
    ) -> None:
        """Callback entry of :meth:`check`."""
        request = _AccessRequest(requester, resource_id, self._admit(timeout))
        self._enqueue(("access",), request, respond)

    async def statistics(self) -> Dict[str, float]:
        """The service's merged counters."""
        return self.service.statistics()

    async def refresh(self) -> None:
        """Run :meth:`GraphService.refresh` (the loop waits while it runs)."""
        self.service.refresh()

    async def close(self) -> None:
        """Run every queued batch; later requests are refused."""
        if self._closed:
            return
        self._closed = True
        await self.coalescer.drain()
        # The statistics providers stay registered: the counters remain
        # readable post-mortem, and a new session over the same service
        # replaces them on registration.

    # -------------------------------------------------------------- plumbing

    def _admit(self, timeout: Optional[float]) -> Optional[float]:
        if self._closed:
            raise RuntimeError(f"session for tenant {self.tenant_id!r} is closed")
        deadline = self.admission.deadline_for(timeout)
        self.admission.admit()
        return deadline

    def _releasing(self, respond: Respond) -> Respond:
        """``respond``, preceded by releasing the request's admission slot."""
        release = self.admission.release

        def answer(outcome: object) -> None:
            release()
            respond(outcome)

        return answer

    def _enqueue(self, key: Tuple, request, respond: Respond) -> None:
        try:
            self.coalescer.enqueue(key, request, self._releasing(respond))
        except BaseException:
            self.admission.release()  # never queued (an unhashable key): no answer comes
            raise

    def _own_statistics(self) -> Dict[str, float]:
        return {
            "fallbacks": float(self.fallbacks),
            "solo_requests": float(self.solo_requests),
        }

    # ---------------------------------------------------- batch execution

    async def _run_batch(self, key: Tuple, requests: List) -> Sequence:
        """Execute one coalesced batch; it holds the loop until it returns."""
        deadlines = [r.deadline for r in requests if r.deadline is not None]
        earliest = min(deadlines) if deadlines else None
        if key[0] == "reach":
            return self._reach_batch(key[1], requests, earliest)
        if key[0] == "audience":
            return self._audience_batch(key[1], key[2], requests, earliest)
        if key[0] == "access":
            return self._access_batch(requests, earliest)
        raise RuntimeError(f"unknown coalesce key: {key!r}")

    def _reach_batch(
        self, text: str, requests: List[_ReachRequest], earliest: Optional[float]
    ) -> List:
        size = len(requests)
        outcomes: List[object] = [None] * size
        valid: List[int] = []
        for index, request in enumerate(requests):
            # Mirror evaluate()'s endpoint validation per member so one
            # absent node errors its own request, not its batch-mates.
            missing = next(
                (
                    node
                    for node in (request.source, request.target)
                    if not self.service.graph.has_user(node)
                ),
                None,
            )
            if missing is not None:
                outcomes[index] = Raised(NodeNotFoundError(missing))
            else:
                valid.append(index)
        if not valid:
            return outcomes
        pairs = [(requests[i].source, requests[i].target) for i in valid]
        with deadline_scope(earliest):
            result = self.service.reach_many(pairs, text)
        if result.partial:
            self.fallbacks += len(valid)
            for index in valid:
                outcomes[index] = self._solo_reach(requests[index])
            return outcomes
        for index in valid:
            request = requests[index]
            outcomes[index] = ServedReach(
                source=request.source,
                target=request.target,
                expression=text,
                reachable=result.reachable[(request.source, request.target)],
                coalesced=size > 1,
                batch_size=size,
            )
        return outcomes

    def _solo_reach(self, request: _ReachRequest, *, witness: bool = False):
        try:
            with deadline_scope(request.deadline):
                result = self.service.reach(
                    request.source,
                    request.target,
                    request.expression,
                    collect_witness=witness,
                )
        except Exception as error:  # typed errors travel to the one requester
            return Raised(error)
        return ServedReach(
            source=request.source,
            target=request.target,
            expression=request.expression,
            reachable=result.reachable,
            witness=result.witness,
        )

    def _audience_batch(
        self,
        text: str,
        direction: str,
        requests: List[_AudienceRequest],
        earliest: Optional[float],
    ) -> List:
        size = len(requests)
        owners = list(dict.fromkeys(request.owner for request in requests))
        with deadline_scope(earliest):
            result = self.service.audience(owners, text, direction=direction)
        if result.partial:
            self.fallbacks += size
            return [self._solo_audience(request) for request in requests]
        return [
            ServedAudience(
                owner=request.owner,
                expression=text,
                # Absent owners are skipped by the sweep, exactly as a
                # sequential single-owner call would skip them: empty.
                audience=frozenset(result.audiences.get(request.owner, ())),
                partial=False,
                coalesced=size > 1,
                batch_size=size,
            )
            for request in requests
        ]

    def _solo_audience(self, request: _AudienceRequest):
        try:
            with deadline_scope(request.deadline):
                result = self.service.audience(
                    request.owner, request.expression, direction=request.direction
                )
        except Exception as error:
            return Raised(error)
        return ServedAudience(
            owner=request.owner,
            expression=request.expression,
            audience=frozenset(result.audiences.get(request.owner, ())),
            partial=result.partial,
        )

    def _access_batch(
        self, requests: List[_AccessRequest], earliest: Optional[float]
    ) -> List:
        size = len(requests)
        outcomes: List[object] = [None] * size
        bulk: List[int] = []
        store = self.service.store
        for index, request in enumerate(requests):
            # Trivial decisions (owner, no-rules default, unknown resource)
            # never traverse; serve them through the unbatched path so their
            # semantics — including the typed unknown-resource error and the
            # default-effect grant the audience does NOT contain — are the
            # sequential ones verbatim.
            if (
                not store.has_resource(request.resource_id)
                or request.requester == store.resource(request.resource_id).owner
                or not store.rules_for(request.resource_id)
            ):
                self.solo_requests += 1
                outcomes[index] = self._solo_check(request)
            else:
                bulk.append(index)
        if not bulk:
            return outcomes
        resource_ids = list(
            dict.fromkeys(requests[i].resource_id for i in bulk)
        )
        with deadline_scope(earliest):
            result = self.service.bulk_access(resource_ids)
        if result.partial:
            self.fallbacks += len(bulk)
            for index in bulk:
                outcomes[index] = self._solo_check(requests[index])
            return outcomes
        for index in bulk:
            request = requests[index]
            audience = result.audiences[request.resource_id]
            # For a non-owner requester against a ruled resource, a grant is
            # exactly membership in the authorized audience (the audience is
            # {owner} ∪ per-rule combine, and requester != owner here).
            granted = request.requester in audience
            reason = (
                "requester is in the authorized audience"
                if granted
                else "requester is not in the authorized audience"
            )
            outcomes[index] = ServedAccess(
                requester=request.requester,
                resource_id=request.resource_id,
                granted=granted,
                reason=f"{reason} (served via audience sweep)",
                coalesced=size > 1,
                batch_size=size,
            )
            self._record_coalesced_decision(request, granted, reason)
        return outcomes

    def _record_coalesced_decision(
        self, request: _AccessRequest, granted: bool, reason: str
    ) -> None:
        """Keep the audit trail complete for coalesced checks.

        Sequential ``check_access`` records every decision; a coalesced
        check must not leave a hole in the log.  The synthetic record
        carries no rule outcomes (the sweep never evaluated rules one by
        one) but names its provenance in the reason.
        """
        audit = self.service.audit_log
        if audit is None:
            return
        resource = self.service.store.resource(request.resource_id)
        audit.record(
            AccessDecision(
                effect=Effect.GRANT if granted else Effect.DENY,
                resource_id=request.resource_id,
                owner=resource.owner,
                requester=request.requester,
                reason=f"{reason} (served via audience sweep)",
            )
        )

    def _solo_check(self, request: _AccessRequest):
        try:
            with deadline_scope(request.deadline):
                result = self.service.check(
                    request.requester, request.resource_id, explain=False
                )
        except Exception as error:
            return Raised(error)
        return ServedAccess(
            requester=request.requester,
            resource_id=request.resource_id,
            granted=result.granted,
            reason=result.decision.reason,
        )

    def __repr__(self) -> str:
        return (
            f"<TenantSession {self.tenant_id!r} "
            f"pending={self.admission.pending} over {self.service!r}>"
        )


class TenantRegistry:
    """Tenant id -> independent :class:`TenantSession` (hard isolation).

    Every tenant gets its own :class:`GraphService` — own graph, own policy
    store, own caches, own coalescer — so no state (memos, planner
    feedback, guard trips, statistics) can leak across tenants.  Tenants
    do share the event loop, and a tenant starts at most one batch per loop
    iteration, so a request waits for a few of another tenant's batches
    (about three for a wire frame), not for all it has queued.  Nothing bounds one batch's
    work unless the guard has a step or time budget or the session a
    ``default_timeout``; the default guard has neither.  The registry only
    routes and aggregates (``window``: see :class:`TenantSession`).
    """

    def __init__(
        self,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        max_pending: int = 256,
        default_timeout: Optional[float] = None,
    ) -> None:
        self.window = window
        self.max_batch = max_batch
        self.max_pending = max_pending
        self.default_timeout = default_timeout
        self._sessions: Dict[Hashable, TenantSession] = {}

    def create(
        self,
        tenant_id: Hashable,
        graph: Optional[SocialGraph] = None,
        store: Optional[PolicyStore] = None,
        *,
        service: Optional[GraphService] = None,
        window: Optional[float] = None,
        max_batch: Optional[int] = None,
        max_pending: Optional[int] = None,
        default_timeout: Optional[float] = None,
        **service_kwargs,
    ) -> TenantSession:
        """Register a tenant; builds its :class:`GraphService` unless given.

        A service built here gets a default :class:`QueryGuard` (required
        for request deadlines to be enforceable) unless ``service_kwargs``
        carries an explicit ``query_guard``.
        """
        if tenant_id in self._sessions:
            raise ValueError(f"tenant {tenant_id!r} is already registered")
        if service is None:
            if graph is None:
                raise ValueError("create() needs a graph or a prebuilt service")
            service_kwargs.setdefault("query_guard", QueryGuard())
            service = GraphService(graph, store, **service_kwargs)
        session = TenantSession(
            tenant_id,
            service,
            window=self.window if window is None else window,
            max_batch=self.max_batch if max_batch is None else max_batch,
            max_pending=self.max_pending if max_pending is None else max_pending,
            default_timeout=(
                self.default_timeout if default_timeout is None else default_timeout
            ),
        )
        self._sessions[tenant_id] = session
        return session

    def get(self, tenant_id: Hashable) -> TenantSession:
        session = self._sessions.get(tenant_id)
        if session is None:
            raise UnknownTenantError(tenant_id, tuple(self._sessions))
        return session

    def __contains__(self, tenant_id: Hashable) -> bool:
        return tenant_id in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    @property
    def tenants(self) -> Tuple[Hashable, ...]:
        return tuple(self._sessions)

    async def remove(self, tenant_id: Hashable) -> None:
        """Close and drop one tenant's session."""
        session = self.get(tenant_id)
        del self._sessions[tenant_id]
        await session.close()

    async def close(self) -> None:
        """Close every session (drains their coalescers)."""
        sessions = list(self._sessions.values())
        self._sessions.clear()
        for session in sessions:
            await session.close()

    async def serving_statistics(self) -> Dict[str, Dict[str, float]]:
        """Awaitable form of :meth:`statistics`."""
        return self.statistics()

    def statistics(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant service counters plus a summed ``_totals`` entry.

        Tenant keys are ``str()``-ed for the aggregate mapping; ``_totals``
        sums every numeric counter across tenants (meaningful for the
        monotone counters — admitted, rejected, batches, fallbacks — and
        indicative for gauges).
        """
        aggregate: Dict[str, Dict[str, float]] = {}
        totals: Dict[str, float] = {}
        for tenant_id, session in list(self._sessions.items()):
            stats = session.service.statistics()
            aggregate[str(tenant_id)] = stats
            for key, value in stats.items():
                totals[key] = totals.get(key, 0.0) + value
        aggregate["_totals"] = totals
        return aggregate

    def __repr__(self) -> str:
        return f"<TenantRegistry tenants={list(self._sessions)!r}>"
