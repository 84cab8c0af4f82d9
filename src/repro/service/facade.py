"""The :class:`GraphService` session facade — one object, one API.

The facade owns everything a serving process needs per graph:

* the **graph** and its compiled-snapshot refresh (delta maintenance under
  churn included — :meth:`GraphService.refresh` is explicit, every query
  path refreshes lazily);
* the **policy store**, audit log and default effect for access checks;
* the **route table**: one entry per backend name (``bfs``,
  ``transitive-closure``, ``cluster-index``, ``sharded``), created lazily,
  holding that backend's :class:`~repro.reachability.engine.
  ReachabilityEngine` and :class:`~repro.policy.engine.AccessControlEngine`,
  the epoch it was last made current at and that epoch's plans.  Making a
  route current rebuilds a stale index (transitive closure, cluster index),
  so a query routed through the service never reads a stale index, and a
  pinned build that fails raises the evaluator's own error (counted in
  ``index_build_failures``);
* the stateless **planner**: a query runs on its pin, an unpinned one on
  ``bfs`` (whose forward-only point walks probe the snapshot's denial
  filter — :mod:`repro.reachability.compiled_search`);
* every **cache** (parse, decision memo, target-set memo) via the per-
  route engines.

Queries go through the verbs (:meth:`reach`, :meth:`reach_many`,
:meth:`audience`, :meth:`check`, :meth:`bulk_access` and their boolean and
convenience forms); ``backend=`` on a verb is a *plan pin*, ``None`` (or
``"auto"``) lets the planner choose.  Expressions may be path-expression
text or parsed :class:`~repro.policy.path_expression.PathExpression`
objects; text is parsed once through the process-wide
:func:`~repro.policy.path_expression.as_path_expression` memo.  Every answer
is a :class:`~repro.service.results.PlannedResult` carrying the executed
:class:`~repro.service.planner.ExecutionPlan`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.exceptions import NodeNotFoundError, UnknownBackendError
from repro.graph.compiled import _SNAPSHOT_ATTR, CompiledGraph, compile_graph
from repro.graph.snapshot import SnapshotStore
from repro.graph.social_graph import SocialGraph
from repro.policy.audit import AuditLog
from repro.policy.decisions import Effect
from repro.policy.engine import AccessControlEngine
from repro.policy.path_expression import PathExpression, as_path_expression
from repro.policy.store import PolicyStore
from repro.reachability.engine import BACKENDS, ReachabilityEngine, available_backends
from repro.reliability.guard import QueryGuard
from repro.service.planner import INDEX_BACKENDS, ExecutionPlan, QueryPlanner
from repro.sharding.router import ShardRouter
from repro.sharding.shard import ShardedGraph
from repro.service.results import (
    AccessResult,
    AudienceResult,
    BulkAccessResult,
    BulkReachResult,
    ReachResult,
)

__all__ = ["GraphService"]

Expression = Union[str, PathExpression]


def _as_tuple(values) -> Tuple[Hashable, ...]:
    """Normalize one hashable or an iterable of them to a tuple.

    Strings and bytes count as single values (they are iterable but almost
    never meant as a collection of one-character ids).
    """
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        return (values,)
    normalized = tuple(values)
    if isinstance(values, (set, frozenset)):
        # Sets have no stable order; results are keyed mappings anyway, but a
        # deterministic tuple keeps plans and sweeps reproducible.
        normalized = tuple(sorted(normalized, key=str))
    return normalized


class _Route:
    """One entry of the route table: a backend's engines, the epoch they were
    last made current at, and that epoch's plans keyed by ``(kind, pinned)``."""

    __slots__ = ("engine", "access", "epoch", "plans")

    def __init__(self, engine: ReachabilityEngine, access: AccessControlEngine) -> None:
        self.engine = engine
        self.access = access
        self.epoch: Optional[int] = None
        self.plans: Dict[Tuple[str, bool], ExecutionPlan] = {}


class GraphService:
    """Session facade over one social graph: plan, execute, explain.

    Parameters
    ----------
    graph:
        The canonical :class:`SocialGraph` (the service observes its
        mutation epoch; mutate the graph freely between queries).
    store:
        The :class:`PolicyStore` access checks evaluate against (a fresh
        empty store by default).
    default_backend:
        A service-wide pin: every query without its own ``backend=`` runs
        there.  ``None`` / ``"auto"`` (the default) runs every query on
        ``bfs``; every other backend name runs only when pinned, and a pin
        outside :data:`~repro.reachability.engine.BACKENDS` (or
        ``"sharded"`` without shards) raises :class:`UnknownBackendError`.
    cache_size:
        Per-backend engine memo capacity (``0`` disables memoization —
        benchmarks use it to measure raw planning + execution).
    snapshot_path:
        Path stem of a persistent :class:`~repro.graph.snapshot.
        SnapshotStore` (``None`` disables persistence).  When given, the
        service **warm-starts**: it adopts the persisted mmap snapshot
        zero-copy instead of paying the O(|V|+|E|) compile — falling back
        to a clean recompile (that rewrites the store) on absent, stale or
        corrupt files — and :meth:`refresh` checkpoints the compiled state
        back to disk (delta segment or rebase).
    query_guard:
        Optional :class:`~repro.reliability.guard.QueryGuard` bounding per-
        query work.  Point shapes (``reach``, ``access``) raise
        :class:`~repro.exceptions.QueryBudgetExceeded` on a blown budget;
        bulk shapes (``audience``, ``bulk_access``) return early with
        ``partial=True`` on the result.  ``None`` (the default) runs
        unguarded — the hot loops pay a single context-variable read.
    shards:
        ``> 1`` makes ``"sharded"`` a valid backend pin (per query, or
        service-wide through ``default_backend``): a pinned query runs on
        the :class:`~repro.sharding.router.ShardRouter` over that many
        community shards, partitioned lazily when the first pinned query
        arrives.  Like ``cluster-index`` the route is pin-only — no
        measurement has it ahead of the single snapshot, so an unpinned
        query never takes it (docs/architecture.md, "Sharding").  ``0``
        (the default) or ``1`` disables sharding entirely.
    """

    def __init__(
        self,
        graph: SocialGraph,
        store: Optional[PolicyStore] = None,
        *,
        default_backend: Optional[str] = None,
        cache_size: int = 4096,
        default_effect: Effect = Effect.DENY,
        audit_log: Optional[AuditLog] = None,
        snapshot_path: Optional[object] = None,
        query_guard: Optional[QueryGuard] = None,
        shards: int = 0,
    ) -> None:
        self.graph = graph
        self.snapshot_store: Optional[SnapshotStore] = None
        #: How the compiled snapshot came to be at construction: "mapped"
        #: (persisted state adopted zero-copy), "absent"/"stale"/"corrupt"
        #: (recompiled, store rewritten), or "cold" (no store configured).
        self.warm_start = "cold"
        #: Outcome of the last refresh() checkpoint ("base"/"current"/
        #: "delta"/"rebase"), or None before the first refresh.
        self.last_checkpoint: Optional[str] = None
        if snapshot_path is not None:
            self.snapshot_store = SnapshotStore(snapshot_path)
            _snapshot, self.warm_start = self.snapshot_store.load_or_compile(graph)
        self.store = store if store is not None else PolicyStore()
        self.default_effect = default_effect
        self.audit_log = audit_log
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        #: Shard count (0/1 = sharding off).  Must be set before the default
        #: pin normalizes: ``default_backend="sharded"`` is only valid with
        #: an active shard layout.
        self.shards = shards
        self._default_pin = self._normalize_pin(default_backend)
        self._cache_size = cache_size
        self.query_guard = query_guard
        #: Degradation observability (all surfaced by :meth:`statistics`).
        self.queries_degraded = 0
        self.index_build_failures = 0
        self.checkpoint_failures = 0
        self.planner = QueryPlanner()
        #: The route table, keyed by backend name (``"sharded"`` included).
        self._routes: Dict[str, _Route] = {}
        #: Route-plan reuse and creation (``planner_plan_cache_*`` in
        #: :meth:`statistics`).
        self._plans_reused = 0
        self._plans_made = 0
        self.queries_executed = 0
        # External observability providers (the serving layer registers its
        # coalescer here); statistics() merges each provider's counters
        # under its name prefix.
        self._stats_providers: Dict[str, Callable[[], Mapping[str, float]]] = {}

    # ---------------------------------------------------------- route table

    def _normalize_pin(self, backend: Optional[str]) -> Optional[str]:
        if backend is None or backend == "auto":
            return None
        if backend == "sharded":
            if self.shards > 1:
                return backend
            raise UnknownBackendError(
                "sharded (service constructed without shards)",
                available_backends(),
            )
        if backend not in BACKENDS:
            raise UnknownBackendError(backend, available_backends())
        return backend

    def _current(self, name: str) -> _Route:
        """The route of backend ``name``, made current at the graph's epoch.

        The compiled snapshot is refreshed first.  Opening a route creates
        its engines (an index backend builds its index, the sharded route
        partitions the graph); a route whose epoch has moved on rebuilds a
        stale index and starts its plans afresh.  An index build that fails
        counts in ``index_build_failures`` and raises the evaluator's own
        error (only a pin routes to an index backend); the route keeps its
        old epoch, so the next query tries the build again.  The shard
        mirrors refresh themselves from the graph's journal on every routed
        query.
        """
        epoch = self.graph.epoch
        route = self._routes.get(name)
        if route is not None and route.epoch == epoch:
            return route
        compile_graph(self.graph)
        try:
            if route is None:
                route = self._routes[name] = self._open(name)
            elif name in INDEX_BACKENDS:
                route.engine.evaluator.build()
        except Exception:
            if name in INDEX_BACKENDS:
                self.index_build_failures += 1
            raise
        route.epoch = epoch
        route.plans = {}
        return route

    def _open(self, name: str) -> _Route:
        """A new route: the engines of one backend, with the service's policy
        settings.  The sharded route's evaluator is a :class:`ShardRouter`,
        so it gets the full engine treatment: per-owner audience memos,
        decision memos through the access engine, guard-aware cache hygiene
        (partial sweeps never enter the memo)."""
        evaluator = name
        if name == "sharded":
            evaluator = ShardRouter(ShardedGraph(self.graph, shards=self.shards))
        engine = ReachabilityEngine(self.graph, evaluator, cache_size=self._cache_size)
        access = AccessControlEngine(
            self.graph,
            self.store,
            backend=engine,
            default_effect=self.default_effect,
            audit_log=self.audit_log,
        )
        return _Route(engine, access)

    def engine(self, backend: str) -> ReachabilityEngine:
        """Return the (lazily created, freshly built) engine of one backend.

        Index backends are rebuilt here whenever the graph has mutated since
        their last build, so a query the service routes to them never reads
        a stale index — the staleness semantics of directly-constructed
        evaluators stop at this boundary.
        """
        if backend not in BACKENDS:
            raise UnknownBackendError(backend, available_backends())
        return self._current(backend).engine

    def access_engine(self, backend: str) -> AccessControlEngine:
        """Return the access-control engine sharing one backend's memos."""
        self.engine(backend)  # validates the name, makes the route current
        return self._routes[backend].access

    def _guard_scope(self, mode: str):
        """The query guard's scope for one query (no-op when unguarded)."""
        if self.query_guard is None:
            return nullcontext()
        return self.query_guard.scope(mode)

    # ------------------------------------------------------------ lifecycle

    def refresh(self) -> CompiledGraph:
        """Bring the compiled snapshot up to date (delta patch or rebuild).

        Query paths refresh lazily; this explicit form lets serving code pay
        the refresh at a chosen moment (e.g. right after a churn burst).
        With a :attr:`snapshot_store` configured, the refreshed state is
        also checkpointed to disk — a delta segment when the journal covers
        the gap since the persisted tip, a base rewrite otherwise.
        """
        snapshot = compile_graph(self.graph)
        if self.snapshot_store is not None:
            try:
                self.last_checkpoint = self.snapshot_store.checkpoint(self.graph)
            except OSError:
                # The store already retried with backoff; a persistent I/O
                # failure must not take serving down — the in-memory snapshot
                # is intact, queries keep answering, and the failure is
                # visible through last_checkpoint and statistics().
                self.last_checkpoint = "failed"
                self.checkpoint_failures += 1
        return snapshot

    def _tick(self) -> None:
        """Count one answered query."""
        self.queries_executed += 1

    # ------------------------------------------------------------ execution

    def _route(self, kind: str, backend: Optional[str]) -> Tuple[_Route, ExecutionPlan]:
        """Choose one query's route and plan.

        The one request path of every verb (docs/architecture.md, "Request
        path"): ``kind`` names the planner method for the query's shape
        (``plan_<kind>``) and ``backend`` is the query's own pin.  The route
        is the table entry of the pin (own, else the service default), else
        of ``bfs``; the sharded walk carries no parent links, so a pinned
        witness / explanation is answered without one.  A warm query costs
        one table probe, one epoch comparison and one plan probe.  Returns
        the route and the plan as executed.
        """
        pin = self._normalize_pin(backend) or self._default_pin
        name = pin or "bfs"
        route = self._routes.get(name)
        if route is None or route.epoch != self.graph.epoch:
            # Making a route current refreshes the snapshot and may build a
            # pinned index; it runs here, *outside* the caller's guard scope:
            # the per-query budget bounds the query's own traversal, not the
            # maintenance it triggers.
            route = self._current(name)
        key = (kind, pin is not None)
        plan = route.plans.get(key)
        if plan is None:
            plan_for = getattr(self.planner, "plan_" + kind)
            plan = route.plans[key] = plan_for(route.epoch, pinned=pin)
            self._plans_made += 1
        else:
            self._plans_reused += 1
        return route, plan

    def _degraded(self) -> bool:
        """Whether the guard cut the bulk query just run short (and count it)."""
        partial = self.query_guard is not None and self.query_guard.tripped
        if partial:
            self.queries_degraded += 1
        return partial

    def _sweep(
        self,
        owners: Sequence[Hashable],
        expression: PathExpression,
        backend: Optional[str],
    ):
        """One audience materialization: planned, guarded, settled.

        Returns ``(plan, audiences, sweep plan, partial)``.
        """
        route, plan = self._route("audience", backend)
        with self._guard_scope(QueryGuard.PARTIAL):
            audiences, sweep_plan = route.engine.sweep_targets_many(owners, expression)
        return plan, audiences, sweep_plan, self._degraded()

    def reach(
        self,
        source: Hashable,
        target: Hashable,
        expression: Expression,
        *,
        collect_witness: bool = True,
        backend: Optional[str] = None,
    ) -> ReachResult:
        """Plan and evaluate one reachability query."""
        started = time.perf_counter()
        self._tick()
        expression = as_path_expression(expression)
        route, plan = self._route("reach", backend)
        with self._guard_scope(QueryGuard.RAISE):
            outcome = route.engine.evaluate(
                source, target, expression, collect_witness=collect_witness
            )
        return ReachResult(
            plan=plan,
            elapsed_seconds=time.perf_counter() - started,
            reachable=outcome.reachable,
            witness=outcome.witness,
            counters=outcome.counters,
        )

    def is_reachable(
        self, source: Hashable, target: Hashable, expression: Expression
    ) -> bool:
        """Boolean-only form of :meth:`reach` (no witness collected)."""
        return self.reach(
            source, target, expression, collect_witness=False
        ).reachable

    def audience(
        self,
        owners,
        expression: Expression,
        *,
        backend: Optional[str] = None,
    ) -> AudienceResult:
        """Materialize the audience of one owner or of many owners at once.

        ``owners`` is one owner or any iterable of owners (a set is swept in
        ``str`` order); duplicates are idempotent.
        """
        started = time.perf_counter()
        self._tick()
        plan, audiences, sweep_plan, partial = self._sweep(
            _as_tuple(owners), as_path_expression(expression), backend
        )
        return AudienceResult(
            plan=plan,
            elapsed_seconds=time.perf_counter() - started,
            audiences=audiences,
            sweep_plan=sweep_plan,
            partial=partial,
        )

    def reach_many(
        self,
        pairs: Iterable[Tuple[Hashable, Hashable]],
        expression: Expression,
        *,
        backend: Optional[str] = None,
    ) -> BulkReachResult:
        """Answer many ``(source, target)`` reach questions in one shared sweep.

        The coalescing-friendly bulk entry point: all pairs share one path
        expression, the distinct sources run as owners of a single
        multi-source owner-bitset sweep (one shared product walk instead of
        one walk per pair), and each pair's verdict is membership of its
        target in its source's swept audience — identical to the boolean of
        :meth:`reach` with ``collect_witness=False``, differentially tested
        in ``tests/serving``.  No witnesses are collected; pairs needing one
        must go through :meth:`reach`.

        Endpoints are validated up front (:class:`~repro.exceptions.
        NodeNotFoundError`), matching what per-pair evaluation would raise.
        Under an active :class:`~repro.reliability.guard.QueryGuard` the
        sweep runs in partial mode: a tripped budget returns
        ``partial=True`` and the mapping **under-approximates** — callers
        needing exact point answers must re-ask per pair (the serving
        coalescer does exactly that).
        """
        started = time.perf_counter()
        self._tick()
        expression = as_path_expression(expression)
        pair_list: List[Tuple[Hashable, Hashable]] = [
            (source, target) for source, target in pairs
        ]
        for source, target in pair_list:
            if not self.graph.has_user(source):
                raise NodeNotFoundError(source)
            if not self.graph.has_user(target):
                raise NodeNotFoundError(target)
        sources = list(dict.fromkeys(source for source, _target in pair_list))
        # This *is* an audience materialization, over the distinct sources.
        plan, audiences, sweep_plan, partial = self._sweep(
            sources, expression, backend
        )
        reachable = {
            (source, target): target in audiences.get(source, ())
            for source, target in pair_list
        }
        return BulkReachResult(
            plan=plan,
            elapsed_seconds=time.perf_counter() - started,
            reachable=reachable,
            sweep_plan=sweep_plan,
            partial=partial,
        )

    def check(
        self,
        requester: Hashable,
        resource_id: Hashable,
        *,
        explain: bool = True,
        backend: Optional[str] = None,
    ) -> AccessResult:
        """Plan and evaluate one access request against the policy store."""
        started = time.perf_counter()
        self._tick()
        route, plan = self._route("access", backend)
        with self._guard_scope(QueryGuard.RAISE):
            decision = route.access.check_access(requester, resource_id, explain=explain)
        return AccessResult(
            plan=plan,
            elapsed_seconds=time.perf_counter() - started,
            decision=decision,
        )

    def is_allowed(self, requester: Hashable, resource_id: Hashable) -> bool:
        """Boolean-only form of :meth:`check` (no explanation collected)."""
        return self.check(requester, resource_id, explain=False).granted

    def explain(self, requester: Hashable, resource_id: Hashable) -> str:
        """Return the human-readable explanation of one access decision."""
        return self.check(requester, resource_id, explain=True).explain()

    def bulk_access(
        self,
        resource_ids,
        *,
        backend: Optional[str] = None,
    ) -> BulkAccessResult:
        """Materialize the authorized audiences of many resources at once.

        ``resource_ids`` is one resource id or any iterable of them.
        """
        started = time.perf_counter()
        self._tick()
        resource_ids = _as_tuple(resource_ids)
        route, plan = self._route("bulk_access", backend)
        with self._guard_scope(QueryGuard.PARTIAL):
            audiences, sweep_plans = route.access.audiences_with_plans(resource_ids)
        return BulkAccessResult(
            plan=plan,
            elapsed_seconds=time.perf_counter() - started,
            audiences=audiences,
            sweep_plans=sweep_plans,
            partial=self._degraded(),
        )

    def authorized_audience(self, resource_id: Hashable) -> Set[Hashable]:
        """The full audience of one resource (convenience over bulk_access)."""
        return self.bulk_access([resource_id])[resource_id]

    # ---------------------------------------------------------------- stats

    def register_statistics_provider(
        self, name: str, provider: Callable[[], Mapping[str, float]]
    ) -> None:
        """Attach an external counter source to :meth:`statistics`.

        The serving layer registers its coalescer here (batch-size histogram
        buckets, fallback counts); each call to :meth:`statistics` merges
        the provider's mapping under ``<name>_<key>``.  Re-registering a
        name replaces the provider.
        """
        self._stats_providers[name] = provider

    def statistics(self) -> Dict[str, float]:
        """Service-level counters plus route-plan and per-route statistics.

        ``planner_plan_cache_hits`` / ``planner_plan_cache_misses`` count the
        plans a query reused from its route and the plans made for a route at
        its current epoch (every query is exactly one of the two).
        """
        stats: Dict[str, float] = {
            "queries_executed": float(self.queries_executed),
            "backends_instantiated": float(len(self._routes)),
            "queries_degraded": float(self.queries_degraded),
            "index_build_failures": float(self.index_build_failures),
            "checkpoint_failures": float(self.checkpoint_failures),
        }
        if self.query_guard is not None:
            stats["guard_trips"] = float(self.query_guard.trip_count)
        # Index-size accounting (satellite of PERF-11): the cached compiled
        # snapshot's CSR bytes and whether it is a zero-copy mapping, plus
        # the persistent store's disk footprint.  Reads the cache only — a
        # statistics call must never trigger a compile.
        snapshot = getattr(self.graph, _SNAPSHOT_ATTR, None)
        if snapshot is not None:
            stats["snapshot_nbytes"] = float(snapshot.nbytes)
            stats["snapshot_mapped"] = float(snapshot.mapped)
            # Delta maintenance: rows waiting in the overlays, and how often
            # this snapshot was patched / had a label folded.
            stats["snapshot_overlay_rows"] = float(snapshot.overlay_rows)
            stats["snapshot_label_folds"] = float(
                snapshot.delta_events["label_compactions"]
            )
            stats["snapshot_delta_applies"] = float(snapshot.delta_events["applies"])
        if self.snapshot_store is not None:
            disk = self.snapshot_store.stat()
            stats["snapshot_disk_bytes"] = float(disk["disk_bytes"])
            stats["snapshot_delta_segments"] = float(disk["delta_segments"])
            stats["snapshot_checkpoint_retries"] = float(
                disk["checkpoint_retries_used"]
            )
            stats["snapshot_tmp_files_reaped"] = float(disk["tmp_files_reaped"])
            stats["snapshot_quarantine_files"] = float(disk["quarantine_files"])
            report = self.snapshot_store.last_recovery
            if report is not None:
                stats["snapshot_fsck_quarantined"] = float(len(report.quarantined))
                stats["snapshot_fsck_reaped_tmp"] = float(len(report.reaped_tmp))
                stats["snapshot_fsck_healthy"] = float(report.healthy)
        if self.shards:
            stats["shard_count"] = float(self.shards)
        sharded = self._routes.get("sharded")
        if sharded is not None:
            for key, value in sharded.engine.evaluator.statistics().items():
                stats[f"shard_{key}"] = value
        stats["planner_plan_cache_hits"] = float(self._plans_reused)
        stats["planner_plan_cache_misses"] = float(self._plans_made)
        for name, info in self.cache_info().items():
            for key, value in info.items():
                stats[f"{name}_{key}"] = float(value)
        for name, provider in self._stats_providers.items():
            for key, value in provider().items():
                stats[f"{name}_{key}"] = float(value)
        return stats

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Per-route engine memo occupancy and hit/miss counts."""
        return {name: route.engine.cache_info() for name, route in self._routes.items()}

    def __repr__(self) -> str:
        pin = self._default_pin or "auto"
        return (
            f"<GraphService backend={pin!r} over {self.graph!r}, "
            f"{self.store.resource_count()} resources>"
        )
