"""The :class:`GraphService` session facade — one object, one API.

The facade owns everything a serving process needs per graph:

* the **graph** and its compiled-snapshot refresh (delta maintenance under
  churn included — :meth:`GraphService.refresh` is explicit, every query
  path refreshes lazily);
* the **policy store**, audit log and default effect for access checks;
* the **backend registry**: one :class:`~repro.reachability.engine.
  ReachabilityEngine` per backend name, created lazily, with index backends
  (transitive closure, cluster index) rebuilt before use whenever the graph
  has mutated since their last build — a query routed through the service
  never reads a stale index;
* the **planner** and its plan cache, plus the mutation-stability counter
  the index-build amortization feeds on;
* every **cache** (parse, decision memo, target-set memo) via the per-
  backend engines.

Queries go through :meth:`GraphService.execute` (typed query objects) or
the convenience verbs (:meth:`reach`, :meth:`audience`, :meth:`check`,
:meth:`bulk_access`) that build the query objects for you.  Every answer is
a :class:`~repro.service.results.PlannedResult` carrying the executed
:class:`~repro.service.planner.ExecutionPlan`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import replace
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
from repro.reachability.engine import ReachabilityEngine, available_backends
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.guard import QueryGuard
from repro.service.planner import _RATE_BUCKETS, INDEX_BACKENDS, QueryPlanner
from repro.sharding.router import ShardRouter
from repro.sharding.shard import ShardedGraph
from repro.service.queries import (
    AccessQuery,
    AudienceQuery,
    BulkAccessQuery,
    Expression,
    Query,
    ReachQuery,
)
from repro.service.results import (
    AccessResult,
    AudienceResult,
    BulkAccessResult,
    BulkReachResult,
    ReachResult,
)

__all__ = ["GraphService"]


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
    backends:
        The backend names the planner may choose among (default: every
        registered backend).  Pinning a query to a backend outside this set
        raises :class:`UnknownBackendError`.
    default_backend:
        A service-wide pin: every query without its own ``backend=`` runs
        there.  ``None`` / ``"auto"`` (the default) enables per-query
        auto-selection.
    cache_size:
        Per-backend engine memo capacity (``0`` disables memoization —
        benchmarks use it to measure raw planning + execution).
    backend_options:
        Optional per-backend constructor kwargs, e.g.
        ``{"cluster-index": {"expansion_limit": 64}}``.
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
    breakers:
        Per-backend :class:`~repro.reliability.breaker.CircuitBreaker`
        overrides for index maintenance.  By default every index backend in
        ``backends`` gets one: repeated build/refresh failures price the
        backend out of auto-planning (queries reroute to a walking backend)
        until a half-open probe succeeds.  Pass ``{}`` to disable breakers.
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
        backends: Optional[Iterable[str]] = None,
        default_backend: Optional[str] = None,
        cache_size: int = 4096,
        default_effect: Effect = Effect.DENY,
        audit_log: Optional[AuditLog] = None,
        backend_options: Optional[Dict[str, Dict[str, object]]] = None,
        snapshot_path: Optional[object] = None,
        query_guard: Optional[QueryGuard] = None,
        breakers: Optional[Dict[str, CircuitBreaker]] = None,
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
        self._backend_options = dict(backend_options or {})
        self._backends: Tuple[str, ...] = tuple(
            backends if backends is not None else available_backends()
        )
        if not self._backends:
            raise ValueError("GraphService needs at least one backend")
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        #: Shard count (0/1 = sharding off).  Must be set before the default
        #: pin normalizes: ``default_backend="sharded"`` is only valid with
        #: an active shard layout.
        self.shards = shards
        self._shard_runtime_obj: Optional[
            Tuple[ShardRouter, ReachabilityEngine, AccessControlEngine]
        ] = None
        self._default_pin = self._normalize_pin(default_backend)
        self._cache_size = cache_size
        self.query_guard = query_guard
        #: One breaker per index backend (walking backends never need one:
        #: they have no maintenance step that can fail).
        self.breakers: Dict[str, CircuitBreaker] = (
            dict(breakers)
            if breakers is not None
            else {
                name: CircuitBreaker()
                for name in self._backends
                if name in INDEX_BACKENDS
            }
        )
        #: Degradation observability (all surfaced by :meth:`statistics`).
        self.queries_degraded = 0
        self.queries_rerouted = 0
        self.checkpoint_failures = 0
        self.planner = QueryPlanner(backend_options=self._backend_options)
        self._engines: Dict[str, ReachabilityEngine] = {}
        self._access_engines: Dict[str, AccessControlEngine] = {}
        self._built_epoch: Dict[str, int] = {}
        # Stability = queries answered since the graph last mutated; the
        # planner amortizes index builds over it (see repro.service.planner).
        self._seen_epoch = graph.epoch
        self._stability = 0
        # Bumped when a point plan's pricing input can change within an epoch.
        self._plan_generation = 0
        self.queries_executed = 0
        # Observed-outcome feedback per expression text: [samples seen,
        # EWMA unreachable rate].  The planner's transitive-closure prune
        # estimate scales with the decayed rate — the service's cardinality
        # feedback — so a workload shift (a denial-heavy expression turning
        # grant-heavy, or vice versa) re-prices plans within ~1/alpha
        # queries instead of being pinned by the lifetime average.
        self._reach_outcomes: Dict[str, List[float]] = {}
        # External observability providers (the serving layer registers its
        # coalescer here); statistics() merges each provider's counters
        # under its name prefix.
        self._stats_providers: Dict[str, Callable[[], Mapping[str, float]]] = {}

    # ------------------------------------------------------------- registry

    def _normalize_pin(self, backend: Optional[str]) -> Optional[str]:
        if backend is None or backend == "auto":
            return None
        if backend == "sharded":
            if self.shards > 1:
                return backend
            raise UnknownBackendError(
                "sharded (service constructed without shards)",
                sorted(self._backends),
            )
        if backend not in self._backends:
            raise UnknownBackendError(backend, sorted(self._backends))
        return backend

    def _shard_runtime(
        self,
    ) -> Tuple[ShardRouter, ReachabilityEngine, AccessControlEngine]:
        """The lazily built sharded execution stack (router + engines).

        The router is an ordinary evaluator, so it gets the full engine
        treatment: per-owner audience memos, decision memos through the
        access engine, guard-aware cache hygiene (partial sweeps never enter
        the memo).  The shard mirrors refresh themselves from the graph's
        journal on every routed query.
        """
        if self._shard_runtime_obj is None:
            router = ShardRouter(ShardedGraph(self.graph, shards=self.shards))
            engine = ReachabilityEngine(
                self.graph, router, cache_size=self._cache_size
            )
            self._shard_runtime_obj = (router, engine, self._access_over(engine))
        return self._shard_runtime_obj

    def engine(self, backend: str) -> ReachabilityEngine:
        """Return the (lazily created, freshly built) engine of one backend.

        Index backends are rebuilt here whenever the graph has mutated since
        their last build, so a query the service routes to them never reads
        a stale index — the staleness semantics of directly-constructed
        evaluators stop at this boundary.
        """
        if backend not in self._backends:
            raise UnknownBackendError(backend, sorted(self._backends))
        engine = self._engines.get(backend)
        epoch = self.graph.epoch
        if engine is None:
            options = dict(self._backend_options.get(backend, {}))
            engine = self._maintain_index(
                backend,
                lambda: ReachabilityEngine(
                    self.graph, backend, cache_size=self._cache_size, **options
                ),
            )
            self._engines[backend] = engine
            self._built_epoch[backend] = epoch
        elif backend in INDEX_BACKENDS and self._built_epoch.get(backend) != epoch:
            # The cluster evaluator absorbs the journal gap through its
            # bounded in-place re-condensation when it can, and falls back
            # to build() itself when it cannot; the closure only rebuilds.
            evaluator = engine.evaluator
            self._maintain_index(
                backend, getattr(evaluator, "refresh", evaluator.build)
            )
            self._built_epoch[backend] = epoch
        return engine

    def _maintain_index(self, backend: str, action):
        """Run one build/refresh under the backend's circuit breaker.

        Records success (with duration, so a configured slow threshold can
        count a crawling build against the backend) or failure; the
        exception always propagates — callers on the *auto* path catch it
        and reroute, a *pinned* caller sees the evaluator's own error.
        """
        self._plan_generation += 1  # freshness and the veto set may change
        breaker = self.breakers.get(backend) if backend in INDEX_BACKENDS else None
        if breaker is None:
            return action()
        breaker.allow_probe()  # half-open: this build IS the probe
        started = time.perf_counter()
        try:
            result = action()
        except Exception as error:
            breaker.record_failure(reason=f"{type(error).__name__}: {error}")
            raise
        breaker.record_success(duration=time.perf_counter() - started)
        return result

    def access_engine(self, backend: str) -> AccessControlEngine:
        """Return the access-control engine sharing one backend's memos."""
        reachability = self.engine(backend)  # ensures existence + freshness
        access = self._access_engines.get(backend)
        if access is None:
            access = self._access_engines[backend] = self._access_over(reachability)
        return access

    def _access_over(self, reachability: ReachabilityEngine) -> AccessControlEngine:
        """The service's policy settings over one reachability engine."""
        return AccessControlEngine(
            self.graph,
            self.store,
            backend=reachability,
            default_effect=self.default_effect,
            audit_log=self.audit_log,
        )

    @property
    def backends(self) -> Tuple[str, ...]:
        """The backend names the planner may choose among."""
        return self._backends

    def _freshness(self) -> Dict[str, bool]:
        """Which backends can execute right now without paying a build."""
        epoch = self.graph.epoch
        return {
            # Online walks compile the snapshot lazily; an index is fresh when
            # it was built (or refreshed) at this epoch.
            name: name not in INDEX_BACKENDS or self._built_epoch.get(name) == epoch
            for name in self._backends
        }

    def _vetoed(self) -> frozenset:
        """Index backends the planner must price out right now.

        An *open* breaker vetoes its backend outright.  A *half-open*
        breaker stops blocking, so the next plan that would choose the
        backend becomes the probe — :meth:`_maintain_index` claims the
        probe slot when the build actually runs, and the build's outcome
        settles the breaker (closed again, or reopened for another
        cooldown).  Plans arriving while that probe is in flight see
        ``blocking`` again and keep degrading.
        """
        return frozenset(
            name for name, breaker in self.breakers.items() if breaker.blocking
        )

    _WALK_FALLBACKS = ("bfs", "dfs")

    def _acquire_for_plan(self, plan, acquire):
        """Acquire the planned engine, failing over auto plans to a walk.

        ``acquire`` is :meth:`engine` or :meth:`access_engine`.  Index
        maintenance can fail at acquisition time (the breaker has already
        recorded it).  A *pinned* plan propagates the evaluator's own error
        — the caller asked for that backend specifically.  An *auto* plan
        reroutes to a walking backend, which answers every query shape
        identically (just without the index's speed), and the rewritten
        plan travels on the result so the reroute is visible.
        """
        try:
            return acquire(plan.backend), plan
        except Exception:
            if plan.backend_forced or plan.backend not in INDEX_BACKENDS:
                raise
            fallback = next(
                (name for name in self._WALK_FALLBACKS if name in self._backends),
                None,
            )
            if fallback is None:
                raise
            self.queries_rerouted += 1
            plan = replace(
                plan,
                backend=fallback,
                reason=(
                    f"rerouted to {fallback}: {plan.backend} maintenance "
                    f"failed ({plan.reason})"
                ),
            )
            return acquire(fallback), plan

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
        """Advance the stability counter (reset when the epoch has moved)."""
        epoch = self.graph.epoch
        if epoch != self._seen_epoch:
            self._seen_epoch = epoch
            self._stability = 0
        else:
            self._stability += 1
        self.queries_executed += 1

    #: Outcomes observed before this are too few to trust as a rate.
    _RATE_SAMPLE_FLOOR = 16
    #: EWMA smoothing factor for the unreachable-rate estimator: each new
    #: outcome carries this weight, giving the estimate a ~32-query memory.
    _RATE_ALPHA = 1.0 / 32.0

    def _unreachable_rate(self, text: str) -> float:
        """Decayed (EWMA) share of unreachable answers for one expression.

        Returns ``0.0`` until :attr:`_RATE_SAMPLE_FLOOR` outcomes accrue, so
        a handful of early denials cannot talk the planner into an index.
        """
        outcome = self._reach_outcomes.get(text)
        if outcome is None or outcome[0] < self._RATE_SAMPLE_FLOOR:
            return 0.0
        return outcome[1]

    def _observe_outcome(self, text: str, reachable: bool) -> None:
        self._observe_rate(text, 0.0 if reachable else 1.0)

    def _observe_rate(self, text: str, rate: float) -> None:
        """Feed one (possibly fractional) unreachable-rate sample.

        Point queries feed ``0.0``/``1.0`` outcomes; audience and bulk
        shapes feed the *fraction* of the live graph their sweep did not
        reach — one materialization is worth one sample, not thousands of
        synthetic point outcomes, so a single bulk query cannot swamp the
        estimator's ~32-query memory.
        """
        outcome = self._reach_outcomes.get(text)
        if outcome is None:
            outcome = self._reach_outcomes[text] = [0, 0.0]
        floor = self._RATE_SAMPLE_FLOOR
        before = int(outcome[1] * _RATE_BUCKETS) if outcome[0] >= floor else 0
        outcome[0] += 1
        sample = max(0.0, min(1.0, rate))
        outcome[1] += self._RATE_ALPHA * (sample - outcome[1])
        if (int(outcome[1] * _RATE_BUCKETS) if outcome[0] >= floor else 0) != before:
            self._plan_generation += 1  # the planner prices the bucket

    def _refresh_ops(self) -> Optional[int]:
        """Journal length between the cluster index's last (re)build and now.

        ``None`` when the index was never built or the compacting journal no
        longer covers the gap — both price as a full build in the planner.
        """
        built = self._built_epoch.get("cluster-index")
        ops = None if built is None else self.graph.mutations_since(built)
        return None if ops is None else len(ops)

    # ------------------------------------------------------------ execution

    def execute(
        self, query: Query
    ) -> Union[ReachResult, AudienceResult, AccessResult, BulkAccessResult]:
        """Plan and run one typed query; returns its plan-carrying result."""
        if isinstance(query, ReachQuery):
            return self._execute_reach(query)
        if isinstance(query, AudienceQuery):
            return self._execute_audience(query)
        if isinstance(query, AccessQuery):
            return self._execute_access(query)
        if isinstance(query, BulkAccessQuery):
            return self._execute_bulk(query)
        raise TypeError(f"not a service query: {query!r}")

    def _route(
        self,
        plan_for,
        subject: Tuple,
        backend: Optional[str],
        *,
        access: bool = False,
        texts: Optional[Tuple[str, ...]] = None,
        **pricing,
    ):
        """Plan one query, choose its route, acquire what runs it.

        The one request path of every verb (docs/architecture.md, "Request
        path"): ``plan_for`` is the planner method for the query's shape,
        ``subject`` its positional arguments after the snapshot, ``backend``
        the query's own pin, ``access`` whether :meth:`access_engine` rather
        than :meth:`engine` acquires, and ``pricing`` the keywords only some
        shapes take (outcome feedback for point plans, the sweep direction
        for bulk plans).  The routing rule is one line: a query runs on the
        shard stack iff its pin (own, else the service default) is
        ``"sharded"`` — whatever its shape; the sharded walk carries no
        parent links, so a pinned witness / explanation is answered without
        one.  Returns the engine to run and the plan as executed.

        Point shapes pass their expression ``texts`` and take the warm route:
        while every breaker is closed, a plan bound at this epoch and plan
        generation runs on its bound engine, unpriced; a miss prices and
        binds the plan unless it was rerouted.
        """
        pin = self._normalize_pin(backend) or self._default_pin
        if texts is not None:
            key = ("access" if access else "reach", texts, pin)
            generation = self._plan_generation
            # An open breaker half-opens by the clock, which no stamp follows.
            closed = all(b.state == b.CLOSED for b in self.breakers.values())
            if closed:
                entry = self.planner.warm(
                    key, self.graph.epoch, generation, self._stability
                )
                if entry is not None:
                    return entry.engine, entry.plan
            pricing.update(
                unreachable_rate=min(map(self._unreachable_rate, texts), default=0.0),
                refresh_ops=self._refresh_ops(),
                vetoed=self._vetoed(),
            )
        plan = plan_for(
            compile_graph(self.graph),
            *subject,
            backends=self._backends,
            fresh=self._freshness(),
            stability=self._stability,
            pinned=pin,
            **pricing,
        )
        if pin == "sharded":
            _router, engine, access_engine = self._shard_runtime()
            return (
                access_engine if access else engine,
                replace(plan, route="sharded"),
            )
        # Acquisition may build or refresh an index and runs here, *outside*
        # the caller's guard scope: the per-query budget bounds the query's
        # own traversal, not an index build it happens to trigger (the
        # breaker owns build pathology).
        engine, routed = self._acquire_for_plan(
            plan, self.access_engine if access else self.engine
        )
        if texts is not None and closed and routed is plan:
            self.planner.bind(key, plan, generation, engine)
        return engine, routed

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
        direction: str,
        backend: Optional[str],
    ):
        """One audience materialization: planned, guarded, settled.

        Returns ``(plan, audiences, sweep plan, partial)``.  Cardinality
        feedback (bulk shapes feed the same estimator as point queries): the
        mean *unreached* share of the live graph across the swept owners is
        one fractional sample for this expression.  Partial sweeps
        under-count and are never fed.
        """
        engine, plan = self._route(
            self.planner.plan_audience,
            (expression, len(owners)),
            backend,
            direction=direction,
        )
        with self._guard_scope(QueryGuard.PARTIAL):
            audiences, sweep_plan = engine.sweep_targets_many(
                owners, expression, direction=direction
            )
        partial = self._degraded()
        if audiences and not partial:
            live = max(1, compile_graph(self.graph).number_of_live_nodes())
            covered = sum(len(a) for a in audiences.values()) / len(audiences)
            self._observe_rate(expression.to_text(), 1.0 - covered / live)
        return plan, audiences, sweep_plan, partial

    def _execute_reach(self, query: ReachQuery) -> ReachResult:
        started = time.perf_counter()
        self._tick()
        expression = as_path_expression(query.expression)
        text = expression.to_text()
        engine, plan = self._route(
            self.planner.plan_reach, (expression,), query.backend, texts=(text,)
        )
        with self._guard_scope(QueryGuard.RAISE):
            outcome = engine.evaluate(
                query.source,
                query.target,
                expression,
                collect_witness=query.collect_witness,
            )
        self._observe_outcome(text, outcome.reachable)
        return ReachResult(
            plan=plan,
            elapsed_seconds=time.perf_counter() - started,
            reachable=outcome.reachable,
            witness=outcome.witness,
            counters=outcome.counters,
        )

    def _execute_audience(self, query: AudienceQuery) -> AudienceResult:
        started = time.perf_counter()
        self._tick()
        expression = as_path_expression(query.expression)
        plan, audiences, sweep_plan, partial = self._sweep(
            query.owners, expression, query.direction, query.backend
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
        direction: str = "auto",
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
            sources, expression, direction, backend
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

    def _execute_access(self, query: AccessQuery) -> AccessResult:
        started = time.perf_counter()
        self._tick()
        expressions = [
            condition.path
            for rule in self.store.rules_for(query.resource_id)
            for condition in rule.conditions
        ]
        access, plan = self._route(
            self.planner.plan_access,
            (expressions,),
            query.backend,
            access=True,
            texts=tuple(path.to_text() for path in expressions),
        )
        with self._guard_scope(QueryGuard.RAISE):
            decision = access.check_access(
                query.requester, query.resource_id, explain=query.explain
            )
        # Cardinality feedback from every condition actually evaluated:
        # each condition outcome is one reach outcome on its expression
        # (before this, only the reach path fed the estimator, so access-
        # heavy workloads never earned the closure's prune discount).
        for rule_outcome in decision.rule_outcomes:
            for outcome in rule_outcome.condition_outcomes:
                self._observe_outcome(
                    outcome.condition.path.to_text(), outcome.satisfied
                )
        return AccessResult(
            plan=plan,
            elapsed_seconds=time.perf_counter() - started,
            decision=decision,
        )

    def _execute_bulk(self, query: BulkAccessQuery) -> BulkAccessResult:
        started = time.perf_counter()
        self._tick()
        distinct: Set[str] = {
            condition.path.to_text()
            for resource_id in query.resource_ids
            for rule in self.store.rules_for(resource_id)
            for condition in rule.conditions
        }
        access, plan = self._route(
            self.planner.plan_bulk_access,
            (len(distinct),),
            query.backend,
            access=True,
            direction=query.direction,
        )
        with self._guard_scope(QueryGuard.PARTIAL):
            audiences, sweep_plans = access.audiences_with_plans(
                query.resource_ids, direction=query.direction
            )
        partial = self._degraded()
        if not partial:
            # Cardinality feedback: a resource's authorized audience is a
            # subset of what each of its conditions reaches, so the unreached
            # share is an upper-bound sample per condition expression — one
            # sample per (expression, bulk call), deduplicated, and never
            # fed from a truncated (partial) materialization.
            live = max(1, compile_graph(self.graph).number_of_live_nodes())
            best_rate: Dict[str, float] = {}
            for resource_id, audience in audiences.items():
                rate = 1.0 - min(1.0, len(audience) / live)
                for rule in self.store.rules_for(resource_id):
                    for condition in rule.conditions:
                        text = condition.path.to_text()
                        best_rate[text] = min(
                            best_rate.get(text, 1.0), rate
                        )
            for text, rate in best_rate.items():
                self._observe_rate(text, rate)
        return BulkAccessResult(
            plan=plan,
            elapsed_seconds=time.perf_counter() - started,
            audiences=audiences,
            sweep_plans=sweep_plans,
            partial=partial,
        )

    # ------------------------------------------------------- convenience api

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
        return self._execute_reach(
            ReachQuery(source, target, expression, collect_witness, backend)
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
        direction: str = "auto",
        backend: Optional[str] = None,
    ) -> AudienceResult:
        """Materialize the audience of one owner or of many owners at once."""
        return self._execute_audience(
            AudienceQuery(owners, expression, direction, backend)
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
        return self._execute_access(
            AccessQuery(requester, resource_id, explain, backend)
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
        direction: str = "auto",
        backend: Optional[str] = None,
    ) -> BulkAccessResult:
        """Materialize the authorized audiences of many resources at once."""
        return self._execute_bulk(
            BulkAccessQuery(resource_ids, direction, backend)
        )

    def authorized_audience(
        self, resource_id: Hashable, *, direction: str = "auto"
    ) -> Set[Hashable]:
        """The full audience of one resource (convenience over bulk_access)."""
        return self.bulk_access([resource_id], direction=direction)[resource_id]

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

    def unregister_statistics_provider(self, name: str) -> None:
        """Detach a provider registered by :meth:`register_statistics_provider`."""
        self._stats_providers.pop(name, None)

    def statistics(self) -> Dict[str, float]:
        """Service-level counters plus planner and per-backend statistics."""
        stats: Dict[str, float] = {
            "queries_executed": float(self.queries_executed),
            "stability": float(self._stability),
            "backends_instantiated": float(len(self._engines)),
            "queries_degraded": float(self.queries_degraded),
            "queries_rerouted": float(self.queries_rerouted),
            "checkpoint_failures": float(self.checkpoint_failures),
        }
        if self.query_guard is not None:
            stats["guard_trips"] = float(self.query_guard.trip_count)
        _BREAKER_STATE = {
            CircuitBreaker.CLOSED: 0.0,
            CircuitBreaker.HALF_OPEN: 0.5,
            CircuitBreaker.OPEN: 1.0,
        }
        for name, breaker in self.breakers.items():
            prefix = f"breaker_{name.replace('-', '_')}"
            stats[f"{prefix}_state"] = _BREAKER_STATE[breaker.state]
            stats[f"{prefix}_failures"] = float(breaker.consecutive_failures)
            stats[f"{prefix}_trips"] = float(breaker.trip_count)
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
        if self._shard_runtime_obj is not None:
            router, shard_engine, _access = self._shard_runtime_obj
            for key, value in router.statistics().items():
                stats[f"shard_{key}"] = value
            for key, value in shard_engine.cache_info().items():
                stats[f"sharded_{key}"] = float(value)
        for name, value in self.planner.statistics().items():
            stats[f"planner_{name}"] = value
        for name, engine in self._engines.items():
            for key, value in engine.cache_info().items():
                stats[f"{name}_{key}"] = float(value)
        for name, provider in self._stats_providers.items():
            for key, value in provider().items():
                stats[f"{name}_{key}"] = float(value)
        return stats

    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Per-backend engine memo occupancy and hit/miss counts."""
        return {name: engine.cache_info() for name, engine in self._engines.items()}

    def __repr__(self) -> str:
        pin = self._default_pin or "auto"
        return (
            f"<GraphService backend={pin!r} over {self.graph!r}, "
            f"{self.store.resource_count()} resources>"
        )
