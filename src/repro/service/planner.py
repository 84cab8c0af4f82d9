"""Per-query backend routing — the *how* of the request/plan/execute split.

:class:`QueryPlanner` decides *which backend* executes each query.  The
verdict is an :class:`ExecutionPlan` that travels with the result, so every
answer can show how it was produced.

Routing by pin
--------------
The rule is one line: a query runs on its pin (its own ``backend=``, else
the service's ``default_backend``), and an unpinned query runs on ``bfs``.
No cost model prices one backend against another.  The online walk is the
one procedure auto runs; a forward-only point walk first probes the
snapshot's denial filter (an SCC condensation labelled for reachability,
see :mod:`repro.reachability.compiled_search`), which proves most denials
without a walk once the walk's own denial work has paid for building it.
``transitive-closure``, ``cluster-index`` and ``sharded`` run only when
pinned: the closure is the paper's O(|V|·|E|) baseline and the cluster
index the paper's proposal, kept for the benchmarks that compare them.

Plans are cached under the query's identity, ``(kind, subject, pin)``,
stamped with the epoch they were planned at.  The service binds the engine
it acquired to a point plan's entry, so its warm path is one probe plus one
epoch comparison (:meth:`QueryPlanner.warm`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.graph.compiled import CompiledGraph
from repro.policy.path_expression import PathExpression

__all__ = ["ExecutionPlan", "QueryPlanner"]

#: Backends whose answers come from a built artifact that goes stale under
#: mutation; the service rebuilds them before routing a query their way.
INDEX_BACKENDS = frozenset({"transitive-closure", "cluster-index"})


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's verdict for one query — carried by every result.

    ``backend`` is what actually runs; ``backend_forced`` whether a pin (on
    the query or the service) chose it.  The executed
    :class:`~repro.reachability.compiled_search.SweepPlan` of an audience
    shape travels on the result next to this plan.
    """

    kind: str
    backend: str
    backend_forced: bool
    epoch: int = 0
    reason: str = ""
    #: ``"single"`` (one snapshot, one evaluator) or ``"sharded"`` (the shard
    #: router ran it).  The planner only ever plans the single route; the
    #: service marks a plan ``"sharded"`` when the query's pin is
    #: ``"sharded"``.
    route: str = "single"


@dataclass
class _CachedPlan:
    plan: ExecutionPlan
    engine: object = None  # bound by the service once it has acquired one


class QueryPlanner:
    """Chooses a backend for every query: the pin, else ``bfs``."""

    def __init__(self, *, cache_size: int = 1024) -> None:
        self._cache: "OrderedDict[Tuple, _CachedPlan]" = OrderedDict()
        self._cache_size = max(0, cache_size)
        #: Planner observability: how many plans were computed vs served
        #: from the plan cache.
        self.plans_computed = 0
        self.plans_cached = 0

    # ------------------------------------------------------------- caching

    def warm(self, key: Tuple, epoch: int) -> Optional[_CachedPlan]:
        """The entry of point key ``(kind, texts, pin)`` with a bound engine, if current."""
        entry = self._cache.get(key)
        if entry is None or entry.engine is None or entry.plan.epoch != epoch:
            return None
        self.plans_cached += 1
        return entry

    def bind(self, key: Tuple, plan: ExecutionPlan, engine) -> None:
        """Bind the engine that runs ``plan`` to its cache entry."""
        entry = self._cache.get(key)
        if entry is not None and entry.plan is plan:
            entry.engine = engine

    def _plan(
        self,
        kind: str,
        subject: object,
        snapshot: CompiledGraph,
        pinned: Optional[str],
        auto_reason: str,
    ) -> ExecutionPlan:
        """The one body of every plan shape.

        ``subject`` is what the plan cache keys the shape on (expression
        texts, or the number of distinct expressions); ``auto_reason`` is
        the un-pinned plan's reason.
        """
        epoch = snapshot.epoch
        key = (kind, subject, pinned)
        entry = self._cache.get(key)
        if entry is not None and entry.plan.epoch == epoch:
            self.plans_cached += 1
            return entry.plan
        self.plans_computed += 1
        if pinned is not None:
            backend = pinned
            reason = f"backend pinned to {pinned!r} by the caller"
        else:
            backend = "bfs"
            reason = auto_reason
        plan = ExecutionPlan(
            kind=kind,
            backend=backend,
            backend_forced=pinned is not None,
            epoch=epoch,
            reason=reason,
        )
        if self._cache_size:
            self._cache[key] = _CachedPlan(plan)
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
        return plan

    # ------------------------------------------------------------- planning

    def plan_reach(
        self,
        snapshot: CompiledGraph,
        expression: PathExpression,
        *,
        pinned: Optional[str] = None,
    ) -> ExecutionPlan:
        """Plan one point reachability query (also the access-check unit)."""
        return self._plan(
            "reach", (expression.to_text(),), snapshot, pinned,
            "auto runs the online walk; forward-only walks probe the denial filter",
        )

    def plan_access(
        self,
        snapshot: CompiledGraph,
        expressions: Sequence[PathExpression],
        *,
        pinned: Optional[str] = None,
    ) -> ExecutionPlan:
        """Plan one access check: every rule condition is a reach query."""
        texts = tuple(expression.to_text() for expression in expressions)
        return self._plan(
            "access", texts, snapshot, pinned,
            "auto runs the online walk; forward-only walks probe the denial filter"
            if texts
            else "no path expressions to evaluate",
        )

    def plan_audience(
        self,
        snapshot: CompiledGraph,
        expression: PathExpression,
        owner_count: int,
        *,
        pinned: Optional[str] = None,
    ) -> ExecutionPlan:
        """Plan one audience materialization (single- or multi-owner).

        Every backend funnels audience queries into the same multi-source
        owner-bitset sweep, so auto keeps them on ``bfs`` (no index to go
        stale, no build to pay).  ``pinned`` still routes through any
        backend.
        """
        return self._plan(
            "audience", expression.to_text(), snapshot, pinned,
            "all backends share the multi-source audience sweep; "
            "bfs runs it on the live snapshot with no index to build",
        )

    def plan_bulk_access(
        self,
        snapshot: CompiledGraph,
        expression_count: int,
        *,
        pinned: Optional[str] = None,
    ) -> ExecutionPlan:
        """Plan one bulk audience materialization across many resources."""
        return self._plan(
            "bulk-access", expression_count, snapshot, pinned,
            "bulk audiences run one shared sweep per distinct expression; "
            "bfs sweeps the live snapshot directly",
        )

    # ---------------------------------------------------------------- stats

    def statistics(self) -> Dict[str, float]:
        """Planner observability counters (computed vs cache-served plans).

        ``plan_cache_hits`` / ``plan_cache_misses`` spell the same two
        counters in cache vocabulary: a cache-served plan is a hit, a
        computed plan is a miss (every plan is exactly one of the two).
        """
        return {
            "plans_computed": float(self.plans_computed),
            "plans_cached": float(self.plans_cached),
            "plan_cache_entries": float(len(self._cache)),
            "plan_cache_hits": float(self.plans_cached),
            "plan_cache_misses": float(self.plans_computed),
        }
