"""Per-query backend selection — the *how* of the request/plan/execute split.

:class:`QueryPlanner` decides *which backend* executes each query.  The
verdict is an :class:`ExecutionPlan` that travels with the result, so every
answer can show how it was produced.

Cost model
----------
All costs are in **explored-work units** (roughly: one CSR edge expansion of
interpreter work):

* **The online walk** (``bfs``) costs the geometric frontier estimate over
  the snapshot's per-label :meth:`~repro.graph.compiled.CompiledGraph.
  degree_statistics` — every depth level of every step multiplies the
  frontier by the label's mean degree (per allowed orientation), saturating
  at ``|V|``.
* **``transitive-closure``** puts an O(1) closure probe in front of the
  same walk: a query whose target is not forward-reachable *at all* is
  denied without any traversal.  How often that fires is not a property of
  the query shape, so the planner prices it with **observed-outcome
  feedback** (the cardinality-feedback trick of relational optimizers):
  the service reports the unreachable rate it has measured per expression,
  and the prune discount scales with it — on denial-heavy streams the
  closure's per-query estimate undercuts the walk, on grant-heavy streams
  it never does.  What keeps it from being chosen casually is its build
  estimate (``|V|`` sweeps per label filter).

These two are the only priced rows (:data:`PRICED_BACKENDS`).  Every other
backend name — ``dfs``, ``cluster-index``, ``sharded``, any registered
extra — is a **pin**: no measurement has one of them ahead of the walk on
any query shape (PERF-1, PERF-10), so auto-selection never considers them,
and a pinned query runs where it was pinned.  A service configured without
``bfs`` has nothing to price; auto then runs its first backend, the same
rule the sweep-shaped plans and expression-free checks use.

**Index-build amortization.**  A build estimate is charged over the
service's *stability* — the number of queries answered since the last graph
mutation.  While writes keep arriving, ``build / stability`` stays huge and
the planner stays online; once the graph settles and a stream of queries
accrues, the charge melts until the closure flips to cheapest, the service
builds it once, and every later query rides it for free.  Each cached plan
records the stability at which this flip becomes possible
(``revisit_at``), so the warm path re-plans exactly when the answer could
change and not before.

Point plans are cached under the query's identity, ``(kind, expression
texts, pin)``, stamped with the epoch and pricing inputs they were priced
from.  The service binds its acquired engine and *plan generation* (bumped
whenever a pricing input can change) to the entry, so its warm path is one
probe plus three integer comparisons (:meth:`QueryPlanner.warm`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from math import ceil, inf
from typing import AbstractSet, Dict, Mapping, Optional, Sequence, Tuple

from repro.exceptions import UnknownBackendError
from repro.graph.compiled import CompiledGraph
from repro.policy.path_expression import PathExpression
from repro.policy.steps import Direction

__all__ = ["BackendEstimate", "ExecutionPlan", "QueryPlanner"]

#: Backends whose answers come from a built artifact that goes stale under
#: mutation; the service rebuilds them before routing a query their way.
INDEX_BACKENDS = frozenset({"transitive-closure", "cluster-index"})

#: The backends auto-selection prices against each other; every other name
#: is a pin (see the module docstring).
PRICED_BACKENDS = ("bfs", "transitive-closure")

# Calibration constants, in explored-work units (~one CSR edge expansion).
# They only need to be right relative to each other; PERF-10's mixed-stream
# scenario is the regression harness for the flip behaviour they induce.
_ONLINE_FIXED = 8.0          # per-query setup of the compiled product walk
_TC_PRUNE_FIXED = 4.0        # O(1) closure probe in front of the walk
_TC_PRUNABLE_SHARE = 0.75    # share of observed denials the closure can prune
                             # (forward-only: a constrained denial is usually a
                             # path denial; mixed directions prune ~never)
_TC_MIXED_SHARE = 0.0        # the undirected closure prunes ~nothing on
                             # connected graphs: no discount at all
_TC_BUILD_UNIT = 0.25        # per (node x label-filter x (node + edge)); low
                             # because the geometric walk model underestimates
                             # real exploration on scale-free graphs, and the
                             # two must flip at a realistic stability
_RATE_BUCKETS = 8            # unreachable-rate resolution of point plans


def _default_backend(backends: Sequence[str]) -> str:
    """The unpriced auto choice: ``bfs`` when configured, else the first backend."""
    return "bfs" if "bfs" in backends else backends[0]


@dataclass(frozen=True)
class BackendEstimate:
    """One backend's estimated cost for one query, in explored-work units.

    ``total`` is what the planner compares: ``query_cost`` plus the
    amortized ``build_charge`` (``build_cost / stability`` when the backend
    needs a (re)build first, ``0`` when it is fresh).
    """

    backend: str
    query_cost: float
    build_cost: float
    build_charge: float
    total: float
    available: bool = True
    note: str = ""


@dataclass(frozen=True)
class ExecutionPlan:
    """The planner's verdict for one query — carried by every result.

    ``backend`` is what actually runs; ``backend_forced`` whether a pin (on
    the query or the service) chose it.  The executed
    :class:`~repro.reachability.compiled_search.SweepPlan` of an audience
    shape travels on the result next to this plan.  ``estimates`` holds the cost rows of the
    configured :data:`PRICED_BACKENDS` so benchmarks can grade the
    heuristic after the fact; it is empty when nothing was priced (sweep
    shapes, expression-free checks, services without ``bfs``).
    """

    kind: str
    backend: str
    backend_forced: bool
    epoch: int = 0
    stability: int = 0
    estimates: Tuple[BackendEstimate, ...] = ()
    reason: str = ""
    #: ``"single"`` (one snapshot, one evaluator) or ``"sharded"`` (the shard
    #: router ran it).  The planner only ever plans the single route; the
    #: service marks a plan ``"sharded"`` when the query's pin is
    #: ``"sharded"`` — the route is never chosen on cost.
    route: str = "single"

    def estimate_for(self, backend: str) -> Optional[BackendEstimate]:
        """Return the cost-table row of one backend (``None`` if absent)."""
        for estimate in self.estimates:
            if estimate.backend == backend:
                return estimate
        return None


@dataclass
class _CachedPlan:
    plan: ExecutionPlan
    revisit_at: float  # stability at which an index backend could flip the choice
    inputs: Tuple  # what the plan was priced from, the epoch first
    generation: int = -1  # the service plan generation ``engine`` is bound at
    engine: object = None


class QueryPlanner:
    """Chooses a backend for every query."""

    def __init__(self, *, cache_size: int = 1024) -> None:
        self._cache: "OrderedDict[Tuple, _CachedPlan]" = OrderedDict()
        self._cache_size = max(0, cache_size)
        #: Planner observability: how many plans were computed vs served
        #: from the plan cache.
        self.plans_computed = 0
        self.plans_cached = 0

    # ----------------------------------------------------------- cost model

    def _walk_cost(self, snapshot: CompiledGraph, expression: PathExpression) -> float:
        """Single-seed, hub-aware product-walk estimate (the online unit).

        Like the audience sweep's geometric model, but the frontier grows by
        the geometric mean of the label's mean and hub degree instead of the
        mean alone: on the scale-free graphs this repo benchmarks, a walk
        reaches a hub within a hop or two and saturates far faster than the
        mean degree suggests.  Each level's cost is the edges scanned
        (frontier x mean degree, i.e. the label's full edge set once the
        frontier saturates at ``|V|``).
        """
        stats = snapshot.degree_statistics()
        node_count = float(max(1, snapshot.number_of_live_nodes()))
        frontier = 1.0
        cost = 1.0
        for step in expression:
            label_id = snapshot.label_id(step.label)
            if label_id < 0:
                break  # no edges carry this label: the walk dies here
            row = stats[label_id]
            forward = step.direction.allows_forward()
            backward = step.direction.allows_backward()
            mean = row.mean_degree * (int(forward) + int(backward))
            hub = float(
                max(
                    row.max_out_degree if forward else 0,
                    row.max_in_degree if backward else 0,
                )
            )
            growth = (mean * max(mean, hub)) ** 0.5
            for _depth in range(step.max_depth()):
                cost += frontier * mean
                frontier = min(node_count, frontier * growth)
                if not frontier:
                    break
            if not frontier:
                break
        return cost

    def _tc_build_cost(self, snapshot: CompiledGraph) -> float:
        nodes = snapshot.number_of_live_nodes()
        edges = sum(row.edges for row in snapshot.degree_statistics())
        filters = snapshot.number_of_labels() + 2  # global + undirected + per label
        return _TC_BUILD_UNIT * nodes * filters * (nodes + edges)

    def _reach_estimates(
        self,
        snapshot: CompiledGraph,
        expression: PathExpression,
        priced: Sequence[str],
        fresh: Mapping[str, bool],
        stability: int,
        unreachable_rate: float,
    ) -> Tuple[BackendEstimate, ...]:
        walk = self._walk_cost(snapshot, expression)
        amortize_over = float(max(1, stability))
        forward_only = all(
            step.direction is Direction.OUTGOING for step in expression
        )
        prunable_share = _TC_PRUNABLE_SHARE if forward_only else _TC_MIXED_SHARE
        prunable = max(0.0, min(1.0, unreachable_rate)) * prunable_share
        estimates = []
        for name in priced:
            build = 0.0
            note = ""
            if name == "bfs":
                query = _ONLINE_FIXED + walk
            else:  # transitive-closure
                query = _ONLINE_FIXED + _TC_PRUNE_FIXED + (1.0 - prunable) * walk
                if prunable:
                    note = (
                        f"closure prune discounts ~{100 * prunable:.0f}% of the "
                        f"walk (observed unreachable rate {unreachable_rate:.2f})"
                    )
                if not fresh.get(name, False):
                    build = self._tc_build_cost(snapshot)
            charge = build / amortize_over if build else 0.0
            estimates.append(
                BackendEstimate(
                    backend=name,
                    query_cost=query,
                    build_cost=build,
                    build_charge=charge,
                    total=query + charge,
                    note=note,
                )
            )
        return tuple(estimates)

    @staticmethod
    def _revisit_at(estimates: Sequence[BackendEstimate], chosen: BackendEstimate) -> float:
        """Stability past which an unamortized index could beat ``chosen``.

        Solves ``query_c + build_c / S < total_chosen`` for the smallest
        integer ``S`` over every available candidate still carrying a build
        charge; ``inf`` when no candidate can ever win (the cached plan then
        lives until the epoch moves).
        """
        revisit = inf
        for candidate in estimates:
            if not candidate.available or candidate.backend == chosen.backend:
                continue
            if candidate.build_cost and candidate.query_cost < chosen.query_cost:
                flip = candidate.build_cost / (chosen.query_cost - candidate.query_cost)
                revisit = min(revisit, float(ceil(flip)))
        return revisit

    # ------------------------------------------------------------- planning

    def _cached(self, key: Tuple, inputs: Tuple, stability: int) -> Optional[ExecutionPlan]:
        entry = self._cache.get(key)
        if entry is None or entry.inputs != inputs or stability >= entry.revisit_at:
            return None
        self.plans_cached += 1
        return entry.plan

    def _remember(self, key: Tuple, plan: ExecutionPlan, revisit_at: float, inputs: Tuple):
        if not self._cache_size:
            return
        self._cache[key] = _CachedPlan(plan, revisit_at, inputs)
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def warm(self, key: Tuple, epoch: int, generation: int, stability: int):
        """The entry bound to point key ``(kind, texts, pin)`` at ``generation``, if valid."""
        entry = self._cache.get(key)
        if entry is None or entry.generation != generation or entry.plan.epoch != epoch:
            return None
        if stability >= entry.revisit_at:
            return None
        self.plans_cached += 1
        return entry

    def bind(self, key: Tuple, plan: ExecutionPlan, generation: int, engine) -> None:
        """Stamp ``plan``'s entry with the service's generation and engine."""
        entry = self._cache.get(key)
        if entry is not None and entry.plan is plan:
            entry.generation, entry.engine = generation, engine

    def plan_reach(
        self,
        snapshot: CompiledGraph,
        expression: PathExpression,
        *,
        backends: Sequence[str],
        fresh: Mapping[str, bool],
        stability: int,
        pinned: Optional[str] = None,
        unreachable_rate: float = 0.0,
        vetoed: AbstractSet[str] = frozenset(),
    ) -> ExecutionPlan:
        """Plan one point reachability query (also the access-check unit).

        ``unreachable_rate`` is the caller's observed share of queries on
        this expression that came back unreachable — the feedback signal the
        transitive-closure prune estimate scales with (``0.0``, the default,
        prices the closure as pure overhead).  ``vetoed`` backends (typically: index backends whose circuit breaker
        is open) are priced out of *auto*-selection — marked
        ``available=False`` in the estimate table — while a pin still routes
        to them and surfaces the failure at execution time.
        """
        return self._plan_costed(
            "reach", snapshot, (expression,), backends, fresh, stability, pinned,
            unreachable_rate, vetoed,
        )

    def plan_access(
        self,
        snapshot: CompiledGraph,
        expressions: Sequence[PathExpression],
        *,
        backends: Sequence[str],
        fresh: Mapping[str, bool],
        stability: int,
        pinned: Optional[str] = None,
        unreachable_rate: float = 0.0,
        vetoed: AbstractSet[str] = frozenset(),
    ) -> ExecutionPlan:
        """Plan one access check: every rule condition is a reach query."""
        return self._plan_costed(
            "access", snapshot, tuple(expressions), backends, fresh, stability,
            pinned, unreachable_rate, vetoed,
        )

    def _plan_costed(
        self,
        kind: str,
        snapshot: CompiledGraph,
        expressions: Sequence[PathExpression],
        backends: Sequence[str],
        fresh: Mapping[str, bool],
        stability: int,
        pinned: Optional[str],
        unreachable_rate: float = 0.0,
        vetoed: AbstractSet[str] = frozenset(),
    ) -> ExecutionPlan:
        epoch = snapshot.epoch
        # Bucketed so a drifting observed rate re-plans a handful of times
        # per expression, not once per query.
        rate_bucket = int(max(0.0, min(1.0, unreachable_rate)) * _RATE_BUCKETS)
        key = (kind, tuple(expression.to_text() for expression in expressions), pinned)
        inputs = (
            epoch,
            tuple(backends),
            tuple(sorted(name for name, is_fresh in fresh.items() if is_fresh)),
            rate_bucket,
            tuple(sorted(vetoed)),
        )
        cached = self._cached(key, inputs, stability)
        if cached is not None:
            return cached
        self.plans_computed += 1
        # The closure is priced against the walk; without the walk there is
        # nothing to price it against.
        priced = (
            [name for name in PRICED_BACKENDS if name in backends]
            if "bfs" in backends
            else []
        )
        # Sum the per-expression tables into one per-backend table.
        summed: Dict[str, BackendEstimate] = {}
        for expression in expressions:
            for estimate in self._reach_estimates(
                snapshot, expression, priced, fresh, stability,
                rate_bucket / _RATE_BUCKETS,
            ):
                previous = summed.get(estimate.backend)
                if previous is None:
                    summed[estimate.backend] = estimate
                else:
                    summed[estimate.backend] = BackendEstimate(
                        backend=estimate.backend,
                        query_cost=previous.query_cost + estimate.query_cost,
                        # A build is paid once, not once per expression.
                        build_cost=max(previous.build_cost, estimate.build_cost),
                        build_charge=max(previous.build_charge, estimate.build_charge),
                        total=previous.query_cost
                        + estimate.query_cost
                        + max(previous.build_charge, estimate.build_charge),
                        note=previous.note or estimate.note,
                    )
        # A vetoed backend keeps its cost row (benchmarks grade the
        # heuristic from the table) but cannot win auto-selection.
        estimates = tuple(
            replace(estimate, available=False, note="circuit breaker open")
            if estimate.backend in vetoed
            else estimate
            for estimate in summed.values()
        )
        # Pinned and unpriced plans never flip; they stay until the epoch moves.
        revisit_at = inf
        if pinned is not None:
            backend = pinned
            reason = f"backend pinned to {pinned!r} by the caller"
        elif not estimates:
            # Nothing to evaluate (e.g. a resource with no rules: any backend
            # answers from policy alone), or nothing to price.
            backend = _default_backend(backends)
            reason = (
                "no path expressions to evaluate"
                if not expressions
                else f"{backend} runs unpriced: bfs is not configured"
            )
        else:
            viable = [estimate for estimate in estimates if estimate.available]
            if not viable:
                raise UnknownBackendError("<none viable>", sorted(backends))
            chosen = min(viable, key=lambda estimate: estimate.total)
            backend = chosen.backend
            reason = (
                f"{backend} estimated cheapest at {chosen.total:.0f} units"
                + (
                    f" (incl. build amortized over {max(1, stability)} stable queries)"
                    if chosen.build_charge
                    else ""
                )
            )
            revisit_at = self._revisit_at(viable, chosen)
        plan = ExecutionPlan(
            kind=kind,
            backend=backend,
            backend_forced=pinned is not None,
            epoch=epoch,
            stability=stability,
            estimates=estimates,
            reason=reason,
        )
        self._remember(key, plan, revisit_at, inputs)
        return plan

    def plan_audience(
        self,
        snapshot: CompiledGraph,
        expression: PathExpression,
        owner_count: int,
        *,
        backends: Sequence[str],
        fresh: Mapping[str, bool],
        stability: int,
        pinned: Optional[str] = None,
    ) -> ExecutionPlan:
        """Plan one audience materialization (single- or multi-owner).

        Every backend funnels audience queries into the same multi-source
        owner-bitset sweep over a fresh snapshot, so backend choice cannot
        change the work done — auto-selection keeps the query online (no
        index to go stale, no build to amortize).  ``pinned`` still routes
        through any backend.
        """
        return self._plan_sweep(
            "audience", expression.to_text(), snapshot, backends, stability,
            pinned,
            "all backends share the multi-source audience sweep; "
            "{backend} runs it on the live snapshot with no index to build",
        )

    def _plan_sweep(
        self,
        kind: str,
        subject: object,
        snapshot: CompiledGraph,
        backends: Sequence[str],
        stability: int,
        pinned: Optional[str],
        auto_reason: str,
    ) -> ExecutionPlan:
        """The one body of the sweep-shaped plans (audience, bulk access).

        ``subject`` is what the plan cache keys the shape on (the expression
        text, or the number of distinct expressions); ``auto_reason`` is the
        un-pinned plan's reason, with ``{backend}`` filled in.
        """
        epoch = snapshot.epoch
        key = (kind, subject, pinned, tuple(backends))
        cached = self._cached(key, (epoch,), stability)
        if cached is not None:
            return cached
        self.plans_computed += 1
        if pinned is not None:
            backend = pinned
            reason = f"backend pinned to {pinned!r} by the caller"
        else:
            backend = _default_backend(backends)
            reason = auto_reason.format(backend=backend)
        plan = ExecutionPlan(
            kind=kind,
            backend=backend,
            backend_forced=pinned is not None,
            epoch=epoch,
            stability=stability,
            reason=reason,
        )
        self._remember(key, plan, inf, (epoch,))
        return plan

    def plan_bulk_access(
        self,
        snapshot: CompiledGraph,
        expression_count: int,
        *,
        backends: Sequence[str],
        fresh: Mapping[str, bool],
        stability: int,
        pinned: Optional[str] = None,
    ) -> ExecutionPlan:
        """Plan one bulk audience materialization across many resources."""
        return self._plan_sweep(
            "bulk-access", expression_count, snapshot, backends, stability,
            pinned,
            "bulk audiences run one shared sweep per distinct expression; "
            "{backend} sweeps the live snapshot directly",
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
