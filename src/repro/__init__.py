"""repro — reachability-based access control for social networks.

A faithful, self-contained reproduction of

    Imen Ben Dhia (advisor: Talel Abdessalem),
    "Access Control in Social Networks: A Reachability-Based Approach",
    EDBT/ICDT Workshops 2012.

The library has these layers (see docs/architecture.md for how they fit):

* :mod:`repro.graph` — the directed, edge-labelled social graph substrate
  (Definition 1), plus synthetic-network generators and serialization.
* :mod:`repro.policy` — the access-control model (Definitions 2–3): path
  expressions, access conditions and rules, the policy store, the
  enforcement engine, auditing, and the Carminati-style baseline.
* :mod:`repro.reachability` — ordered label-constraint reachability query
  evaluation (Section 3): online BFS/DFS, transitive closure, and the
  line-graph + 2-hop-cover + cluster-join-index pipeline.
* :mod:`repro.service` — the stable public surface: typed queries, the
  query planner (per-query backend auto-selection), plan-carrying results
  and the :class:`~repro.service.GraphService` session facade.
* :mod:`repro.serving` — the asyncio serving front end: request
  coalescing, per-tenant sessions, admission control with deadlines, and
  the JSON-lines TCP protocol server (``python -m repro.serving``).
* :mod:`repro.reliability` — deterministic fault injection over the
  snapshot I/O seam, the crash-consistency simulator, query budgets
  (:class:`~repro.reliability.QueryGuard`) and the index-maintenance
  circuit breaker (:class:`~repro.reliability.CircuitBreaker`).

Quickstart
----------
>>> from repro import GraphService, PolicyStore, SocialGraph
>>> graph = SocialGraph()
>>> for user in ("alice", "bob", "carol"):
...     graph.add_user(user)
>>> _ = graph.add_relationship("alice", "bob", "friend")
>>> _ = graph.add_relationship("bob", "carol", "friend")
>>> store = PolicyStore()
>>> _ = store.share("alice", "holiday-album", kind="photos")
>>> _ = store.allow("holiday-album", "friend+[1,2]")
>>> service = GraphService(graph, store)
>>> service.is_allowed("carol", "holiday-album")
True
>>> service.check("carol", "holiday-album").plan.backend in service.backends
True
"""

from repro.graph import (
    GraphBuilder,
    Relationship,
    SnapshotStore,
    SocialGraph,
    graph_from_edges,
)
from repro.policy import (
    AccessControlEngine,
    AccessCondition,
    AccessDecision,
    AccessRule,
    AttributeCondition,
    AuditLog,
    CarminatiEngine,
    CarminatiRule,
    DepthInterval,
    Direction,
    Effect,
    PathExpression,
    PolicyStore,
    Resource,
    Step,
)
from repro.reachability import (
    ClusterIndexEvaluator,
    EvaluationResult,
    OnlineBFSEvaluator,
    OnlineDFSEvaluator,
    ReachabilityEngine,
    ReachabilityQuery,
    TransitiveClosureEvaluator,
    available_backends,
    create_evaluator,
)
from repro.reliability import (
    CircuitBreaker,
    CrashConsistencySimulator,
    FaultInjector,
    QueryGuard,
    RecoveryReport,
)
from repro.service import (
    AccessQuery,
    AccessResult,
    AudienceQuery,
    AudienceResult,
    BackendEstimate,
    BulkAccessQuery,
    BulkAccessResult,
    BulkReachResult,
    ExecutionPlan,
    GraphService,
    PlannedResult,
    QueryPlanner,
    ReachQuery,
    ReachResult,
)
from repro.serving import (
    AdmissionController,
    AdmissionRejected,
    AsyncGraphClient,
    RequestCoalescer,
    ServingServer,
    TenantRegistry,
    TenantSession,
    UnknownTenantError,
)
from repro.sharding import (
    BoundarySummary,
    CommunityPartitioner,
    Partition,
    ShardedGraph,
    ShardRouter,
    ShardServingPool,
    ShardSweepPlan,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # graph
    "SocialGraph",
    "Relationship",
    "GraphBuilder",
    "graph_from_edges",
    "SnapshotStore",
    # policy
    "PathExpression",
    "Step",
    "Direction",
    "DepthInterval",
    "AttributeCondition",
    "AccessCondition",
    "AccessRule",
    "Resource",
    "PolicyStore",
    "AccessControlEngine",
    "AccessDecision",
    "Effect",
    "AuditLog",
    "CarminatiEngine",
    "CarminatiRule",
    # reachability
    "ReachabilityEngine",
    "ReachabilityQuery",
    "EvaluationResult",
    "OnlineBFSEvaluator",
    "OnlineDFSEvaluator",
    "TransitiveClosureEvaluator",
    "ClusterIndexEvaluator",
    "available_backends",
    "create_evaluator",
    # service (the stable query/plan/result surface)
    "GraphService",
    "QueryPlanner",
    "ExecutionPlan",
    "BackendEstimate",
    "ReachQuery",
    "AudienceQuery",
    "AccessQuery",
    "BulkAccessQuery",
    "PlannedResult",
    "ReachResult",
    "AudienceResult",
    "AccessResult",
    "BulkAccessResult",
    "BulkReachResult",
    # serving (async front-end: coalescing, tenants, admission control)
    "AdmissionController",
    "AdmissionRejected",
    "AsyncGraphClient",
    "RequestCoalescer",
    "ServingServer",
    "TenantRegistry",
    "TenantSession",
    "UnknownTenantError",
    # reliability (fault injection, crash recovery, degradation)
    "CircuitBreaker",
    "CrashConsistencySimulator",
    "FaultInjector",
    "QueryGuard",
    "RecoveryReport",
    # sharding (community partitions, boundary summaries, multiprocess)
    "BoundarySummary",
    "CommunityPartitioner",
    "Partition",
    "ShardRouter",
    "ShardServingPool",
    "ShardSweepPlan",
    "ShardedGraph",
]
