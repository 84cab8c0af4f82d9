"""The query/plan/result service layer — the stable public surface of PR 5.

The paper's model is one question — *may the requester reach the resource
owner along a path matching this expression?* — and this package gives that
question one API shaped as the request/plan/execute split declarative
engines use to separate *what* from *how*:

* **Queries** (:mod:`repro.service.queries`) — immutable request objects:
  :class:`ReachQuery`, :class:`AudienceQuery`, :class:`AccessQuery`,
  :class:`BulkAccessQuery`.  ``backend=`` is a *plan pin*, not a
  dispatch mechanic.
* **Planning** (:mod:`repro.service.planner`) — :class:`QueryPlanner`
  performs per-query **backend auto-selection**: a cost model over the snapshot's degree statistics, the
  query shape (steps, depth widths, expansion count), the owner-set width,
  and index-build amortization over the mutation-free streak the service
  has observed.  The verdict is an :class:`ExecutionPlan`.
* **Results** (:mod:`repro.service.results`) — every answer is a
  :class:`PlannedResult` that *carries* the plan that produced it (plus the
  executed sweep plan, counters and timing).
* **Facade** (:mod:`repro.service.facade`) — :class:`GraphService` owns the
  graph, the snapshot refresh, the policy store, the backend registry and
  every cache, and is the one session object callers need.

>>> from repro import GraphService
>>> service = GraphService(graph, store)                    # doctest: +SKIP
>>> service.reach("alice", "carol", "friend+[1,2]").reachable  # doctest: +SKIP
True
"""

from repro.service.facade import GraphService
from repro.service.planner import BackendEstimate, ExecutionPlan, QueryPlanner
from repro.service.queries import (
    AccessQuery,
    AudienceQuery,
    BulkAccessQuery,
    Query,
    ReachQuery,
)
from repro.service.results import (
    AccessResult,
    AudienceResult,
    BulkAccessResult,
    BulkReachResult,
    PlannedResult,
    ReachResult,
)

__all__ = [
    "GraphService",
    "QueryPlanner",
    "ExecutionPlan",
    "BackendEstimate",
    "Query",
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
]
