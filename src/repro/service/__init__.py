"""The query/plan/result service layer — the stable public surface of PR 5.

The paper's model is one question — *may the requester reach the resource
owner along a path matching this expression?* — and this package gives that
question one API shaped as the request/plan/execute split declarative
engines use to separate *what* from *how*:

* **Requests** — the :class:`GraphService` verbs (``reach``, ``reach_many``,
  ``audience``, ``check``, ``bulk_access``).  ``backend=`` is a *plan pin*,
  not a dispatch mechanic.
* **Planning** (:mod:`repro.service.planner`) — :class:`QueryPlanner`
  routes by pin: a query runs on its pin, an unpinned one on ``bfs``, whose
  forward-only point walks probe the snapshot's denial filter first.  No
  cost model prices one backend against another.  The verdict is an
  :class:`ExecutionPlan` built from the epoch and the pin alone; the
  planner keeps no state.
* **Results** (:mod:`repro.service.results`) — every answer is a
  :class:`PlannedResult` that *carries* the plan that produced it (plus the
  executed sweep plan, counters and timing).
* **Facade** (:mod:`repro.service.facade`) — :class:`GraphService` owns the
  graph, the snapshot refresh, the policy store, one route table (per
  backend name: its engines, the epoch it was made current at and that
  epoch's plans) and every cache, and is the one session object callers
  need.

>>> from repro import GraphService
>>> service = GraphService(graph, store)                    # doctest: +SKIP
>>> service.reach("alice", "carol", "friend+[1,2]").reachable  # doctest: +SKIP
True
"""

from repro.service.facade import GraphService
from repro.service.planner import ExecutionPlan, QueryPlanner
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
    "PlannedResult",
    "ReachResult",
    "AudienceResult",
    "AccessResult",
    "BulkAccessResult",
    "BulkReachResult",
]
