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

A plan depends on nothing but its shape, the epoch and the pin, so the
planner keeps no state: the service's route table holds each route's plans
for the epoch it was last made current at (docs/architecture.md, "The warm
route").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    #: router ran it, which only the ``"sharded"`` pin asks for).
    route: str = "single"


def _plan(kind: str, epoch: int, pinned: Optional[str], auto_reason: str) -> ExecutionPlan:
    """The one body of every plan shape; ``auto_reason`` is the un-pinned reason."""
    if pinned is not None:
        backend = pinned
        reason = f"backend pinned to {pinned!r} by the caller"
    else:
        backend = "bfs"
        reason = auto_reason
    return ExecutionPlan(
        kind=kind,
        backend=backend,
        backend_forced=pinned is not None,
        epoch=epoch,
        reason=reason,
        route="sharded" if pinned == "sharded" else "single",
    )


class QueryPlanner:
    """Chooses a backend for every query: the pin, else ``bfs``."""

    def plan_reach(self, epoch: int, *, pinned: Optional[str] = None) -> ExecutionPlan:
        """Plan one point reachability query (also the access-check unit)."""
        return _plan(
            "reach", epoch, pinned,
            "auto runs the online walk; forward-only walks probe the denial filter",
        )

    def plan_access(self, epoch: int, *, pinned: Optional[str] = None) -> ExecutionPlan:
        """Plan one access check: every rule condition is a reach query."""
        return _plan(
            "access", epoch, pinned,
            "auto runs the online walk; forward-only walks probe the denial filter",
        )

    def plan_audience(self, epoch: int, *, pinned: Optional[str] = None) -> ExecutionPlan:
        """Plan one audience materialization (single- or multi-owner).

        Every backend funnels audience queries into the same multi-source
        owner-bitset sweep, so auto keeps them on ``bfs`` (no index to go
        stale, no build to pay).  ``pinned`` still routes through any
        backend.
        """
        return _plan(
            "audience", epoch, pinned,
            "all backends share the multi-source audience sweep; "
            "bfs runs it on the live snapshot with no index to build",
        )

    def plan_bulk_access(self, epoch: int, *, pinned: Optional[str] = None) -> ExecutionPlan:
        """Plan one bulk audience materialization across many resources."""
        return _plan(
            "bulk-access", epoch, pinned,
            "bulk audiences run one shared sweep per distinct expression; "
            "bfs sweeps the live snapshot directly",
        )
