"""Plan-carrying results — every answer explains how it was produced.

A :class:`PlannedResult` owns the :class:`~repro.service.planner.
ExecutionPlan` that produced it (and, for audience shapes, the executed
:class:`~repro.reachability.compiled_search.SweepPlan`), so a result's
provenance cannot be overwritten by the next call.

Each verb has one answer class, built once and passed on unchanged:
:class:`ReachResult`, :class:`AudienceResult` and :class:`AccessResult` are
what a library caller gets from :class:`~repro.service.GraphService` and
what the serving layer hands its callers and encodes into wire frames.  A
member of a coalesced batch gets its verb's class too, built from the
batch's bulk answer, with ``batch_size`` saying how many requests shared
that execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Hashable, Mapping, Optional, Set, Tuple

from repro.graph.paths import Path
from repro.policy.decisions import AccessDecision
from repro.reachability.compiled_search import SweepPlan
from repro.reachability.result import NO_COUNTERS
from repro.service.planner import ExecutionPlan

__all__ = [
    "PlannedResult",
    "ReachResult",
    "AudienceResult",
    "AccessResult",
    "BulkAccessResult",
    "BulkReachResult",
]


@dataclass(frozen=True)
class PlannedResult:
    """Base of every service answer: the plan that ran plus wall-clock time.

    ``batch_size`` is provenance too: the number of requests the serving
    coalescer answered with the execution this result comes from (1 for a
    direct call or a request served alone).  ``elapsed_seconds`` is that
    execution's time.
    """

    plan: ExecutionPlan
    elapsed_seconds: float
    batch_size: int = 1


@dataclass(frozen=True)
class ReachResult(PlannedResult):
    """Answer to :meth:`~repro.service.GraphService.reach`."""

    reachable: bool = False
    witness: Optional[Path] = None
    counters: Mapping[str, int] = field(default_factory=lambda: NO_COUNTERS)

    def __bool__(self) -> bool:
        return self.reachable


@dataclass(frozen=True)
class AudienceResult(PlannedResult):
    """Answer to :meth:`~repro.service.GraphService.audience`.

    ``audiences`` maps every requested owner to their audience set.
    ``sweep_plan`` is the executed sweep's plan — ``None`` when nothing was
    swept because every owner was served from the epoch-stamped memo (the
    plan describes work done, and a fully warm call does none).
    ``partial`` is ``True`` when a :class:`~repro.reliability.guard.
    QueryGuard` budget tripped mid-sweep: completed audiences are exact,
    the audience being swept at the trip is truncated, and owners not yet
    reached are empty — never trust a partial result as a full answer.
    """

    audiences: Mapping[Hashable, AbstractSet[Hashable]] = field(default_factory=dict)
    sweep_plan: Optional[SweepPlan] = None
    partial: bool = False

    def __getitem__(self, owner: Hashable) -> AbstractSet[Hashable]:
        return self.audiences[owner]


@dataclass(frozen=True)
class AccessResult(PlannedResult):
    """Answer to :meth:`~repro.service.GraphService.check`."""

    decision: AccessDecision = None  # type: ignore[assignment]

    @property
    def granted(self) -> bool:
        return self.decision.granted

    def __bool__(self) -> bool:
        return self.granted

    def explain(self) -> str:
        """The decision's human-readable explanation."""
        return self.decision.explain()


@dataclass(frozen=True)
class BulkReachResult(PlannedResult):
    """Answer to :meth:`~repro.service.GraphService.reach_many`.

    ``reachable`` maps each requested ``(source, target)`` pair to its
    verdict; all pairs sharing one expression are answered from a single
    multi-source owner-bitset sweep over the distinct sources (the serving
    coalescer's bulk entry point).  No witnesses are collected — a pair's
    verdict is audience membership, not a path.  ``partial`` is ``True``
    when a query-guard budget tripped mid-sweep: the mapping then
    *under-approximates* (``False`` entries are inconclusive) and callers
    must treat the whole result as unusable for point answers — the serving
    coalescer falls back to per-request execution in that case.
    """

    reachable: Mapping[Tuple[Hashable, Hashable], bool] = field(default_factory=dict)
    sweep_plan: Optional[SweepPlan] = None
    partial: bool = False

    def __getitem__(self, pair: Tuple[Hashable, Hashable]) -> bool:
        return self.reachable[pair]

    def __iter__(self):
        return iter(self.reachable)

    def __len__(self) -> int:
        return len(self.reachable)


@dataclass(frozen=True)
class BulkAccessResult(PlannedResult):
    """Answer to :meth:`~repro.service.GraphService.bulk_access`.

    ``audiences`` maps resource id to the full authorized audience;
    ``sweep_plans`` maps expression text to the executed sweep plan of that
    expression's shared multi-source sweep (expressions served entirely from
    the memo swept nothing and have no entry).  ``partial`` is ``True`` when
    a query-guard budget tripped mid-materialization — audiences computed
    after the trip under-approximate and must not be treated as complete.
    """

    audiences: Mapping[Hashable, Set[Hashable]] = field(default_factory=dict)
    sweep_plans: Mapping[str, SweepPlan] = field(default_factory=dict)
    partial: bool = False

    def __getitem__(self, resource_id: Hashable) -> Set[Hashable]:
        return self.audiences[resource_id]
