"""The workload driver: replay a generated workload through a GraphService.

Before PR 5 every benchmark hand-rolled its own replay loop against the
engines.  The driver is the one canonical loop, phrased entirely in the
service API so that plans, backend choices and timings come back on the
results instead of being scraped from side-channels:

* the **request stream** runs through :meth:`GraphService.check`;
* the **bulk_audience scenario** runs through :meth:`GraphService.
  bulk_access` (one grouped call per batch);
* the **churn scenario** interleaves its mutation bursts between request
  slices via :func:`~repro.workloads.generator.apply_churn_op`, exercising
  snapshot delta-maintenance and the planner's stability reset.

The returned :class:`WorkloadReport` aggregates decisions, grant rate,
per-phase wall-clock seconds and how many queries each backend executed
(the planner's routing, measured rather than asserted).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.service.facade import GraphService
from repro.workloads.generator import Workload, apply_churn_op

__all__ = [
    "WorkloadReport",
    "install_policies",
    "open_loop_arrivals",
    "run_workload",
]


def open_loop_arrivals(count: int, rate: float, *, seed: int = 7) -> List[float]:
    """Seeded Poisson-process arrival offsets for an open-loop load driver.

    Returns ``count`` monotonically increasing offsets (seconds from the
    start of the run) whose inter-arrival gaps are exponentially
    distributed with mean ``1 / rate`` — a Poisson arrival process.  An
    **open-loop** driver issues request *i* at its scheduled offset whether
    or not earlier requests have completed, so a slow server accumulates
    queue depth instead of silently throttling the workload (the failure
    mode closed-loop replay hides, and the regime admission control
    exists for).  Deterministic for a given ``(count, rate, seed)``.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    rng = random.Random(seed)
    offsets: List[float] = []
    clock = 0.0
    for _ in range(count):
        clock += rng.expovariate(rate)
        offsets.append(clock)
    return offsets


@dataclass
class WorkloadReport:
    """What one workload replay did and how long each phase took."""

    requests: int = 0
    grants: int = 0
    audience_batches: int = 0
    audiences_materialized: int = 0
    churn_ops: int = 0
    #: Wall-clock seconds per phase: "requests", "audiences", "churn".
    seconds: Dict[str, float] = field(default_factory=dict)
    #: How many queries each backend executed (from the results' plans).
    backend_queries: Dict[str, int] = field(default_factory=dict)

    @property
    def grant_rate(self) -> float:
        """Granted share of the request stream (0.0 on an empty stream)."""
        return self.grants / self.requests if self.requests else 0.0

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def count_backend(self, backend: str) -> None:
        self.backend_queries[backend] = self.backend_queries.get(backend, 0) + 1

    def describe(self) -> str:
        """One-line summary for benchmark logs."""
        routing = ", ".join(
            f"{name}:{count}" for name, count in sorted(self.backend_queries.items())
        )
        return (
            f"{self.requests} requests ({self.grant_rate:.2f} granted), "
            f"{self.audience_batches} audience batches, {self.churn_ops} churn ops "
            f"in {self.total_seconds:.3f}s [{routing}]"
        )


def install_policies(service: GraphService, workload: Workload) -> None:
    """Register the workload's resources and rules in the service's store.

    Idempotent: resources the store already knows are left untouched, so a
    driver re-run against the same service does not duplicate rules.
    """
    store = service.store
    for resource_id, owner, expressions in workload.resources:
        if store.has_resource(resource_id):
            continue
        store.share(owner, resource_id)
        store.allow(resource_id, list(expressions))


def run_workload(
    service: GraphService,
    workload: Workload,
    *,
    explain: bool = False,
    churn: Optional[bool] = None,
) -> WorkloadReport:
    """Replay one workload through the service; returns the aggregate report.

    ``churn`` replays the workload's mutation bursts interleaved evenly
    between request slices (default: on exactly when the workload carries
    bursts).  ``explain`` collects
    full decisions on the request stream (off by default — the fast path the
    throughput benchmarks exercise).
    """
    install_policies(service, workload)
    report = WorkloadReport()
    bursts: List = list(workload.churn) if (churn is None or churn) else []
    requests = list(workload.requests)

    # Interleave: split the request stream into len(bursts) + 1 slices and
    # replay one burst between consecutive slices.
    slice_count = len(bursts) + 1
    slice_size = max(1, (len(requests) + slice_count - 1) // slice_count) if requests else 0

    started = time.perf_counter()
    churn_seconds = 0.0
    position = 0
    for phase in range(slice_count):
        for requester, resource_id in requests[position:position + slice_size]:
            result = service.check(requester, resource_id, explain=explain)
            report.requests += 1
            report.grants += int(result.granted)
            report.count_backend(result.plan.backend)
        position += slice_size
        if phase < len(bursts):
            churn_started = time.perf_counter()
            for op in bursts[phase]:
                apply_churn_op(service.graph, op)
                report.churn_ops += 1
            churn_seconds += time.perf_counter() - churn_started
    report.seconds["requests"] = time.perf_counter() - started - churn_seconds
    report.seconds["churn"] = churn_seconds

    started = time.perf_counter()
    for batch in workload.audience_requests:
        result = service.bulk_access(batch)
        report.audience_batches += 1
        report.audiences_materialized += len(result.audiences)
        report.count_backend(result.plan.backend)
    report.seconds["audiences"] = time.perf_counter() - started
    return report
