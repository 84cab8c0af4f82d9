"""Driving helpers for the serving and end-to-end benchmarks.

* :func:`open_loop_arrivals` — a seeded Poisson arrival schedule for an
  open-loop load driver;
* :func:`install_policies` — registers a generated workload's resources
  and rules in a :class:`~repro.service.facade.GraphService`'s store.
"""

from __future__ import annotations

import random
from typing import List

from repro.service.facade import GraphService
from repro.workloads.generator import Workload

__all__ = ["install_policies", "open_loop_arrivals"]


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
