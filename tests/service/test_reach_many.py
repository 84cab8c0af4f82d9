"""GraphService.reach_many: the coalescing-friendly bulk reach entry point."""

import random

import pytest

from repro.exceptions import NodeNotFoundError
from repro.reliability.guard import QueryGuard
from repro.service.facade import GraphService
from repro.service.results import BulkReachResult
from repro.workloads import WorkloadSpec, build_workload


def _service(users=120, seed=13, **kwargs):
    workload = build_workload(WorkloadSpec(users=users, seed=seed))
    return GraphService(workload.graph, **kwargs), workload


def test_reach_many_matches_per_pair_reach():
    service, workload = _service()
    twin, _ = _service()
    users = sorted(workload.graph.users())
    rng = random.Random(3)
    pairs = [(rng.choice(users), rng.choice(users)) for _ in range(20)]
    result = service.reach_many(pairs, "friend+[1,2]")
    assert isinstance(result, BulkReachResult)
    assert len(result) == len(set(pairs))
    for source, target in pairs:
        expected = twin.reach(
            source, target, "friend+[1,2]", collect_witness=False
        ).reachable
        assert result[(source, target)] == expected, (source, target)
    assert result.partial is False
    assert result.plan.backend in service.backends


def test_reach_many_deduplicates_sources_into_one_sweep():
    service, workload = _service()
    users = sorted(workload.graph.users())
    pairs = [(users[0], users[i]) for i in range(1, 9)]  # one source, 8 targets
    result = service.reach_many(pairs, "friend+[1,2]")
    assert len(result) == 8
    # One owner swept once: the sweep plan (when a sweep ran at all) covers
    # a single source.
    if result.sweep_plan is not None:
        assert result.sweep_plan.owners == 1


def test_reach_many_validates_endpoints_up_front():
    service, workload = _service()
    users = sorted(workload.graph.users())
    with pytest.raises(NodeNotFoundError):
        service.reach_many([(users[0], "ghost")], "friend+[1]")
    with pytest.raises(NodeNotFoundError):
        service.reach_many([("ghost", users[0])], "friend+[1]")


def test_reach_many_partial_under_tiny_budget():
    service, workload = _service(
        users=200, query_guard=QueryGuard(max_steps=5, check_interval=1)
    )
    users = sorted(workload.graph.users())
    pairs = [(users[i], users[i + 50]) for i in range(30)]
    result = service.reach_many(pairs, "friend+[1,2]/colleague+[1]")
    assert result.partial is True
    assert service.statistics()["queries_degraded"] >= 1.0


def test_reach_many_accepts_empty_pair_list():
    service, _workload = _service()
    result = service.reach_many([], "friend+[1]")
    assert len(result) == 0 and result.partial is False


def test_reach_many_result_mapping_protocol():
    service, workload = _service()
    users = sorted(workload.graph.users())
    result = service.reach_many([(users[0], users[1])], "friend+[1]")
    assert set(iter(result)) == {(users[0], users[1])}
    assert isinstance(result[(users[0], users[1])], bool)
