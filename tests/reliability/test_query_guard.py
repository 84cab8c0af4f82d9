"""QueryGuard unit semantics and its service-level degradation behaviour."""

import pytest

from repro.exceptions import QueryBudgetExceeded
from repro.graph.social_graph import SocialGraph
from repro.reliability.guard import QueryGuard, active_guard
from repro.service.facade import GraphService


def ring_graph(n=40):
    graph = SocialGraph("guarded")
    for i in range(n):
        graph.add_user(f"u{i}")
    for i in range(n):
        graph.add_relationship(f"u{i}", f"u{(i + 1) % n}", "friend")
    return graph


# ----------------------------------------------------------------------- unit


def test_constructor_validation():
    with pytest.raises(ValueError):
        QueryGuard(max_steps=0)
    with pytest.raises(ValueError):
        QueryGuard(max_seconds=-1.0)
    with pytest.raises(ValueError):
        QueryGuard().scope("explode").__enter__()


def test_no_guard_active_by_default():
    assert active_guard() is None


def test_scope_installs_and_restores():
    guard = QueryGuard(max_steps=10)
    with guard.scope():
        assert active_guard() is guard
    assert active_guard() is None


def test_scopes_nest():
    outer, inner = QueryGuard(max_steps=10), QueryGuard(max_steps=5)
    with outer.scope():
        with inner.scope():
            assert active_guard() is inner
        assert active_guard() is outer


def test_step_budget_raises_in_raise_mode():
    guard = QueryGuard(max_steps=3)
    with guard.scope(QueryGuard.RAISE):
        assert guard.spend(3)
        with pytest.raises(QueryBudgetExceeded) as info:
            guard.spend(1)
    assert info.value.limit == "steps"
    assert info.value.budget == 3
    assert guard.tripped
    assert guard.trip_reason == "steps"


def test_step_budget_returns_false_in_partial_mode():
    guard = QueryGuard(max_steps=3)
    with guard.scope(QueryGuard.PARTIAL):
        assert guard.spend(2)
        assert not guard.spend(2)
        # Fast-fail from here on: no further accounting, just "stop".
        assert not guard.spend(1)
    assert guard.tripped


def test_deadline_checked_every_interval():
    clock = [0.0]
    guard = QueryGuard(
        max_seconds=1.0, check_interval=10, clock=lambda: clock[0]
    )
    with guard.scope(QueryGuard.PARTIAL):
        clock[0] = 5.0  # already past the deadline...
        assert guard.spend(9)  # ...but the interval has not elapsed
        assert not guard.spend(1)  # 10th step: clock consulted, tripped
    assert guard.trip_reason == "deadline"


def test_scope_resets_per_query_state_but_not_trip_count():
    guard = QueryGuard(max_steps=1)
    for _ in range(3):
        with guard.scope(QueryGuard.PARTIAL):
            guard.spend(5)
        assert guard.tripped
    with guard.scope(QueryGuard.PARTIAL):
        assert not guard.tripped
        assert guard.steps_spent == 0
    assert guard.trip_count == 3


# -------------------------------------------------------------------- service


def test_reach_raises_on_blown_budget():
    service = GraphService(ring_graph(), query_guard=QueryGuard(max_steps=3))
    with pytest.raises(QueryBudgetExceeded):
        service.reach("u0", "u30", "friend+[1,39]")
    assert service.statistics()["guard_trips"] == 1.0


def test_access_raises_on_blown_budget():
    from repro.policy.store import PolicyStore

    graph = ring_graph()
    store = PolicyStore()
    store.share("u0", "album", kind="photos")
    store.allow("album", "friend+[1,39]")
    service = GraphService(
        graph, store, query_guard=QueryGuard(max_steps=3)
    )
    with pytest.raises(QueryBudgetExceeded):
        service.check("u30", "album")


def test_generous_budget_never_trips():
    service = GraphService(
        ring_graph(), query_guard=QueryGuard(max_steps=1_000_000)
    )
    result = service.reach("u0", "u30", "friend+[1,39]")
    assert result.reachable
    audience = service.audience([f"u{i}" for i in range(4)], "friend+[1,39]")
    assert not audience.partial
    assert service.statistics()["guard_trips"] == 0.0


def test_audience_degrades_to_partial():
    graph = ring_graph()
    service = GraphService(graph, query_guard=QueryGuard(max_steps=5))
    owners = [f"u{i}" for i in range(4)]
    result = service.audience(owners, "friend+[1,39]")
    assert result.partial
    assert service.queries_degraded == 1
    assert set(result.audiences) == set(owners)  # every owner present...
    full = GraphService(graph).audience(owners, "friend+[1,39]")
    assert not full.partial
    for owner in owners:  # ...each truncated audience under-approximates
        assert result.audiences[owner] <= full.audiences[owner]


def test_bulk_access_degrades_to_partial():
    from repro.policy.store import PolicyStore

    graph = ring_graph()
    store = PolicyStore()
    store.share("u0", "album", kind="photos")
    store.allow("album", "friend+[1,39]")
    service = GraphService(graph, store, query_guard=QueryGuard(max_steps=5))
    result = service.bulk_access(["album"])
    assert result.partial
    assert service.queries_degraded == 1


def test_partial_results_never_poison_the_memo():
    """Raising the budget after a partial answer must yield the full one."""
    graph = ring_graph()
    guard = QueryGuard(max_steps=5)
    service = GraphService(graph, query_guard=guard)
    partial = service.audience(["u0"], "friend+[1,39]")
    assert partial.partial
    guard.max_steps = None  # operator raises the budget at runtime
    full = service.audience(["u0"], "friend+[1,39]")
    assert not full.partial
    assert len(full.audiences["u0"]) == 39
    assert partial.audiences["u0"] < full.audiences["u0"]
