"""CircuitBreaker state machine and planner-level degradation."""

import pytest

from repro.graph.social_graph import SocialGraph
from repro.reliability.breaker import CircuitBreaker
from repro.service.facade import GraphService


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------- unit


def test_constructor_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown_seconds=-1.0)


def test_trips_after_consecutive_failures():
    breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    assert not breaker.blocking
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.blocking
    assert breaker.trip_count == 1


def test_success_resets_the_failure_streak():
    breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED


def test_half_open_after_cooldown_and_single_probe_slot():
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, cooldown_seconds=30.0, clock=clock
    )
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    clock.now = 31.0
    assert breaker.state == CircuitBreaker.HALF_OPEN
    assert not breaker.blocking  # the probe slot is free
    assert breaker.allow_probe()
    assert breaker.blocking  # ...and now it is taken
    assert not breaker.allow_probe()


def test_probe_success_closes():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=1.0, clock=clock)
    breaker.record_failure()
    clock.now = 2.0
    assert breaker.allow_probe()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert not breaker.blocking


def test_probe_failure_reopens_and_restarts_cooldown():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=10.0, clock=clock)
    breaker.record_failure()
    clock.now = 11.0
    assert breaker.allow_probe()
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    assert breaker.trip_count == 2
    clock.now = 20.0  # cooldown restarted at t=11: still open
    assert breaker.state == CircuitBreaker.OPEN
    clock.now = 21.5
    assert breaker.state == CircuitBreaker.HALF_OPEN


def test_slow_success_counts_as_failure():
    breaker = CircuitBreaker(
        failure_threshold=1, slow_threshold_seconds=0.5, clock=FakeClock()
    )
    breaker.record_success(duration=0.4)
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_success(duration=0.6)
    assert breaker.state == CircuitBreaker.OPEN
    assert "slow build" in breaker.last_failure


# -------------------------------------------------------------------- service


def broken_chain_graph(n=30):
    """u0 cannot reach u{n-1}: a denial-heavy stream that favours the closure."""
    graph = SocialGraph("breaker")
    for i in range(n):
        graph.add_user(f"u{i}")
    for i in range(n - 1):
        if i != n // 2:
            graph.add_relationship(f"u{i}", f"u{i + 1}", "friend")
    return graph


def warm_until_tc_chosen(service, text, limit=300):
    """Drive a denial-heavy stream until the closure auto-wins (or fail)."""
    service._reach_outcomes[text] = [100, 1.0]
    for _ in range(limit):
        result = service.reach("u0", "u29", text)
        if result.plan.backend == "transitive-closure":
            return result
    raise AssertionError("transitive-closure never auto-selected")


def break_index_maintenance(service, backend="transitive-closure"):
    evaluator = service._engines[backend].evaluator

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic maintenance failure")

    evaluator.build = boom


def test_only_the_auto_selectable_index_gets_a_default_breaker():
    service = GraphService(broken_chain_graph())
    assert set(service.breakers) == {"transitive-closure"}
    service_without = GraphService(broken_chain_graph(), breakers={})
    assert service_without.breakers == {}


def test_tripped_breaker_reroutes_auto_queries_to_a_walk():
    """The acceptance scenario: identical answers via the walking fallback."""
    text = "friend+[1,29]"
    graph = broken_chain_graph()
    service = GraphService(graph)
    baseline = warm_until_tc_chosen(service, text)

    break_index_maintenance(service)
    graph.add_user("mutation")  # stale index: next TC routing must rebuild
    service._reach_outcomes[text] = [100, 1.0]
    breaker = service.breakers["transitive-closure"]

    rerouted = []
    for _ in range(300):
        result = service.reach("u0", "u29", text)
        assert result.reachable == baseline.reachable  # differential check
        if "rerouted" in result.plan.reason:
            rerouted.append(result)
            assert result.plan.backend == "bfs"
        if breaker.state == CircuitBreaker.OPEN:
            break
    assert rerouted, "maintenance failure never caused a reroute"
    assert breaker.state == CircuitBreaker.OPEN
    assert service.queries_rerouted == len(rerouted)

    # Open breaker: the planner now prices the backend out up front (the
    # estimate row survives, marked unavailable) — no more reroutes needed.
    result = service.reach("u0", "u29", text)
    assert result.plan.backend != "transitive-closure"
    assert "rerouted" not in result.plan.reason
    estimate = result.plan.estimate_for("transitive-closure")
    assert estimate is not None
    assert not estimate.available
    assert estimate.note == "circuit breaker open"

    stats = service.statistics()
    assert stats["breaker_transitive_closure_state"] == 1.0
    assert stats["breaker_transitive_closure_trips"] == 1.0
    assert stats["queries_rerouted"] == float(len(rerouted))


def test_half_open_probe_restores_the_backend():
    text = "friend+[1,29]"
    graph = broken_chain_graph()
    clock = FakeClock()
    breaker = CircuitBreaker(
        failure_threshold=1, cooldown_seconds=30.0, clock=clock
    )
    service = GraphService(graph, breakers={"transitive-closure": breaker})
    warm_until_tc_chosen(service, text)

    evaluator = service._engines["transitive-closure"].evaluator
    original_build = evaluator.build
    break_index_maintenance(service)
    graph.add_user("mutation")
    service._reach_outcomes[text] = [100, 1.0]
    for _ in range(300):
        service.reach("u0", "u29", text)
        if breaker.state == CircuitBreaker.OPEN:
            break
    assert breaker.state == CircuitBreaker.OPEN

    # Maintenance is fixed; the cooldown elapses; the next query that plans
    # to the closure is the probe, and its successful build closes the
    # breaker for everyone.
    evaluator.build = original_build
    clock.now = 31.0
    assert breaker.state == CircuitBreaker.HALF_OPEN
    restored = None
    for _ in range(300):
        result = service.reach("u0", "u29", text)
        if result.plan.backend == "transitive-closure":
            restored = result
            break
    assert restored is not None, "backend never restored after cooldown"
    assert breaker.state == CircuitBreaker.CLOSED
    assert "rerouted" not in restored.plan.reason


def test_pinned_queries_bypass_the_veto_and_surface_the_error():
    text = "friend+[1,29]"
    graph = broken_chain_graph()
    service = GraphService(graph)
    warm_until_tc_chosen(service, text)
    break_index_maintenance(service)
    graph.add_user("mutation")
    with pytest.raises(RuntimeError, match="synthetic maintenance failure"):
        service.reach("u0", "u29", text, backend="transitive-closure")


def test_a_pinned_cluster_index_build_failure_propagates():
    """No breaker and no reroute: the pin asked for this backend."""
    text = "friend+[1,29]"
    graph = broken_chain_graph()
    service = GraphService(graph)
    assert not service.reach("u0", "u29", text, backend="cluster-index").reachable
    break_index_maintenance(service, "cluster-index")
    graph.add_user("mutation")  # stale index: the next pinned query rebuilds
    for _ in range(3):
        with pytest.raises(RuntimeError, match="synthetic maintenance failure"):
            service.reach("u0", "u29", text, backend="cluster-index")
    assert service.queries_rerouted == 0
    assert "cluster-index" not in service.breakers
    # Auto-selected queries never touch the pin-only index.
    assert service.reach("u0", "u29", text).plan.backend in ("bfs", "transitive-closure")
