"""A failed index build is a fact about one graph epoch.

A closure build reads only the compiled snapshot of one epoch, so a build
that raised will raise again until the graph changes.  The service stamps
the failure with the epoch: the auto query that hit it reroutes to ``bfs``,
later auto plans at that epoch price the closure out, and the first plan to
choose it after the next mutation rebuilds it.  A pinned query always
attempts the build and surfaces the evaluator's own error.
"""

import pytest

from repro.graph.social_graph import SocialGraph
from repro.service.facade import GraphService

TEXT = "friend+[1,29]"


def broken_chain_graph(n=30):
    """u0 cannot reach u{n-1}: a denial-heavy stream that favours the closure."""
    graph = SocialGraph("build-failures")
    for i in range(n):
        graph.add_user(f"u{i}")
    for i in range(n - 1):
        if i != n // 2:
            graph.add_relationship(f"u{i}", f"u{i + 1}", "friend")
    return graph


def drive_until_tc_chosen(service, limit=300):
    """Drive a denial-heavy stream until the closure auto-wins (or fail)."""
    service._reach_outcomes[TEXT] = [100, 1.0]
    for _ in range(limit):
        result = service.reach("u0", "u29", TEXT)
        if result.plan.backend == "transitive-closure":
            return result
    raise AssertionError("transitive-closure never auto-selected")


def break_index_maintenance(service, backend="transitive-closure"):
    """Make every later build of ``backend`` raise; return the attempt log."""
    evaluator = service._engines[backend].evaluator
    attempts = []

    def boom(*args, **kwargs):
        attempts.append(service.graph.epoch)
        raise RuntimeError("synthetic maintenance failure")

    evaluator.saved_build = evaluator.build
    evaluator.build = boom
    return attempts


def fix_index_maintenance(service, backend="transitive-closure"):
    evaluator = service._engines[backend].evaluator
    evaluator.build = evaluator.saved_build


def stream(service, count=300):
    """``count`` auto reaches on the denial stream; returns the rerouted ones."""
    rerouted = []
    for _ in range(count):
        result = service.reach("u0", "u29", TEXT)
        assert not result.reachable  # differential check: u29 is cut off
        if "rerouted" in result.plan.reason:
            assert result.plan.backend == "bfs"
            rerouted.append(result)
    return rerouted


def test_a_failed_build_is_attempted_once_per_epoch():
    graph = broken_chain_graph()
    service = GraphService(graph)
    assert service.statistics()["index_build_failures"] == 0.0
    drive_until_tc_chosen(service)
    attempts = break_index_maintenance(service)

    graph.add_user("mutation")  # stale index: the next closure plan rebuilds
    service._reach_outcomes[TEXT] = [100, 1.0]
    rerouted = stream(service)
    assert attempts == [graph.epoch]
    assert len(rerouted) == 1
    assert service.queries_rerouted == 1

    graph.add_user("second-mutation")  # a new epoch earns one more attempt
    rerouted = stream(service)
    assert len(attempts) == 2 and attempts[-1] == graph.epoch
    assert len(rerouted) == 1

    stats = service.statistics()
    assert stats["index_build_failures"] == 2.0
    assert stats["queries_rerouted"] == 2.0
    assert not any(key.startswith("breaker_") for key in stats)


def test_the_priced_out_row_survives_unavailable():
    graph = broken_chain_graph()
    service = GraphService(graph)
    drive_until_tc_chosen(service)
    break_index_maintenance(service)
    graph.add_user("mutation")
    service._reach_outcomes[TEXT] = [100, 1.0]
    assert len(stream(service)) == 1

    result = service.reach("u0", "u29", TEXT)
    assert result.plan.backend == "bfs"
    assert "rerouted" not in result.plan.reason
    estimate = result.plan.estimate_for("transitive-closure")
    assert estimate is not None
    assert not estimate.available
    assert estimate.note == "index build failed at this epoch"


def test_a_fixed_build_returns_after_the_next_mutation():
    graph = broken_chain_graph()
    service = GraphService(graph)
    drive_until_tc_chosen(service)
    attempts = break_index_maintenance(service)
    graph.add_user("mutation")
    service._reach_outcomes[TEXT] = [100, 1.0]
    assert len(stream(service)) == 1

    # Fixing the build changes nothing at this epoch: the stamp still holds.
    fix_index_maintenance(service)
    assert service.reach("u0", "u29", TEXT).plan.backend == "bfs"
    assert service._vetoed() == {"transitive-closure"}

    # One mutation later the next closure plan rebuilds, and succeeds.
    graph.add_user("after-the-fix")
    restored = drive_until_tc_chosen(service)
    assert "rerouted" not in restored.plan.reason
    assert service._vetoed() == frozenset()
    assert len(attempts) == 1
    assert service.queries_rerouted == 1


def test_a_pinned_build_that_succeeds_lifts_the_stamp():
    graph = broken_chain_graph()
    service = GraphService(graph)
    drive_until_tc_chosen(service)
    break_index_maintenance(service)
    graph.add_user("mutation")
    service._reach_outcomes[TEXT] = [100, 1.0]
    assert len(stream(service)) == 1

    fix_index_maintenance(service)
    pinned = service.reach("u0", "u29", TEXT, backend="transitive-closure")
    assert not pinned.reachable
    assert service._vetoed() == frozenset()
    estimate = service.reach("u0", "u29", TEXT).plan.estimate_for("transitive-closure")
    assert estimate.available


@pytest.mark.parametrize("backend", ["transitive-closure", "cluster-index"])
def test_a_pinned_build_failure_raises_on_every_query(backend):
    """No reroute and no veto for a pin: it asked for this backend."""
    graph = broken_chain_graph()
    service = GraphService(graph)
    assert not service.reach("u0", "u29", TEXT, backend=backend).reachable
    attempts = break_index_maintenance(service, backend)
    graph.add_user("mutation")  # stale index: the next pinned query rebuilds
    for _ in range(3):
        with pytest.raises(RuntimeError, match="synthetic maintenance failure"):
            service.reach("u0", "u29", TEXT, backend=backend)
    assert len(attempts) == 3
    assert service.queries_rerouted == 0
    assert service.statistics()["index_build_failures"] == 3.0
    # Auto-selected queries never touch the pin-only index.
    assert service.reach("u0", "u29", TEXT).plan.backend in ("bfs", "transitive-closure")
