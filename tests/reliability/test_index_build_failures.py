"""A failed index build raises for the pin that asked for it.

Only a pin routes a query to an index backend: auto runs every query on
``bfs``.  A pinned query whose index is stale attempts the build every
time, surfaces the evaluator's own error and counts the failure in
``index_build_failures``.
"""

import pytest

from repro.graph.social_graph import SocialGraph
from repro.service.facade import GraphService

TEXT = "friend+[1,29]"


def broken_chain_graph(n=30):
    """u0 cannot reach u{n-1}: every query on it is a denial."""
    graph = SocialGraph("build-failures")
    for i in range(n):
        graph.add_user(f"u{i}")
    for i in range(n - 1):
        if i != n // 2:
            graph.add_relationship(f"u{i}", f"u{i + 1}", "friend")
    return graph


def break_index_maintenance(service, backend="transitive-closure"):
    """Make every later build of ``backend`` raise; return the attempt log."""
    evaluator = service._routes[backend].engine.evaluator
    attempts = []

    def boom(*args, **kwargs):
        attempts.append(service.graph.epoch)
        raise RuntimeError("synthetic maintenance failure")

    evaluator.saved_build = evaluator.build
    evaluator.build = boom
    return attempts


def fix_index_maintenance(service, backend="transitive-closure"):
    evaluator = service._routes[backend].engine.evaluator
    evaluator.build = evaluator.saved_build


@pytest.mark.parametrize("backend", ["transitive-closure", "cluster-index"])
def test_a_pinned_build_failure_raises_on_every_query(backend):
    """No fallback for a pin: it asked for this backend."""
    graph = broken_chain_graph()
    service = GraphService(graph)
    assert not service.reach("u0", "u29", TEXT, backend=backend).reachable
    attempts = break_index_maintenance(service, backend)
    graph.add_user("mutation")  # stale index: the next pinned query rebuilds
    for _ in range(3):
        with pytest.raises(RuntimeError, match="synthetic maintenance failure"):
            service.reach("u0", "u29", TEXT, backend=backend)
    assert len(attempts) == 3
    assert service.statistics()["index_build_failures"] == 3.0
    # Auto-selected queries never touch the index.
    assert service.reach("u0", "u29", TEXT).plan.backend == "bfs"


def test_a_fixed_build_answers_the_next_pinned_query():
    graph = broken_chain_graph()
    service = GraphService(graph)
    assert not service.reach("u0", "u29", TEXT, backend="transitive-closure").reachable
    attempts = break_index_maintenance(service)
    graph.add_user("mutation")
    with pytest.raises(RuntimeError, match="synthetic maintenance failure"):
        service.reach("u0", "u29", TEXT, backend="transitive-closure")
    # No stamp outlives the failure: the next pinned query at the same epoch
    # builds again, and succeeds.
    fix_index_maintenance(service)
    pinned = service.reach("u0", "u29", TEXT, backend="transitive-closure")
    assert not pinned.reachable
    assert pinned.plan.backend == "transitive-closure"
    assert service.reach("u0", "u15", TEXT, backend="transitive-closure").reachable
    assert attempts == [graph.epoch]
    assert service.statistics()["index_build_failures"] == 1.0


def test_a_denial_stream_never_attempts_a_broken_build():
    graph = broken_chain_graph()
    service = GraphService(graph)
    assert not service.reach("u0", "u29", TEXT, backend="transitive-closure").reachable
    attempts = break_index_maintenance(service)
    graph.add_user("mutation")  # the closure is stale from here on
    for source in range(15):
        for target in range(16, 30):
            result = service.reach(f"u{source}", f"u{target}", TEXT)
            assert not result.reachable  # u15 -> u16 is cut
            assert result.plan.backend == "bfs"
    assert attempts == []
    assert service.statistics()["index_build_failures"] == 0.0
