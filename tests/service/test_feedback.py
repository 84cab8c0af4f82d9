"""Denial work fed from point answers into the walk's denial filter.

Only point answers feed the snapshot's ``"denial-work"`` entry: ``reach``
one unreachable forward-only walk per query, ``check`` one per denied
forward-only condition.  Once the work reaches what the filter's build
reads, the filter is built and later forward-only denials are answered
without a walk.  The sweep shapes (``audience``, ``reach_many``,
``bulk_access``) never probe the filter and feed nothing.
"""

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.social_graph import SocialGraph
from repro.policy.path_expression import PathExpression
from repro.policy.store import PolicyStore
from repro.service.facade import GraphService
from repro.testing.oracle import reference_reachable

FILTER, WORK = "denial-filter", "denial-work"


def chain_graph(n=20):
    """``u0 -> u1 -> ... -> u{n-1}``: nobody reaches a lower-numbered user."""
    graph = SocialGraph("feedback")
    for i in range(n):
        graph.add_user(f"u{i}")
    for i in range(n - 1):
        graph.add_relationship(f"u{i}", f"u{i + 1}", "friend")
    return graph


def shared_album(store, owner="u5", expression="friend+[1,3]"):
    store.share(owner, "album", kind="photos")
    store.allow("album", expression)
    return expression


def denial_work(graph):
    return compile_graph(graph).derived.get(WORK, 0)


def test_reach_feeds_the_work_of_unreachable_walks_only():
    graph = chain_graph()
    service = GraphService(graph)
    text = "friend+[1,3]"
    granted = service.reach("u0", "u2", text)
    assert granted.reachable and denial_work(graph) == 0
    denied = service.reach("u5", "u2", text)
    assert not denied.reachable
    assert denial_work(graph) == denied.counters["edges_expanded"] == 3
    mixed = service.reach("u5", "u9", "friend-[1,3]")
    assert not mixed.reachable
    assert denial_work(graph) == 3  # mixed-direction walks never pay


def test_access_checks_feed_the_work_of_denied_conditions():
    graph = chain_graph()
    store = PolicyStore()
    shared_album(store)
    service = GraphService(graph, store)
    assert service.check("u7", "album").granted  # within 3 friend hops of u5
    assert denial_work(graph) == 0
    assert not service.check("u1", "album").granted
    assert denial_work(graph) == 3  # the condition's walk from u5 scanned 3 rows


@pytest.mark.parametrize(
    "sweep",
    [
        lambda service, text: service.audience(["u5", "u9"], text),
        lambda service, text: service.reach_many([("u5", "u2"), ("u5", "u7")], text),
        lambda service, text: service.bulk_access(["album"]),
    ],
    ids=["audience", "reach_many", "bulk_access"],
)
def test_sweep_shapes_feed_nothing(sweep):
    store = PolicyStore()
    text = shared_album(store)
    graph = chain_graph()
    service = GraphService(graph, store)
    result = sweep(service, text)
    assert not result.partial
    assert WORK not in compile_graph(graph).derived
    assert FILTER not in compile_graph(graph).derived


def test_feedback_eventually_builds_the_filter():
    graph = chain_graph()
    store = PolicyStore()
    shared_album(store, owner="u19", expression="friend+[1,19]")
    service = GraphService(graph, store)
    snapshot = compile_graph(graph)
    requesters = [f"u{i}" for i in range(19)]
    for requester in requesters:  # every one denied: u19 reaches nobody
        assert not service.check(requester, "album").granted
    assert FILTER not in snapshot.derived  # u19 has no row: the walks scan nothing
    for index in range(18, 0, -1):
        result = service.reach(f"u{index}", "u0", "friend+[1,19]")
        assert not result.reachable
        if FILTER in snapshot.derived:
            break
    assert snapshot.derived[WORK] >= 20 + 19  # slots plus forward entries
    pruned = service.reach("u19", "u3", "friend+[1,2]")
    assert not pruned.reachable
    assert dict(pruned.counters) == {"filter_pruned": 1}
    assert pruned.plan.backend == "bfs"


def test_auto_answers_like_the_oracle_once_the_filter_is_built():
    graph = chain_graph(12)
    service = GraphService(graph)
    users = [f"u{i}" for i in range(12)]
    for source in reversed(users):
        service.reach(source, "u0", "friend+[1,11]")
    assert FILTER in compile_graph(graph).derived
    pruned = 0
    for text in ("friend+[1,4]", "friend+[2,11]", "friend*[1,3]"):
        expression = PathExpression.parse(text)
        for source in users:
            for target in users:
                auto = service.reach(source, target, text, collect_witness=False)
                expected = reference_reachable(graph, source, target, expression)
                assert auto.reachable == expected, (text, source, target)
                pruned += "filter_pruned" in auto.counters
    assert pruned == 2 * 66  # both forward-only texts, every pair below the source
