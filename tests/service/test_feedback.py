"""Cardinality feedback from point answers into the planner's estimator.

The unreachable-rate EWMA prices point plans, so only point answers feed
it: ``reach`` one outcome per query, ``check`` one outcome per evaluated
condition.  The sweep shapes (``audience``, ``reach_many``,
``bulk_access``) never consult the rate and feed nothing.
"""

import pytest

from repro.graph.social_graph import SocialGraph
from repro.policy.store import PolicyStore
from repro.service.facade import GraphService


def ring_graph(n=20):
    graph = SocialGraph("feedback")
    for i in range(n):
        graph.add_user(f"u{i}")
    for i in range(n):
        graph.add_relationship(f"u{i}", f"u{(i + 1) % n}", "friend")
    return graph


def shared_album(store, owner="u0", expression="friend+[1,3]"):
    store.share(owner, "album", kind="photos")
    store.allow("album", expression)
    return expression


def test_access_checks_feed_condition_outcomes():
    graph = ring_graph()
    store = PolicyStore()
    text = shared_album(store)
    service = GraphService(graph, store)
    assert text not in service._reach_outcomes
    granted = service.check("u2", "album")  # within 3 friend hops
    assert granted.granted
    samples, rate = service._reach_outcomes[text]
    assert samples == 1
    assert rate < 0.5  # a satisfied condition is a reachable outcome
    denied = service.check("u10", "album")
    assert not denied.granted
    assert service._reach_outcomes[text][0] == 2
    assert service._reach_outcomes[text][1] > rate  # denial raised the rate


def test_reach_feeds_one_outcome_per_query():
    service = GraphService(ring_graph())
    text = "friend+[1,3]"
    assert service.reach("u0", "u2", text).reachable
    assert service._reach_outcomes[text] == [1, 0.0]
    assert not service.reach("u0", "u10", text).reachable
    samples, rate = service._reach_outcomes[text]
    assert samples == 2
    assert rate == service._RATE_ALPHA  # one denial, weighted by alpha


@pytest.mark.parametrize(
    "sweep",
    [
        lambda service, text: service.audience(["u0", "u5"], text),
        lambda service, text: service.reach_many([("u0", "u2"), ("u0", "u10")], text),
        lambda service, text: service.bulk_access(["album"]),
    ],
    ids=["audience", "reach_many", "bulk_access"],
)
def test_sweep_shapes_feed_nothing(sweep):
    store = PolicyStore()
    text = shared_album(store)
    service = GraphService(ring_graph(), store)
    result = sweep(service, text)
    assert not result.partial
    assert service._reach_outcomes == {}


def test_feedback_eventually_moves_the_rate_estimate():
    graph = ring_graph()
    store = PolicyStore()
    text = shared_album(store)
    service = GraphService(graph, store)
    for _ in range(service._RATE_SAMPLE_FLOOR + 1):
        service.check("u10", "album")  # all denials
    assert service._unreachable_rate(text) > 0.0
