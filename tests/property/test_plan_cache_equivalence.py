"""The route table is a pure memo: reusing a route changes no answer and no plan.

A seeded stream is replayed in lockstep through a default
:class:`GraphService` and through a twin that clears its route table before
every query, so each of its queries opens its route afresh: new engines,
cold memos, a newly made plan.  The stream mixes repeated point checks and reaches (auto, pinned and
sharded), churn bursts, a rule added to a resource mid-stream, and
denial-heavy forward-only tails long enough for the walks to pay for the
denial filter, at several epochs.

Query for query the answers, the executed backend, whether a pin forced it,
the route and the plan's reason must agree.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.policy.store import PolicyStore
from repro.service import GraphService
from repro.testing.graphs import LABELS, adversarial_graph
from repro.testing.oracle import reference_targets

SEEDS = range(6)
HOT_TEXTS = ("friend+[1,2]", "colleague+[1]/friend+[1,2]", "friend*[1,2]")
TAIL_TEXTS = ("friend+[1,3]", "friend+[1,2]/colleague+[1,2]", "parent+[1,3]")
REACHABLE_EVERY = 8  # one tail query in eight is a grant


def _churn(graph, rng, count):
    """``count`` edge writes; each one moves the graph epoch."""
    users = sorted(graph.users(), key=str)
    for _ in range(count):
        relationships = list(graph.relationships())
        if relationships and rng.random() < 0.5:
            rel = rng.choice(relationships)
            graph.remove_relationship(rel.source, rel.target, rel.label)
            continue
        source, target = rng.sample(users, 2)
        label = rng.choice(LABELS)
        if graph.has_relationship(source, target, label):
            graph.remove_relationship(source, target, label)
        else:
            graph.add_relationship(source, target, label)


def _stream(graph, store, rng):
    """Yield the stream's ops; tail pairs are classified on the live graph."""
    users = sorted(graph.users(), key=str)
    resources = []
    for index, owner in enumerate(rng.sample(users, min(3, len(users)))):
        resource = f"r{index}"
        store.share(owner, resource)
        store.allow(resource, rng.sample(HOT_TEXTS, rng.randint(1, 2)))
        resources.append(resource)
    hot = [(rng.choice(users), rng.choice(users)) for _ in range(4)]

    def point_queries(count):
        for _ in range(count):
            pin = rng.choice((None, None, None, "bfs", "sharded"))
            source, target = rng.choice(hot)
            if rng.random() < 0.5:
                yield ("check", target, rng.choice(resources), pin)
            else:
                yield ("reach", source, target, rng.choice(HOT_TEXTS), pin)

    def denial_tail(count):
        for index in range(count):
            text = TAIL_TEXTS[index % len(TAIL_TEXTS)]
            source = rng.choice(users)
            reached = reference_targets(graph, source, PathExpression.parse(text))
            grant = index % REACHABLE_EVERY == REACHABLE_EVERY - 1
            candidates = [user for user in users if (user in reached) == grant]
            yield ("reach", source, rng.choice(candidates or users), text, None)

    yield from point_queries(40)
    for _burst in range(3):
        yield ("churn", 3)
        yield from point_queries(12)
    yield ("rule", resources[0], rng.choice(TAIL_TEXTS))
    yield from point_queries(20)
    yield from denial_tail(300)
    yield ("churn", 1)  # a structural patch drops the denial filter
    yield from denial_tail(400)
    yield ("churn", 1)
    yield from denial_tail(300)
    yield from point_queries(20)


def _run(service, op):
    if op[0] == "check":
        _kind, requester, resource, pin = op
        result = service.check(requester, resource, explain=False, backend=pin)
        answer = result.granted
    else:
        _kind, source, target, text, pin = op
        result = service.reach(
            source, target, text, collect_witness=False, backend=pin
        )
        answer = result.reachable
    plan = result.plan
    return answer, plan.backend, plan.backend_forced, plan.route, plan.reason


def _replay(graph, rng):
    store = PolicyStore()
    cached = GraphService(graph, store, shards=2)
    uncached = GraphService(graph, store, shards=2)
    backends = set()
    for position, op in enumerate(_stream(graph, store, rng)):
        if op[0] == "churn":
            _churn(graph, rng, op[1])
        elif op[0] == "rule":
            store.allow(op[1], [op[2]])
        else:
            got = _run(cached, op)
            uncached._routes.clear()
            assert got == _run(uncached, op), (position, op)
            backends.add(got[1])
    # The routes actually served plans; the twin made every one afresh.
    assert cached.statistics()["planner_plan_cache_hits"] > 0
    assert uncached.statistics()["planner_plan_cache_hits"] == 0
    return cached, backends


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_plans_equal_uncached_plans_on_adversarial_graphs(seed):
    rng = random.Random(2_600_000 + seed)
    graph = adversarial_graph(rng, users=(10, 16), edges_per_user=(2, 4))
    _replay(graph, rng)


def test_cached_plans_equal_uncached_plans_on_a_perf10_shaped_graph():
    graph = preferential_attachment_graph(50, edges_per_node=4, seed=61)
    service, backends = _replay(graph, random.Random(61))
    # Auto ran everything on bfs; pins ran where they were pinned.
    assert backends == {"bfs", "sharded"}
    assert set(service.cache_info()) == {"bfs", "sharded"}
    # The last tail's walks paid for a denial filter at the final epoch.
    assert "denial-filter" in compile_graph(graph).derived
