"""The plan cache is a pure memo: caching plans changes no answer and no plan.

A seeded stream is replayed in lockstep through a default
:class:`GraphService` and through a twin whose planner caches nothing
(``QueryPlanner(cache_size=0)``, which also turns the service's warm route
off).  The stream mixes repeated point checks and reaches (auto, pinned and
sharded), churn bursts, a rule added to a resource mid-stream, a
denial-heavy forward-only tail long enough for the transitive-closure flip,
and an index whose maintenance fails until its breaker opens, half-opens,
fails its probe and finally recovers.

Query for query the answers, the executed backend, whether a pin forced it,
the route and the plan's reason must agree.  The reason is compared with its
numbers masked: a cached plan keeps the stability count it was priced at.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.policy.store import PolicyStore
from repro.reliability.breaker import CircuitBreaker
from repro.service import GraphService
from repro.service.planner import INDEX_BACKENDS, QueryPlanner
from repro.testing.graphs import LABELS, adversarial_graph
from repro.testing.oracle import reference_targets

SEEDS = range(6)
HOT_TEXTS = ("friend+[1,2]", "colleague+[1]/friend+[1,2]", "friend*[1,2]")
TAIL_TEXTS = ("friend+[1,3]", "friend+[1,2]/colleague+[1,2]", "parent+[1,3]")
REACHABLE_EVERY = 8  # one tail query in eight is a grant
COOLDOWN = 30.0
_NUMBERS = re.compile(r"\d+(\.\d+)?")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _twins(graph, store, clock):
    services = []
    for planner in (None, QueryPlanner(cache_size=0)):
        breakers = {
            name: CircuitBreaker(
                failure_threshold=2, cooldown_seconds=COOLDOWN, clock=clock
            )
            for name in INDEX_BACKENDS
        }
        service = GraphService(graph, store, breakers=breakers, shards=2)
        if planner is not None:
            service.planner = planner
        services.append(service)
    return services


def _churn(graph, rng, count):
    users = sorted(graph.users(), key=str)
    for _ in range(count):
        relationships = list(graph.relationships())
        if relationships and rng.random() < 0.5:
            rel = rng.choice(relationships)
            graph.remove_relationship(rel.source, rel.target, rel.label)
            continue
        source, target = rng.sample(users, 2)
        label = rng.choice(LABELS)
        if not graph.has_relationship(source, target, label):
            graph.add_relationship(source, target, label)


def _break(service):
    """Make every later build or refresh of the closure raise."""
    evaluator = service.engine("transitive-closure").evaluator

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic maintenance failure")

    evaluator.saved = (evaluator.build, getattr(evaluator, "refresh", None))
    evaluator.build = boom
    if evaluator.saved[1] is not None:
        evaluator.refresh = boom


def _fix(service):
    evaluator = service._engines["transitive-closure"].evaluator
    evaluator.build, refresh = evaluator.saved
    if refresh is not None:
        evaluator.refresh = refresh


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
            pin = rng.choice((None, None, None, "dfs", "sharded"))
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
    yield ("break",)
    yield ("churn", 1)  # stales the closure: its next refresh fails
    yield from denial_tail(400)
    yield ("clock",)  # half-open: the next closure plan is the probe, and fails
    yield from denial_tail(100)
    yield ("fix",)
    yield ("clock",)  # half-open again: this probe succeeds
    yield from denial_tail(100)
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
    reason = _NUMBERS.sub("#", plan.reason)
    return answer, plan.backend, plan.backend_forced, plan.route, reason


def _replay(graph, rng):
    store = PolicyStore()
    clock = FakeClock()
    cached, uncached = _twins(graph, store, clock)
    backends = set()
    for position, op in enumerate(_stream(graph, store, rng)):
        if op[0] == "churn":
            _churn(graph, rng, op[1])
        elif op[0] == "rule":
            store.allow(op[1], [op[2]])
        elif op[0] == "break":
            _break(cached)
            _break(uncached)
        elif op[0] == "fix":
            _fix(cached)
            _fix(uncached)
        elif op[0] == "clock":
            clock.now += COOLDOWN + 1.0
        else:
            got = _run(cached, op)
            assert got == _run(uncached, op), (position, op)
            backends.add(got[1])
    assert cached.planner.plans_cached > 0  # the cache actually served plans
    assert uncached.planner.plans_cached == 0
    return cached, backends


@pytest.mark.parametrize("seed", SEEDS)
def test_cached_plans_equal_uncached_plans_on_adversarial_graphs(seed):
    rng = random.Random(2_600_000 + seed)
    graph = adversarial_graph(rng, users=(10, 16), edges_per_user=(2, 4))
    _replay(graph, rng)


def test_cached_plans_equal_uncached_plans_on_a_perf10_shaped_graph():
    graph = preferential_attachment_graph(50, edges_per_node=4, seed=61)
    service, backends = _replay(graph, random.Random(61))
    # The stream reached every event it was built to exercise.
    assert {"bfs", "transitive-closure"} <= backends
    assert service.queries_rerouted > 0
    assert service.breakers["transitive-closure"].trip_count >= 2
    assert service.breakers["transitive-closure"].state == CircuitBreaker.CLOSED
