"""Facade-level sharded differential: ``GraphService(shards=k)`` changes nothing.

The shard harness (``test_shard_equivalence``) drives :class:`ShardRouter`
directly; this one goes through the service's plan → route → run path, on
the same seeded graphs, unpinned and ``backend="sharded"``-pinned: every
verb (``reach``, ``reach_many``, ``audience``, ``check``, ``bulk_access``)
must answer like :mod:`repro.testing.oracle` and the executed plan must say
which route ran.  ``"sharded"`` is a pin, never a planner choice: an
unpinned query stays on the single route — witnesses and explanations
included — and does not even build the shard stack.
"""

from __future__ import annotations

import random

import pytest

from repro.policy.path_expression import PathExpression
from repro.policy.rules import AccessRule
from repro.policy.store import PolicyStore
from repro.reachability.engine import available_backends
from repro.service import GraphService
from repro.testing.oracle import reference_reachable, reference_targets
from repro.workloads.queries import random_expression
from tests.property.test_shard_equivalence import LABELS, SEEDS, seeded_graph

FACADE_SEEDS = [seed for seed in SEEDS if seed % 4 == 0]
SHARD_COUNTS = (2, 4)
RULES = {"res-a": "friend+[1,2]", "res-b": "friend+[1]/colleague+[1]"}


def assert_route(plan, service, pin, context):
    """The plan names the route that ran, and who chose it."""
    if pin == "sharded":
        assert (plan.route, plan.backend, plan.backend_forced) == (
            "sharded", "sharded", True,
        ), context
    else:
        assert plan.route == "single" and plan.backend in available_backends(), context
        assert not plan.backend_forced, context


@pytest.mark.parametrize("pin", [None, "sharded"], ids=["unpinned", "pinned"])
@pytest.mark.parametrize("seed", FACADE_SEEDS)
def test_sharded_service_answers_like_the_oracle(seed, pin):
    rng = random.Random(31000 + seed)
    graph = seeded_graph(seed, rng)
    users = sorted(graph.users(), key=str)
    store = PolicyStore()
    owners_of = {"res-a": users[0], "res-b": users[len(users) // 2]}
    want_bulk = {}
    for resource, text in RULES.items():
        owner = owners_of[resource]
        store.share(owner, resource)
        store.add_rule(AccessRule.build(resource, owner, text))
        want_bulk[resource] = {owner} | reference_targets(
            graph, owner, PathExpression.parse(text)
        )
    expressions = [
        random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.3
        )
        for _ in range(2)
    ]
    for shards in SHARD_COUNTS:
        service = GraphService(graph, store, shards=shards)
        for expression in expressions:
            context = (seed, shards, pin, expression.to_text())
            owners = [rng.choice(users) for _ in range(3)]
            result = service.audience(owners, expression, backend=pin)
            assert_route(result.plan, service, pin, context)
            assert not result.partial
            for owner in owners:
                assert result[owner] == reference_targets(graph, owner, expression), (
                    context, owner,
                )

            pairs = [(rng.choice(users), rng.choice(users)) for _ in range(4)]
            want = {
                pair: reference_reachable(graph, *pair, expression) for pair in pairs
            }
            many = service.reach_many(pairs, expression, backend=pin)
            assert_route(many.plan, service, pin, context)
            assert many.reachable == want, context
            for (source, target), expected in want.items():
                point = service.reach(
                    source, target, expression, collect_witness=False, backend=pin
                )
                assert_route(point.plan, service, pin, context)
                assert point.reachable == expected, (context, source, target)
                witnessed = service.reach(source, target, expression, backend=pin)
                assert witnessed.reachable == expected, (context, source, target)
                assert_route(witnessed.plan, service, pin, context)
                if pin is None:
                    # The single route walks with parent links.
                    assert (witnessed.witness is not None) == expected, context

        for requester in users[:: max(1, len(users) // 6)]:
            for resource, audience in want_bulk.items():
                context = (seed, shards, pin, requester, resource)
                quick = service.check(requester, resource, explain=False, backend=pin)
                assert_route(quick.plan, service, pin, context)
                assert quick.granted == (requester in audience), context
                explained = service.check(requester, resource, backend=pin)
                assert explained.granted == (requester in audience), context
                assert_route(explained.plan, service, pin, context)
                if pin is None:
                    assert explained.explain(), context
        bulk = service.bulk_access(list(RULES), backend=pin)
        assert_route(bulk.plan, service, pin, (seed, shards, pin, "bulk"))
        assert bulk.audiences == want_bulk, (seed, shards, pin)
        # Nothing is partitioned until a pinned query arrives.
        built = "sharded" in service._routes
        assert built == (pin == "sharded"), (seed, shards, pin)
        assert ("shard_queries" in service.statistics()) == built, (seed, shards, pin)
