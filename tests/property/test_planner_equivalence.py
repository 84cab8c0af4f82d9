"""Seeded differential harness for planner-driven backend auto-selection.

Whatever backend the :class:`~repro.service.planner.QueryPlanner` routes a
query to, the answer must be byte-identical to every *pinned* backend's and
to the reference walk in :mod:`repro.testing.oracle` — auto-selection is an
optimization, never a semantics change.  The harness
reuses the random-graph / random-expression generators of
``tests/property/test_backend_equivalence.py`` and drives
:class:`ReachQuery` and :class:`AudienceQuery` shapes through one
:class:`GraphService` per pin, including artificially inflated stability so
the amortization flip (auto building an index mid-stream) is exercised, not
just the cold online path.
"""

from __future__ import annotations

import random

import pytest

from repro.service import AudienceQuery, GraphService, ReachQuery
from repro.testing.graphs import LABELS, adversarial_graph
from repro.testing.oracle import reference_reachable, reference_targets
from repro.workloads.queries import random_expression
from tests.property.test_backend_equivalence import _force_self_loop

GRAPH_SEEDS = range(12)
EXPRESSIONS_PER_GRAPH = 6
PAIRS_PER_EXPRESSION = 3

PINS = ("bfs", "dfs", "transitive-closure", "cluster-index")


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
def test_auto_selected_reach_equals_every_pinned_backend(seed):
    rng = random.Random(500_000 + seed)
    graph = adversarial_graph(rng)
    if seed % 2 == 0:
        _force_self_loop(graph, rng)
    auto = GraphService(graph)
    # Half the seeds fast-forward the stability counter so the planner is
    # willing to build the cluster index mid-stream (the amortization flip).
    if seed % 2 == 1:
        auto._stability = 10**9
    pinned = {name: GraphService(graph, default_backend=name) for name in PINS}
    users = sorted(graph.users())

    for _case in range(EXPRESSIONS_PER_GRAPH):
        expression = random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.3
        )
        for _pair in range(PAIRS_PER_EXPRESSION):
            source, target = rng.choice(users), rng.choice(users)
            query = ReachQuery(source, target, expression, collect_witness=False)
            expected = reference_reachable(graph, source, target, expression)
            got = auto.execute(query)
            assert got.reachable == expected, (
                seed, got.plan.backend, source, target, expression.to_text()
            )
            for name, service in pinned.items():
                pinned_result = service.execute(query)
                assert pinned_result.plan.backend == name
                assert pinned_result.reachable == expected, (
                    seed, name, source, target, expression.to_text()
                )


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
def test_auto_selected_audiences_equal_every_pinned_backend(seed):
    rng = random.Random(600_000 + seed)
    graph = adversarial_graph(rng)
    if seed % 2 == 0:
        _force_self_loop(graph, rng)
    auto = GraphService(graph)
    if seed % 2 == 1:
        auto._stability = 10**9
    pinned = {name: GraphService(graph, default_backend=name) for name in PINS}
    users = sorted(graph.users())

    for _case in range(EXPRESSIONS_PER_GRAPH // 2):
        expression = random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.3
        )
        owners = tuple(rng.sample(users, rng.randint(1, len(users))))
        expected = {
            owner: reference_targets(graph, owner, expression) for owner in owners
        }
        for direction in ("auto", "forward"):
            query = AudienceQuery(owners, expression, direction=direction)
            for name, service in [("auto", auto), *pinned.items()]:
                assert dict(service.execute(query).audiences) == expected, (
                    seed, name, direction, owners, expression.to_text()
                )


def test_witnesses_are_valid_whatever_backend_ran():
    """Auto-selected witnesses must be real paths satisfying the expression."""
    rng = random.Random(9_999)
    graph = adversarial_graph(rng)
    service = GraphService(graph)
    users = sorted(graph.users())
    found = 0
    for _ in range(40):
        expression = random_expression(rng, LABELS, max_steps=2, max_depth=2)
        source, target = rng.choice(users), rng.choice(users)
        result = service.reach(source, target, expression)
        if result.reachable and result.witness is not None:
            found += 1
            nodes = result.witness.nodes()
            assert nodes[0] == source and nodes[-1] == target
            # Every traversal is a real edge of the graph in the direction
            # it claims (the witness is a concrete, checkable path).
            for traversal in result.witness:
                relationship = traversal.relationship
                assert graph.has_relationship(
                    relationship.source, relationship.target, relationship.label
                )
    assert found  # the harness actually exercised witnesses
