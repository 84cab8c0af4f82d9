"""Cross-backend equivalence on larger synthetic graphs (seeded, deterministic)."""

from __future__ import annotations

import pytest

from repro.graph.generators import (
    forest_fire_graph,
    preferential_attachment_graph,
    random_graph,
    small_world_graph,
)
from repro.reachability import available_backends, create_evaluator
from repro.testing.oracle import reference_reachable, reference_targets
from repro.workloads.queries import random_query_mix

GRAPHS = {
    "erdos-renyi": lambda: random_graph(50, edge_probability=0.06, seed=31),
    "barabasi-albert": lambda: preferential_attachment_graph(60, edges_per_node=2, seed=32),
    "watts-strogatz": lambda: small_world_graph(50, nearest_neighbors=4, seed=33),
    "forest-fire": lambda: forest_fire_graph(45, seed=34),
}

BACKENDS = available_backends()


@pytest.fixture(scope="module")
def graphs():
    return {name: factory() for name, factory in GRAPHS.items()}


@pytest.mark.parametrize("family", sorted(GRAPHS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_agree_on_random_query_mixes(graphs, family, backend):
    graph = graphs[family]
    candidate = create_evaluator(backend, graph)
    queries = random_query_mix(graph, 30, seed=hash((family, backend)) % 10_000,
                               max_steps=2, max_depth=2, condition_probability=0.15)
    for source, target, expression in queries:
        expected = reference_reachable(graph, source, target, expression)
        actual = candidate.evaluate(source, target, expression, collect_witness=False).reachable
        assert actual == expected, (family, backend, source, target, expression.to_text())


@pytest.mark.parametrize("backend", BACKENDS)
def test_audiences_agree_for_scenario_expressions(graphs, backend):
    from repro.policy import PathExpression
    from repro.workloads.scenarios import SCENARIOS

    graph = graphs["barabasi-albert"]
    candidate = create_evaluator(backend, graph)
    owners = sorted(graph.users())[:5]
    for scenario in SCENARIOS.values():
        for text in scenario.expressions:
            expression = PathExpression.parse(text)
            if expression.expansion_count() > 16:
                continue
            for owner in owners:
                assert candidate.find_targets(owner, expression) == reference_targets(
                    graph, owner, expression
                ), (scenario.name, owner, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_witnesses_are_always_valid_paths(graphs, backend):
    graph = graphs["watts-strogatz"]
    evaluator = create_evaluator(backend, graph)
    queries = random_query_mix(graph, 20, seed=77, max_steps=2, max_depth=2,
                               condition_probability=0.0)
    for source, target, expression in queries:
        result = evaluator.evaluate(source, target, expression, collect_witness=True)
        if not result.reachable:
            continue
        witness = result.witness
        assert witness is not None
        assert witness.start == source and witness.end == target
        assert expression.min_length() <= len(witness) <= expression.max_length()
        for traversal in witness:
            rel = traversal.relationship
            assert graph.has_relationship(rel.source, rel.target, rel.label)
