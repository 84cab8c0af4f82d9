"""Seeded random-graph differential harness: all four backends must agree.

The safety net for the interned cluster-index refactor: deterministic
``random``-seeded graphs (including self-loops, parallel multi-label edges
and disconnected components) and random path expressions are thrown at every
backend — ``bfs``, ``dfs``, ``transitive-closure`` and ``cluster-index`` —
and each must return exactly the ``evaluate`` decisions and ``find_targets``
audiences of the cache-free reference walk in :mod:`repro.testing.oracle`.

With ``GRAPH_SEEDS`` x ``EXPRESSIONS_PER_GRAPH`` the harness covers 250
seeded (graph, expression) cases; every graph with an even seed is forced to
contain at least one self-loop, exercising the fixed line-graph
self-succession semantics.

A second seeded harness differentials the **multi-source owner-bitset
audience sweep**: on every backend, ``find_targets_many`` — under every
planner outcome (``auto`` plus forced ``forward`` / ``reverse``) — must
return exactly the audiences of a per-owner ``find_targets`` loop and of the
oracle, including self-loops, duplicate owners, empty owner lists and owners
absent from the graph.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph.social_graph import SocialGraph
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.compiled_search import SWEEP_DIRECTIONS
from repro.reachability.dfs import OnlineDFSEvaluator
from repro.reachability.transitive_closure import TransitiveClosureEvaluator
from repro.testing.graphs import LABELS, adversarial_graph
from repro.testing.oracle import reference_reachable, reference_targets
from repro.workloads.queries import random_expression

GRAPH_SEEDS = range(25)
EXPRESSIONS_PER_GRAPH = 10
EVALUATE_PAIRS_PER_EXPRESSION = 4
AUDIENCE_SOURCES_PER_EXPRESSION = 3
SWEEP_EXPRESSIONS_PER_GRAPH = 4


def _force_self_loop(graph: SocialGraph, rng: random.Random) -> None:
    users = sorted(graph.users())
    user = rng.choice(users)
    label = rng.choice(LABELS)
    if not graph.has_relationship(user, user, label):
        graph.add_relationship(user, user, label)


def _backends(graph):
    return {
        "bfs": OnlineBFSEvaluator(graph),
        "dfs": OnlineDFSEvaluator(graph),
        "transitive-closure": TransitiveClosureEvaluator(graph).build(),
        "cluster-index": ClusterIndexEvaluator(graph).build(),
    }


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
def test_backends_agree_on_seeded_random_cases(seed):
    rng = random.Random(1000 + seed)
    graph = adversarial_graph(rng)
    if seed % 2 == 0:
        _force_self_loop(graph, rng)

    contenders = _backends(graph)
    users = sorted(graph.users())

    for _case in range(EXPRESSIONS_PER_GRAPH):
        expression = random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.3
        )
        for _pair in range(EVALUATE_PAIRS_PER_EXPRESSION):
            source = rng.choice(users)
            target = rng.choice(users)
            expected = reference_reachable(graph, source, target, expression)
            for name, backend in contenders.items():
                got = backend.evaluate(
                    source, target, expression, collect_witness=False
                ).reachable
                assert got == expected, (
                    seed, name, source, target, expression.to_text()
                )
        for _sweep in range(AUDIENCE_SOURCES_PER_EXPRESSION):
            source = rng.choice(users)
            expected_targets = reference_targets(graph, source, expression)
            for name, backend in contenders.items():
                assert backend.find_targets(source, expression) == expected_targets, (
                    seed, name, source, expression.to_text()
                )


def test_case_budget_meets_the_acceptance_floor():
    """The harness must cover at least 200 seeded (graph, expression) cases."""
    assert len(GRAPH_SEEDS) * EXPRESSIONS_PER_GRAPH >= 200


@pytest.mark.parametrize("seed", GRAPH_SEEDS)
def test_multisource_sweep_matches_per_owner_find_targets(seed):
    """Multi-source sweep == per-owner loop, under every forced planner choice.

    Owner sets cover the batch shapes the engine actually sees: the empty
    batch, the whole vertex set (where the reverse sweep's cost converges on
    the forward one's) and random subsets with duplicates.
    """
    rng = random.Random(42_000 + seed)
    graph = adversarial_graph(rng)
    if seed % 2 == 0:
        _force_self_loop(graph, rng)
    backends = _backends(graph)
    users = sorted(graph.users())

    for _case in range(SWEEP_EXPRESSIONS_PER_GRAPH):
        expression = random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.3
        )
        subset = rng.sample(users, rng.randint(1, len(users)))
        owner_sets = [[], users, subset, subset + [subset[0]]]  # incl. duplicates
        for owners in owner_sets:
            expected = {
                owner: reference_targets(graph, owner, expression) for owner in owners
            }
            for name, backend in backends.items():
                per_owner = {
                    owner: backend.find_targets(owner, expression) for owner in owners
                }
                assert per_owner == expected, (seed, name, owners, expression.to_text())
                for direction in SWEEP_DIRECTIONS:
                    got = backend.find_targets_many(
                        owners, expression, direction=direction
                    )
                    assert got == per_owner, (
                        seed, name, direction, owners, expression.to_text()
                    )


def test_absent_owners_follow_each_backends_contract():
    """Batched sweeps mirror ``find_targets`` for owners missing from the graph.

    The online/closure backends raise ``NodeNotFoundError`` exactly like the
    per-owner call; the cluster index answers from its build-time snapshot
    and quietly reports an empty audience instead.
    """
    graph = SocialGraph()
    for user in ("a", "b"):
        graph.add_user(user, age=30)
    graph.add_relationship("a", "b", "friend")
    from repro.policy.path_expression import PathExpression

    expression = PathExpression.parse("friend+[1,2]")
    backends = _backends(graph)
    for direction in SWEEP_DIRECTIONS:
        for name in ("bfs", "dfs", "transitive-closure"):
            with pytest.raises(NodeNotFoundError):
                backends[name].find_targets_many(
                    ["a", "ghost"], expression, direction=direction
                )
        cluster = backends["cluster-index"]
        audiences = cluster.find_targets_many(
            ["a", "ghost"], expression, direction=direction
        )
        assert audiences == {"a": cluster.find_targets("a", expression), "ghost": set()}


def test_forced_directions_are_recorded_on_the_plan():
    """Pinning the planner must be visible on the returned plan."""
    rng = random.Random(77)
    graph = adversarial_graph(rng)
    users = sorted(graph.users())
    from repro.policy.path_expression import PathExpression

    expression = PathExpression.parse("friend+[1,2]")
    for name, backend in _backends(graph).items():
        for direction in ("forward", "reverse"):
            _audiences, plan = backend.sweep_targets_many(
                users, expression, direction=direction
            )
            assert plan is not None and plan.direction == direction, (name, direction)
            assert plan.forced
        _audiences, auto_plan = backend.sweep_targets_many(users, expression)
        assert auto_plan is not None and not auto_plan.forced
        assert auto_plan.direction in ("forward", "reverse")
        assert auto_plan.forward_cost >= 0 and auto_plan.reverse_cost >= 0


def test_self_loop_double_traversal_regression():
    """Seed bug: a query needing the same self-loop edge twice must agree with the oracle.

    The line graph used to forbid a vertex from succeeding itself, so the
    tuple <loop, loop> was unrepresentable and ``cluster-index`` denied
    queries the oracle granted.
    """
    graph = SocialGraph()
    for user in ("a", "b"):
        graph.add_user(user, age=30)
    graph.add_relationship("a", "a", "friend")
    graph.add_relationship("a", "b", "friend")

    from repro.policy.path_expression import PathExpression

    cluster = ClusterIndexEvaluator(graph).build()
    for text in ("friend+[2]", "friend+[2,3]", "friend*[3]", "friend+[1,4]"):
        expression = PathExpression.parse(text)
        for source in ("a", "b"):
            for target in ("a", "b"):
                assert (
                    cluster.evaluate(source, target, expression,
                                     collect_witness=False).reachable
                    == reference_reachable(graph, source, target, expression)
                ), (text, source, target)
            assert cluster.find_targets(source, expression) == reference_targets(
                graph, source, expression
            ), (text, source)
    # The doubled self-loop itself must be reachable, with a two-step witness.
    result = cluster.evaluate("a", "a", PathExpression.parse("friend+[2]"))
    assert result.reachable
    assert result.witness is not None and result.witness.nodes() == ["a", "a", "a"]
