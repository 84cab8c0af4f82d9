"""Seeded random-graph differential harness: all three backends must agree.

The safety net for the interned cluster-index refactor: deterministic
``random``-seeded graphs (including self-loops, parallel multi-label edges
and disconnected components) and random path expressions are thrown at every
backend — ``bfs``, ``transitive-closure`` and ``cluster-index`` —
and each must return exactly the ``evaluate`` decisions and ``find_targets``
audiences of the cache-free reference walk in :mod:`repro.testing.oracle`.

With ``GRAPH_SEEDS`` x ``EXPRESSIONS_PER_GRAPH`` the harness covers 250
seeded (graph, expression) cases; every graph with an even seed is forced to
contain at least one self-loop, exercising the fixed line-graph
self-succession semantics.

A second seeded harness differentials the **multi-source owner-bitset
audience sweep**: on every backend, ``sweep_targets_many`` must return
exactly the audiences of a per-owner ``find_targets`` loop and of the
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
    """Multi-source sweep == per-owner loop.

    Owner sets cover the batch shapes the engine actually sees: the empty
    batch, the whole vertex set (|V|-bit masks) and random subsets with
    duplicates.
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
                got = backend.sweep_targets_many(owners, expression)[0]
                assert got == per_owner, (seed, name, owners, expression.to_text())


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
    for name in ("bfs", "transitive-closure"):
        with pytest.raises(NodeNotFoundError):
            backends[name].sweep_targets_many(["a", "ghost"], expression)
    cluster = backends["cluster-index"]
    audiences, _plan = cluster.sweep_targets_many(["a", "ghost"], expression)
    assert audiences == {"a": cluster.find_targets("a", expression), "ghost": set()}


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
