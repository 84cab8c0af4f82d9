"""Property-based tests: every backend agrees with the reference oracle.

These are the core correctness properties of the reproduction: on arbitrary
labelled social graphs and arbitrary (well-formed) path expressions, the BFS,
DFS, transitive-closure and cluster-index evaluators must return exactly the
decisions of the cache-free walk in :mod:`repro.testing.oracle`.
"""

from __future__ import annotations

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.social_graph import SocialGraph
from repro.policy.conditions import AttributeCondition
from repro.policy.path_expression import PathExpression
from repro.policy.steps import DepthInterval, Direction, Step
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.dfs import OnlineDFSEvaluator
from repro.reachability.transitive_closure import TransitiveClosureEvaluator
from repro.testing.oracle import (
    reference_reachable,
    reference_search,
    reference_targets,
)

LABELS = ("friend", "colleague", "parent")

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def social_graphs(draw, min_users=2, max_users=9):
    """A random labelled social graph with small integer user ids and attributes."""
    count = draw(st.integers(min_users, max_users))
    users = [f"u{i}" for i in range(count)]
    graph = SocialGraph(name="hypothesis")
    for user in users:
        graph.add_user(
            user,
            age=draw(st.integers(10, 70)),
            gender=draw(st.sampled_from(["female", "male"])),
        )
    possible_edges = [
        (source, target, label)
        for source in users
        for target in users
        if source != target
        for label in LABELS
    ]
    chosen = draw(
        st.lists(st.sampled_from(possible_edges), max_size=min(30, len(possible_edges)), unique=True)
    )
    for source, target, label in chosen:
        graph.add_relationship(source, target, label)
    return graph


@st.composite
def expressions(draw, max_steps=3, max_depth=3, allow_conditions=True):
    """A random well-formed path expression over the fixed label alphabet."""
    step_count = draw(st.integers(1, max_steps))
    steps = []
    for _ in range(step_count):
        low = draw(st.integers(1, max_depth))
        high = draw(st.integers(low, max_depth))
        conditions = ()
        if allow_conditions and draw(st.booleans()):
            conditions = (
                AttributeCondition(
                    "age",
                    draw(st.sampled_from([">=", "<", ">"])),
                    draw(st.integers(10, 70)),
                ),
            )
        steps.append(
            Step(
                label=draw(st.sampled_from(LABELS)),
                direction=draw(st.sampled_from(list(Direction))),
                depths=DepthInterval(low, high),
                conditions=conditions,
            )
        )
    return PathExpression.of(*steps)


@st.composite
def graph_and_query(draw, **expression_kwargs):
    graph = draw(social_graphs())
    users = sorted(graph.users())
    source = draw(st.sampled_from(users))
    target = draw(st.sampled_from(users))
    expression = draw(expressions(**expression_kwargs))
    return graph, source, target, expression


def _agrees_with_the_oracle(evaluator, data) -> bool:
    graph, source, target, expression = data
    return evaluator.evaluate(
        source, target, expression, collect_witness=False
    ).reachable == reference_reachable(graph, source, target, expression)


@given(graph_and_query())
@settings(**SETTINGS)
def test_bfs_agrees_with_the_oracle(data):
    assert _agrees_with_the_oracle(OnlineBFSEvaluator(data[0]), data)


@given(graph_and_query())
@settings(**SETTINGS)
def test_dfs_agrees_with_the_oracle(data):
    assert _agrees_with_the_oracle(OnlineDFSEvaluator(data[0]), data)


@given(graph_and_query())
@settings(**SETTINGS)
def test_transitive_closure_agrees_with_the_oracle(data):
    assert _agrees_with_the_oracle(TransitiveClosureEvaluator(data[0]).build(), data)


@given(graph_and_query(max_steps=2, max_depth=2))
@settings(**SETTINGS)
def test_cluster_index_agrees_with_the_oracle(data):
    assert _agrees_with_the_oracle(ClusterIndexEvaluator(data[0]).build(), data)


@given(graph_and_query(max_steps=2, max_depth=2, allow_conditions=False))
@settings(**SETTINGS)
def test_cluster_index_audiences_match_the_oracle(data):
    graph, source, _target, expression = data
    cluster = ClusterIndexEvaluator(graph).build()
    assert cluster.find_targets(source, expression) == reference_targets(
        graph, source, expression
    )


@given(graph_and_query())
@settings(**SETTINGS)
def test_bfs_witness_is_a_valid_answer(data):
    """Whenever BFS says reachable, the witness path must itself satisfy the query.

    It must also be a shortest one: as long as the oracle's BFS witness.
    Every (source, target) pair is tried, not only the drawn one, under the
    drawn expression and under one long undirected step per label, so pairs
    joined by paths of several lengths turn up in every run.
    """
    graph, _source, _target, drawn = data
    bfs = OnlineBFSEvaluator(graph)
    users = sorted(graph.users())
    wide = [PathExpression.parse(f"{label}*[1,4]") for label in LABELS]
    for expression, source, target in itertools.product([drawn] + wide, users, users):
        result = bfs.evaluate(source, target, expression, collect_witness=True)
        if not result.reachable:
            continue
        witness = result.witness
        assert witness is not None
        assert witness.start == source and witness.end == target
        assert expression.min_length() <= len(witness) <= expression.max_length()
        shortest = reference_search(
            graph, source, expression, stop_at=target, collect_witness=True
        )[target]
        assert len(witness) == len(shortest)
        # Every traversed relationship exists in the graph.
        for traversal in witness:
            rel = traversal.relationship
            assert graph.has_relationship(rel.source, rel.target, rel.label)
        # The label run-lengths fit the per-step depth intervals, in order.
        runs = witness.label_runs()
        step_labels = [step.label for step in expression]
        # Merge consecutive identical labels across step boundaries
        # conservatively: just check the overall label multiset is drawn from
        # the expression labels.
        assert {label for label, _count in runs} <= set(step_labels)
