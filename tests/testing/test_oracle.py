"""The reference oracle against the paper's hand-checked facts.

Every differential harness trusts :mod:`repro.testing.oracle`; these tests
pin it to answers stated in the paper (Figure 1 and Sections 2 / 3.4), so the
reference itself is anchored to something other than the code it checks.
"""

from __future__ import annotations

import pytest

from repro.datasets.paper_graph import (
    ALICE,
    BILL,
    DAVID,
    DAVID_EXTENDED_AUDIENCE,
    DAVID_EXTENDED_AUDIENCE_EXPRESSION,
    DAVID_INCOMING_FRIENDS,
    DAVID_INCOMING_FRIENDS_EXPRESSION,
    FRED,
    FRIEND_PATH_EXPRESSION,
    GEORGE,
    WORKED_EXAMPLE_EXPECTED_AUDIENCE,
    WORKED_EXAMPLE_EXPRESSION,
    WORKED_EXAMPLE_WITNESS_NODES,
)
from repro.exceptions import NodeNotFoundError
from repro.policy.path_expression import PathExpression
from repro.graph.social_graph import SocialGraph
from repro.reachability import (
    LineGraph,
    OnlineBFSEvaluator,
    TransitiveClosureIndex,
)
from repro.testing.oracle import reference_reachable, reference_search, reference_targets


def expr(text):
    return PathExpression.parse(text)


class TestPaperFacts:
    def test_worked_example_audience_and_witness(self, figure1):
        expression = expr(WORKED_EXAMPLE_EXPRESSION)
        assert reference_targets(figure1, ALICE, expression) == (
            WORKED_EXAMPLE_EXPECTED_AUDIENCE
        )
        found = reference_search(
            figure1, ALICE, expression, stop_at=GEORGE, collect_witness=True
        )
        assert found[GEORGE].nodes() == WORKED_EXAMPLE_WITNESS_NODES

    def test_david_audiences(self, figure1):
        assert reference_targets(
            figure1, DAVID, expr(DAVID_INCOMING_FRIENDS_EXPRESSION)
        ) == DAVID_INCOMING_FRIENDS
        assert reference_targets(
            figure1, DAVID, expr(DAVID_EXTENDED_AUDIENCE_EXPRESSION)
        ) == DAVID_EXTENDED_AUDIENCE

    def test_depth_bounds_and_cycles(self, figure1):
        three_hops = expr(FRIEND_PATH_EXPRESSION)
        assert reference_reachable(figure1, ALICE, GEORGE, three_hops)
        assert not reference_reachable(figure1, ALICE, GEORGE, expr("friend+[1,2]"))
        # Bill <-> Elena is a cycle; Alice has no way back to herself.
        assert reference_reachable(figure1, BILL, BILL, expr("friend+[2]"))
        assert not reference_reachable(figure1, ALICE, ALICE, expr("friend+[1,3]"))

    def test_conditions_gate_the_step_they_close(self, figure1):
        assert reference_reachable(
            figure1, ALICE, FRED, expr("friend+[1]/parent+[1]")
        )
        assert not reference_reachable(
            figure1, ALICE, FRED, expr("friend+[1]{gender = female}/parent+[1]")
        )

    def test_witnesses_are_off_by_default_and_shortest(self, figure1):
        expression = expr("friend*[1,3]")
        assert reference_search(figure1, ALICE, expression)[DAVID] is None
        found = reference_search(figure1, ALICE, expression, collect_witness=True)
        assert len(found[DAVID]) == 2

    def test_unknown_users_raise(self, figure1):
        with pytest.raises(NodeNotFoundError):
            reference_targets(figure1, "Nobody", expr("friend"))
        with pytest.raises(NodeNotFoundError):
            reference_reachable(figure1, ALICE, "Nobody", expr("friend"))


class _GraphLike:
    """Not a SocialGraph: the oracle's duck-typed surface, and nothing else."""

    def __init__(self, graph):
        self._graph = graph

    def has_user(self, user):
        return self._graph.has_user(user)

    def out_relationships(self, user, label=None):
        return self._graph.out_relationships(user, label)

    def in_relationships(self, user, label=None):
        return self._graph.in_relationships(user, label)

    def attributes(self, user):
        return self._graph.attributes(user)


class TestGraphLikeObjects:
    """The oracle walks graph-like objects; evaluators and index builders
    refuse anything but a SocialGraph by type."""

    @pytest.mark.parametrize(
        "consumer",
        [
            OnlineBFSEvaluator,
            LineGraph,
            lambda graph: TransitiveClosureIndex(graph).build(),
        ],
        ids=["bfs", "line-graph", "transitive-closure"],
    )
    def test_snapshot_consumers_reject_non_graphs_with_a_route(self, consumer, figure1):
        with pytest.raises(TypeError) as raised:
            consumer(_GraphLike(figure1))
        message = str(raised.value)
        assert "repro.testing.oracle" in message and "SocialGraph.subgraph" in message

    def test_an_empty_graph_still_has_an_empty_line_graph(self):
        line_graph = LineGraph(SocialGraph())
        assert line_graph.number_of_vertices() == 0 and line_graph.adjacency() == {}

    def test_oracle_over_a_graph_like_object_equals_the_graph(self, figure1):
        graph_like = _GraphLike(figure1)
        evaluator = OnlineBFSEvaluator(figure1)
        for text in ("friend+[1,3]", "friend*[1,2]/colleague+[1]{age >= 18}"):
            expression = expr(text)
            for user in figure1.users():
                assert reference_targets(graph_like, user, expression) == (
                    evaluator.find_targets(user, expression)
                ), (text, user)
