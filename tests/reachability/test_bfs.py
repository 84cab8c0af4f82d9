"""Unit tests for the online BFS evaluator (the correctness oracle)."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph.builder import GraphBuilder
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator


def expr(text):
    return PathExpression.parse(text)


@pytest.fixture
def evaluator(figure1):
    return OnlineBFSEvaluator(figure1).build()


class TestBasicSemantics:
    def test_direct_edge(self, evaluator):
        assert evaluator.evaluate("Alice", "Colin", expr("friend+[1]")).reachable
        assert not evaluator.evaluate("Alice", "George", expr("friend+[1]")).reachable

    def test_label_must_match(self, evaluator):
        assert evaluator.evaluate("Alice", "David", expr("colleague+[1]")).reachable
        assert not evaluator.evaluate("Alice", "David", expr("friend+[1]")).reachable

    def test_direction_outgoing_only(self, evaluator):
        # Colin -> David is a friend edge; the reverse query must fail.
        assert evaluator.evaluate("Colin", "David", expr("friend+[1]")).reachable
        assert not evaluator.evaluate("David", "Colin", expr("friend+[1]")).reachable

    def test_direction_incoming(self, evaluator):
        assert evaluator.evaluate("David", "Colin", expr("friend-[1]")).reachable
        assert not evaluator.evaluate("Colin", "David", expr("friend-[1]")).reachable

    def test_direction_any(self, evaluator):
        assert evaluator.evaluate("David", "Colin", expr("friend*[1]")).reachable
        assert evaluator.evaluate("Colin", "David", expr("friend*[1]")).reachable

    def test_depth_interval_lower_bound(self, evaluator):
        # Alice reaches David in exactly two friend hops (via Colin), not one.
        assert not evaluator.evaluate("Alice", "David", expr("friend+[1]")).reachable
        assert evaluator.evaluate("Alice", "David", expr("friend+[2]")).reachable
        assert evaluator.evaluate("Alice", "David", expr("friend+[1,2]")).reachable

    def test_depth_interval_upper_bound(self, evaluator):
        # George is three friend hops away (Alice-Bill-Elena-George).
        assert not evaluator.evaluate("Alice", "George", expr("friend+[1,2]")).reachable
        assert evaluator.evaluate("Alice", "George", expr("friend+[1,3]")).reachable

    def test_multi_step_order_matters(self, evaluator):
        assert evaluator.evaluate("Alice", "Fred", expr("friend+[2]/colleague+[1]")).reachable
        assert not evaluator.evaluate("Alice", "Fred", expr("colleague+[1]/friend+[2]")).reachable

    def test_attribute_conditions_on_step_end(self, evaluator):
        # Fred (age 12) fails an adults-only condition on the final step.
        assert evaluator.evaluate("Alice", "Fred", expr("friend+[1,2]/colleague+[1]")).reachable
        assert not evaluator.evaluate(
            "Alice", "Fred", expr("friend+[1,2]/colleague+[1]{age >= 18}")
        ).reachable

    def test_attribute_conditions_on_intermediate_step(self, evaluator):
        # Path Alice -friend-> Colin -parent-> Fred; require the friend to be female (Colin is not).
        assert evaluator.evaluate("Alice", "Fred", expr("friend+[1]/parent+[1]")).reachable
        assert not evaluator.evaluate(
            "Alice", "Fred", expr("friend+[1]{gender = female}/parent+[1]")
        ).reachable

    def test_source_equals_target_needs_a_cycle(self, evaluator):
        # Bill <-> Elena is a friendship cycle, so Bill can reach himself in 2 hops.
        assert evaluator.evaluate("Bill", "Bill", expr("friend+[2]")).reachable
        # Alice has no cycle back to herself.
        assert not evaluator.evaluate("Alice", "Alice", expr("friend+[1,3]")).reachable

    def test_unknown_users_raise(self, evaluator):
        with pytest.raises(NodeNotFoundError):
            evaluator.evaluate("Nobody", "Alice", expr("friend"))
        with pytest.raises(NodeNotFoundError):
            evaluator.evaluate("Alice", "Nobody", expr("friend"))

    def test_statistics_are_trivial(self, evaluator):
        assert evaluator.statistics()["index_entries"] == 0


class TestWitnesses:
    def test_witness_matches_constraints(self, evaluator):
        result = evaluator.evaluate("Alice", "Fred", expr("friend+[1,2]/colleague+[1]"))
        witness = result.witness
        assert witness.start == "Alice" and witness.end == "Fred"
        assert witness.labels()[-1] == "colleague"
        assert all(label == "friend" for label in witness.labels()[:-1])

    def test_bfs_returns_a_shortest_witness(self, evaluator):
        result = evaluator.evaluate("Alice", "David", expr("friend*[1,3]"))
        assert len(result.witness) == 2  # Alice-Colin-David (or Alice-Bill? no: Bill-David edge doesn't exist)

    def test_witness_can_be_skipped(self, evaluator):
        result = evaluator.evaluate("Alice", "Fred", expr("friend+[1,2]/colleague+[1]"),
                                    collect_witness=False)
        assert result.reachable and result.witness is None

    def test_backward_traversals_in_witness(self, evaluator):
        result = evaluator.evaluate("David", "Colin", expr("friend-[1]"))
        assert result.witness.nodes() == ["David", "Colin"]
        assert not result.witness.traversals[0].forward


class TestFindTargets:
    def test_audience_of_direct_friends(self, evaluator):
        assert evaluator.find_targets("Alice", expr("friend+[1]")) == {"Colin", "Bill"}

    def test_audience_with_any_direction(self, evaluator):
        assert evaluator.find_targets("Fred", expr("friend*[1]")) == {"George"}
        assert evaluator.find_targets("Fred", expr("colleague-[1]")) == {"David"}

    def test_audience_of_empty_result(self, evaluator):
        assert evaluator.find_targets("George", expr("friend+[1]")) == set()

    def test_counters_populated(self, evaluator):
        result = evaluator.evaluate("Alice", "George", expr("friend+[1,3]"))
        assert result.counters["states_visited"] > 0
        assert result.counters["edges_expanded"] > 0

    def test_evaluate_times_itself_within_the_call(self, evaluator):
        started = time.perf_counter()
        result = evaluator.evaluate("Alice", "Fred", expr("friend+[1,2]/colleague+[1]"))
        wall = time.perf_counter() - started
        assert result.reachable
        assert 0.0 <= result.elapsed_seconds <= wall


class TestIsolatedAndTinyGraphs:
    def test_isolated_users(self):
        graph = GraphBuilder().user("a").user("b").build()
        evaluator = OnlineBFSEvaluator(graph)
        assert not evaluator.evaluate("a", "b", expr("friend")).reachable

    def test_two_node_cycle(self):
        graph = GraphBuilder().relate("a", "b", "friend").relate("b", "a", "friend").build()
        evaluator = OnlineBFSEvaluator(graph)
        assert evaluator.evaluate("a", "a", expr("friend+[2]")).reachable
        assert evaluator.evaluate("a", "b", expr("friend+[1,5]")).reachable
        assert not evaluator.evaluate("a", "b", expr("friend+[2]")).reachable
