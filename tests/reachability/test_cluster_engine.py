"""Unit tests for the cluster-index evaluator (the full Section-3 pipeline)."""

from __future__ import annotations

import pytest

from repro.exceptions import IndexNotBuiltError, NodeNotFoundError
from repro.graph.builder import GraphBuilder
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.workloads.queries import random_query_mix


def expr(text):
    return PathExpression.parse(text)


@pytest.fixture(scope="module")
def evaluator():
    from repro.datasets.paper_graph import paper_graph

    return ClusterIndexEvaluator(paper_graph()).build()


class TestLifecycle:
    def test_requires_build(self, figure1):
        raw = ClusterIndexEvaluator(figure1)
        with pytest.raises(IndexNotBuiltError):
            raw.evaluate("Alice", "Fred", expr("friend"))
        with pytest.raises(IndexNotBuiltError):
            raw.find_targets("Alice", expr("friend"))

    def test_unknown_users_raise(self, evaluator):
        with pytest.raises(NodeNotFoundError):
            evaluator.evaluate("Ghost", "Alice", expr("friend"))
        with pytest.raises(NodeNotFoundError):
            evaluator.evaluate("Alice", "Ghost", expr("friend"))

    def test_statistics(self, evaluator):
        stats = evaluator.statistics()
        assert stats["build_seconds"] > 0
        assert stats["line_vertices"] == 24  # oriented: two per relationship
        assert stats["index_entries"] > 0

    def test_statistics_before_build_are_empty(self, figure1):
        assert ClusterIndexEvaluator(figure1).statistics()["index_entries"] == 0.0

    def test_forward_only_index_rejects_backward_steps(self, figure1):
        evaluator = ClusterIndexEvaluator(figure1, include_reverse=False).build()
        assert evaluator.evaluate("Alice", "Colin", expr("friend+[1]")).reachable
        with pytest.raises(IndexNotBuiltError):
            evaluator.evaluate("David", "Colin", expr("friend-[1]"))
        with pytest.raises(IndexNotBuiltError):
            evaluator.find_targets("David", expr("friend*[1]"))


class TestSemantics:
    def test_single_hop(self, evaluator):
        assert evaluator.evaluate("Alice", "Colin", expr("friend+[1]")).reachable
        assert not evaluator.evaluate("Alice", "George", expr("friend+[1]")).reachable

    def test_depth_intervals(self, evaluator):
        assert evaluator.evaluate("Alice", "David", expr("friend+[1,2]")).reachable
        assert not evaluator.evaluate("Alice", "David", expr("friend+[1]")).reachable
        assert not evaluator.evaluate("Alice", "George", expr("friend+[1,2]")).reachable
        assert evaluator.evaluate("Alice", "George", expr("friend+[3]")).reachable

    def test_directions(self, evaluator):
        assert evaluator.evaluate("David", "Colin", expr("friend-[1]")).reachable
        assert evaluator.evaluate("Colin", "David", expr("friend*[1]")).reachable
        assert not evaluator.evaluate("Colin", "David", expr("friend-[1]")).reachable

    def test_attribute_conditions(self, evaluator):
        assert evaluator.evaluate("Alice", "Fred", expr("friend+[1,2]/colleague+[1]")).reachable
        assert not evaluator.evaluate(
            "Alice", "Fred", expr("friend+[1,2]/colleague+[1]{age >= 18}")
        ).reachable

    def test_intermediate_conditions(self, evaluator):
        assert not evaluator.evaluate(
            "Alice", "Fred", expr("friend+[1]{gender = female}/parent+[1]")
        ).reachable

    def test_witness_is_a_valid_path(self, evaluator):
        result = evaluator.evaluate("Alice", "George", expr("friend+[1]/parent+[1]/friend+[1]"))
        assert result.reachable
        witness = result.witness
        assert witness.nodes() == ["Alice", "Colin", "Fred", "George"]
        assert witness.labels() == ["friend", "parent", "friend"]

    def test_witness_with_backward_traversal(self, evaluator):
        result = evaluator.evaluate("David", "Bill", expr("friend-[1]/friend+[1]"))
        assert result.reachable
        witness = result.witness
        assert witness.start == "David" and witness.end == "Bill"
        assert not witness.traversals[0].forward

    def test_collect_witness_false(self, evaluator):
        result = evaluator.evaluate("Alice", "Fred", expr("friend+[1,2]/colleague+[1]"),
                                    collect_witness=False)
        assert result.reachable and result.witness is None

    def test_find_targets(self, evaluator):
        assert evaluator.find_targets("Alice", expr("friend+[1]")) == {"Colin", "Bill"}
        assert evaluator.find_targets("Alice", expr("friend+[1,2]/colleague+[1]")) == {"Fred"}

    def test_counters_report_pipeline_work(self, evaluator):
        result = evaluator.evaluate("Alice", "Fred", expr("friend+[1,2]/colleague+[1]"))
        assert result.counters["line_queries"] >= 1
        assert result.counters["join_checks"] >= 1
        assert result.counters["tuples_examined"] >= 1

    def test_cycle_back_to_source(self, evaluator):
        assert evaluator.evaluate("Bill", "Bill", expr("friend+[2]")).reachable
        assert not evaluator.evaluate("Alice", "Alice", expr("friend+[1,3]")).reachable


class TestAgreementWithBFS:
    def test_exhaustive_agreement_on_figure1(self, evaluator):
        graph = evaluator.graph
        bfs = OnlineBFSEvaluator(graph)
        expressions = [
            "friend+[1]", "friend+[1,2]", "friend+[1,3]", "friend-[1]", "friend*[1,2]",
            "friend+[1,2]/colleague+[1]", "friend+[1]/parent+[1]/friend+[1]",
            "colleague+[1]/friend+[1,2]", "parent-[1]/friend-[1]", "colleague*[1,2]",
            "friend+[2]/friend-[1]", "friend*[1,2]{age >= 18}",
        ]
        for text in expressions:
            expression = expr(text)
            for source in graph.users():
                assert bfs.find_targets(source, expression) == evaluator.find_targets(
                    source, expression
                ), (text, source)

    def test_agreement_on_random_graph(self, small_random_graph):
        evaluator = ClusterIndexEvaluator(small_random_graph).build()
        bfs = OnlineBFSEvaluator(small_random_graph)
        for source, target, expression in random_query_mix(
            small_random_graph, 40, seed=21, max_steps=2, max_depth=2
        ):
            assert (
                evaluator.evaluate(source, target, expression, collect_witness=False).reachable
                == bfs.evaluate(source, target, expression, collect_witness=False).reachable
            ), (source, target, expression.to_text())


class TestSmallGraphs:
    def test_graph_with_no_edges(self):
        graph = GraphBuilder().user("a").user("b").build()
        evaluator = ClusterIndexEvaluator(graph).build()
        assert not evaluator.evaluate("a", "b", expr("friend")).reachable

    def test_single_edge(self):
        graph = GraphBuilder().relate("a", "b", "friend").build()
        evaluator = ClusterIndexEvaluator(graph).build()
        assert evaluator.evaluate("a", "b", expr("friend")).reachable
        assert not evaluator.evaluate("b", "a", expr("friend")).reachable
        assert evaluator.evaluate("b", "a", expr("friend-[1]")).reachable

    def test_self_loop_traversed_twice(self):
        """Regression (seed bug): a self-loop edge may be walked repeatedly."""
        graph = GraphBuilder().relate("a", "a", "friend").build()
        evaluator = ClusterIndexEvaluator(graph).build()
        assert evaluator.evaluate("a", "a", expr("friend+[2]")).reachable
        assert evaluator.evaluate("a", "a", expr("friend+[3]")).reachable
        assert evaluator.find_targets("a", expr("friend+[2]")) == {"a"}

    def test_users_added_after_build_answer_stale_not_crash(self):
        """Offline index semantics: post-build users are unknown, not errors."""
        graph = GraphBuilder().relate("a", "b", "friend").build()
        evaluator = ClusterIndexEvaluator(graph).build()
        graph.add_user("c")
        graph.add_relationship("c", "a", "friend")
        assert not evaluator.evaluate("c", "b", expr("friend+[1,2]")).reachable
        assert not evaluator.evaluate("a", "c", expr("friend+[1]")).reachable
        assert evaluator.find_targets("c", expr("friend+[1]")) == set()
