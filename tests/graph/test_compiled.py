"""Unit tests for the compiled CSR snapshot layer (`repro.graph.compiled`)."""

from __future__ import annotations

import pytest

from repro.datasets.paper_graph import paper_graph
from repro.exceptions import NodeNotFoundError
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.reachability import available_backends, create_evaluator
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.testing.oracle import reference_reachable, reference_targets
from repro.workloads.queries import random_query_mix


def expr(text):
    return PathExpression.parse(text)


class TestSnapshotCorrectness:
    @pytest.fixture
    def snapshot(self, figure1):
        return compile_graph(figure1)

    def test_interning_roundtrip(self, figure1, snapshot):
        assert snapshot.number_of_nodes() == figure1.number_of_users()
        for user in figure1.users():
            assert snapshot.user_of(snapshot.index_of(user)) == user
        assert snapshot.labels == figure1.labels()
        for label in figure1.labels():
            assert snapshot.labels[snapshot.label_id(label)] == label
        assert snapshot.label_id("no-such-label") == -1

    def test_unknown_user_raises(self, snapshot):
        with pytest.raises(NodeNotFoundError):
            snapshot.index_of("Ghost")

    def test_csr_adjacency_matches_graph(self, figure1, snapshot):
        for user in figure1.users():
            index = snapshot.index_of(user)
            for label in figure1.labels() + (None,):
                label_id = None if label is None else snapshot.label_id(label)
                out = {snapshot.user_of(i) for i in snapshot.out_neighbors(index, label_id)}
                assert out == set(figure1.successors(user, label)), (user, label)
                incoming = {snapshot.user_of(i) for i in snapshot.in_neighbors(index, label_id)}
                assert incoming == set(figure1.predecessors(user, label)), (user, label)

    def test_degrees_match_graph(self, figure1, snapshot):
        for user in figure1.users():
            index = snapshot.index_of(user)
            for label in figure1.labels():
                label_id = snapshot.label_id(label)
                assert snapshot.out_degree(index, label_id) == figure1.out_degree(user, label)
                assert snapshot.in_degree(index, label_id) == figure1.in_degree(user, label)

    def test_attributes_are_shared_live(self, figure1, snapshot):
        index = snapshot.index_of("Alice")
        assert snapshot.attributes_of(index) == figure1.attributes("Alice")
        figure1.attributes("Alice")["quirk"] = 1
        assert snapshot.attributes_of(index)["quirk"] == 1

    def test_relationship_lookup(self, figure1, snapshot):
        for rel in figure1.relationships():
            rebuilt = snapshot.relationship(
                snapshot.index_of(rel.source),
                snapshot.index_of(rel.target),
                snapshot.label_id(rel.label),
            )
            assert rebuilt == rel and rebuilt.attributes is rel.attributes

    def test_empty_graph_compiles(self, empty_graph):
        snapshot = compile_graph(empty_graph)
        assert snapshot.number_of_nodes() == 0
        assert snapshot.number_of_labels() == 0


class TestEpochInvalidation:
    def test_snapshot_is_cached_until_mutation(self, figure1):
        first = compile_graph(figure1)
        assert compile_graph(figure1) is first
        figure1.add_user("Zoe")
        assert first.is_stale()
        # The journal covers the one-mutation gap, so the refresh patches
        # the cached snapshot in place instead of rebuilding it.
        second = compile_graph(figure1)
        assert second is first and not second.is_stale()
        assert "Zoe" in second.node_index

    def test_snapshot_is_rebuilt_without_a_journal(self, figure1):
        figure1.journal_limit = 0
        first = compile_graph(figure1)
        figure1.add_user("Zoe")
        second = compile_graph(figure1)
        assert second is not first
        assert "Zoe" in second.node_index and "Zoe" not in first.node_index

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_user("Zoe"),
        lambda g: g.add_relationship("Alice", "Bill", "parent"),
        lambda g: g.remove_relationship("Alice", "Bill", "friend"),
        lambda g: g.remove_user("George"),
        lambda g: g.update_user("Alice", age=99),
        lambda g: g.ensure_user("Alice", age=99),
    ])
    def test_every_mutation_bumps_the_epoch(self, figure1, mutate):
        before = figure1.epoch
        mutate(figure1)
        assert figure1.epoch > before

    def test_queries_observe_mutations(self, figure1):
        evaluator = OnlineBFSEvaluator(figure1)
        assert not evaluator.evaluate("Alice", "George", expr("colleague+[1]")).reachable
        figure1.add_relationship("Alice", "George", "colleague")
        assert evaluator.evaluate("Alice", "George", expr("colleague+[1]")).reachable
        figure1.remove_relationship("Alice", "George", "colleague")
        assert not evaluator.evaluate("Alice", "George", expr("colleague+[1]")).reachable

    def test_attribute_updates_invalidate_condition_memos(self, figure1):
        evaluator = OnlineBFSEvaluator(figure1)
        adult = expr("friend+[1]{age >= 18}")
        assert evaluator.evaluate("Alice", "Colin", adult).reachable
        evaluator.evaluate("Alice", "Colin", adult)  # warm the memo
        figure1.update_user("Colin", age=10)
        assert not evaluator.evaluate("Alice", "Colin", adult).reachable


class TestBackendEquivalenceThroughCompiledGraph:
    """Every backend over the paper graph, against the reference oracle."""

    @pytest.mark.parametrize("backend", available_backends())
    def test_paper_graph_decisions(self, backend):
        graph = paper_graph()
        candidate = create_evaluator(backend, graph)
        queries = random_query_mix(graph, 40, seed=123, max_steps=2, max_depth=3,
                                   condition_probability=0.25)
        for source, target, expression in queries:
            expected = reference_reachable(graph, source, target, expression)
            actual = candidate.evaluate(source, target, expression,
                                        collect_witness=False).reachable
            assert actual == expected, (backend, source, target, expression.to_text())

    def test_compiled_witnesses_are_valid(self):
        graph = preferential_attachment_graph(70, edges_per_node=3, seed=11)
        evaluator = create_evaluator("bfs", graph)
        queries = random_query_mix(graph, 30, seed=17, max_steps=2, max_depth=2,
                                   condition_probability=0.1)
        for source, target, expression in queries:
            result = evaluator.evaluate(source, target, expression, collect_witness=True)
            if not result.reachable:
                continue
            witness = result.witness
            assert witness.start == source and witness.end == target
            assert expression.min_length() <= len(witness) <= expression.max_length()
            for traversal in witness:
                rel = traversal.relationship
                assert graph.has_relationship(rel.source, rel.target, rel.label)

    def test_find_targets_matches_the_oracle(self):
        graph = preferential_attachment_graph(70, edges_per_node=3, seed=19)
        compiled_bfs = OnlineBFSEvaluator(graph)
        for text in ("friend+[1,2]", "friend*[1,2]", "colleague-[1]/friend+[1,2]",
                     "friend+[1,3]{age >= 18}"):
            expression = expr(text)
            for source in sorted(graph.users(), key=str)[:8]:
                expected = reference_targets(graph, source, expression)
                assert compiled_bfs.find_targets(source, expression) == expected
