"""Unit tests of the denial filter and of the walk that probes it.

:class:`~repro.reachability.compiled_search.DenialFilter` is the SCC
condensation of a snapshot's all-label forward adjacency with one
reachability bitset per component.  ``OnlineBFSEvaluator.evaluate`` probes
it before walking a forward-only point query, and builds it once the
unreachable forward-only walks have scanned as many CSR entries as the
build reads (the rent-or-buy rule of ``_pay_for_denial``).  The hypothesis
differential against the transitive closure lives in
``tests/property/test_denial_filter.py``; these are the fixed cases.
"""

from __future__ import annotations

from collections import deque
from unittest import mock

import pytest

from repro.graph import compiled
from repro.graph.compiled import compile_graph
from repro.graph.social_graph import SocialGraph
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.compiled_search import DenialFilter

FILTER, WORK = "denial-filter", "denial-work"


def expr(text):
    return PathExpression.parse(text)


def forward_ball(graph, source):
    """Every user reachable from ``source`` over any label, ``source`` included."""
    ball = {source}
    queue = deque([source])
    while queue:
        for neighbor in graph.successors(queue.popleft()):
            if neighbor not in ball:
                ball.add(neighbor)
                queue.append(neighbor)
    return ball


def chain_graph(n=10, label="friend"):
    """``u0 -> u1 -> ... -> u{n-1}``: every backward query is a denial."""
    graph = SocialGraph("chain")
    for i in range(n):
        graph.add_user(f"u{i}")
    for i in range(n - 1):
        graph.add_relationship(f"u{i}", f"u{i + 1}", label)
    return graph


def build_reads(snapshot):
    return snapshot.number_of_nodes() + sum(
        map(snapshot.number_of_edges, range(snapshot.number_of_labels()))
    )


def built_filter(graph):
    snapshot = compile_graph(graph)
    denial_filter = snapshot.derived[FILTER] = DenialFilter(snapshot)
    return snapshot, denial_filter


class TestCondensation:
    def test_empty_graph(self, empty_graph):
        denial_filter = DenialFilter(compile_graph(empty_graph))
        assert len(denial_filter.comp_of) == 0
        assert denial_filter.reach == []

    def test_verdicts_match_the_forward_ball(self, figure1):
        snapshot = compile_graph(figure1)
        denial_filter = DenialFilter(snapshot)
        for source in figure1.users():
            ball = forward_ball(figure1, source)
            for target in figure1.users():
                verdict = denial_filter.reaches(
                    snapshot.index_of(source), snapshot.index_of(target)
                )
                assert verdict == (target in ball), (source, target)

    def test_every_slot_reaches_itself(self):
        graph = chain_graph(4)
        graph.add_user("isolated")
        snapshot = compile_graph(graph)
        denial_filter = DenialFilter(snapshot)
        for node in range(snapshot.number_of_nodes()):
            assert denial_filter.reaches(node, node)

    def test_a_cycle_is_one_component(self):
        graph = chain_graph(5)
        graph.add_relationship("u3", "u1", "colleague")  # u1 -> u2 -> u3 -> u1
        snapshot = compile_graph(graph)
        denial_filter = DenialFilter(snapshot)
        comp_of = [denial_filter.comp_of[snapshot.index_of(f"u{i}")] for i in range(5)]
        assert comp_of[1] == comp_of[2] == comp_of[3]
        assert len(set(comp_of)) == 3
        assert len(denial_filter.reach) == 3

    def test_edges_point_from_higher_to_lower_components(self, small_random_graph):
        snapshot = compile_graph(small_random_graph)
        comp_of = DenialFilter(snapshot).comp_of
        for source in small_random_graph.users():
            for target in small_random_graph.successors(source):
                assert comp_of[snapshot.index_of(source)] >= comp_of[
                    snapshot.index_of(target)
                ]

    def test_overlay_rows_are_read_without_a_fold(self):
        graph = chain_graph(6)
        snapshot = compile_graph(graph)
        with mock.patch.object(compiled, "_FOLD_SHARE", 0):  # no threshold folds
            graph.add_relationship("u5", "u0", "colleague")  # closes the chain
            graph.remove_relationship("u2", "u3", "friend")  # and cuts it
            assert compile_graph(graph) is snapshot
        assert snapshot.overlay_rows
        denial_filter = DenialFilter(snapshot)
        assert snapshot.overlay_rows  # the build folded nothing
        index = snapshot.index_of
        assert denial_filter.reaches(index("u5"), index("u2"))
        assert not denial_filter.reaches(index("u0"), index("u3"))
        assert denial_filter.reaches(index("u3"), index("u1"))

    def test_a_tombstoned_slot_has_no_edges(self):
        graph = chain_graph(5)
        snapshot = compile_graph(graph)
        graph.remove_user("u2")
        assert compile_graph(graph) is snapshot
        denial_filter = DenialFilter(snapshot)
        index = snapshot.index_of
        assert not denial_filter.reaches(index("u0"), index("u3"))
        assert denial_filter.reaches(index("u3"), index("u4"))


class TestProbe:
    def test_a_proved_denial_is_answered_without_a_walk(self):
        graph = chain_graph()
        built_filter(graph)
        result = OnlineBFSEvaluator(graph).evaluate("u5", "u1", expr("friend+[1,9]"))
        assert not result.reachable
        assert result.witness is None
        assert dict(result.counters) == {"filter_pruned": 1}

    def test_a_pair_the_filter_passes_is_walked(self):
        graph = chain_graph()
        built_filter(graph)
        evaluator = OnlineBFSEvaluator(graph)
        granted = evaluator.evaluate("u1", "u4", expr("friend+[1,3]"))
        assert granted.reachable and granted.witness is not None
        assert "filter_pruned" not in granted.counters
        assert granted.counters["edges_expanded"] > 0
        # Reachable over any label, yet denied by the expression: the walk
        # answers, and the filter prunes nothing it cannot prove.
        walked = evaluator.evaluate("u1", "u9", expr("friend+[1,3]"))
        assert not walked.reachable
        assert "filter_pruned" not in walked.counters

    def test_mixed_direction_expressions_never_probe(self):
        graph = chain_graph()
        built_filter(graph)
        evaluator = OnlineBFSEvaluator(graph)
        granted = evaluator.evaluate("u5", "u1", expr("friend-[1,9]"))
        assert granted.reachable
        either = evaluator.evaluate("u5", "u1", expr("friend*[1,9]"))
        assert either.reachable
        denied = evaluator.evaluate("u5", "u1", expr("friend+[1]/friend-[1]"))
        assert not denied.reachable
        assert "filter_pruned" not in denied.counters

    def test_find_targets_ignores_the_filter(self):
        graph = chain_graph()
        built_filter(graph)
        evaluator = OnlineBFSEvaluator(graph)
        assert evaluator.find_targets("u5", expr("friend+[1,9]")) == {
            f"u{i}" for i in range(6, 10)
        }
        assert evaluator.find_targets("u5", expr("friend-[1,9]")) == {
            f"u{i}" for i in range(5)
        }


class TestDenialWork:
    def test_grants_pay_nothing(self):
        graph = chain_graph()
        evaluator = OnlineBFSEvaluator(graph)
        assert evaluator.evaluate("u0", "u3", expr("friend+[1,3]")).reachable
        assert WORK not in compile_graph(graph).derived

    def test_a_forward_only_denial_pays_what_it_scanned(self):
        graph = chain_graph()
        evaluator = OnlineBFSEvaluator(graph)
        first = evaluator.evaluate("u5", "u1", expr("friend+[1,9]"))
        second = evaluator.evaluate("u6", "u2", expr("friend+[1,9]"))
        assert not first.reachable and not second.reachable
        paid = first.counters["edges_expanded"] + second.counters["edges_expanded"]
        assert compile_graph(graph).derived[WORK] == paid

    def test_mixed_direction_denials_pay_nothing(self):
        graph = chain_graph()
        evaluator = OnlineBFSEvaluator(graph)
        result = evaluator.evaluate("u5", "u1", expr("friend+[1]/friend-[2]"))
        assert not result.reachable
        assert WORK not in compile_graph(graph).derived

    def test_sweeps_pay_nothing(self):
        graph = chain_graph()
        evaluator = OnlineBFSEvaluator(graph)
        evaluator.find_targets("u5", expr("friend+[1,9]"))
        evaluator.sweep_targets_many(["u5", "u7"], expr("friend+[1,9]"))
        assert WORK not in compile_graph(graph).derived

    def test_the_filter_is_built_when_the_work_reaches_the_build_reads(self):
        graph = chain_graph()
        snapshot = compile_graph(graph)
        threshold = build_reads(snapshot)
        assert threshold == 10 + 9
        evaluator = OnlineBFSEvaluator(graph)
        sources = [f"u{i}" for i in range(9, 0, -1)]
        work = 0
        for source in sources:
            result = evaluator.evaluate(source, "u0", expr("friend+[1,9]"))
            assert not result.reachable
            if work >= threshold:
                assert dict(result.counters) == {"filter_pruned": 1}
                continue
            work += result.counters.get("edges_expanded", 0)  # u9 has no row
            assert snapshot.derived[WORK] == work
            assert (FILTER in snapshot.derived) == (work >= threshold)
        assert FILTER in snapshot.derived
        assert snapshot.derived[WORK] == work  # pruned denials pay nothing

    def test_a_structural_patch_starts_the_work_over(self):
        graph = chain_graph()
        evaluator = OnlineBFSEvaluator(graph)
        for i in range(9, 0, -1):
            evaluator.evaluate(f"u{i}", "u0", expr("friend+[1,9]"))
        snapshot = compile_graph(graph)
        assert FILTER in snapshot.derived
        graph.add_relationship("u0", "u9", "colleague")
        assert compile_graph(graph) is snapshot
        assert FILTER not in snapshot.derived and WORK not in snapshot.derived
        result = evaluator.evaluate("u8", "u0", expr("friend+[1,9]"))
        assert not result.reachable and "filter_pruned" not in result.counters
        assert snapshot.derived[WORK] == result.counters["edges_expanded"] == 1


@pytest.mark.parametrize("text", ["friend+[1,3]", "friend+[1,2]/colleague+[1]"])
def test_answers_match_the_walk_before_and_after_the_build(small_random_graph, text):
    expression = expr(text)
    users = sorted(small_random_graph.users())
    before = OnlineBFSEvaluator(small_random_graph)
    answers = {
        (source, target): before.evaluate(
            source, target, expression, collect_witness=False
        ).reachable
        for source in users[:12]
        for target in users
    }
    built_filter(small_random_graph)
    after = OnlineBFSEvaluator(small_random_graph)
    pruned = 0
    for (source, target), expected in answers.items():
        result = after.evaluate(source, target, expression, collect_witness=False)
        assert result.reachable == expected, (source, target)
        pruned += "filter_pruned" in result.counters
    assert pruned == sum(
        target not in forward_ball(small_random_graph, source)
        for source, target in answers
    )
