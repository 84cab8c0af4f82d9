"""The interned cluster index against the string-id pipeline it replaced.

:class:`InternedLineIndex` builds the line graph, its SCC condensation and
the 2-hop cover over dense ints read from the compiled snapshot.  The
string-id stack (:class:`LineGraph` + :class:`TwoHopIndex`) builds the same
three structures from the live graph, so on one graph the two must name
the same line vertices, count the same line edges and answer every
vertex-to-vertex reachability question alike.  The evaluator on top, in
the forward-only orientation, must decide and sweep audiences like ``bfs``
on a scale-free graph whose hubs fan out widely.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.interned import InternedLineIndex
from repro.reachability.linegraph import LineGraph
from repro.reachability.twohop import TwoHopIndex
from repro.testing.graphs import adversarial_graph


@pytest.mark.parametrize("include_reverse", [True, False], ids=("oriented", "forward-only"))
@pytest.mark.parametrize("seed", range(4))
def test_interned_index_matches_the_string_line_graph(seed, include_reverse):
    # Sparse graphs with self-loops: several SCCs, and most pairs unreachable.
    graph = adversarial_graph(random.Random(seed), users=(30, 30), edges_per_user=(1, 1))
    interned = InternedLineIndex(compile_graph(graph), include_reverse=include_reverse)
    line_graph = LineGraph(graph, include_reverse=include_reverse)
    two_hop = TwoHopIndex(line_graph.adjacency())

    names = [interned.vertex_id(vertex) for vertex in range(interned.count)]
    assert len(set(names)) == len(names)
    assert sorted(names) == line_graph.vertex_ids()
    assert interned.number_of_line_edges() == line_graph.number_of_edges()
    assert interned.labeling_size() > 0 and two_hop.labeling_size() > 0
    for first, first_name in enumerate(names):
        for second, second_name in enumerate(names):
            assert interned.reaches(first, second) == two_hop.reachable(
                first_name, second_name
            ), (first_name, second_name)


def test_forward_only_cluster_index_answers_like_bfs_on_a_hub_graph():
    graph = preferential_attachment_graph(120, edges_per_node=3, seed=71)
    users = sorted(graph.users(), key=str)
    hubs = sorted(users, key=lambda user: -graph.out_degree(user))[:4]
    pairs = [
        (users[(i * 37) % len(users)], users[(i * 91 + 13) % len(users)])
        for i in range(40)
    ]
    evaluate_expressions = [
        PathExpression.parse(text)
        for text in (
            "friend+[1,3]",
            "friend+[2]/colleague+[1]",
            "friend+[1,2]/friend+[1]",
            "colleague+[1]/friend+[1,2]",
        )
    ]
    hub_expressions = [
        PathExpression.parse(text)
        for text in ("friend+[1,3]", "friend+[1,2]/friend+[1,2]", "friend+[2,3]/colleague+[1]")
    ]
    cluster = ClusterIndexEvaluator(graph, include_reverse=False).build()
    bfs = OnlineBFSEvaluator(graph)

    for expression in evaluate_expressions:
        for source, target in pairs:
            got = cluster.evaluate(source, target, expression, collect_witness=False)
            want = bfs.evaluate(source, target, expression, collect_witness=False)
            assert got.reachable == want.reachable, (source, target, expression.to_text())
    for expression in hub_expressions:
        expected = {hub: bfs.find_targets(hub, expression) for hub in hubs}
        assert {hub: cluster.find_targets(hub, expression) for hub in hubs} == expected
        assert cluster.sweep_targets_many(hubs, expression)[0] == expected
