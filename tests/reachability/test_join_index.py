"""Unit tests for base tables, W-table and cluster join index (Figures 6 and 7)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.reachability.join_index import JoinIndex
from repro.reachability.linegraph import LineGraph


@pytest.fixture(scope="module")
def forward_index():
    from repro.datasets.paper_graph import paper_graph

    line_graph = LineGraph(paper_graph(), include_reverse=False)
    return JoinIndex(line_graph).build()


@pytest.fixture(scope="module")
def oriented_index():
    from repro.datasets.paper_graph import paper_graph

    line_graph = LineGraph(paper_graph(), include_reverse=True)
    return JoinIndex(line_graph).build()


class TestBaseTables:
    def test_one_table_per_label(self, forward_index):
        names = sorted(forward_index.base_tables)
        assert names == ["T_colleague", "T_friend", "T_parent"]

    def test_base_table_rows_match_line_vertices(self, forward_index):
        assert len(forward_index.base_table(("friend", "+"))) == 8
        assert len(forward_index.base_table(("colleague", "+"))) == 2
        assert len(forward_index.base_table(("parent", "+"))) == 2

    def test_base_table_schema_is_three_columns(self, forward_index):
        table = forward_index.base_table(("friend", "+"))
        assert all(row._fields == ("node", "lin", "lout") for row in table)

    def test_missing_base_table_returns_none(self, forward_index):
        assert forward_index.base_table(("follows", "+")) is None

    def test_reverse_tables_exist_in_oriented_index(self, oriented_index):
        assert oriented_index.base_table(("friend", "-")) is not None
        assert len(oriented_index.base_table(("friend", "-"))) == 8

    def test_labels_of_known_vertex(self, forward_index):
        lin, lout = forward_index.labels_of("friend:Alice->Colin")
        assert isinstance(lin, frozenset) and isinstance(lout, frozenset)


class TestRequiresBuild:
    def test_unbuilt_index_rejects_queries(self, figure1):
        index = JoinIndex(LineGraph(figure1, include_reverse=False))
        with pytest.raises(RuntimeError):
            index.reachability_join(("friend", "+"), ("colleague", "+"))


class TestReachabilityJoins:
    def test_friend_colleague_join_contains_the_paper_pair(self, forward_index):
        """Section 3.3: <friend A-C, colleague D-F> appears in T_friend ⋈ T_colleague."""
        pairs = forward_index.reachability_join(("friend", "+"), ("colleague", "+"))
        assert ("friend:Alice->Colin", "colleague:David->Fred") in pairs

    def test_friend_parent_join_matches_the_worked_example(self, forward_index):
        """Section 3.3 lists exactly three tuples for T_friend ⋈ T_parent."""
        pairs = forward_index.reachability_join(("friend", "+"), ("parent", "+"))
        expected = {
            ("friend:Alice->Colin", "parent:David->George"),
            ("friend:Colin->David", "parent:David->George"),
            ("friend:Alice->Colin", "parent:Colin->Fred"),
        }
        assert expected <= pairs

    def test_join_via_wtable_equals_baseline_join(self, forward_index):
        for first in forward_index.line_graph.keys():
            for second in forward_index.line_graph.keys():
                assert forward_index.reachability_join(first, second) == (
                    forward_index.reachability_join_baseline(first, second)
                ), (first, second)

    def test_join_pairs_are_truly_reachable_in_line_graph(self, forward_index):
        line_graph = forward_index.line_graph
        graph = nx.DiGraph()
        graph.add_nodes_from(line_graph.vertex_ids())
        for vertex, successors in line_graph.adjacency().items():
            graph.add_edges_from((vertex, successor) for successor in successors)
        for first in line_graph.keys():
            for second in line_graph.keys():
                for x, y in forward_index.reachability_join(first, second):
                    assert nx.has_path(graph, x, y), (x, y)

    def test_join_completeness_against_line_graph_walks(self, forward_index):
        """Every reachable (x, y) pair with the right labels must appear in the join."""
        line_graph = forward_index.line_graph
        graph = nx.DiGraph()
        graph.add_nodes_from(line_graph.vertex_ids())
        for vertex, successors in line_graph.adjacency().items():
            graph.add_edges_from((vertex, successor) for successor in successors)
        first, second = ("friend", "+"), ("colleague", "+")
        pairs = forward_index.reachability_join(first, second)
        for x in line_graph.with_key(*first):
            for y in line_graph.with_key(*second):
                if x.vertex_id != y.vertex_id and nx.has_path(graph, x.vertex_id, y.vertex_id):
                    assert (x.vertex_id, y.vertex_id) in pairs

    def test_vertex_reaches(self, forward_index):
        assert forward_index.vertex_reaches("friend:Alice->Colin", "friend:Fred->George")
        assert not forward_index.vertex_reaches("friend:Fred->George", "friend:Alice->Colin")
        assert forward_index.vertex_reaches("friend:Alice->Colin", "friend:Alice->Colin")


class TestWTable:
    def test_relevant_centers_subset_of_all_centers(self, forward_index):
        centers = set(forward_index.cluster_index.keys())
        for first in forward_index.line_graph.keys():
            for second in forward_index.line_graph.keys():
                assert forward_index.relevant_centers(first, second) <= centers

    def test_unjoinable_pair_has_no_centers(self, forward_index):
        # Nothing can follow a parent edge with a colleague edge... actually
        # parent:Colin->Fred is followed by colleague? Fred has no outgoing
        # colleague edge, and George neither, so (parent, colleague) is empty.
        assert forward_index.relevant_centers(("parent", "+"), ("colleague", "+")) == frozenset()
        assert forward_index.reachability_join(("parent", "+"), ("colleague", "+")) == set()

    def test_w_table_rows_are_printable(self, forward_index):
        rows = forward_index.w_table_rows()
        assert rows
        for first_label, second_label, centers in rows:
            assert isinstance(first_label, str) and isinstance(second_label, str)
            assert centers and all(isinstance(center, str) for center in centers)

    def test_lookup_of_unknown_pair_is_empty(self, forward_index):
        assert forward_index.relevant_centers(("follows", "+"), ("friend", "+")) == frozenset()


class TestClusterIndex:
    def test_clusters_stored_in_sorted_center_order(self, forward_index):
        assert len(forward_index.cluster_index) > 0
        assert list(forward_index.cluster_index) == sorted(forward_index.cluster_index)
        for center, entry in forward_index.cluster_index.items():
            assert entry.center == center
            assert entry.size() >= 0

    def test_cluster_lookup(self, forward_index):
        center = next(iter(forward_index.cluster_index.keys()))
        entry = forward_index.cluster(center)
        assert entry is not None
        assert entry.u_vertices() or entry.v_vertices()

    def test_cluster_entry_key_filtering(self, forward_index):
        center = next(iter(forward_index.cluster_index.keys()))
        entry = forward_index.cluster(center)
        all_u = entry.u_vertices()
        by_key = set()
        for key in forward_index.line_graph.keys():
            by_key |= entry.u_vertices(key)
        assert all_u == by_key

    def test_statistics(self, forward_index):
        stats = forward_index.statistics()
        assert stats["line_vertices"] == 12
        assert stats["base_table_rows"] == 12
        assert stats["centers"] == len(forward_index.cluster_index)
        assert stats["index_entries"] > 0


class TestEpochArm:
    """A line graph older than its graph is labelled from its own adjacency.

    ``JoinIndex.build`` selects on the epoch: a current line graph takes the
    snapshot's interned labeling, a stale one goes through ``TwoHopIndex``.
    Both arms must produce the same index.
    """

    @staticmethod
    def _graphs():
        from repro.datasets.paper_graph import paper_graph
        from repro.graph.generators import preferential_attachment_graph

        yield "paper", paper_graph()
        # Small on purpose: with reverse vertices the line graph is one big
        # component and every join is quadratic in its size.
        yield "pa-60", preferential_attachment_graph(60, edges_per_node=3, seed=5)
        yield "pa-100", preferential_attachment_graph(100, edges_per_node=3, seed=71)

    @pytest.mark.parametrize("include_reverse", [False, True])
    def test_stale_line_graph_arm_equals_interned_arm(self, include_reverse):
        for name, graph in self._graphs():
            line_graph = LineGraph(graph, include_reverse=include_reverse)
            interned = JoinIndex(line_graph).build()
            # An attribute write moves the epoch without touching an edge: the
            # line graph is now stale, yet still describes the same structure.
            graph.update_user(next(iter(graph.users())), touched=True)
            assert line_graph.epoch != graph.epoch
            stale = JoinIndex(line_graph).build()
            assert interned.interned is not None and interned.two_hop is None
            assert stale.two_hop is not None and stale.interned is None
            for vertex_id in line_graph.vertex_ids():
                assert stale.labels_of(vertex_id) == interned.labels_of(vertex_id), (
                    name, vertex_id,
                )
            keys = line_graph.keys()
            for first in keys:
                for second in keys:
                    assert stale.reachability_join(first, second) == (
                        interned.reachability_join(first, second)
                    ), (name, first, second)
            assert stale.w_table_rows() == interned.w_table_rows(), name
            assert list(stale.cluster_index) == list(interned.cluster_index), name
