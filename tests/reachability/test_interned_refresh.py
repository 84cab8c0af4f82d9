"""Bringing a stale interned cluster index up to date: a rebuild.

The index is never maintained in place.  Differential property harness:
after a churn burst, the index rebuilt over the graph's current compiled
snapshot — pinned away, or delta-patched in place with tombstoned and
reused slots — must be indistinguishable from one built fresh over a clean
copy of the final graph: the full reachability matrix, the Definition-5
labeling size, the line edge count and the per-component representatives
all have to agree.  The index it replaces keeps answering from its pinned
build-time snapshot.  The evaluator-level tests check that only
``ClusterIndexEvaluator.build()`` moves a held evaluator on, and that the
rebuilt answers agree with every other backend.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.compiled import compile_graph
from repro.graph.social_graph import SocialGraph
from repro.policy.path_expression import PathExpression
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.interned import InternedLineIndex, interned_line_index

LABELS = ["friend", "follows", "coworker"]
REBUILD_SEEDS = range(120)


def sparse_graph(seed, users=30, edges=34):
    """A sparse random digraph (mean out-degree ~1, fine-grained line SCCs)."""
    rng = random.Random(seed)
    graph = SocialGraph()
    names = [f"u{i}" for i in range(users)]
    for name in names:
        graph.add_user(name, age=rng.randint(18, 60))
    added = set()
    while len(added) < edges:
        a, b = rng.sample(names, 2)
        label = rng.choice(LABELS)
        if (a, b, label) in added:
            continue
        graph.add_relationship(a, b, label)
        added.add((a, b, label))
    return graph, names, added, rng


def churn(graph, names, edges, rng, rounds, remove_user_prob=0.2):
    """Mixed burst: user removals, edge removals, edge adds, user adds."""
    edge_list = list(edges)
    for _ in range(rounds):
        roll = rng.random()
        if roll < remove_user_prob and len(names) > 4:
            victim = rng.choice(names)
            names.remove(victim)
            edge_list = [e for e in edge_list if victim not in (e[0], e[1])]
            graph.remove_user(victim)
        elif roll < 0.35 and edge_list:
            edge = rng.choice(edge_list)
            edge_list.remove(edge)
            graph.remove_relationship(*edge)
        elif roll < 0.8:
            a, b = rng.sample(names, 2)
            label = rng.choice(LABELS)
            if (a, b, label) not in edge_list:
                graph.add_relationship(a, b, label)
                edge_list.append((a, b, label))
        else:
            newbie = f"n{rng.randint(0, 10 ** 6)}"
            if newbie not in names:
                graph.add_user(newbie, age=rng.randint(18, 60))
                names.append(newbie)
                other = rng.choice(names[:-1])
                label = rng.choice(LABELS)
                graph.add_relationship(newbie, other, label)
                edge_list.append((newbie, other, label))
    edges.clear()
    edges.update(edge_list)


def fresh_copy(graph, names, edges):
    """Rebuild the final graph from scratch (deterministic edge order)."""
    out = SocialGraph()
    for name in names:
        out.add_user(name, **graph._nodes[name])
    for (a, b, label) in sorted(edges, key=str):
        out.add_relationship(a, b, label)
    return out


def fresh_index(graph, names, edges, include_reverse):
    return InternedLineIndex(
        compile_graph(fresh_copy(graph, names, edges)), include_reverse=include_reverse
    )


def reach_matrix(index):
    """Full reachability matrix over the line vertices, keyed by decoded ids."""
    ids = {v: index.vertex_id(v) for v in range(index.count)}
    return {(ids[a], ids[b]): index.reaches(a, b) for a in ids for b in ids}


def assert_indexes_equivalent(rebuilt, fresh):
    assert reach_matrix(rebuilt) == reach_matrix(fresh)
    assert rebuilt.labeling_size() == fresh.labeling_size()
    assert rebuilt.number_of_line_edges() == fresh.number_of_line_edges()
    assert sorted(rebuilt.representative_names()) == sorted(
        fresh.representative_names()
    )


class TestRebuildAfterChurn:
    @pytest.mark.parametrize("seed", REBUILD_SEEDS)
    def test_rebuild_over_a_pinned_index_matches_fresh_build(self, seed):
        graph, names, edges, rng = sparse_graph(seed)
        index = interned_line_index(graph, include_reverse=False, refresh=True)
        snapshot = index.snapshot.pin()
        epoch = snapshot.epoch
        before = reach_matrix(index)
        churn(graph, names, edges, rng, rounds=6)
        rebuilt = interned_line_index(graph, include_reverse=False)
        # The pinned snapshot was not patched: the rebuild got a new one.
        assert rebuilt.snapshot is not snapshot
        assert rebuilt.snapshot.epoch == graph.epoch
        assert snapshot.pinned and snapshot.epoch == epoch
        assert reach_matrix(index) == before
        assert_indexes_equivalent(rebuilt, fresh_index(graph, names, edges, False))

    @pytest.mark.parametrize("seed", range(40))
    def test_repeated_rebuilds_over_a_patched_snapshot_stay_equivalent(self, seed):
        """Three churn generations on an unpinned snapshot: each one is
        delta-patched in place (tombstoned and reused slots) and the index
        cached on it is dropped, so the next lookup rebuilds over it."""
        graph, names, edges, rng = sparse_graph(seed)
        index = interned_line_index(graph, include_reverse=False, refresh=True)
        snapshot = index.snapshot
        for _generation in range(3):
            churn(graph, names, edges, rng, rounds=4)
            rebuilt = interned_line_index(graph, include_reverse=False)
            assert rebuilt is not index
            assert rebuilt.snapshot is snapshot  # patched, not recompiled
            assert rebuilt.snapshot.epoch == graph.epoch
            assert_indexes_equivalent(rebuilt, fresh_index(graph, names, edges, False))
            index = rebuilt

    @pytest.mark.parametrize("seed", range(40))
    def test_oriented_rebuild_matches_fresh_build(self, seed):
        """The oriented (include_reverse) index usually has one giant line
        SCC; removals split it, and the rebuild must agree with a fresh
        build either way."""
        graph, names, edges, rng = sparse_graph(seed)
        index = interned_line_index(graph, include_reverse=True, refresh=True)
        index.snapshot.pin()
        churn(graph, names, edges, rng, rounds=5)
        rebuilt = interned_line_index(graph, include_reverse=True)
        assert rebuilt.snapshot is not index.snapshot
        assert_indexes_equivalent(rebuilt, fresh_index(graph, names, edges, True))

    def test_remove_then_readd_same_edge_rebuilds_the_same_index(self):
        graph, names, edges, rng = sparse_graph(7)
        index = interned_line_index(graph, include_reverse=False, refresh=True)
        before = reach_matrix(index)
        edge = sorted(edges, key=str)[0]
        graph.remove_relationship(*edge)
        graph.add_relationship(*edge)
        rebuilt = interned_line_index(graph, include_reverse=False)
        assert rebuilt is not index  # the epoch moved: the cached index went
        assert rebuilt.count == index.count
        assert reach_matrix(rebuilt) == before
        assert_indexes_equivalent(rebuilt, fresh_index(graph, names, edges, False))

    def test_a_pinned_snapshot_refuses_every_patch(self):
        """Splitting a giant line SCC on a pinned snapshot: the patch is
        refused outright and the held index keeps its one component."""
        graph = SocialGraph()
        for i in range(8):
            graph.add_user(f"u{i}")
        for i in range(8):
            graph.add_relationship(f"u{i}", f"u{(i + 1) % 8}", "friend")
        index = interned_line_index(graph, include_reverse=False, refresh=True)
        snapshot = index.snapshot.pin()
        assert max(index.comp_sizes) == 8  # one cycle = one line SCC
        epoch = snapshot.epoch
        graph.remove_relationship("u0", "u1", "friend")
        ops = graph.mutations_since(epoch)
        assert ops
        assert snapshot.apply_deltas(ops) is False
        assert snapshot.epoch == epoch and snapshot.pinned
        assert max(index.comp_sizes) == 8
        rebuilt = interned_line_index(graph, include_reverse=False)
        assert rebuilt.snapshot is not snapshot
        assert rebuilt.count == 7 and max(rebuilt.comp_sizes) == 1


class TestEvaluatorRebuild:
    def expr(self, text):
        return PathExpression.parse(text)

    def test_only_build_moves_a_held_evaluator_on(self):
        graph, names, edges, rng = sparse_graph(3)
        evaluator = ClusterIndexEvaluator(graph, include_reverse=False).build()
        expression = self.expr("friend+[1,3]")
        index = evaluator._index
        epoch = index.snapshot.epoch
        a, b = names[0], "newcomer"
        graph.add_user(b)
        graph.add_relationship(a, b, "friend")
        # Stale reads: the evaluator still holds its build-time index.
        assert evaluator._index is index and index.snapshot.epoch == epoch
        assert index.snapshot.pinned
        assert b not in evaluator.find_targets(a, expression)
        evaluator.build()
        assert evaluator._index is not index
        assert evaluator._index.snapshot.epoch == graph.epoch
        assert b in evaluator.find_targets(a, expression)
        # A second build with nothing new still builds fresh.
        current = evaluator._index
        evaluator.build()
        assert evaluator._index is not current
        assert evaluator._index.snapshot.epoch == graph.epoch

    def test_build_without_journal_still_catches_up(self):
        graph, names, _edges, _rng = sparse_graph(4)
        graph.journal_limit = 0  # journaling off: every snapshot recompiles
        evaluator = ClusterIndexEvaluator(graph, include_reverse=False).build()
        graph.add_relationship("u0", "u5", "friend")
        evaluator.build()
        assert evaluator._index.snapshot.epoch == graph.epoch
        assert "u5" in evaluator.find_targets("u0", self.expr("friend"))

    @pytest.mark.parametrize("seed", range(25))
    def test_rebuilt_evaluator_agrees_with_every_backend(self, seed):
        graph, names, edges, rng = sparse_graph(seed)
        evaluator = ClusterIndexEvaluator(graph, include_reverse=False).build()
        churn(graph, names, edges, rng, rounds=5)
        evaluator.build()
        final = fresh_copy(graph, names, edges)
        rebuilt = ClusterIndexEvaluator(final, include_reverse=False).build()
        bfs = OnlineBFSEvaluator(final)
        expression = self.expr("friend+[1,2]/follows+[1,2]")
        probes = rng.sample(names, min(8, len(names)))
        for source in probes:
            want = bfs.find_targets(source, expression)
            assert evaluator.find_targets(source, expression) == want
            assert rebuilt.find_targets(source, expression) == want
        for source in probes[:4]:
            for target in probes[:4]:
                want = bfs.evaluate(source, target, expression).reachable
                got = evaluator.evaluate(source, target, expression).reachable
                assert got == want


class TestServiceRebuildIntegration:
    def test_facade_rebuilds_a_stale_cluster_index(self):
        from repro.service.facade import GraphService

        graph, names, edges, rng = sparse_graph(11)
        service = GraphService(
            graph,
            backend_options={"cluster-index": {"include_reverse": False}},
        )
        engine = service.engine("cluster-index")
        index = engine.evaluator._index
        a, b = names[0], names[-1]
        if (a, b, "friend") not in edges:
            graph.add_relationship(a, b, "friend")
        engine = service.engine("cluster-index")
        # The routed engine answers from a rebuilt (current) snapshot.
        assert engine.evaluator._index is not index
        assert engine.evaluator._index.snapshot.epoch == graph.epoch
        assert index.snapshot.pinned

    def test_pinned_cluster_answers_track_the_live_graph(self):
        from repro.service.facade import GraphService

        graph, names, edges, rng = sparse_graph(12)
        service = GraphService(
            graph,
            default_backend="cluster-index",
            backend_options={"cluster-index": {"include_reverse": False}},
        )
        expression = PathExpression.parse("friend+[1,2]")
        for _round in range(3):
            churn(graph, names, edges, rng, rounds=4)
            bfs = OnlineBFSEvaluator(fresh_copy(graph, names, edges))
            for source in names[:6]:
                for target in names[-6:]:
                    result = service.reach(
                        source, target, expression, collect_witness=False
                    )
                    assert result.plan.backend == "cluster-index"
                    assert result.plan.backend_forced
                    assert result.reachable == bfs.evaluate(
                        source, target, expression
                    ).reachable
