"""Cache-invalidation edge coverage: epochs, attribute writes, cache_size=0.

The contract under test (ROADMAP "Cache-invalidation contract"):

* every mutating :class:`SocialGraph` method bumps ``graph.epoch``;
* derived state (compiled snapshots, the engine's decision / target-set
  memos) records its build epoch and rebuilds when the epoch moves;
* ``graph.attributes(u)`` returns a live, epoch-aware
  :class:`~repro.graph.social_graph.AttributeMap`: reads are free of
  copying, while writes through it bump the epoch exactly like
  ``update_user`` (the historical write-through caveat is gone);
* ``cache_size=0`` disables the decision memo entirely.
"""

from __future__ import annotations

from repro.graph.compiled import compile_graph
from repro.graph.social_graph import SocialGraph
from repro.reachability.engine import ReachabilityEngine


def two_user_graph() -> SocialGraph:
    graph = SocialGraph()
    graph.add_user("a", age=30)
    graph.add_user("b", age=40)
    graph.add_relationship("a", "b", "friend")
    return graph


class TestEveryMutatorBumpsTheEpoch:
    def test_add_user(self):
        graph = SocialGraph()
        before = graph.epoch
        graph.add_user("a")
        assert graph.epoch == before + 1

    def test_ensure_user_bumps_only_on_change(self):
        graph = SocialGraph()
        graph.ensure_user("a", age=30)
        after_add = graph.epoch
        graph.ensure_user("a")  # already present, nothing merged
        assert graph.epoch == after_add
        graph.ensure_user("a", age=31)  # attribute merge is a mutation
        assert graph.epoch == after_add + 1

    def test_update_user(self):
        graph = two_user_graph()
        before = graph.epoch
        graph.update_user("a", age=31)
        assert graph.epoch == before + 1

    def test_remove_user(self):
        graph = two_user_graph()
        before = graph.epoch
        graph.remove_user("b")
        assert graph.epoch > before

    def test_add_relationship(self):
        graph = two_user_graph()
        before = graph.epoch
        graph.add_relationship("b", "a", "colleague")
        assert graph.epoch == before + 1

    def test_reciprocal_add_bumps_for_each_edge(self):
        graph = two_user_graph()
        before = graph.epoch
        graph.add_relationship("a", "b", "colleague", reciprocal=True)
        assert graph.epoch == before + 2

    def test_remove_relationship(self):
        graph = two_user_graph()
        before = graph.epoch
        graph.remove_relationship("a", "b", "friend")
        assert graph.epoch == before + 1


class TestSnapshotFollowsTheEpoch:
    def test_snapshot_is_reused_between_mutations(self):
        graph = two_user_graph()
        assert compile_graph(graph) is compile_graph(graph)

    def test_snapshot_refreshes_after_any_mutation(self):
        graph = two_user_graph()
        snapshot = compile_graph(graph)
        graph.add_user("c")
        assert snapshot.is_stale()
        # Journal-covered gap: the same object is patched in place.
        refreshed = compile_graph(graph)
        assert refreshed is snapshot and not refreshed.is_stale()
        assert refreshed.index_of("c") == 2

    def test_snapshot_rebuilds_when_the_journal_cannot_cover_the_gap(self):
        graph = two_user_graph()
        graph.journal_limit = 0  # journaling off: every refresh is a rebuild
        snapshot = compile_graph(graph)
        graph.add_user("c")
        rebuilt = compile_graph(graph)
        assert rebuilt is not snapshot
        assert snapshot.is_stale() and not rebuilt.is_stale()

    def test_snapshot_tombstones_removed_users_in_place(self):
        graph = two_user_graph()
        snapshot = compile_graph(graph)
        graph.remove_user("b")
        # Removals no longer force a rebuild: the slot is tombstoned and the
        # same object patched in place (see test_delta_maintenance for the
        # full churn harness).
        patched = compile_graph(graph)
        assert patched is snapshot and not patched.is_stale()
        assert not patched.graph.has_user("b")
        assert "b" not in patched.node_index
        assert patched.number_of_live_nodes() == 1
        assert patched.delta_events["tombstones"] == 1

    def test_derived_indexes_die_with_their_snapshot(self):
        graph = two_user_graph()
        snapshot = compile_graph(graph)
        snapshot.derived["probe"] = object()
        graph.add_relationship("b", "a", "friend")
        # Unregistered derived entries are conservatively dropped by any
        # delta patch (and a full rebuild starts from an empty dict anyway).
        assert "probe" not in compile_graph(graph).derived


class TestAttributeWritesInvalidateCaches:
    """``graph.attributes(u)`` hands out a live epoch-aware view: reads stay
    current and free, writes invalidate cached decisions like ``update_user``."""

    def test_item_write_bumps_the_epoch_and_decision_memo(self):
        graph = two_user_graph()
        engine = ReachabilityEngine(graph, "bfs")
        expression = "friend+[1]{age >= 40}"
        assert engine.is_reachable("a", "b", expression)

        before = graph.epoch
        graph.attributes("b")["age"] = 10
        assert graph.epoch == before + 1
        assert not engine.is_reachable("a", "b", expression)

        # update_user remains equivalent (and the two paths compose).
        graph.update_user("b", age=45)
        assert engine.is_reachable("a", "b", expression)

    def test_condition_memo_sees_writes_even_without_the_decision_memo(self):
        graph = two_user_graph()
        engine = ReachabilityEngine(graph, "bfs", cache_size=0)
        expression = "friend+[1]{age >= 40}"
        assert engine.is_reachable("a", "b", expression)
        # cache_size=0 only disables the engine's decision memo; the compiled
        # automaton's per-(step, node) condition memo is epoch-scoped, and the
        # write bumps the epoch, so the new value is visible immediately.
        graph.attributes("b")["age"] = 10
        assert not engine.is_reachable("a", "b", expression)

    def test_mutable_mapping_methods_bump_too(self):
        graph = two_user_graph()
        attrs = graph.attributes("a")
        epoch = graph.epoch
        attrs.update(city="paris", age=31)
        assert graph.epoch > epoch
        epoch = graph.epoch
        assert attrs.pop("city") == "paris"
        assert graph.epoch == epoch + 1
        epoch = graph.epoch
        del attrs["age"]
        assert graph.epoch == epoch + 1
        assert dict(graph.attributes("a")) == {}

    def test_reads_do_not_bump(self):
        graph = two_user_graph()
        attrs = graph.attributes("a")
        epoch = graph.epoch
        assert attrs["age"] == 30
        assert attrs.get("missing") is None
        assert "age" in attrs and len(attrs) == 1
        assert attrs == {"age": 30}
        assert graph.epoch == epoch

    def test_snapshot_refreshes_after_attribute_write(self):
        graph = two_user_graph()
        snapshot = compile_graph(graph)
        graph.attributes("a")["age"] = 99
        assert snapshot.is_stale()
        # Attribute-only deltas are absorbed without structural work: same
        # object, and the shared attribute dicts already see the new value.
        refreshed = compile_graph(graph)
        assert refreshed is snapshot and not refreshed.is_stale()
        assert refreshed.attributes_of(refreshed.index_of("a"))["age"] == 99

    def test_target_set_memo_invalidated_by_mutation(self):
        graph = two_user_graph()
        engine = ReachabilityEngine(graph, "bfs")
        assert engine.find_targets("a", "friend+[1,2]") == {"b"}
        graph.add_user("c")
        graph.add_relationship("b", "c", "friend")
        assert engine.find_targets("a", "friend+[1,2]") == {"b", "c"}
        assert engine.sweep_targets_many(["a", "b"], "friend+[1,2]")[0] == {
            "a": {"b", "c"},
            "b": {"c"},
        }


class TestCacheSizeZeroDisablesTheMemo:
    def test_no_entries_are_ever_stored(self):
        graph = two_user_graph()
        engine = ReachabilityEngine(graph, "bfs", cache_size=0)
        for _ in range(3):
            assert engine.is_reachable("a", "b", "friend+[1]")
            assert engine.find_targets("a", "friend+[1]") == {"b"}
            assert engine.sweep_targets_many(["a", "b"], "friend+[1]")[0] == {
                "a": {"b"},
                "b": set(),
            }
        info = engine.cache_info()
        assert info["hits"] == 0 and info["misses"] == 0
        assert info["decisions"] == 0 and info["target_sets"] == 0
        assert info["max_size"] == 0
