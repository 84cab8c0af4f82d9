"""Delta maintenance of the compiled snapshot: journal + apply_deltas.

The correctness bar for incremental snapshot maintenance is *observational
equivalence*: after any journal-covered mutation burst, the patched snapshot
must be indistinguishable from a snapshot compiled from scratch — same node
and label interning contracts, identical per-label forward/reverse adjacency
(as decoded user-id sets; CSR row order is not part of the contract), the
same merged adjacency, the same degree statistics, and identical answers
from all four reachability backends.  (The hypothesis differential of the row
overlay itself — no fold, forced fold, clone, save/load, mapped copy-on-write
— lives in ``tests/property/test_overlay_equivalence.py``.)

The seeded property harness below applies >= 250 random mutation journals
(edge adds/removes including self-loops and brand-new labels, attribute
writes through both ``update_user`` and the live ``AttributeMap``, user
adds, user removals — which tombstone the slot in place — and remove/re-add
bursts that exercise slot reuse) to random base graphs and asserts exactly
that, plus the fallback paths: journal overflow must abandon the patch and
rebuild, and a pinned snapshot must never be patched at all.
"""

from __future__ import annotations

import random

import pytest

from repro.graph import compiled
from repro.graph.compiled import CompiledGraph, compile_graph
from repro.graph.generators import preferential_attachment_graph
from repro.graph.social_graph import SocialGraph
from repro.policy.rules import AccessRule
from repro.policy.store import PolicyStore
from repro.reachability.bfs import OnlineBFSEvaluator
from repro.reachability.cluster_engine import ClusterIndexEvaluator
from repro.reachability.dfs import OnlineDFSEvaluator
from repro.reachability.transitive_closure import TransitiveClosureEvaluator
from repro.testing.graphs import LABELS, adversarial_graph
from repro.workloads.queries import random_expression

#: Labels a mutation burst may introduce that the base graph never uses —
#: exercising post-build label interning.
LATE_LABELS = ("mentor", "neighbor")

JOURNAL_SEEDS = range(250)
MUTATIONS_PER_JOURNAL = 14
BACKEND_CHECK_EVERY = 10  # every 10th seed also differentials the backends


def test_seed_budget_meets_the_acceptance_floor():
    """The harness must cover at least 250 seeded mutation journals."""
    assert len(JOURNAL_SEEDS) >= 250


def random_base_graph(rng: random.Random) -> SocialGraph:
    return adversarial_graph(rng, users=(3, 8), attributes=("age",))


def apply_random_mutations(
    rng: random.Random,
    graph: SocialGraph,
    count: int,
    *,
    allow_remove_user: bool = False,
) -> None:
    """Drive ``count`` committed mutations through the public graph API."""
    applied = 0
    while applied < count:
        users = list(graph.users())
        roll = rng.random()
        if roll < 0.30:
            source = rng.choice(users)
            target = source if rng.random() < 0.2 else rng.choice(users)
            label = rng.choice(LABELS + LATE_LABELS if rng.random() < 0.2 else LABELS)
            if graph.has_relationship(source, target, label):
                continue
            graph.add_relationship(source, target, label)
        elif roll < 0.50:
            relationships = list(graph.relationships())
            if not relationships:
                continue
            rel = rng.choice(relationships)
            graph.remove_relationship(rel.source, rel.target, rel.label)
        elif roll < 0.75:
            user = rng.choice(users)
            if rng.random() < 0.5:
                graph.update_user(user, age=rng.randint(10, 70))
            else:
                graph.attributes(user)["age"] = rng.randint(10, 70)
        elif roll < 0.90 or not allow_remove_user:
            graph.add_user(f"late{graph.epoch}", age=rng.randint(10, 70))
        else:
            if len(users) <= 2:
                continue  # keep the graph interesting
            graph.remove_user(rng.choice(users))
        applied += 1


def decoded_adjacency(snapshot: CompiledGraph, label_id, *, backward=False):
    """Per-user sorted neighbor-id lists for one label (or the merged view).

    Tombstoned slots hold no user and must also hold no edges — asserted
    here rather than skipped silently.
    """
    reader = snapshot.in_neighbors if backward else snapshot.out_neighbors
    dead = snapshot.dead_slots
    decoded = {}
    for index in range(snapshot.number_of_nodes()):
        row = reader(index, label_id)
        if index in dead:
            assert len(row) == 0, f"tombstoned slot {index} still has edges"
            continue
        decoded[snapshot.node_ids[index]] = sorted(
            str(snapshot.node_ids[n]) for n in row
        )
    return decoded


def assert_snapshots_equivalent(patched: CompiledGraph, fresh: CompiledGraph):
    assert set(patched.node_index) == set(fresh.node_index)
    assert patched.number_of_live_nodes() == len(patched.node_index)
    assert patched.number_of_live_nodes() == fresh.number_of_live_nodes()
    dead = patched.dead_slots
    for user, index in patched.node_index.items():
        assert patched.node_ids[index] == user
        assert index not in dead
        assert patched.attrs[index] == fresh.attrs[fresh.index_of(user)]
    # Label interning is append-only across patches: a label whose last edge
    # was removed lingers with an empty CSR (observationally equivalent to
    # an absent label) until the next full rebuild.
    assert set(fresh.labels) <= set(patched.labels)
    for label in set(patched.labels) - set(fresh.labels):
        label_id = patched.label_id(label)
        assert patched.number_of_edges(label_id) == 0, label
    for label in fresh.labels:
        patched_id = patched.label_id(label)
        fresh_id = fresh.label_id(label)
        for backward in (False, True):
            assert decoded_adjacency(patched, patched_id, backward=backward) == (
                decoded_adjacency(fresh, fresh_id, backward=backward)
            ), (label, backward)
        # CSR structural invariants survive patching + compaction.
        offsets, targets = patched.forward(patched_id)
        assert len(offsets) == patched.number_of_nodes() + 1
        assert offsets[-1] == len(targets)
    for backward in (False, True):
        assert decoded_adjacency(patched, None, backward=backward) == (
            decoded_adjacency(fresh, None, backward=backward)
        )
    patched_stats = {row.label: row for row in patched.degree_statistics()}
    fresh_stats = {row.label: row for row in fresh.degree_statistics()}
    assert set(fresh_stats) <= set(patched_stats)
    for label in set(patched_stats) - set(fresh_stats):
        row = patched_stats[label]
        assert (row.edges, row.max_out_degree, row.max_in_degree) == (0, 0, 0)
    for label, row in fresh_stats.items():
        got = patched_stats[label]
        assert got.edges == row.edges, label
        assert got.mean_degree == pytest.approx(row.mean_degree), label
        assert got.max_out_degree == row.max_out_degree, label
        assert got.max_in_degree == row.max_in_degree, label


def assert_backends_agree_after_patch(rng: random.Random, graph: SocialGraph):
    """All four backends over the patched snapshot vs a from-scratch oracle."""
    oracle = OnlineBFSEvaluator(graph.copy())  # fresh graph, fresh snapshot
    contenders = {
        "bfs": OnlineBFSEvaluator(graph),
        "dfs": OnlineDFSEvaluator(graph),
        "transitive-closure": TransitiveClosureEvaluator(graph).build(),
        "cluster-index": ClusterIndexEvaluator(graph).build(),
    }
    users = sorted(graph.users())
    for _ in range(3):
        expression = random_expression(
            rng, LABELS, max_steps=2, max_depth=2, condition_probability=0.3
        )
        for _pair in range(3):
            source, target = rng.choice(users), rng.choice(users)
            expected = oracle.evaluate(
                source, target, expression, collect_witness=False
            ).reachable
            for name, backend in contenders.items():
                got = backend.evaluate(
                    source, target, expression, collect_witness=False
                ).reachable
                assert got == expected, (name, source, target, expression.to_text())
        owners = rng.sample(users, min(3, len(users)))
        expected_many = {
            owner: oracle.find_targets(owner, expression) for owner in owners
        }
        for name, backend in contenders.items():
            assert backend.find_targets_many(owners, expression) == expected_many, (
                name, owners, expression.to_text()
            )


@pytest.mark.parametrize("seed", JOURNAL_SEEDS)
def test_patched_snapshot_equals_fresh_compile(seed):
    rng = random.Random(90_000 + seed)
    graph = random_base_graph(rng)
    snapshot = compile_graph(graph)
    snapshot.degree_statistics()  # warm the partial-refresh path too
    apply_random_mutations(rng, graph, MUTATIONS_PER_JOURNAL)

    patched = compile_graph(graph)
    assert patched is snapshot, "journal-covered burst must patch in place"
    assert not patched.is_stale()
    assert patched.delta_events["applies"] >= 1

    assert_snapshots_equivalent(patched, CompiledGraph(graph))
    if seed % BACKEND_CHECK_EVERY == 0:
        assert_backends_agree_after_patch(rng, graph)


@pytest.mark.parametrize("seed", range(25))
def test_user_removal_tombstones_the_slot_in_place(seed):
    """The inverse of the pre-tombstone contract: removals patch, not rebuild."""
    rng = random.Random(91_000 + seed)
    graph = random_base_graph(rng)
    snapshot = compile_graph(graph)
    apply_random_mutations(rng, graph, 6)
    graph.remove_user(rng.choice(list(graph.users())))
    apply_random_mutations(rng, graph, 4)

    patched = compile_graph(graph)
    assert patched is snapshot, "remove_user must tombstone in place"
    assert not patched.is_stale()
    assert patched.delta_events["applies"] >= 1
    assert patched.delta_events["tombstones"] >= 1
    assert patched.number_of_live_nodes() == graph.number_of_users()
    assert_snapshots_equivalent(patched, CompiledGraph(graph))


@pytest.mark.parametrize("seed", JOURNAL_SEEDS)
def test_remove_heavy_churn_patches_in_place(seed):
    """The 250-seed harness, removals enabled: tombstoned == fresh-compiled."""
    rng = random.Random(93_000 + seed)
    graph = random_base_graph(rng)
    snapshot = compile_graph(graph)
    snapshot.degree_statistics()  # warm the partial-refresh path too
    apply_random_mutations(
        rng, graph, MUTATIONS_PER_JOURNAL, allow_remove_user=True
    )

    patched = compile_graph(graph)
    assert patched is snapshot, "removal-bearing burst must patch in place"
    assert not patched.is_stale()
    assert_snapshots_equivalent(patched, CompiledGraph(graph))
    if seed % BACKEND_CHECK_EVERY == 0:
        assert_backends_agree_after_patch(rng, graph)


@pytest.mark.parametrize("seed", range(25))
def test_remove_then_readd_reuses_the_slot(seed):
    rng = random.Random(94_000 + seed)
    graph = random_base_graph(rng)
    snapshot = compile_graph(graph)
    victim = rng.choice(list(graph.users()))
    slot = snapshot.node_index[victim]
    graph.remove_user(victim)
    newcomer = f"fresh{seed}"
    graph.add_user(newcomer, age=rng.randint(10, 70))
    others = [user for user in graph.users() if user != newcomer]
    for target in rng.sample(others, min(2, len(others))):
        graph.add_relationship(newcomer, target, rng.choice(LABELS))

    patched = compile_graph(graph)
    assert patched is snapshot
    assert patched.node_index[newcomer] == slot, "freed slot must be reused"
    assert patched.delta_events["slot_reuses"] >= 1
    assert patched.number_of_live_nodes() == graph.number_of_users()
    assert not patched.dead_slots
    assert_snapshots_equivalent(patched, CompiledGraph(graph))
    assert_backends_agree_after_patch(rng, graph)


@pytest.mark.parametrize("seed", range(25))
def test_interleaved_remove_readd_bursts(seed):
    """Same user id leaving and returning (with new edges) across one burst."""
    rng = random.Random(95_000 + seed)
    graph = random_base_graph(rng)
    snapshot = compile_graph(graph)
    for _ in range(3):
        victim = rng.choice(list(graph.users()))
        graph.remove_user(victim)
        graph.add_user(victim, age=rng.randint(10, 70))
        others = [user for user in graph.users() if user != victim]
        if others:
            graph.add_relationship(victim, rng.choice(others), rng.choice(LABELS))
        apply_random_mutations(rng, graph, 2, allow_remove_user=True)

    patched = compile_graph(graph)
    assert patched is snapshot
    assert_snapshots_equivalent(patched, CompiledGraph(graph))
    if seed % 5 == 0:
        assert_backends_agree_after_patch(rng, graph)


@pytest.mark.parametrize("seed", range(25))
def test_journal_overflow_falls_back_to_a_full_rebuild(seed):
    rng = random.Random(92_000 + seed)
    graph = random_base_graph(rng)
    graph.journal_limit = 8
    snapshot = compile_graph(graph)
    apply_random_mutations(rng, graph, 20)
    # Attribute writes compact, so the random burst alone no longer
    # guarantees overflow: structural ops (one entry each, never merged) do.
    for i in range(graph.journal_limit + 1):
        graph.add_user(f"overflow{i}")

    assert graph.mutations_since(snapshot.epoch) is None
    rebuilt = compile_graph(graph)
    assert rebuilt is not snapshot
    assert_snapshots_equivalent(rebuilt, CompiledGraph(graph))
    # The new snapshot re-enters the delta regime for covered bursts.
    apply_random_mutations(rng, graph, 4)
    assert compile_graph(graph) is rebuilt


class TestJournalContract:
    def test_mutations_since_returns_the_exact_tail(self):
        graph = SocialGraph()
        graph.add_user("a")
        mark = graph.epoch
        graph.add_user("b")
        graph.add_relationship("a", "b", "friend")
        assert graph.mutations_since(mark) == [
            ("add_user", "b"),
            ("add_edge", "a", "b", "friend"),
        ]
        assert graph.mutations_since(graph.epoch) == []

    def test_attribute_map_writes_are_journaled_and_coalesced(self):
        graph = SocialGraph()
        graph.add_user("a", age=1)
        mark = graph.epoch
        attrs = graph.attributes("a")
        attrs["age"] = 2
        del attrs["age"]
        # Repeated attribute writes to one user compact into a single
        # invalidation marker (the op carries no payload, so one replay
        # invalidates exactly as much as two would).
        assert graph.mutations_since(mark) == [("update_user", "a")]
        assert graph.epoch == mark + 2  # every write still bumps the epoch

    def test_attribute_compaction_stretches_the_journal_limit(self):
        graph = SocialGraph(journal_limit=4)
        for user in ("a", "b"):
            graph.add_user(user, age=0)
        mark = graph.epoch
        # 50 writes across two users: an uncompacted journal (limit 4) would
        # have overflowed long ago; the compacting one holds two entries.
        for round_ in range(25):
            graph.update_user("a", age=round_)
            graph.update_user("b", age=round_)
        assert graph.mutations_since(mark) == [
            ("update_user", "a"),
            ("update_user", "b"),
        ]
        snapshot = compile_graph(graph)
        graph.update_user("a", age=99)
        assert compile_graph(graph) is snapshot  # still delta-patchable

    def test_compaction_keeps_structural_ops_in_order(self):
        graph = SocialGraph(journal_limit=8)
        graph.add_user("a", age=0)
        mark = graph.epoch
        graph.update_user("a", age=1)
        graph.add_user("b")
        graph.add_relationship("a", "b", "friend")
        graph.update_user("a", age=2)  # merges: marker floats to the young end
        # Structural ops keep their relative commit order; the coalesced
        # attribute marker commutes with them and rides at the young end
        # (where overflow eviction cannot take coverage with it).
        assert graph.mutations_since(mark) == [
            ("add_user", "b"),
            ("add_edge", "a", "b", "friend"),
            ("update_user", "a"),
        ]
        # A span starting after the first write still sees the marker (its
        # floated epoch proves at least one merged bump is inside the span).
        assert graph.mutations_since(mark + 1) == [
            ("add_user", "b"),
            ("add_edge", "a", "b", "friend"),
            ("update_user", "a"),
        ]

    def test_evicting_a_merged_marker_does_not_wipe_coverage(self):
        """Overflow after a merge must pop the tombstoned old slot for free.

        If the merge floated the entry's epoch *in place*, evicting that
        (leftmost) slot would advance the floor past every retained entry
        and collapse exactly the attribute-hot span compaction exists to
        keep covered.
        """
        graph = SocialGraph(journal_limit=8)
        graph.add_user("a", age=0)
        graph.update_user("a", age=1)  # the entry that will merge later
        for i in range(7):
            graph.add_user(f"s{i}")  # structural ops fill the deque
        mark = graph.epoch
        snapshot = compile_graph(graph)
        graph.update_user("a", age=2)  # merges: the old slot is tombstoned
        graph.add_user("b")  # overflow: must evict dead weight, not coverage
        assert graph.mutations_since(mark) == [
            ("update_user", "a"),
            ("add_user", "b"),
        ]
        assert compile_graph(graph) is snapshot  # still delta-patchable

    def test_remove_and_readd_closes_the_merge_anchor(self):
        graph = SocialGraph()
        graph.add_user("a", age=0)
        graph.update_user("a", age=1)
        graph.remove_user("a")
        mark_after_removal = graph.epoch
        graph.add_user("a", age=2)
        graph.update_user("a", age=3)
        # The post-re-add write must appear *after* the add, not float the
        # pre-removal marker into the span.
        assert graph.mutations_since(mark_after_removal) == [
            ("add_user", "a"),
            ("update_user", "a"),
        ]

    def test_foreign_or_future_epochs_are_not_covered(self):
        graph = SocialGraph()
        graph.add_user("a")
        assert graph.mutations_since(graph.epoch + 5) is None

    def test_journal_limit_zero_disables_coverage(self):
        graph = SocialGraph(journal_limit=0)
        graph.add_user("a")
        mark = graph.epoch
        graph.add_user("b")
        assert graph.mutations_since(mark) is None
        assert graph.mutations_since(graph.epoch) == []

    def test_reconfiguring_the_limit_resets_coverage(self):
        graph = SocialGraph()
        graph.add_user("a")
        mark = graph.epoch
        graph.add_user("b")
        graph.journal_limit = 16
        assert graph.mutations_since(mark) is None  # pre-reset span is gone
        graph.add_user("c")
        assert graph.mutations_since(graph.epoch - 1) == [("add_user", "c")]

    def test_bumps_that_bypass_the_journal_break_coverage(self):
        graph = SocialGraph()
        graph.add_user("a")
        mark = graph.epoch
        graph.add_user("b")
        graph._epoch += 1  # simulate a buggy mutation path
        assert graph.mutations_since(mark) is None


class TestDerivedInvalidationPolicies:
    def _graph(self):
        graph = SocialGraph()
        for user in ("a", "b", "c"):
            graph.add_user(user, age=30)
        graph.add_relationship("a", "b", "friend")
        graph.add_relationship("b", "c", "friend")
        return graph

    def test_attribute_only_patch_keeps_the_line_index(self):
        from repro.reachability.interned import interned_line_index

        graph = self._graph()
        index = interned_line_index(graph)
        graph.attributes("b")["age"] = 55
        assert interned_line_index(graph) is index  # structural policy: kept

    def test_edge_patch_drops_the_line_index(self):
        from repro.reachability.interned import interned_line_index

        graph = self._graph()
        index = interned_line_index(graph)
        graph.add_relationship("c", "a", "colleague")
        rebuilt = interned_line_index(graph)
        assert rebuilt is not index
        assert rebuilt.snapshot is index.snapshot  # same patched snapshot

    def test_attribute_only_patch_keeps_degree_statistics_identity(self):
        graph = self._graph()
        snapshot = compile_graph(graph)
        stats = snapshot.degree_statistics()
        graph.update_user("a", age=31)
        assert compile_graph(graph) is snapshot
        assert snapshot.degree_statistics() is stats

    def test_edge_patch_steps_the_degree_counters_without_a_rescan(self):
        graph = self._graph()
        graph.add_relationship("a", "c", "colleague")
        snapshot = compile_graph(graph)
        stats = snapshot.degree_statistics()
        scanned = snapshot.delta_events["degree_offsets_scanned"]
        assert scanned == 2 * 2 * snapshot.number_of_nodes()  # labels x sides
        graph.add_relationship("c", "b", "colleague")
        graph.add_relationship("a", "b", "colleague")
        graph.remove_relationship("a", "c", "colleague")
        assert compile_graph(graph) is snapshot
        refreshed = snapshot.degree_statistics()
        assert refreshed is not stats
        assert refreshed[snapshot.label_id("friend")] == stats[snapshot.label_id("friend")]
        colleague = refreshed[snapshot.label_id("colleague")]
        assert (colleague.edges, colleague.max_out_degree, colleague.max_in_degree) == (
            2, 1, 2
        )
        assert snapshot.delta_events["degree_offsets_scanned"] == scanned

    def test_unregistered_entries_are_dropped_even_by_attribute_patches(self):
        graph = self._graph()
        snapshot = compile_graph(graph)
        snapshot.derived["probe"] = object()
        graph.update_user("a", age=32)
        assert compile_graph(graph) is snapshot
        assert "probe" not in snapshot.derived


class TestPinnedSnapshots:
    def test_pinned_snapshots_are_never_patched(self):
        graph = SocialGraph()
        for user in ("a", "b"):
            graph.add_user(user)
        graph.add_relationship("a", "b", "friend")
        snapshot = compile_graph(graph).pin()
        graph.add_user("c")
        rebuilt = compile_graph(graph)
        assert rebuilt is not snapshot
        assert "c" not in snapshot.node_index  # the pinned structure is frozen
        assert "c" in rebuilt.node_index
        assert not rebuilt.pinned  # the replacement re-enters the delta regime

    def test_cluster_build_pins_its_snapshot(self):
        graph = SocialGraph()
        for user in ("a", "b"):
            graph.add_user(user)
        graph.add_relationship("a", "b", "friend")
        evaluator = ClusterIndexEvaluator(graph).build()
        assert evaluator._index.snapshot.pinned
        build_time = evaluator._index.snapshot
        # Delta maintenance for the online backends must not disturb the
        # cluster backend's frozen build-time structure.
        graph.add_user("c")
        graph.add_relationship("b", "c", "friend")
        live = compile_graph(graph)
        assert live is not build_time
        assert "c" not in build_time.node_index
        from repro.policy.path_expression import PathExpression

        expression = PathExpression.parse("friend+[1,2]")
        # Stale-read semantics: the post-build edge stays invisible, and the
        # per-owner and batched paths agree on that.
        assert evaluator.find_targets("a", expression) == {"b"}
        assert evaluator.find_targets_many(["a", "c"], expression) == {
            "a": {"b"},
            "c": set(),
        }


class TestRowOverlay:
    """Edge patches live in the row overlay; only whole-graph reads fold."""

    def _patched(self):
        graph = preferential_attachment_graph(200, edges_per_node=3, seed=5)
        snapshot = compile_graph(graph)
        users = sorted(graph.users())
        rel = next(iter(graph.out_relationships(users[40])))
        graph.remove_relationship(rel.source, rel.target, rel.label)
        graph.add_relationship(users[1], users[2], "mentor")  # a brand-new label
        assert compile_graph(graph) is snapshot
        return graph, snapshot, rel

    def test_single_row_reads_and_counters_never_fold(self):
        graph, snapshot, rel = self._patched()
        label_id = snapshot.label_id(rel.label)
        source, target = snapshot.index_of(rel.source), snapshot.index_of(rel.target)
        assert target not in snapshot.out_neighbors(source, label_id)
        assert source not in snapshot.in_neighbors(target, label_id)
        assert snapshot.out_degree(source, label_id) == graph.out_degree(rel.source, rel.label)
        assert snapshot.in_degree(target, label_id) == graph.in_degree(rel.target, rel.label)
        assert snapshot.number_of_edges(label_id) == graph.number_of_relationships(rel.label)
        users = sorted(graph.users())
        mentor = snapshot.label_id("mentor")
        assert snapshot.number_of_edges(mentor) == 1
        assert list(snapshot.out_neighbors(snapshot.index_of(users[1]), mentor)) == [
            snapshot.index_of(users[2])
        ]
        snapshot.degree_statistics()
        assert snapshot.overlay_rows == 4
        assert snapshot.delta_events["label_compactions"] == 0
        assert snapshot.delta_events["fold_entries_copied"] == 0

    def test_whole_graph_reads_fold_and_earlier_row_views_stay_consistent(self):
        graph, snapshot, rel = self._patched()
        label_id = snapshot.label_id(rel.label)
        source = snapshot.index_of(rel.source)
        offsets, targets, overlay = snapshot.out_rows(label_id)
        before_bytes = snapshot.nbytes
        folded_offsets, folded_targets = snapshot.forward(label_id)
        assert snapshot.delta_events["label_compactions"] == 1
        assert snapshot.delta_events["fold_entries_copied"] == 2 * len(folded_targets)
        assert snapshot.out_rows(label_id)[2] == {} and overlay  # a *new* dict
        assert snapshot.nbytes < before_bytes  # the overlay was accounted for
        row = folded_targets[folded_offsets[source]:folded_offsets[source + 1]]
        assert sorted(row) == sorted(overlay[source])
        assert snapshot.overlay_rows == 2  # "mentor" was not asked for
        assert_snapshots_equivalent(snapshot, CompiledGraph(graph))

    def test_the_overlay_folds_once_it_outgrows_its_share_of_the_label(self):
        graph = preferential_attachment_graph(120, edges_per_node=3, seed=9)
        snapshot = compile_graph(graph)
        users = sorted(graph.users())
        rng = random.Random(3)
        peak = 0
        for _ in range(400):
            source, target = rng.sample(users, 2)
            if graph.has_relationship(source, target, "friend"):
                graph.remove_relationship(source, target, "friend")
            else:
                graph.add_relationship(source, target, "friend")
            assert compile_graph(graph) is snapshot
            peak = max(peak, snapshot.overlay_rows)
        friend = snapshot.label_id("friend")
        offsets, targets = snapshot._forward[friend]
        folds = snapshot.delta_events["label_compactions"]
        assert 1 <= folds < 400 // 4  # amortised: far fewer folds than ops
        assert peak * compiled._FOLD_SHARE <= 2 * (len(offsets) + len(targets))
        assert_snapshots_equivalent(snapshot, CompiledGraph(graph))

    def test_ops_out_of_sync_with_the_snapshot_abort_the_patch(self):
        graph = SocialGraph()
        for user in ("a", "b"):
            graph.add_user(user)
        graph.add_relationship("a", "b", "friend")
        for ops in (
            [("add_edge", "a", "b", "friend")],  # duplicate add
            [("remove_edge", "b", "a", "friend")],  # absent remove
        ):
            assert CompiledGraph(graph).apply_deltas(ops) is False

    def test_mutations_since_walks_only_the_delta(self):
        graph = preferential_attachment_graph(300, edges_per_node=3, seed=2)
        assert len(graph._journal) > 500
        mark = graph.epoch
        graph.update_user("u1", age=20)
        graph.add_user("late")
        graph.update_user("u1", age=21)  # merges: leaves a tombstoned slot behind
        before = graph.journal_entries_visited
        assert graph.mutations_since(mark) == [("add_user", "late"), ("update_user", "u1")]
        assert graph.journal_entries_visited - before == 4  # 3 slots + the stop entry


_WORK_COUNTERS = (
    "label_compactions",
    "fold_entries_copied",
    "degree_offsets_scanned",
    "journal_entries_visited",
)


def _burst_then_check_work(users: int):
    """One fixed-shape 32-op burst and the first ``check`` after it; returns
    the exact work it cost, the ``statistics()`` rows and the snapshots."""
    from repro.service import GraphService

    graph = preferential_attachment_graph(users, edges_per_node=3, seed=11)
    store = PolicyStore()
    store.share("u3", "album")
    store.add_rule(AccessRule.build("album", "u3", "friend*[1,2]/colleague*[1]"))
    service = GraphService(graph, store)
    service.check("u9", "album", explain=False)  # plans once: statistics are warm
    snapshot = compile_graph(graph)
    before = dict(snapshot.delta_events)

    names = [f"u{i}" for i in range(users)]
    for i in range(10):  # 10 removals of existing edges
        rel = next(iter(graph.out_relationships(names[50 + 13 * i])))
        graph.remove_relationship(rel.source, rel.target, rel.label)
    graph.add_user("fresh")
    for i in range(10):  # 10 adds (absent for sure: the source is new)
        graph.add_relationship("fresh", names[20 + i], "friend")
    for i in range(8):  # 8 attribute writes, half of them to one user
        graph.update_user(names[7 if i % 2 else 100 + i], age=30 + i)
    graph.add_user("passing")
    graph.add_relationship("passing", "u3", "colleague")
    graph.remove_user("passing")  # journals its one edge removal first

    service.check("u9", "album", explain=False)
    assert compile_graph(graph) is snapshot
    work = {
        name: snapshot.delta_events[name] - before[name] for name in _WORK_COUNTERS
    }
    return work, service.statistics(), snapshot, graph


def test_a_sub_threshold_burst_costs_the_same_work_at_any_graph_size():
    """The deterministic complexity guard: counts, not timings."""
    small, small_stats, _, _ = _burst_then_check_work(2000)
    large, large_stats, snapshot, graph = _burst_then_check_work(8000)
    assert small == large
    assert small["label_compactions"] == 0
    assert small["fold_entries_copied"] == 0
    assert small["degree_offsets_scanned"] == 0
    # 10 + 1 + 10 + 8 + 1 + 1 + 2 journal slots (3 of the 8 attribute writes
    # merged into an earlier marker and left its slot tombstoned — still
    # walked), plus the entry the walk stopped at.
    assert small["journal_entries_visited"] == 34
    for stats in (small_stats, large_stats):
        assert stats["snapshot_label_folds"] == 0.0
        assert stats["snapshot_delta_applies"] == 1.0
        assert stats["snapshot_overlay_rows"] > 0.0
    assert small_stats["snapshot_overlay_rows"] == large_stats["snapshot_overlay_rows"]
    assert_snapshots_equivalent(snapshot, CompiledGraph(graph))
